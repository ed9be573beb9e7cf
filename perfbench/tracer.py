"""Span tracing of sqbloch's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function at every module binding that
callers resolve (``protocols.fit_exp`` and ``estimation.fit_exp`` are the same
function bound twice), records one span per call while installed, and puts
every original back when removed.  Spans live in flat in-memory arrays and are
written out once, at the end of a run.  Per-pulse helpers (``apply_rotation``,
``read_component``) are not traced, which bounds the overhead.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

import numpy as np

# Public functions traced in each layer.  Classes and per-pulse helpers are
# left alone.
TRACED_FUNCTIONS = {
    "cli": ("main", "load_config"),
    "protocols": (
        "detuning_sweep",
        "gain_sweep",
        "ramsey",
        "run_sequence",
        "tomography_trajectory",
    ),
    "blochdyn": (
        "axis_timescales",
        "bloch_rhs",
        "decay_eigenrates",
        "frame_rotation",
        "polarization_propagator",
        "steady_state",
        "transverse_propagator_xy",
    ),
    "reservoir": (
        "attenuate",
        "eta_curve",
        "ideal_M",
        "thermal_from_population",
        "variances",
        "wigner",
        "wigner_grid_for",
    ),
    "polariton": (
        "apply_master_equation",
        "bloch_from_density",
        "build_hamiltonian",
        "density_from_bloch",
        "diagonalize_polaritons",
        "master_equation_rhs",
        "transmon_levels",
        "two_level_reduction",
    ),
    "estimation": (
        "estimate_moments",
        "fit_damped_sinusoid",
        "fit_exp",
        "infer_eta",
        "moments_from_decays",
        "reconstruct_wigner",
        "subtract_dephasing",
    ),
    "numerics": ("eigh", "fit_least_squares", "hermitian_defect", "integrate_ode"),
}
TRACED_METHODS = {"reservoir": (("WignerGrid", "to_csv"),)}

# Callable arguments whose invocations are counted, as (position, keyword,
# counter name): the ODE right-hand side and the least-squares model.
COUNTED_ARGS = {
    "numerics.integrate_ode": (0, "f", "rhs_evals"),
    "numerics.fit_least_squares": (0, "model", "model_evals"),
}

OP_SPAN = "bench.op"


def _fit_counters(result) -> dict[str, int]:
    return {"iterations": result.iterations, "not_converged": int(not result.converged)}


RESULT_COUNTERS = {"numerics.fit_least_squares": _fit_counters}


class Tracer:
    """Records spans (name, start, end, parent span, op id) of traced calls.

    Construct after ``sqbloch`` is imported.  Wrappers exist only inside
    :meth:`op`; outside it every binding holds the original function.
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = [OP_SPAN]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[int, dict[str, int]] = {}
        self._stack = [-1]
        self._op_id = -1
        # (owner, attribute, original, wrapper) for every binding.
        self._bindings: list[tuple[object, str, object, object]] = []
        self._discover()

    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _discover(self) -> None:
        modules = self._modules()
        for layer, funcs in TRACED_FUNCTIONS.items():
            module = getattr(self.package, layer)
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{layer}.{func}", original)
                owners = [
                    (m, attr)
                    for m in modules
                    for attr, value in vars(m).items()
                    if value is original
                ]
                for owner, attr in owners:
                    self._bindings.append((owner, attr, original, wrapper))
        for layer, methods in TRACED_METHODS.items():
            module = getattr(self.package, layer)
            for cls_name, meth in methods:
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", original)
                self._bindings.append((cls, meth, original, wrapper))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counted = COUNTED_ARGS.get(name)
        on_result = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_op.append(self._op_id)
            span_start.append(0.0)
            span_end.append(0.0)
            extra = None
            if counted is not None:
                extra = {counted[2]: 0}
                args, kwargs = _count_calls(args, kwargs, counted, extra)
            if on_result is not None and extra is None:
                extra = {}
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
                if extra is not None:
                    self.counters[idx] = extra
            if on_result is not None:
                extra.update(on_result(result))
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: install, record the root span, then uninstall."""
        self._op_id = op_id
        idx = len(self.span_name)
        for arr, value in (
            (self.span_name, 0),
            (self.span_parent, -1),
            (self.span_op, op_id),
            (self.span_start, 0.0),
            (self.span_end, 0.0),
        ):
            arr.append(value)
        self.install()
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.uninstall()
            self.span_start[idx] = start
            self.span_end[idx] = end

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (span minus child spans), counters."""
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_time, minlength=len(self.names))
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_sum[i])}
            for i, name in enumerate(self.names)
        }
        for idx, extra in self.counters.items():
            entry = out[self.names[names[idx]]]
            for key, value in extra.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: index, name, parent index, op id, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,op,start_s,end_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_op[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )


def _count_calls(args, kwargs, counted, extra):
    pos, key, counter = counted

    def wrap(fn):
        def counting(*a, **k):
            extra[counter] += 1
            return fn(*a, **k)

        return counting

    if key in kwargs:
        kwargs = dict(kwargs)
        kwargs[key] = wrap(kwargs[key])
    elif len(args) > pos:
        args = args[:pos] + (wrap(args[pos]),) + args[pos + 1 :]
    return args, kwargs
