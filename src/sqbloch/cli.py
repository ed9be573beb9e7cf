"""Command-line front end: one subcommand per experiment, deterministic
plot-ready file outputs (CSV and JSON, no rendering).

Configuration is a key-value file with nested sections (INI syntax); the
bundled ``data/paper.conf`` encodes the reference operating point and is read
when ``--config`` is omitted.  Exit codes: 0 success, 2 configuration errors
(with field-level messages, an ``--out`` that cannot be written included),
3 numerical failures naming the operation.  Each subcommand stages its
outputs in a dict (a JSON payload, or a zero-argument CSV encoder yielding
text blocks, per file) and returns its exit code and result line; ``main``
encodes the chosen JSON files, and the first block of each chosen CSV file,
when the subcommand returns, then writes each file under a temporary name, a
CSV file block by block as its encoder yields them, moves them all into
place, and only then prints the result line.  A
run that exits 2 or 3 prints nothing on stdout and moves no file into place:
an output file that is a directory, or a write that fails, exits 2 naming the
file, and on any failure the temporary files and the directories the run
created are removed (``validate`` returns 3 with its report and lines when a
criterion fails).
Re-running any subcommand with an identical configuration produces
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import json
import math
import os
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, fields, make_dataclass, replace
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import estimation, polariton, protocols, reservoir
from ._table import csv_blocks
from .blochdyn import DecayRates
from .errors import NumericalFailure, UnphysicalRatesError

__all__ = ["RunConfig", "load_config", "main"]


class ConfigError(Exception):
    def __init__(self, messages: list[str]):
        super().__init__("; ".join(messages))
        self.messages = messages


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _one_of(*choices):
    return (lambda v: v in choices, " or ".join(map(repr, choices)))


_REQUIRED = object()  # table default of a key that its section, when present, must set
_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "nonnegative and finite")

# Every config key once: section, key, cast, default and the domain rule as
# (test, what the value must be).  A rule of None leaves the value to the
# domain object that checks it on construction: TransmonCavityParams for the
# circuit, SqueezedReservoir for the moments.
_FIELDS = (
    ("system", "type", str, _REQUIRED, _one_of("direct", "polariton")),
    ("system", "t1_us", float, math.nan, _POSITIVE),
    ("system", "t_phi_us", float, math.inf, (lambda v: v > 0.0, "positive (inf: no dephasing)")),
    ("polariton", "e_c_ghz", float, _REQUIRED, None),
    ("polariton", "e_j_ghz", float, _REQUIRED, None),
    ("polariton", "omega_c_ghz", float, _REQUIRED, None),
    ("polariton", "g_ghz", float, _REQUIRED, None),
    ("polariton", "n_transmon", int, None, None),
    ("polariton", "n_photon", int, None, None),
    ("polariton", "n_charge", int, None, None),
    ("polariton", "gamma_over_2pi_mhz", float, None, _POSITIVE),
    ("reservoir", "n", float, 0.0, None),
    # m is |M|; SqueezedReservoir takes a complex M and names a NaN or inf m.
    ("reservoir", "m", float, 0.0, (lambda v: not v < 0.0, "nonnegative")),
    ("reservoir", "bandwidth_mhz", float, 13.0, None),
    ("reservoir", "n_th", float, 0.0, _NONNEGATIVE),
    ("reservoir", "eta", float, 1.0, (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    ("reservoir", "omega0_ghz", float, None, _FINITE),
    ("protocol", "omega_mod_mhz", float, 5.0, _POSITIVE),
    ("protocol", "t_max_us", float, 5.0, _POSITIVE),
    ("protocol", "n_samples", int, 201,
     (lambda v: v >= estimation.MIN_SAMPLES, f"at least {estimation.MIN_SAMPLES}")),
    ("protocol", "phi_grid_pi", _float_list, (0.5, 1.0),
     (lambda v: v and all(map(math.isfinite, v)), "a non-empty list of finite numbers")),
    ("protocol", "delta_max_mhz", float, 2.0, _FINITE),
    ("protocol", "delta_points", int, 21, _AT_LEAST_1),
    ("protocol", "n_max", float, 3.0, _NONNEGATIVE),
    ("protocol", "n_points", int, 25, _AT_LEAST_1),
    ("protocol", "prep_theta_pi", float, 0.67, _FINITE),
    ("protocol", "prep_phi_pi", float, 0.83, _FINITE),
    ("output", "formats", str, "both", _one_of("csv", "json", "both")),
    ("estimate", "trace_x", str, None, None),
    ("estimate", "trace_z", str, None, None),
)
_KEYS = {section: {k for s, k, *_ in _FIELDS if s == section} for section, *_ in _FIELDS}
_ONE_SYSTEM = "exactly one system specification is allowed"
# The seven [polariton] circuit keys, each with the TransmonCavityParams field it sets.
_CIRCUIT = {"e_c_ghz": "E_C", "e_j_ghz": "E_J", "omega_c_ghz": "omega_c", "g_ghz": "g",
            "n_transmon": "n_transmon", "n_photon": "n_photon", "n_charge": "n_charge"}
RunConfig = make_dataclass(
    "RunConfig",
    [key for _, key, *_ in _FIELDS if key not in _CIRCUIT] + ["polariton_params"],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": """Validated run configuration,
    built from ``_FIELDS``: each key, in table order, is a field of its name
    holding the file's value (a relative trace path resolved against the
    file's directory), except the circuit keys of ``_CIRCUIT``, which build
    the last field, ``polariton_params`` (None without a [polariton] section).
    Each subcommand derives its grids and radians.

    Exactly one dynamics source is active: direct rates (``t1_us`` etc.) or a
    polariton-derived calibration.  The [polariton] section may coexist with
    direct rates to serve the spectrum subcommand.
    """},
)


def load_config(path: str | Path | None) -> RunConfig:
    """Parse and validate a UTF-8 configuration file, a leading byte-order
    mark ignored (the bundled ``data/paper.conf`` when None).

    Relative ``[estimate]`` trace paths resolve against the file's directory;
    a key or section outside ``_FIELDS`` is an error, ``[DEFAULT]`` included.
    """
    parser = configparser.ConfigParser(  # "" is no header: [DEFAULT] is a plain section
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    path = Path(__file__).with_name("data") / "paper.conf" if path is None else Path(path)
    where = f"config file {path}"
    try:
        parser.read_string(path.read_text(encoding="utf-8-sig"), source=str(path))
    except FileNotFoundError:
        raise ConfigError([f"{where} does not exist"]) from None
    except OSError as exc:
        raise ConfigError([f"{where}: {exc.strerror}"]) from None
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError([f"{where}: {' '.join(str(exc).split())}"]) from None

    has = parser.has_option
    errors = [] if parser.has_section("system") else [f"{where}: missing [system] section"]
    v = {}
    for section, key, cast, default, rule in _FIELDS:
        v[key] = None if default is _REQUIRED else default
        if not has(section, key):
            if default is _REQUIRED and parser.has_section(section):
                errors.append(f"[{section}] is missing '{key}'")
            continue
        raw = parser.get(section, key)
        try:
            value = cast(raw)
        except ValueError:
            kind = cast.__name__.strip("_").replace("_", " ")
            errors.append(f"[{section}] {key} must be a valid {kind}, got {raw!r}")
            continue
        if rule is not None and not rule[0](value):
            errors.append(f"[{section}] {key} must be {rule[1]}, got {raw!r}")
            continue
        v[key] = value
    for section in parser.sections():
        if section not in _KEYS:
            errors.append(f"[{section}] is not a known section")
            continue
        for key in parser.options(section):
            if (section, key) == ("system", "gamma_over_2pi_mhz"):
                errors.append(f"[system] {key} belongs to [polariton]; {_ONE_SYSTEM}")
            elif key not in _KEYS[section]:
                errors.append(f"[{section}] {key} is not a known key")

    # A subnormal sample step leaves too few distinct times to fit; estimate
    # also samples t_max_us / 3.
    t_max, n = v["t_max_us"], v["n_samples"]
    if any(t / (n - 1) < sys.float_info.min for t in (t_max, t_max / 3.0)):
        raw = parser.get("protocol", "t_max_us")
        errors.append(f"[protocol] t_max_us must be large enough for {n} times, got {raw!r}")
    if v["type"] == "direct" and not has("system", "t1_us"):
        errors.append("[system] is missing 't1_us'")
    if v["type"] == "polariton":
        if not parser.has_section("polariton"):
            errors.append("[system] type = polariton but no [polariton] section")
        if not has("polariton", "gamma_over_2pi_mhz"):
            errors.append("[polariton] gamma_over_2pi_mhz is required for type = polariton")
        if has("system", "t1_us"):
            errors.append(f"[system] t1_us conflicts with type = polariton; {_ONE_SYSTEM}")
    traces = [k for k in ("trace_x", "trace_z") if v[k] is not None]
    if len(traces) == 1:
        missing = "trace_z" if traces == ["trace_x"] else "trace_x"
        errors.append(f"[estimate] {missing} is not set; give both traces or neither")

    v["polariton_params"] = None
    if parser.has_section("polariton"):
        # An unset key takes the class default.
        circuit = {name: v[k] for k, name in _CIRCUIT.items() if v[k] is not None}
        try:
            v["polariton_params"] = polariton.TransmonCavityParams(**circuit)
        except ValueError as exc:
            errors.append(f"[polariton] invalid parameters: {exc}")
    try:
        reservoir.SqueezedReservoir(v["n"], v["m"], bandwidth=v["bandwidth_mhz"])
    except ValueError as exc:
        errors.append(f"[reservoir] invalid moments: {exc}")
    if errors:
        raise ConfigError(errors)

    for k in traces:
        v[k] = str(path.parent / v[k])
    return RunConfig(**{f.name: v[f.name] for f in fields(RunConfig)})


def _polariton_system(cfg: RunConfig):
    if cfg.polariton_params is None:
        raise ConfigError(["[polariton] section required for this subcommand"])
    h = polariton.build_hamiltonian(cfg.polariton_params)
    return polariton.diagonalize_polaritons(h, cfg.polariton_params)


def _rates(cfg: RunConfig) -> DecayRates:
    """Dynamics rates from whichever system specification is active."""
    if cfg.type == "direct":
        return DecayRates.from_times(
            T1=cfg.t1_us, T_phi=cfg.t_phi_us, N=cfg.n, M=cfg.m
        )
    system = _polariton_system(cfg)
    i_minus = system.index_of("-")
    omega0 = cfg.omega0_ghz
    if omega0 is None:  # the squeezer defaults to resonance
        omega0 = system.transition_frequency(0, i_minus)
    resv = reservoir.SqueezedReservoir(N=cfg.n, M=cfg.m, omega0=omega0, bandwidth=cfg.bandwidth_mhz)
    base = 2.0 * math.pi * cfg.gamma_over_2pi_mhz / abs(system.A[0, i_minus]) ** 2
    rates = polariton.two_level_reduction(system, base, resv)
    return replace(rates, gamma_phi=1.0 / cfg.t_phi_us)


def _t1_of(cfg: RunConfig, rates: DecayRates) -> float:
    return cfg.t1_us if cfg.type == "direct" else 1.0 / rates.gamma


def _json_text(name: str, payload) -> str:
    """The text of JSON output ``name``; NaN or inf is a failure naming it."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or inf: no JSON number holds it
        raise NumericalFailure(f"{name} would hold a non-finite value: {exc}") from None
    return text + "\n"


def _polariton_payload(system) -> dict:
    """The ``polariton.json`` payload of a diagonalised system."""
    f_minus = system.transition_frequency(0, system.index_of("-"))
    f_plus = system.transition_frequency(0, system.index_of("+"))
    return {
        "energies_ghz": system.energies.tolist(),
        "A_abs": [[abs(x) for x in row] for row in system.A.tolist()],
        "labels": list(system.labels),
        "g_to_minus_ghz": f_minus,
        "g_to_plus_ghz": f_plus,
        "splitting_mhz": (f_plus - f_minus) * 1e3,
    }


def _levels_csv(system) -> Iterator[str]:
    rows = (f"{k},{x},{e:.9g}\n" for k, (x, e) in enumerate(zip(system.labels, system.energies)))
    yield "#schema=polariton-levels-v1\nlevel,label,energy_ghz\n" + "".join(rows)


def _cmd_polariton(cfg: RunConfig, out: dict) -> tuple[int, str]:
    system = _polariton_system(cfg)
    payload = _polariton_payload(system)
    f_minus, splitting = payload["g_to_minus_ghz"], payload["splitting_mhz"]
    out["polariton.json"] = payload
    out["polariton.csv"] = partial(_levels_csv, system)
    from . import acceptance  # the paper's spectrum targets

    ok_freq = abs(f_minus - acceptance.F_MINUS_GHZ) * 1e3 <= acceptance.F_MINUS_TOL_MHZ
    ok_split = abs(splitting - acceptance.SPLITTING_MHZ) <= acceptance.SPLITTING_TOL_MHZ
    return 0, (
        f"g->- transition: {f_minus:.4f} GHz ({'ok' if ok_freq else 'off'})\n"
        f"polariton splitting: {splitting:.1f} MHz ({'ok' if ok_split else 'off'})"
    )


def _cmd_ramsey(cfg: RunConfig, out: dict) -> tuple[int, str]:
    rates_on = _rates(cfg)
    rates_off = replace(rates_on, N=0.0, M_abs=0.0)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    summary = {"omega_mod_mhz": cfg.omega_mod_mhz, "phi_grid_pi": list(cfg.phi_grid_pi)}
    keys, traces = [], []  # in (phase, off/on) order, fitted as one stack
    for idx, phi_pi in enumerate(cfg.phi_grid_pi):
        for rates, tag in ((rates_off, "off"), (rates_on, "on")):
            sz = protocols.ramsey(rates, phi_pi * math.pi, cfg.omega_mod_mhz, t)
            table = partial(csv_blocks, "ramsey-trace-v1", "t_us,sz", t, sz)
            out[f"ramsey_{tag}_phi{idx:02d}.csv"] = table
            keys.append((f"{tag}_phi{idx:02d}", phi_pi))
            traces.append(sz)
    fits = {}
    stack = estimation.fit_damped_sinusoid(t, np.array(traces), cfg.omega_mod_mhz)
    for (key, phi_pi), fit in zip(keys, stack):
        if isinstance(fit, Exception):
            raise fit  # the first failing trace's error
        fits[key] = {"phi_pi": phi_pi, "T_us": fit.T, "amplitude": fit.amplitude,
                     "phase_rad": fit.phase, "converged": fit.converged}
    out["ramsey_summary.json"] = summary | {"fits": fits}
    off_times = [v["T_us"] for k, v in fits.items() if k.startswith("off")]
    return 0, f"squeezing off: mean fitted T2* = {np.mean(off_times):.4f} us"


def _check_decay_times(fits: dict) -> None:
    """Refuse a fitted decay time, of each named fit, that is not positive
    and finite."""
    for k, fit in fits.items():
        if not (math.isfinite(fit.T) and fit.T > 0.0):
            raise UnphysicalRatesError(
                f"fitted {k} = {fit.T:.6g} us is not a positive, finite decay time"
            )


def _cmd_trajectory(cfg: RunConfig, out: dict) -> tuple[int, str]:
    rates = _rates(cfg)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    prep = (cfg.prep_theta_pi * math.pi, cfg.prep_phi_pi * math.pi)
    traj = protocols.tomography_trajectory(rates, prep, t)
    out["trajectory.csv"] = partial(csv_blocks, "bloch-trajectory-v1", "t_us,sx,sy,sz", t, traj)
    fit = estimation.fit_exp(t, traj[:, 2])
    _check_decay_times({"Tz": fit})
    out["trajectory_summary.json"] = {
        "prep_theta_pi": cfg.prep_theta_pi,
        "prep_phi_pi": cfg.prep_phi_pi,
        "Tz_us": fit.T,
        "sz_steady": fit.offset,
        "final_state": dict(zip(("sx", "sy", "sz"), traj[-1].tolist())),
    }
    return 0, f"fitted Tz = {fit.T:.4f} us, steady <sz> = {fit.offset:.4f}"


def _cmd_wigner(cfg: RunConfig, out: dict) -> tuple[int, str]:
    resv = reservoir.SqueezedReservoir(N=cfg.n, M=cfg.m, bandwidth=cfg.bandwidth_mhz)
    v = reservoir.variances(resv)
    grid = reservoir.wigner_grid_for(v)
    out["wigner.csv"] = grid.csv_blocks
    out["wigner_summary.json"] = {
        "sigmaI_sq": v.sigmaI_sq,
        "sigmaQ_sq": v.sigmaQ_sq,
        "peak": float(grid.values.max()),
        "integral": grid.integral(),
    }
    return 0, f"variances: sigma_I^2 = {v.sigmaI_sq:.4f}, sigma_Q^2 = {v.sigmaQ_sq:.4f}"


def _trace_grid_csv(labels, t, traces) -> Iterator[str]:
    header = "t_us," + ",".join(f"delta_{label}" for label in labels)
    return csv_blocks("detuning-trace-grid-v1", header, t, *traces)


def _cmd_sweep_detuning(cfg: RunConfig, out: dict) -> tuple[int, str]:
    deltas = np.linspace(-cfg.delta_max_mhz, cfg.delta_max_mhz, cfg.delta_points)
    labels = [f"{d:+.4g}" for d in deltas]  # keys the summary and the trace-grid columns
    repeated = [label for label, k in Counter(labels).items() if k > 1]
    if repeated:  # more points than 4 significant digits tell apart
        raise ConfigError([f"[protocol] delta_points = {len(deltas)} repeats label {repeated[0]}"])
    rates = _rates(cfg)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    traces, T_eff, converged = protocols.detuning_sweep(
        rates, deltas, (0.5 * math.pi, math.pi), t, omega_mod=cfg.omega_mod_mhz
    )
    summary = {}
    header = "delta_mhz,T_eff_us,converged"
    for i, tag in enumerate("xy"):
        table = partial(csv_blocks, "detuning-sweep-v1", header, deltas, T_eff[i], converged[i])
        out[f"detuning_t{tag}.csv"] = table
        out[f"detuning_traces_{tag}.csv"] = partial(_trace_grid_csv, labels, t, traces[i])
        summary[tag] = {
            label: (T if math.isfinite(T) else None)
            for label, T in zip(labels, T_eff[i].tolist())
        }
    out["detuning_summary.json"] = summary
    return 0, f"swept {len(deltas)} detunings for both prep axes"


def _cmd_sweep_gain(cfg: RunConfig, out: dict) -> tuple[int, str]:
    rates = _rates(cfg)
    t1 = _t1_of(cfg, rates)
    header = "N,M,Tx_us,Ty_us,Tz_us,M_minus_N"
    n_grid = np.linspace(0.0, cfg.n_max, cfg.n_points)
    rows = protocols.gain_sweep(n_grid, cfg.eta, t1, cfg.t_phi_us)
    out["gain_sweep.csv"] = partial(csv_blocks, "gain-sweep-v1", header, rows)
    ideal = protocols.gain_sweep(n_grid, 1.0, t1, cfg.t_phi_us)
    out["gain_sweep_ideal.csv"] = partial(csv_blocks, "gain-sweep-v1", header, ideal)
    out["gain_summary.json"] = {
        "eta": cfg.eta,
        "rows": [dict(zip(("N", "M", "Tx", "Ty", "Tz"), row)) for row in rows[:, :5].tolist()],
    }
    return 0, f"swept {len(rows)} gain points at eta = {cfg.eta}"


def _read_trace_csv(key: str, path: Path):
    """Two-column UTF-8 ``t_us,value`` trace named by ``[estimate] key``: past a
    byte-order mark, blank or whitespace-only lines, ``#`` comments and one
    header line before the data (either may be indented), every row must be
    two finite numbers, each time after the one before, at least
    ``estimation.MIN_SAMPLES`` rows; a message quotes the line as written."""
    where = f"[estimate] {key} = {str(path)!r}"
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError([f"{where}: {exc.strerror}"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{where}: {exc}"]) from None
    lines = [(n, s) for n, s in enumerate(text.splitlines(), 1) if s.lstrip()[:1] not in ("", "#")]
    rows: list[tuple[float, float]] = []
    for k, (lineno, line) in enumerate(lines):
        try:
            a, b = line.split(",")
            tk, yk = float(a), float(b)
        except ValueError:
            if k == 0 and line.lstrip()[0].isalpha():
                continue  # the header line
            msg = f"{where}: line {lineno} ({line!r}) is not a pair of numbers"
            raise ConfigError([msg]) from None
        if not (math.isfinite(tk) and math.isfinite(yk)):
            raise ConfigError([f"{where}: line {lineno} ({line!r}) is not finite"])
        if rows and tk <= rows[-1][0]:
            msg = f"{where}: line {lineno} ({line!r}) is not later than the row before"
            raise ConfigError([msg])
        rows.append((tk, yk))
    if len(rows) < estimation.MIN_SAMPLES:
        msg = f"{where}: {len(rows)} data rows, need at least {estimation.MIN_SAMPLES}"
        raise ConfigError([msg])
    t, y = zip(*rows)
    return np.asarray(t), np.asarray(y)


def _cmd_estimate(cfg: RunConfig, out: dict) -> tuple[int, str]:
    """Inverse pipeline on supplied or simulated traces.

    Simulated traces model the measured environment: the configured (n, m)
    are the squeezed-source moments, the thermal floor adds to the bath, and
    the configured T1 is the thermally reduced value.  The inversion then
    recovers the source moments, exercising the same bookkeeping used on
    measured data.
    """
    rates = _rates(cfg)
    t1 = _t1_of(cfg, rates)
    supplied = cfg.trace_x is not None  # load_config requires both or neither
    if supplied:
        tx_t, tx_y = _read_trace_csv("trace_x", Path(cfg.trace_x))
        tz_t, tz_y = _read_trace_csv("trace_z", Path(cfg.trace_z))
        fits = {
            "Tx": estimation.fit_damped_sinusoid(tx_t, tx_y, cfg.omega_mod_mhz),
            "Tz": estimation.fit_exp(tz_t, tz_y),
        }
    else:
        gamma_int = 1.0 / (t1 * (2.0 * cfg.n_th + 1.0))
        rates = DecayRates(gamma_int, rates.gamma_phi, N=cfg.n + cfg.n_th, M_abs=cfg.m)
        # Squeezer off leaves the thermal floor in the bath.
        rates_off = replace(rates, N=cfg.n_th, M_abs=0.0)
        t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
        t_short = np.linspace(0.0, cfg.t_max_us / 3.0, cfg.n_samples)

        def ramsey_fit(r: DecayRates, phi: float, tt: np.ndarray):
            sz = protocols.ramsey(r, phi, cfg.omega_mod_mhz, tt)
            return estimation.fit_damped_sinusoid(tt, sz, cfg.omega_mod_mhz)

        traj = protocols.tomography_trajectory(rates, (math.pi, 0.0), t)
        # Ty and T2* complete the decay table for the summary.
        fits = {
            "Tx": ramsey_fit(rates, 0.5 * math.pi, t),
            "Ty": ramsey_fit(rates, math.pi, t_short),
            "Tz": estimation.fit_exp(t, traj[:, 2]),
            "T2_star": ramsey_fit(rates_off, 0.5 * math.pi, t),
        }
    _check_decay_times(fits)
    tx, tz = fits["Tx"].T, fits["Tz"].T
    est = estimation.estimate_moments(t1, cfg.t_phi_us, tx, tz, cfg.n_th)
    summary = asdict(est) | {
        "source": "supplied" if supplied else "simulated",
        "Tx_us": tx,
        "Tz_us": tz,
        "Tx_tilde_us": estimation.subtract_dephasing(tx, cfg.t_phi_us),
    }
    if not supplied:
        summary["decay_estimate"] = {f"{k}_us": fit.T for k, fit in fits.items()} | {
            "stderr_us": {k: fit.T_stderr for k, fit in fits.items()},
            # The trace behind each fit, in the order of ``fits``.
            "source": ["ramsey_x_on", "ramsey_y_on", "tomography_z", "ramsey_x_off"],
        }
    out["moments.json"] = summary
    try:
        grid = estimation.reconstruct_wigner(est)
    except ValueError as exc:  # |M|^2 > N(N+1): no Gaussian state has them
        raise UnphysicalRatesError(
            f"Wigner reconstruction from N = {est.N:.6g}, M = {est.M:.6g}: {exc}"
        ) from None
    out["wigner_reconstructed.csv"] = grid.csv_blocks
    return 0, (
        f"estimated N = {est.N:.4f}, M = {est.M:.4f}"
        + (f", eta = {est.eta_inferred:.3f}" if est.eta_inferred else "")
    )


def _cmd_validate(cfg: RunConfig, out: dict) -> tuple[int, str]:
    from . import acceptance  # only this subcommand pays for its import

    results = acceptance.run_all()
    passed = all(r.passed for r in results)
    out["validate.json"] = {"all_passed": passed, "criteria": [asdict(r) for r in results]}
    return 0 if passed else 3, "\n".join(r.summary_line() for r in results)


COMMANDS = {
    "polariton": _cmd_polariton,
    "ramsey": _cmd_ramsey,
    "trajectory": _cmd_trajectory,
    "wigner": _cmd_wigner,
    "sweep-detuning": _cmd_sweep_detuning,
    "sweep-gain": _cmd_sweep_gain,
    "estimate": _cmd_estimate,
    "validate": _cmd_validate,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqbloch",
        description="Radiative decay in squeezed vacuum: simulation and estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file (bundled default)")
        p.add_argument("--out", default="sqbloch_out", help="output directory")
        p.add_argument(
            "--format", default=None, choices=["csv", "json", "both"],
            help="override [output] formats",
        )
    return parser


def _write_blocks(path: Path, blocks) -> None:
    """Write the text ``blocks`` one after another into a new file ``path``."""
    with path.open("w", encoding="utf-8") as f:
        f.writelines(blocks)


def _started(blocks: Iterator[str]) -> Iterator[str]:
    """``blocks`` with its first two, a CSV file's header and first block of
    rows, encoded now."""
    head = list(islice(blocks, 2))
    return chain(head, blocks)


def _write_outputs(out: str, files: dict) -> None:
    """Write ``files`` (name -> iterable of text blocks) into the ``--out``
    directory ``out``.

    Each file is written under a temporary name, and all are moved into
    place once every one is written; no file can replace a directory.  On
    any exception the temporary files and the directories made on the way
    are removed, and an ``OSError`` becomes a :class:`ConfigError` naming
    the file.
    """
    out_dir = Path(out)
    where, created, staged = f"--out {out}", [], []
    try:
        if files:  # make each missing directory on the way, "x" of "x/../y" too
            for directory in reversed((out_dir, *out_dir.parents)):
                if not directory.exists():
                    directory.mkdir()
                    created.insert(0, directory)  # deepest first, to remove
            out_dir.mkdir(exist_ok=True)  # an existing file is refused
        for name in files:
            if (out_dir / name).is_dir():
                where = f"--out {out}: {name}"
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for name, blocks in files.items():
            where = f"--out {out}: {name}"
            staged.append(out_dir / f".{name}.{os.getpid()}.tmp")
            _write_blocks(staged[-1], blocks)
        for temporary, name in zip(staged, files):
            where = f"--out {out}: {name}"
            os.replace(temporary, out_dir / name)
    except BaseException as exc:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        for directory in created:
            directory.rmdir()
        if isinstance(exc, OSError):
            raise ConfigError([f"{where}: {exc.strerror}"]) from None
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out: dict = {}  # file name -> CSV encoder or JSON payload, in staging order
    try:
        cfg = load_config(args.config)
        code, result_line = COMMANDS[args.command](cfg, out)
        formats = args.format or cfg.formats
        # Every JSON file, and the header and first block of rows of every
        # CSV file, is encoded before the first file is created; the rest of
        # a CSV file is encoded as it is written.  Creating and writing a
        # file right after an encoder run took about twice as long (2-vCPU
        # Xeon VM), so tables of one block are written together.
        files = {
            name: _started(value()) if name.endswith(".csv") else (_json_text(name, value),)
            for name, value in out.items()
            if formats in ("both", name.rsplit(".", 1)[1])
        }
        _write_outputs(args.out, files)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(
            f"numerical failure in '{args.command}': {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    print(result_line)
    return code


if __name__ == "__main__":
    sys.exit(main())
