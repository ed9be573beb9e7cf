"""The three workloads: seeded input generation, one op, and its check.

Inputs are made with numpy alone, from the seed, so they do not change when
sqbloch does.  Each workload is a closed loop with one client: one op starts
when the previous one has ended, as for a user waiting on each CLI run or
script step.

* ``sweep`` is the forward simulation (``sqbloch sweep-detuning``), where the
  protocol and Bloch-dynamics layers do nearly all the work.
* ``polariton`` is the multi-level master equation against its two-level
  reduction through the public API, where ``numerics.eigh`` and the ODE path
  do the work and the protocol layer is never called.
* ``inverse`` is ``sqbloch estimate`` on exact traces, where input parsing,
  the least-squares fits and the Wigner grid output do the work.  Noisy
  finite-shot traces make some ``estimate`` runs fail (a known defect), so
  they are run once per benchmark run, untimed, as a separate probe.

An op returns a failure kind or ``None``, plus a digest of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Failure kinds, counted separately.
EXIT2 = "exit2"
EXIT3 = "exit3"
EXCEPTION = "exception_or_exit1"
CHECK = "check"

CHECK_TOL = 1e-6
# The outputs of the first ops of a run, in op order, go into its sha256.
DIGEST_OPS = 8
N_SAMPLES = 201
T_MAX_US = 5.0
OMEGA_MOD_MHZ = 5.0


def ideal_m(n: float) -> float:
    return math.sqrt(n * (n + 1.0))


def _digest_files(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cli_outcome(code) -> str | None:
    return {0: None, 2: EXIT2, 3: EXIT3}.get(code, EXCEPTION)


def _read_csv_rows(path: Path) -> list[list[float]]:
    rows = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#") and not line[0].isalpha():
            rows.append([float(x) for x in line.split(",")])
    return rows


class Sweep:
    """``sqbloch sweep-detuning`` on seeded direct rates.

    201 samples and a 7-point detuning grid symmetric about zero, so delta = 0
    is always a grid point (to rounding).  The fitted T at delta = 0 is checked against the
    closed-form axis timescales.
    """

    pool_size = 8
    delta_points = 7

    def generate(self, rng: np.random.Generator, work_dir: Path) -> list[dict]:
        inputs = []
        for k in range(self.pool_size):
            t1 = float(rng.uniform(0.4, 0.9))
            t_phi = float(rng.uniform(4.0, 10.0))
            n = float(rng.uniform(0.3, 1.5))
            m = float(rng.uniform(0.5, 1.0)) * ideal_m(n)
            delta_max = float(rng.uniform(1.0, 2.5))
            config = work_dir / f"sweep_{k:03d}.conf"
            config.write_text(
                "[system]\ntype = direct\n"
                f"t1_us = {t1!r}\nt_phi_us = {t_phi!r}\n"
                f"[reservoir]\nn = {n!r}\nm = {m!r}\n"
                f"[protocol]\nomega_mod_mhz = {OMEGA_MOD_MHZ}\nt_max_us = {T_MAX_US}\n"
                f"n_samples = {N_SAMPLES}\ndelta_max_mhz = {delta_max!r}\n"
                f"delta_points = {self.delta_points}\n"
                "[output]\nformats = both\n"
            )
            inputs.append(
                {"config": str(config), "t1": t1, "t_phi": t_phi, "n": n, "m": m}
            )
        return inputs

    def call(self, sq, inp: dict, out_dir: Path):
        return sq.cli.main(
            ["sweep-detuning", "--config", inp["config"], "--out", str(out_dir)]
        )

    def check(self, sq, inp: dict, code, out_dir: Path) -> tuple[str | None, str]:
        digest = _digest_files(out_dir)
        kind = _cli_outcome(code)
        if kind is not None:
            return kind, digest
        gamma = 1.0 / inp["t1"]
        gamma_phi = 1.0 / inp["t_phi"]
        expected = {
            "x": 1.0 / (gamma * (inp["n"] - inp["m"] + 0.5) + gamma_phi),
            "y": 1.0 / (gamma * (inp["n"] + inp["m"] + 0.5) + gamma_phi),
        }
        for axis, t_exp in expected.items():
            rows = _read_csv_rows(out_dir / f"detuning_t{axis}.csv")
            if len(rows) != self.delta_points:
                return CHECK, digest
            # The CLI's linspace grid can put the middle point at -2.2e-16.
            delta, t_fit, _ = min(rows, key=lambda r: abs(r[0]))
            if abs(delta) > 1e-12 or not abs(t_fit - t_exp) <= CHECK_TOL * t_exp:
                return CHECK, digest
        return None, digest


class Polariton:
    """Dressed spectrum, two-level reduction and master-equation solves at
    the cutoff ``n_transmon = 8, n_photon = 12`` (dimension 96).

    Circuits scale the paper's energies by one common factor in [0.95, 1.10],
    with +-0.5% jitter on E_C, E_J and omega_c and up to +10% on g.
    Independent +-10% draws of the four energies put another transition within
    the 65 MHz guard of the squeezed one in most draws, where
    ``two_level_reduction`` rightly refuses with MultiTransitionError.
    """

    # Op cost varies by input (RHS evaluations per solve), so the pool is
    # larger than the ops of one run: each run samples many inputs.
    pool_size = 32
    detunings = 3
    paper = {"E_C": 0.208, "E_J": 23.27, "omega_c": 6.0456, "g": 0.126}
    t_eval = np.linspace(0.0, T_MAX_US, 11)

    def generate(self, rng: np.random.Generator, work_dir: Path) -> list[dict]:
        inputs = []
        for _ in range(self.pool_size):
            scale = float(rng.uniform(0.95, 1.10))
            jitter = rng.uniform(-0.005, 0.005, 3)
            n = float(rng.uniform(0.3, 1.2))
            inputs.append(
                {
                    "E_C": self.paper["E_C"] * scale * (1.0 + jitter[0]),
                    "E_J": self.paper["E_J"] * scale * (1.0 + jitter[1]),
                    "omega_c": self.paper["omega_c"] * scale * (1.0 + jitter[2]),
                    "g": self.paper["g"] * scale * float(rng.uniform(1.0, 1.1)),
                    "N": n,
                    "M": float(rng.uniform(0.5, 1.0)) * ideal_m(n),
                    "detunings_mhz": [float(d) for d in rng.uniform(-1.0, 1.0, self.detunings)],
                    "bloch0": [float(v) for v in rng.uniform(-0.5, 0.5, 3)],
                }
            )
        return inputs

    def call(self, sq, inp: dict, out_dir: Path):
        pol, res = sq.polariton, sq.reservoir
        params = pol.TransmonCavityParams(
            E_C=inp["E_C"],
            E_J=inp["E_J"],
            omega_c=inp["omega_c"],
            g=inp["g"],
            n_transmon=8,
            n_photon=12,
        )
        system = pol.diagonalize_polaritons(pol.build_hamiltonian(params), params)
        i_minus = system.index_of("-")
        f_minus = system.transition_frequency(0, i_minus)
        base = 2.0 * math.pi * 0.24 / abs(system.A[0, i_minus]) ** 2
        solves = []
        for d in inp["detunings_mhz"]:
            resv = res.SqueezedReservoir(
                N=inp["N"], M=inp["M"], omega0=f_minus + d * 1e-3, bandwidth=13.0
            )
            rates = pol.two_level_reduction(system, base, resv)
            rhs = pol.master_equation_rhs(system, resv, base)
            dim = rhs.dimension
            sol = sq.numerics.integrate_ode(
                lambda t, y, rhs=rhs, dim=dim: pol.apply_master_equation(
                    rhs, y.reshape(dim, dim), t
                ).ravel(),
                pol.density_from_bloch(inp["bloch0"], dim, j=i_minus).ravel(),
                (0.0, T_MAX_US),
                tol=1e-10,
                t_eval=self.t_eval,
            )
            solves.append((rates, sol))
        return system, i_minus, solves

    def check(self, sq, inp: dict, result, out_dir: Path) -> tuple[str | None, str]:
        system, i_minus, solves = result
        h = hashlib.sha256(np.ascontiguousarray(system.energies).tobytes())
        s0 = np.asarray(inp["bloch0"])
        kind = None
        for rates, sol in solves:
            h.update(np.ascontiguousarray(sol.y).tobytes())
            dim = int(math.isqrt(sol.y.shape[1]))
            rz = rates.gamma * (2.0 * rates.N + 1.0)
            sz_ss = rates.gamma / rz
            for tk, yk in zip(sol.t, sol.y):
                got = sq.polariton.bloch_from_density(yk.reshape(dim, dim), j=i_minus)
                xy = sq.blochdyn.frame_rotation(rates, tk) @ (
                    sq.blochdyn.transverse_propagator_xy(rates, tk) @ s0[:2]
                )
                z = sz_ss + (s0[2] - sz_ss) * math.exp(-rz * tk)
                if not np.abs(got - np.array([xy[0], xy[1], z])).max() <= CHECK_TOL:
                    kind = CHECK
        return kind, h.hexdigest()


class Inverse:
    """``sqbloch estimate`` on generated ``trace_x``/``trace_z`` CSV files.

    The timed ops read the closed-form decays, written to 9 significant
    digits, and are checked against the true (N, M) to ``CHECK_TOL``.  The
    probe adds binomial projection noise at a seeded shot count in
    [200, 5000]; there some z fits return T <= 0 and ``estimate`` fails with
    exit 1 (1-2% of inputs, most at low shot counts), so a timed run of such
    ops would have a failure count that varies with the number of ops run.
    Probe ops need only exit 0 with finite N and M.
    """

    pool_size = 128
    probe_size = 32
    shots = (200, 5000)

    def generate(self, rng: np.random.Generator, work_dir: Path) -> list[dict]:
        return [
            self._input(rng, work_dir, f"inverse_{k:03d}", None) for k in range(self.pool_size)
        ]

    def generate_probe(self, rng: np.random.Generator, work_dir: Path) -> list[dict]:
        return [
            self._input(rng, work_dir, f"probe_{k:03d}", int(rng.integers(*self.shots, endpoint=True)))
            for k in range(self.probe_size)
        ]

    def _input(self, rng, work_dir: Path, stem: str, shots: int | None) -> dict:
        t = np.linspace(0.0, T_MAX_US, N_SAMPLES)
        t1 = float(rng.uniform(0.5, 0.8))
        t_phi = float(rng.uniform(5.0, 10.0))
        n = float(rng.uniform(0.3, 1.2))
        m = float(rng.uniform(0.5, 1.0)) * ideal_m(n)
        n_th = float(rng.uniform(0.0, 0.03))
        # Environment seen by the qubit: thermal floor added to the bath,
        # T1 the thermally reduced value (the inversion's convention).
        gamma = 1.0 / (t1 * (2.0 * n_th + 1.0))
        n_bath = n + n_th
        tx = 1.0 / (gamma * (n_bath - m + 0.5) + 1.0 / t_phi)
        rz = gamma * (2.0 * n_bath + 1.0)
        sz_ss = gamma / rz
        sx = np.exp(-t / tx) * np.cos(2.0 * math.pi * OMEGA_MOD_MHZ * t)
        sz = sz_ss + (-1.0 - sz_ss) * np.exp(-rz * t)
        paths = {}
        for axis, trace in (("x", sx), ("z", sz)):
            if shots is not None:
                p_excited = np.clip(0.5 * (1.0 - trace), 0.0, 1.0)
                trace = 1.0 - 2.0 * rng.binomial(shots, p_excited) / shots
            path = work_dir / f"{stem}_{axis}.csv"
            path.write_text(
                "#schema=ramsey-trace-v1\nt_us,sz\n"
                + "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(t, trace))
            )
            paths[axis] = str(path)
        config = work_dir / f"{stem}.conf"
        config.write_text(
            "[system]\ntype = direct\n"
            f"t1_us = {t1!r}\nt_phi_us = {t_phi!r}\n"
            f"[reservoir]\nn_th = {n_th!r}\n"
            f"[protocol]\nomega_mod_mhz = {OMEGA_MOD_MHZ}\n"
            f"[estimate]\ntrace_x = {paths['x']}\ntrace_z = {paths['z']}\n"
        )
        if shots is not None:
            return {"config": str(config), "shots": shots}
        return {"config": str(config), "N": n, "M": m}

    def call(self, sq, inp: dict, out_dir: Path):
        return sq.cli.main(["estimate", "--config", inp["config"], "--out", str(out_dir)])

    def check(self, sq, inp: dict, code, out_dir: Path) -> tuple[str | None, str]:
        digest = _digest_files(out_dir)
        kind = _cli_outcome(code)
        if kind is not None:
            return kind, digest
        moments = json.loads((out_dir / "moments.json").read_text())
        for key in ("N", "M"):
            got = moments.get(key)
            if not (isinstance(got, float) and math.isfinite(got)):
                return CHECK, digest
            if key in inp and not abs(got - inp[key]) <= CHECK_TOL * abs(inp[key]):
                return CHECK, digest
        return None, digest


WORKLOADS = {"sweep": Sweep, "polariton": Polariton, "inverse": Inverse}
