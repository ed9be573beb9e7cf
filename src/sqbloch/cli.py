"""Command-line front end: one subcommand per experiment, deterministic
plot-ready file outputs (CSV and JSON, no rendering).

Configuration is a key-value file with nested sections (INI syntax); the
bundled ``paper.conf`` encodes the reference operating point and is used when
``--config`` is omitted.  Exit codes: 0 success, 2 configuration errors
(with field-level messages), 3 numerical failures naming the operation.
Re-running any subcommand with an identical configuration produces
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import estimation, polariton, protocols, reservoir
from ._table import csv_table
from .blochdyn import DecayRates
from .errors import NumericalFailure, UnphysicalRatesError

__all__ = ["RunConfig", "load_config", "main"]


class ConfigError(Exception):
    def __init__(self, messages: list[str]):
        super().__init__("; ".join(messages))
        self.messages = messages


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    Exactly one dynamics source is active: direct rates (``t1_us`` etc.) or a
    polariton-derived calibration.  The [polariton] section may coexist with
    direct rates to serve the spectrum subcommand.
    """

    system_type: str
    t1_us: float
    t_phi_us: float
    polariton_params: polariton.TransmonCavityParams | None
    gamma_over_2pi_mhz: float | None
    n: float
    m: float
    bandwidth_mhz: float
    n_th: float
    eta: float
    omega0_ghz: float | None
    omega_mod_mhz: float
    t_max_us: float
    n_samples: int
    phi_grid: tuple[float, ...]
    delta_grid_mhz: tuple[float, ...]
    n_grid: tuple[float, ...]
    prep_theta: float
    prep_phi: float
    formats: str
    trace_files: tuple[tuple[str, str], ...] = ()


def _get(parser, errors, section, key, cast, default=None, required=False):
    if not parser.has_section(section):
        if required:
            errors.append(f"missing [{section}] section")
        return default
    if not parser.has_option(section, key):
        if required:
            errors.append(f"[{section}] is missing '{key}'")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        errors.append(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}")
        return default


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def load_config(path: str | Path | None) -> RunConfig:
    """Parse and validate a configuration file (bundled default when None)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is None:
        text = resources.files("sqbloch").joinpath("data/paper.conf").read_text()
        parser.read_string(text)
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigError([f"config file {path} does not exist"])
        parser.read_string(path.read_text())

    errors: list[str] = []
    system_type = _get(parser, errors, "system", "type", str, required=True)
    if system_type not in (None, "direct", "polariton"):
        errors.append(
            f"[system] type must be 'direct' or 'polariton', got {system_type!r}"
        )

    t_phi = _get(parser, errors, "system", "t_phi_us", float, default=math.inf)
    t1 = None
    pol_params = None
    gamma_over_2pi = None
    if system_type == "direct":
        t1 = _get(parser, errors, "system", "t1_us", float, required=True)
        if parser.has_option("system", "gamma_over_2pi_mhz"):
            errors.append(
                "[system] gamma_over_2pi_mhz belongs to the polariton "
                "calibration; exactly one system specification is allowed"
            )
    if parser.has_section("polariton"):
        kwargs = {}
        for key, attr in (
            ("e_c_ghz", "E_C"),
            ("e_j_ghz", "E_J"),
            ("omega_c_ghz", "omega_c"),
            ("g_ghz", "g"),
        ):
            value = _get(parser, errors, "polariton", key, float, required=True)
            if value is not None:
                kwargs[attr] = value
        for key, attr in (
            ("n_transmon", "n_transmon"),
            ("n_photon", "n_photon"),
            ("n_charge", "n_charge"),
        ):
            value = _get(parser, errors, "polariton", key, int)
            if value is not None:
                kwargs[attr] = value
        if not errors:
            try:
                pol_params = polariton.TransmonCavityParams(**kwargs)
            except ValueError as exc:
                errors.append(f"[polariton] invalid parameters: {exc}")
        gamma_over_2pi = _get(
            parser, errors, "polariton", "gamma_over_2pi_mhz", float
        )
    if system_type == "polariton":
        if not parser.has_section("polariton"):
            errors.append("[system] type = polariton but no [polariton] section")
        if gamma_over_2pi is None:
            errors.append(
                "[polariton] gamma_over_2pi_mhz is required for a "
                "polariton-derived system"
            )
        if parser.has_option("system", "t1_us"):
            errors.append(
                "[system] t1_us conflicts with the polariton calibration; "
                "exactly one system specification is allowed"
            )

    n = _get(parser, errors, "reservoir", "n", float, default=0.0)
    m = _get(parser, errors, "reservoir", "m", float, default=0.0)
    bandwidth = _get(parser, errors, "reservoir", "bandwidth_mhz", float, default=13.0)
    n_th = _get(parser, errors, "reservoir", "n_th", float, default=0.0)
    eta = _get(parser, errors, "reservoir", "eta", float, default=1.0)
    omega0 = _get(parser, errors, "reservoir", "omega0_ghz", float)
    try:
        reservoir.SqueezedReservoir(N=n, M=m, bandwidth=bandwidth, N_th=n_th)
    except ValueError as exc:
        errors.append(f"[reservoir] invalid moments: {exc}")

    omega_mod = _get(parser, errors, "protocol", "omega_mod_mhz", float, default=5.0)
    t_max = _get(parser, errors, "protocol", "t_max_us", float, default=5.0)
    n_samples = _get(parser, errors, "protocol", "n_samples", int, default=201)
    phi_grid = _get(
        parser, errors, "protocol", "phi_grid_pi", _float_list, default=(0.5, 1.0)
    )
    delta_max = _get(parser, errors, "protocol", "delta_max_mhz", float, default=2.0)
    delta_points = _get(parser, errors, "protocol", "delta_points", int, default=21)
    n_max = _get(parser, errors, "protocol", "n_max", float, default=3.0)
    n_points = _get(parser, errors, "protocol", "n_points", int, default=25)
    prep_theta = _get(parser, errors, "protocol", "prep_theta_pi", float, default=0.67)
    prep_phi = _get(parser, errors, "protocol", "prep_phi_pi", float, default=0.83)
    formats = _get(parser, errors, "output", "formats", str, default="both")
    if formats not in ("csv", "json", "both"):
        errors.append(f"[output] formats must be csv, json or both, got {formats!r}")

    keys = [k for k in ("trace_x", "trace_z") if parser.has_option("estimate", k)]
    trace_files = [(k, parser.get("estimate", k)) for k in keys]
    if len(keys) == 1:
        missing = "trace_z" if keys == ["trace_x"] else "trace_x"
        errors.append(f"[estimate] {missing} is not set; give both traces or neither")

    if n_samples is not None and n_samples < 2:
        errors.append("[protocol] n_samples must be at least 2")
    if delta_points is not None and delta_points < 1:
        errors.append("[protocol] delta_points must be at least 1")
    if n_points is not None and n_points < 1:
        errors.append("[protocol] n_points must be at least 1")
    if phi_grid is not None and len(phi_grid) == 0:
        errors.append("[protocol] phi_grid_pi must be non-empty")
    if errors:
        raise ConfigError(errors)

    deltas = tuple(np.linspace(-delta_max, delta_max, delta_points))
    n_grid = tuple(np.linspace(0.0, n_max, n_points))
    return RunConfig(
        system_type=system_type,
        t1_us=t1 if t1 is not None else math.nan,
        t_phi_us=t_phi,
        polariton_params=pol_params,
        gamma_over_2pi_mhz=gamma_over_2pi,
        n=n,
        m=m,
        bandwidth_mhz=bandwidth,
        n_th=n_th,
        eta=eta,
        omega0_ghz=omega0,
        omega_mod_mhz=omega_mod,
        t_max_us=t_max,
        n_samples=n_samples,
        phi_grid=tuple(phi_grid),
        delta_grid_mhz=deltas,
        n_grid=n_grid,
        prep_theta=prep_theta * math.pi,
        prep_phi=prep_phi * math.pi,
        formats=formats,
        trace_files=tuple(trace_files),
    )


def _polariton_system(cfg: RunConfig):
    if cfg.polariton_params is None:
        raise ConfigError(["[polariton] section required for this subcommand"])
    h = polariton.build_hamiltonian(cfg.polariton_params)
    return polariton.diagonalize_polaritons(h, cfg.polariton_params)


def _rates(cfg: RunConfig) -> DecayRates:
    """Dynamics rates from whichever system specification is active."""
    if cfg.system_type == "direct":
        return DecayRates.from_times(
            T1=cfg.t1_us, T_phi=cfg.t_phi_us, N=cfg.n, M=cfg.m
        )
    system = _polariton_system(cfg)
    i_minus = system.index_of("-")
    omega0 = (
        cfg.omega0_ghz
        if cfg.omega0_ghz is not None
        else system.transition_frequency(0, i_minus)
    )
    resv = reservoir.SqueezedReservoir(
        N=cfg.n, M=cfg.m, omega0=omega0, bandwidth=cfg.bandwidth_mhz, N_th=cfg.n_th
    )
    base = 2.0 * math.pi * cfg.gamma_over_2pi_mhz / abs(system.A[0, i_minus]) ** 2
    rates = polariton.two_level_reduction(system, base, resv)
    gamma_phi = 0.0 if math.isinf(cfg.t_phi_us) else 1.0 / cfg.t_phi_us
    return replace(rates, gamma_phi=gamma_phi)


def _t1_of(cfg: RunConfig, rates: DecayRates) -> float:
    return cfg.t1_us if cfg.system_type == "direct" else 1.0 / rates.gamma


class _Writer:
    def __init__(self, out_dir: Path, formats: str):
        self.out_dir = out_dir
        self.formats = formats

    def csv(self, name: str, text: str) -> None:
        if self.formats in ("csv", "both"):
            self._write(name, text)

    def json(self, name: str, payload) -> None:
        if self.formats in ("json", "both"):
            self._write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def _write(self, name: str, text: str) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_text(text)


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


def _cmd_polariton(cfg: RunConfig, writer: _Writer) -> int:
    system = _polariton_system(cfg)
    payload = _polariton_payload(system)
    f_minus, splitting = payload["g_to_minus_ghz"], payload["splitting_mhz"]
    writer.json("polariton.json", payload)
    lines = ["#schema=polariton-levels-v1", "level,label,energy_ghz"]
    for k, (label, e) in enumerate(zip(system.labels, system.energies)):
        lines.append(f"{k},{label},{e:.9g}")
    writer.csv("polariton.csv", "\n".join(lines) + "\n")
    ok_freq = abs(f_minus - 5.8989) * 1e3 <= 15.0
    ok_split = abs(splitting - 255.0) <= 10.0
    print(f"g->- transition: {f_minus:.4f} GHz ({'ok' if ok_freq else 'off'})")
    print(f"polariton splitting: {splitting:.1f} MHz ({'ok' if ok_split else 'off'})")
    return 0


def _cmd_ramsey(cfg: RunConfig, writer: _Writer) -> int:
    rates = _rates(cfg)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    summary = {"omega_mod_mhz": cfg.omega_mod_mhz, "phi_grid_pi": list(cfg.phi_grid)}
    fits = {}
    for idx, phi_pi in enumerate(cfg.phi_grid):
        phi = phi_pi * math.pi
        for state, tag in ((False, "off"), (True, "on")):
            trace = protocols.ramsey(rates, phi, cfg.omega_mod_mhz, t, squeezing_on=state)
            writer.csv(f"ramsey_{tag}_phi{idx:02d}.csv", trace.to_csv())
            fit = estimation.fit_damped_sinusoid(t, trace.sz_values, cfg.omega_mod_mhz)
            fits[f"{tag}_phi{idx:02d}"] = {
                "phi_pi": phi_pi,
                "T_us": fit.T,
                "amplitude": fit.amplitude,
                "phase_rad": fit.phase,
                "converged": fit.converged,
            }
    summary["fits"] = fits
    writer.json("ramsey_summary.json", summary)
    off_times = [v["T_us"] for k, v in fits.items() if k.startswith("off")]
    print(f"squeezing off: mean fitted T2* = {np.mean(off_times):.4f} us")
    return 0


def _cmd_trajectory(cfg: RunConfig, writer: _Writer) -> int:
    rates = _rates(cfg)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    traj = protocols.tomography_trajectory(rates, (cfg.prep_theta, cfg.prep_phi), t)
    writer.csv("trajectory.csv", traj.to_csv())
    sz = np.array([s.sz for s in traj.states])
    fit = estimation.fit_exp(t, sz)
    writer.json(
        "trajectory_summary.json",
        {
            "prep_theta_pi": cfg.prep_theta / math.pi,
            "prep_phi_pi": cfg.prep_phi / math.pi,
            "Tz_us": fit.T,
            "sz_steady": fit.offset,
            "final_state": {
                "sx": traj.states[-1].sx,
                "sy": traj.states[-1].sy,
                "sz": traj.states[-1].sz,
            },
        },
    )
    print(f"fitted Tz = {fit.T:.4f} us, steady <sz> = {fit.offset:.4f}")
    return 0


def _cmd_wigner(cfg: RunConfig, writer: _Writer) -> int:
    resv = reservoir.SqueezedReservoir(
        N=cfg.n, M=cfg.m, bandwidth=cfg.bandwidth_mhz, N_th=cfg.n_th
    )
    v = reservoir.variances(resv)
    grid = reservoir.wigner_grid_for(v)
    writer.csv("wigner.csv", grid.to_csv())
    writer.json(
        "wigner_summary.json",
        {
            "sigmaI_sq": v.sigmaI_sq,
            "sigmaQ_sq": v.sigmaQ_sq,
            "peak": float(grid.values.max()),
            "integral": grid.integral(),
        },
    )
    print(f"variances: sigma_I^2 = {v.sigmaI_sq:.4f}, sigma_Q^2 = {v.sigmaQ_sq:.4f}")
    return 0


def _trace_grid_csv(deltas, t, traces) -> str:
    header = "t_us," + ",".join(f"delta_{d:+.4g}" for d in deltas)
    columns = [tr.sz_values for tr in traces]
    return csv_table("detuning-trace-grid-v1", header, t, *columns)


def _cmd_sweep_detuning(cfg: RunConfig, writer: _Writer) -> int:
    rates = _rates(cfg)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    summary = {}
    for tag, phi in (("x", 0.5 * math.pi), ("y", math.pi)):
        points = protocols.detuning_sweep(
            rates, cfg.delta_grid_mhz, phi, t, omega_mod=cfg.omega_mod_mhz
        )
        writer.csv(f"detuning_t{tag}.csv", protocols.detuning_sweep_to_csv(points))
        writer.csv(
            f"detuning_traces_{tag}.csv",
            _trace_grid_csv(cfg.delta_grid_mhz, t, [p.trace for p in points]),
        )
        summary[tag] = {
            f"{p.delta:+.4g}": (p.T_eff if math.isfinite(p.T_eff) else None)
            for p in points
        }
    writer.json("detuning_summary.json", summary)
    print(f"swept {len(cfg.delta_grid_mhz)} detunings for both prep axes")
    return 0


def _cmd_sweep_gain(cfg: RunConfig, writer: _Writer) -> int:
    rates = _rates(cfg)
    t1 = _t1_of(cfg, rates)
    points = protocols.gain_sweep(cfg.n_grid, cfg.eta, t1, cfg.t_phi_us)
    writer.csv("gain_sweep.csv", protocols.gain_sweep_to_csv(points))
    ideal = protocols.gain_sweep(cfg.n_grid, 1.0, t1, cfg.t_phi_us)
    writer.csv("gain_sweep_ideal.csv", protocols.gain_sweep_to_csv(ideal))
    writer.json(
        "gain_summary.json",
        {
            "eta": cfg.eta,
            "rows": [
                {"N": p.N, "M": p.M, "Tx": p.Tx, "Ty": p.Ty, "Tz": p.Tz}
                for p in points
            ],
        },
    )
    print(f"swept {len(points)} gain points at eta = {cfg.eta}")
    return 0


def _read_trace_csv(key: str, path: Path):
    """Two-column ``t_us,value`` trace named by ``[estimate] key``: past blank
    lines, ``#`` comments and one header line before the data, every row must
    be two finite numbers, at least ``estimation.MIN_SAMPLES`` of them."""
    where = f"[estimate] {key} = {str(path)!r}"
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"{where}: {exc.strerror}"]) from None
    lines = [(n, s) for n, s in enumerate(text.splitlines(), 1) if s and s[0] != "#"]
    rows: list[tuple[float, float]] = []
    for k, (lineno, line) in enumerate(lines):
        try:
            a, b = line.split(",")[:2]
            tk, yk = float(a), float(b)
        except ValueError:
            if k == 0 and line[0].isalpha():
                continue  # the header line
            msg = f"{where}: line {lineno} ({line!r}) is not a pair of numbers"
            raise ConfigError([msg]) from None
        if not (math.isfinite(tk) and math.isfinite(yk)):
            raise ConfigError([f"{where}: line {lineno} ({line!r}) is not finite"])
        rows.append((tk, yk))
    if len(rows) < estimation.MIN_SAMPLES:
        msg = f"{where}: {len(rows)} data rows, need at least {estimation.MIN_SAMPLES}"
        raise ConfigError([msg])
    t, y = zip(*rows)
    return np.asarray(t), np.asarray(y)


def _cmd_estimate(cfg: RunConfig, writer: _Writer) -> int:
    """Inverse pipeline on supplied or simulated traces.

    Simulated traces model the measured environment: the configured (n, m)
    are the squeezed-source moments, the thermal floor adds to the bath, and
    the configured T1 is the thermally reduced value.  The inversion then
    recovers the source moments, exercising the same bookkeeping used on
    measured data.
    """
    rates = _rates(cfg)
    t1 = _t1_of(cfg, rates)
    supplied = dict(cfg.trace_files)
    if supplied:
        tx_t, tx_y = _read_trace_csv("trace_x", Path(supplied["trace_x"]))
        tz_t, tz_y = _read_trace_csv("trace_z", Path(supplied["trace_z"]))
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
            trace = protocols.ramsey(r, phi, cfg.omega_mod_mhz, tt)
            return estimation.fit_damped_sinusoid(tt, trace.sz_values, cfg.omega_mod_mhz)

        traj = protocols.tomography_trajectory(rates, (math.pi, 0.0), t)
        # Ty and T2* complete the decay table for the summary.
        fits = {
            "Tx": ramsey_fit(rates, 0.5 * math.pi, t),
            "Ty": ramsey_fit(rates, math.pi, t_short),
            "Tz": estimation.fit_exp(t, np.array([s.sz for s in traj.states])),
            "T2_star": ramsey_fit(rates_off, 0.5 * math.pi, t),
        }
    for k, fit in fits.items():
        if not (math.isfinite(fit.T) and fit.T > 0.0):
            raise UnphysicalRatesError(
                f"fitted {k} = {fit.T:.6g} us is not a positive, finite decay time"
            )
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
    writer.json("moments.json", summary)
    try:
        grid = estimation.reconstruct_wigner(est)
    except ValueError as exc:  # |M|^2 > N(N+1): no Gaussian state has them
        raise UnphysicalRatesError(
            f"Wigner reconstruction from N = {est.N:.6g}, M = {est.M:.6g}: {exc}"
        ) from None
    writer.csv("wigner_reconstructed.csv", grid.to_csv())
    print(
        f"estimated N = {est.N:.4f}, M = {est.M:.4f}"
        + (f", eta = {est.eta_inferred:.3f}" if est.eta_inferred else "")
    )
    return 0


def _cmd_validate(cfg: RunConfig, writer: _Writer) -> int:
    from . import acceptance  # only this subcommand pays for its import

    results = acceptance.run_all()
    for r in results:
        print(r.summary_line())
    writer.json(
        "validate.json",
        {
            "all_passed": all(r.passed for r in results),
            "criteria": [asdict(r) for r in results],
        },
    )
    if not all(r.passed for r in results):
        return 3
    return 0


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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        writer = _Writer(Path(args.out), args.format or cfg.formats)
        return COMMANDS[args.command](cfg, writer)
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


if __name__ == "__main__":
    sys.exit(main())
