import contextlib
import errno
import importlib
import inspect
import io
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbloch.blochdyn import DecayRates
from sqbloch import cli, errors, estimation, numerics, polariton
from sqbloch.cli import ConfigError, _polariton_system, load_config, main
from sqbloch.protocols import ramsey

FAST_CONF = """
[system]
type = direct
t1_us = 0.65
t_phi_us = 6.6

[reservoir]
n = 0.88
m = 1.08
bandwidth_mhz = 13.0
n_th = 0.019
eta = 0.5

[protocol]
omega_mod_mhz = 5.0
t_max_us = 3.0
n_samples = 91
phi_grid_pi = 0.5, 1.0
delta_max_mhz = 0.6
delta_points = 3
n_max = 2.0
n_points = 3

[output]
formats = both
"""

POLARITON_CONF = """
[system]
type = polariton
t_phi_us = 6.6

[polariton]
e_c_ghz = 0.208
e_j_ghz = 23.27
omega_c_ghz = 6.0456
g_ghz = 0.126
n_transmon = 4
n_photon = 4
n_charge = 14
gamma_over_2pi_mhz = 0.240

[reservoir]
n = 0.88
m = 1.08
bandwidth_mhz = 13.0

[protocol]
n_samples = 64
t_max_us = 2.0
"""

CIRCUIT_SECTION = POLARITON_CONF[
    POLARITON_CONF.index("[polariton]") : POLARITON_CONF.index("[reservoir]")
]


# Eleven valid rows after t = 0.1; UNSET drops the key from the config.
TRACE_ROWS = "".join(f"{0.1 * k:.9g},{math.exp(-0.1 * k):.9g}\n" for k in range(1, 12))
UNSET = object()


def _measured_traces() -> tuple[str, str]:
    """``trace_x`` and ``trace_z`` CSV text whose inversion is physical."""
    t = np.linspace(0.0, 4.0, 160)
    x = np.exp(-t / 1.6312) * np.sin(2.0 * math.pi * 5.0 * t + 0.3)
    z = 0.3623 + 0.6377 * np.exp(-t / 0.23551)
    return tuple(
        "t_us,sz\n" + "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(t, y)) for y in (x, z)
    )


def _supplied_traces_conf(tmp_path, trace_x: str, trace_z: str) -> str:
    """FAST_CONF plus an [estimate] section pointing at the two traces."""
    (tmp_path / "x.csv").write_text(trace_x)
    (tmp_path / "z.csv").write_text(trace_z)
    conf = tmp_path / "c.conf"
    conf.write_text(
        FAST_CONF
        + f"\n[estimate]\ntrace_x = {tmp_path / 'x.csv'}\n"
        + f"trace_z = {tmp_path / 'z.csv'}\n"
    )
    return str(conf)


OVERFLOW = "squared residuals overflow at the initial guess (largest |residual| 1.000e+300)"
BUNDLED = resources.files("sqbloch").joinpath("data/paper.conf").read_text()
SIX_COMMANDS = ["ramsey", "estimate", "sweep-gain", "wigner", "trajectory", "sweep-detuning"]


def _with_field(text: str, key: str, value: str) -> str:
    """``text`` with the line of ``key`` set to ``value``."""
    edited, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1, key
    return edited


# The bundled config with its direct rates swapped for the polariton
# calibration of its own [polariton] section.
BASES = {
    "direct": BUNDLED,
    "polariton": re.sub(
        r"^t1_us = .*\n", "", _with_field(BUNDLED, "type", "polariton"), flags=re.M
    ),
}


@pytest.fixture
def fast_conf(tmp_path):
    path = tmp_path / "fast.conf"
    path.write_text(FAST_CONF)
    return str(path)


class TestLoadConfig:
    def test_bundled_default(self):
        cfg = load_config(None)
        assert cfg.type == "direct"
        assert cfg.t1_us == 0.65
        assert cfg.polariton_params is not None
        assert cfg.gamma_over_2pi_mhz == 0.240
        assert cfg.delta_points == 21
        assert cfg.prep_theta_pi == 0.67

    def test_missing_system_block(self, tmp_path):
        path = tmp_path / "empty.conf"
        path.write_text("\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert any("[system]" in m for m in err.value.messages)

    def test_missing_t1(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("[system]\ntype = direct\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert any("t1_us" in m for m in err.value.messages)

    def test_conflicting_system_specs(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "[system]\ntype = polariton\nt1_us = 0.65\n"
            "[polariton]\ne_c_ghz = 0.208\ne_j_ghz = 23.27\n"
            "omega_c_ghz = 6.0456\ng_ghz = 0.126\ngamma_over_2pi_mhz = 0.24\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert any("exactly one" in m for m in err.value.messages)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("[system]\ntype = direct\nt1_us = soon\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert any("t1_us" in m for m in err.value.messages)

    @pytest.mark.parametrize("system_type", ["direct", "polariton"])
    def test_system_gamma_reported_once(self, tmp_path, system_type):
        # A [polariton] key put in [system] keeps its own message under
        # either system type, and is reported once.
        path = tmp_path / "c.conf"
        gamma = "[system]\ngamma_over_2pi_mhz = 0.24\n"
        path.write_text(BASES[system_type].replace("[system]\n", gamma, 1))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.messages == [
            "[system] gamma_over_2pi_mhz belongs to [polariton]; "
            "exactly one system specification is allowed"
        ]

    def test_fields_are_the_config_keys(self):
        circuit = set("e_c_ghz e_j_ghz omega_c_ghz g_ghz n_transmon n_photon n_charge".split())
        keys = {key for _, key, *_ in cli._FIELDS}
        names = {f.name for f in fields(cli.RunConfig)}
        assert names == keys - circuit | {"polariton_params"}

    def test_every_key_reaches_its_field(self, tmp_path):
        # Each key set to a value other than its default is read into the
        # field of its name; the circuit keys build polariton_params.
        raw = {
            "type": "direct", "t1_us": "0.7", "t_phi_us": "7.5",
            "e_c_ghz": "0.21", "e_j_ghz": "23.0", "omega_c_ghz": "6.05", "g_ghz": "0.12",
            "n_transmon": "4", "n_photon": "5", "n_charge": "15", "gamma_over_2pi_mhz": "0.25",
            "n": "0.5", "m": "0.6", "bandwidth_mhz": "11.0", "n_th": "0.02", "eta": "0.75",
            "omega0_ghz": "5.9", "omega_mod_mhz": "4.0", "t_max_us": "4.5", "n_samples": "99",
            "phi_grid_pi": "0.25 0.75", "delta_max_mhz": "1.5", "delta_points": "7",
            "n_max": "2.5", "n_points": "9", "prep_theta_pi": "0.5", "prep_phi_pi": "0.25",
            "formats": "csv", "trace_x": "x.csv", "trace_z": "traces/z.csv",
        }
        assert list(raw) == [key for _, key, *_ in cli._FIELDS]
        text = "".join(
            f"[{section}]\n" + "".join(f"{key} = {raw[key]}\n" for _, key, *_ in rows)
            for section, rows in itertools.groupby(cli._FIELDS, key=lambda row: row[0])
        )
        (tmp_path / "c.conf").write_text(text)
        cfg = load_config(tmp_path / "c.conf")
        for _, key, cast, default, _ in cli._FIELDS:
            expected = cast(raw[key])
            assert expected != default, key
            if key.startswith("trace_"):
                expected = str(tmp_path / raw[key])
            if key not in cli._CIRCUIT:
                assert getattr(cfg, key) == expected, key
        assert cfg.polariton_params == polariton.TransmonCavityParams(
            E_C=0.21, E_J=23.0, omega_c=6.05, g=0.12, n_transmon=4, n_photon=5, n_charge=15
        )

    def test_run_config_is_a_frozen_dataclass_of_the_cli(self):
        assert cli.RunConfig.__module__ == "sqbloch.cli"
        assert "Exactly one dynamics source is active" in inspect.getdoc(cli.RunConfig)
        cfg = load_config(None)
        with pytest.raises(FrozenInstanceError):
            cfg.n = 1.0

    def test_readme_table_names_the_config_keys(self):
        # Section and key columns of README's Configuration table, whose
        # continuation rows leave the section blank.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Configuration", 1)[1].split("\n\n| section", 1)[1]
        documented, section = {}, None
        for row in table.split("\n\n", 1)[0].splitlines()[2:]:
            cells = row.split("|")
            section = cells[1].strip().strip("`[]") or section
            documented.setdefault(section, []).extend(re.findall(r"`(\w+)`", cells[2]))
        assert list(documented) == list(cli._KEYS)
        assert {s: sorted(keys) for s, keys in documented.items()} == {
            s: sorted(keys) for s, keys in cli._KEYS.items()
        }

    def test_polariton_without_t_phi_has_no_dephasing(self, tmp_path):
        path = tmp_path / "p.conf"
        path.write_text(POLARITON_CONF.replace("t_phi_us = 6.6\n", ""))
        cfg = load_config(path)
        assert cfg.t_phi_us == math.inf
        assert cli._rates(cfg).gamma_phi == 0.0

    def test_bom_config_loads(self, tmp_path):
        bom, plain = tmp_path / "bom.conf", tmp_path / "plain.conf"
        bom.write_text("\ufeff" + FAST_CONF, encoding="utf-8")
        plain.write_text(FAST_CONF)
        assert load_config(bom) == load_config(plain)

    def test_utf8_config_loads_in_the_c_locale(self, tmp_path):
        # Without UTF-8 mode or locale coercion, Python's default encoding
        # under LC_ALL=C is ASCII; the config and its traces are read as
        # UTF-8, each trace past a byte-order mark, an indented comment and
        # an indented header.
        conf = _supplied_traces_conf(tmp_path, *_measured_traces())
        for path in (tmp_path / "x.csv", tmp_path / "z.csv"):
            path.write_text("\ufeff  # times in µs\n  " + path.read_text(), encoding="utf-8")
        Path(conf).write_text("# times in µs\n" + Path(conf).read_text(), encoding="utf-8")
        import sqbloch

        env = os.environ | {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env["PYTHONPATH"] = str(Path(sqbloch.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "sqbloch.cli", "estimate", "--config", conf,
             "--out", str(tmp_path / "o")],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert json.loads((tmp_path / "o" / "moments.json").read_text())["source"] == "supplied"

    def test_polariton_config_resolves_calibrated_t1(self, tmp_path):
        path = tmp_path / "p.conf"
        path.write_text(POLARITON_CONF)
        cfg = load_config(path)
        from sqbloch.cli import _rates

        rates = _rates(cfg)
        assert 1.0 / rates.gamma == pytest.approx(1.0 / (2.0 * math.pi * 0.24), rel=1e-9)
        assert rates.delta == 0.0  # squeezer defaults to resonance
        assert rates.N == 0.88


class TestMain:
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\n", "missing [system] section"),
            (None, "does not exist"),
            (b"t1_us = 0.65\n[system]\ntype = direct\n", "no section headers"),
            (b"[system]\ntype = direct\ntype = polariton\n", "option 'type' in section 'system'"),
            ("dir", "Is a directory"),
            (b"\xff\xfe[system]\n", "can't decode byte 0xff"),
        ],
        ids=["empty", "missing", "no-section-header", "duplicate-key", "directory", "not-utf8"],
    )
    def test_empty_config_exit_2(self, tmp_path, capsys, content, message):
        # A config file that cannot be read or parsed is refused by name,
        # like one whose values fail their rules.
        conf = tmp_path / "c.conf"
        if content == "dir":
            conf.mkdir()
        elif content is not None:
            conf.write_bytes(content)
        out = tmp_path / "o"
        code = main(["ramsey", "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: config file {conf}" in captured.err
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_wigner_outputs(self, fast_conf, tmp_path):
        out = tmp_path / "w"
        assert main(["wigner", "--config", fast_conf, "--out", str(out)]) == 0
        grid = (out / "wigner.csv").read_text()
        assert grid.startswith("#schema=wigner-grid-v1")
        summary = json.loads((out / "wigner_summary.json").read_text())
        assert summary["sigmaI_sq"] == pytest.approx(4.92)
        assert summary["sigmaQ_sq"] == pytest.approx(0.60)

    def test_ramsey_t2_star(self, fast_conf, tmp_path):
        out = tmp_path / "r"
        assert main(["ramsey", "--config", fast_conf, "--out", str(out)]) == 0
        summary = json.loads((out / "ramsey_summary.json").read_text())
        t2s = summary["fits"]["off_phi00"]["T_us"]
        assert t2s == pytest.approx(1.086, abs=2e-3)
        assert (out / "ramsey_on_phi01.csv").exists()

    @pytest.mark.parametrize(
        "command, rows", [("ramsey", [16]), ("estimate", [2, 1, 1])], ids=["ramsey", "estimate"]
    )
    def test_fringes_on_one_grid_fit_in_one_call(self, tmp_path, monkeypatch, command, rows):
        # The fringes of one time grid reach the least-squares loop, through
        # this name in numerics or in estimation, as one stack: ramsey's 16
        # (8 phases, squeezer off and on), and estimate's simulated x fringes
        # squeezer on (Tx) and off (T2*), before its Ty and Tz fits alone.
        calls = []
        stack = numerics.fit_least_squares_stack

        def counting(model, t, y, *args, **kwargs):
            calls.append(len(y))
            return stack(model, t, y, *args, **kwargs)

        monkeypatch.setattr(numerics, "fit_least_squares_stack", counting)
        monkeypatch.setattr(estimation, "fit_least_squares_stack", counting)
        assert main([command, "--out", str(tmp_path / "r")]) == 0
        assert calls == rows

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({5: np.nan}, "model returned non-finite residuals"),
            # Of two failing rows, the one first in (phase, off/on) order.
            ({3: np.nan, 9: 1e300}, "model returned non-finite residuals"),
            ({3: 1e300, 9: np.nan}, OVERFLOW),
        ],
        ids=["one-row", "nan-first", "overflow-first"],
    )
    def test_ramsey_fit_failure_exit_3(self, tmp_path, capsys, monkeypatch, rows, message):
        # The model's first call, on the whole stack, is set to a value in
        # the given rows: the run exits 3 with that row's error, as a run
        # that fits each trace in turn does, and writes and prints nothing.
        model = estimation._sine_model
        first = []

        def failing(t, p, w):
            v = model(t, p, w)
            if not first:
                first.append(len(p))
                for row, value in rows.items():
                    v[row] = value
            return v

        monkeypatch.setattr(estimation, "_sine_model", failing)
        out = tmp_path / "r"
        code = main(["ramsey", "--out", str(out)])
        captured = capsys.readouterr()
        assert first == [16]
        assert code == 3
        assert captured.err == f"numerical failure in 'ramsey': DegenerateFitError: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_trajectory_outputs(self, fast_conf, tmp_path):
        out = tmp_path / "t"
        assert main(["trajectory", "--config", fast_conf, "--out", str(out)]) == 0
        summary = json.loads((out / "trajectory_summary.json").read_text())
        assert summary["Tz_us"] == pytest.approx(0.2355, abs=1e-3)
        assert summary["sz_steady"] == pytest.approx(0.3623, abs=1e-3)

    def test_sweeps(self, fast_conf, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep-detuning", "--config", fast_conf, "--out", str(out)]) == 0
        assert main(["sweep-gain", "--config", fast_conf, "--out", str(out)]) == 0
        tx = (out / "detuning_tx.csv").read_text().strip().split("\n")
        assert tx[0] == "#schema=detuning-sweep-v1"
        assert len(tx) == 5  # header comment + columns + 3 points
        gain = (out / "gain_sweep.csv").read_text().strip().split("\n")
        assert len(gain) == 5
        grid = (out / "detuning_traces_x.csv").read_text().split("\n")
        assert grid[1].count(",") == 3  # t plus one column per detuning

    def test_estimate_simulated_roundtrip(self, fast_conf, tmp_path):
        out = tmp_path / "e"
        assert main(["estimate", "--config", fast_conf, "--out", str(out)]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["N"] == pytest.approx(0.88, abs=1e-6)
        assert moments["M"] == pytest.approx(1.08, abs=1e-6)
        assert moments["N_uncorrected"] == pytest.approx(0.899, abs=1e-6)
        assert moments["eta_inferred"] == pytest.approx(0.445, abs=1e-2)
        assert (out / "wigner_reconstructed.csv").exists()
        decays = moments["decay_estimate"]
        # The thermally loaded environment at the intrinsic rate: Ty from
        # gamma_int (N_tot + M + 1/2) + gamma_phi, T2* stays at 1.086 us.
        assert decays["T2_star_us"] == pytest.approx(1.086, abs=2e-3)
        assert decays["Ty_us"] == pytest.approx(
            1.0 / ((0.899 + 1.08 + 0.5) / 0.6747 + 1.0 / 6.6), abs=1e-3
        )
        assert set(decays["stderr_us"]) == {"Tx", "Ty", "Tz", "T2_star"}

    def test_estimate_supplied_traces(self, tmp_path):
        t = np.linspace(0.0, 4.0, 160)
        w = 2.0 * math.pi * 5.0
        trace_x = "\n".join(
            f"{tk:.9g},{math.exp(-tk / 1.6312) * math.sin(w * tk + 0.3):.9g}"
            for tk in t
        )
        trace_z = "\n".join(
            f"{tk:.9g},{0.3623 + 0.6377 * math.exp(-tk / 0.23551):.9g}" for tk in t
        )
        conf = _supplied_traces_conf(
            tmp_path, "t_us,sz\n" + trace_x + "\n", "t_us,sz\n" + trace_z + "\n"
        )
        out = tmp_path / "e"
        assert main(["estimate", "--config", conf, "--out", str(out)]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["source"] == "supplied"
        # Thermally corrected inversion of the measured-value traces.
        assert moments["N"] == pytest.approx(0.9134, abs=1e-3)

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # A transverse time slower than T_phi makes the radiative rate
        # nonpositive; the dephasing subtraction must fail with exit 3.
        t = np.linspace(0.0, 4.0, 120)
        w = 2.0 * math.pi * 5.0
        trace_x = "\n".join(
            f"{tk:.9g},{math.exp(-tk / 20.0) * math.sin(w * tk):.9g}" for tk in t
        )
        trace_z = "\n".join(f"{tk:.9g},{math.exp(-tk / 0.3):.9g}" for tk in t)
        conf = _supplied_traces_conf(tmp_path, trace_x + "\n", trace_z + "\n")
        code = main(["estimate", "--config", conf, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "estimate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "x_env, z_trace, n_x, message, written",
        [
            # Sampled 12 times in 4 us, a 5 MHz fringe under a growing
            # envelope fits exactly to T = -0.3 us.
            pytest.param(
                lambda t: np.exp(t / 0.3) / np.exp(4.0 / 0.3),
                lambda t: 0.3623 + 0.6377 * np.exp(-t / 0.23551),
                12,
                "fitted Tx = -0.3 us is not a positive, finite decay time",
                [],
                id="x-growing-envelope",
            ),
            pytest.param(
                lambda t: np.exp(-t / 1.6312),
                lambda t: np.cos(2.0 * t),
                160,
                "fitted Tz = -1.18892 us is not a positive, finite decay time",
                [],
                id="z-cosine",
            ),
            # Tx slow but inside T_phi: M = 1.39971 exceeds sqrt(N(N+1)).
            pytest.param(
                lambda t: np.exp(-t / 5.0),
                lambda t: 0.3623 + 0.6377 * np.exp(-t / 0.23551),
                160,
                "Wigner reconstruction from N = 0.913423, M = 1.39971",
                [],
                id="unphysical-moments",
            ),
        ],
    )
    def test_estimate_failure_exit_3(
        self, tmp_path, capsys, x_env, z_trace, n_x, message, written
    ):
        w = 2.0 * math.pi * 5.0
        t_x = np.linspace(0.0, 4.0, n_x)
        t_z = np.linspace(0.0, 4.0, 160)
        trace_x = "".join(
            f"{a:.9g},{b:.9g}\n" for a, b in zip(t_x, x_env(t_x) * np.sin(w * t_x))
        )
        trace_z = "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(t_z, z_trace(t_z)))
        conf = _supplied_traces_conf(tmp_path, trace_x, trace_z)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the moment physicality warnings
            code = main(["estimate", "--config", conf, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure in 'estimate': UnphysicalRatesError" in err
        assert message in err
        assert sorted(p.name for p in out.glob("*")) == written

    def test_supplied_tx_is_judged_before_tz_is_fitted(self, tmp_path, capsys):
        # A flat x trace fits to Tx = inf; a z trace whose initial guess is
        # not finite fails to fit. The supplied fits are judged in the order
        # Tx, Tz, so Tx's verdict is the one reported.
        t = np.linspace(0.0, 5.0, 160).tolist()
        trace_x = "".join(f"{tk!r},0.2\n" for tk in t)
        trace_z = "".join(f"{tk!r},{1.0 if tk < 3.0 else 1.7e308!r}\n" for tk in t)
        conf = _supplied_traces_conf(tmp_path, trace_x, trace_z)
        out = tmp_path / "o"
        out.mkdir()
        (out / "sentinel").write_bytes(b"keep\n")
        code = main(["estimate", "--config", conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "numerical failure in 'estimate': UnphysicalRatesError: "
            "fitted Tx = inf us is not a positive, finite decay time\n"
        )
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["sentinel"]
        assert (out / "sentinel").read_bytes() == b"keep\n"

    @pytest.mark.parametrize(
        "edits, name",
        [
            ({"t_max_us = 5.0": "t_max_us = 0.1"}, "Tx"),
            ({"t_max_us = 5.0": "t_max_us = 0.5", "n_samples = 201": "n_samples = 12"}, "Ty"),
            # Every sample after the first sits on the steady state to the
            # last bit, so the z trace has no second point to set its slope.
            ({"t_max_us = 5.0": "t_max_us = 100", "n_samples = 201": "n_samples = 8"}, "Tz"),
        ],
        ids=["Tx", "Ty", "Tz"],
    )
    def test_simulated_fit_failure_exit_3(self, tmp_path, capsys, edits, name):
        # Sampling edits of the bundled config under which one simulated
        # trace fits to a time that is not positive; the check runs before
        # any file is written.
        text = resources.files("sqbloch").joinpath("data/paper.conf").read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        conf = tmp_path / "c.conf"
        conf.write_text(text)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["estimate", "--config", str(conf), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        prefix = f"numerical failure in 'estimate': UnphysicalRatesError: fitted {name} = "
        assert prefix in err
        assert err.rstrip().endswith("us is not a positive, finite decay time")
        assert not out.exists()

    @pytest.mark.parametrize(
        "t_max, fmt, message",
        [
            # Every fringe is flat to 1e-10 over 1e-12 us, so each fits T = inf.
            ("1e-12", "csv", "fitted off_phi00 = inf us"),
            ("1e-12", "both", "fitted off_phi00 = inf us"),
            # A twentieth of a 5 MHz fringe period cannot resolve the decay.
            ("0.01", "csv", "fitted on_phi02 = -394523 us"),
        ],
        ids=["flat-csv", "flat-both", "short-csv"],
    )
    def test_ramsey_decay_time_exit_3(self, tmp_path, capsys, t_max, fmt, message):
        # Each fringe's fitted T is judged in the summary's key order: the
        # first that is not positive and finite exits 3 naming its key, and
        # --out is left as it was.
        conf = tmp_path / "c.conf"
        conf.write_text(_with_field(BUNDLED, "t_max_us", t_max))
        out = tmp_path / "o"
        out.mkdir()
        (out / "sentinel").write_bytes(b"keep\n")
        code = main(["ramsey", "--config", str(conf), "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            f"numerical failure in 'ramsey': UnphysicalRatesError: {message} "
            "is not a positive, finite decay time\n"
        )
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["sentinel"]
        assert (out / "sentinel").read_bytes() == b"keep\n"

    def test_simulated_estimate_keeps_squeezer_detuning(self, tmp_path):
        # A squeezer off the g->- transition detunes the rates of the
        # polariton calibration. estimate simulates that environment, so with
        # no thermal floor its squeezed x fringe fits as ramsey's does.
        conf = tmp_path / "p.conf"
        conf.write_text(POLARITON_CONF.replace("[protocol]", "omega0_ghz = 5.8995\n[protocol]"))
        assert cli._rates(load_config(conf)).delta == pytest.approx(0.6739, abs=1e-4)
        for command in ("ramsey", "estimate"):
            out = ["--out", str(tmp_path / command), "--format", "json"]
            assert main([command, "--config", str(conf)] + out) == 0
        ramsey_fits = json.loads((tmp_path / "ramsey" / "ramsey_summary.json").read_text())["fits"]
        moments = json.loads((tmp_path / "estimate" / "moments.json").read_text())
        assert moments["Tx_us"] == pytest.approx(ramsey_fits["on_phi00"]["T_us"], rel=1e-9)

    @pytest.mark.parametrize(
        "rows, ty_fails, message",
        [
            ({1: 1e300}, False, OVERFLOW),
            ({1: 1e300}, True, "model returned non-finite residuals"),
            ({0: 1e300, 1: np.nan}, True, OVERFLOW),
        ],
        ids=["T2_star", "Ty-before-T2_star", "Tx-first"],
    )
    def test_simulated_x_fringe_failure_order(
        self, tmp_path, capsys, monkeypatch, rows, ty_fails, message
    ):
        # The model's first call on the stacked x fringes (row 0 Tx, row 1
        # T2*), over the full time grid, is set to a value in the given rows,
        # and its first call on Ty's shorter grid to NaN if asked: the run
        # exits 3 with the error that one fit per trace raises first, Tx
        # before Ty and Tz, T2* after them.
        model = estimation._sine_model
        seen = []

        def failing(t, p, w):
            v = model(t, p, w)
            x_grid = t[-1] == 5.0  # the bundled t_max_us; Ty's ends at a third of it
            if x_grid not in seen:
                seen.append(x_grid)
                if x_grid:
                    for row, value in rows.items():
                        v[row] = value
                elif ty_fails:
                    v[:] = np.nan
            return v

        monkeypatch.setattr(estimation, "_sine_model", failing)
        out = tmp_path / "e"
        code = main(["estimate", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"numerical failure in 'estimate': DegenerateFitError: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, content, expected",
        [
            ("trace_x", None, "No such file"),
            ("trace_z", None, "No such file"),
            ("trace_x", "t_us,sz\n0.0,1.0\n1,abc\n", "line 3 ('1,abc')"),
            ("trace_z", "0.0,1.0\n0.5\n", "line 2 ('0.5')"),
            pytest.param(
                "trace_z",
                "t_us,sz\n0.0,1.0,7\n" + TRACE_ROWS,
                "line 2 ('0.0,1.0,7') is not a pair of numbers",
                id="trace_z-three-fields",
            ),
            pytest.param(
                "trace_x",
                b"\xff\xfe0.0,1.0\n",
                "can't decode byte 0xff",
                id="trace_x-not-utf8",
            ),
            pytest.param(
                "trace_z",
                "  # exported by scope\n  t_us,sz\n  0.0,1.0\n  1,abc\n" + TRACE_ROWS,
                "line 4 ('  1,abc') is not a pair of numbers",
                id="trace_z-indented-bad-row",
            ),
            pytest.param(
                "trace_x",
                "t_us,sz\n0.0,1.0\nx1,0.2\n" + TRACE_ROWS,
                "line 3 ('x1,0.2') is not a pair of numbers",
                id="trace_x-letter-row-after-data",
            ),
            pytest.param(
                "trace_z",
                "t_us,sz\nt,s\n" + TRACE_ROWS,
                "line 2 ('t,s')",
                id="trace_z-second-header",
            ),
            pytest.param(
                "trace_x",
                "nan,0.5\n" + TRACE_ROWS,
                "line 1 ('nan,0.5') is not finite",
                id="trace_x-nan",
            ),
            pytest.param(
                "trace_z",
                "# t_us,sz\n0.0,1.0\n0.05,inf\n" + TRACE_ROWS,
                "line 3 ('0.05,inf') is not finite",
                id="trace_z-inf",
            ),
            pytest.param(
                "trace_x",
                "".join(reversed(TRACE_ROWS.splitlines(keepends=True))),
                "line 2 ('1,0.367879441') is not later than the row before",
                id="trace_x-reversed",
            ),
            pytest.param(
                "trace_z",
                "t_us,sz\n" + TRACE_ROWS.splitlines(keepends=True)[0] + TRACE_ROWS,
                "line 3 ('0.1,0.904837418') is not later than the row before",
                id="trace_z-repeated-time",
            ),
            pytest.param(
                "trace_z",
                "t_us,sz\n0.0,1.0\n0.1,0.9\n0.2,0.8\n",
                "3 data rows, need at least 8",
                id="trace_z-three-rows",
            ),
            pytest.param(
                "trace_x",
                "t_us,sz\n",
                "0 data rows, need at least 8",
                id="trace_x-header-only",
            ),
            pytest.param(
                "trace_z",
                "".join(TRACE_ROWS.splitlines(keepends=True)[:7]),
                "7 data rows, need at least 8",
                id="trace_z-seven-rows",
            ),
            pytest.param(
                "trace_x",
                TRACE_ROWS + "1.2,0.5,1\n1.3\n",
                "line 12 ('1.2,0.5,1') is not a pair of numbers",
                id="trace_x-three-fields-then-one",
            ),
            pytest.param(
                "trace_z",
                TRACE_ROWS + "1.2,x\n1.3,nan\n",
                "line 12 ('1.2,x') is not a pair of numbers",
                id="trace_z-word-before-nan",
            ),
            pytest.param("trace_x", UNSET, "trace_x is not set", id="trace_x-unset"),
            pytest.param("trace_z", UNSET, "trace_z is not set", id="trace_z-unset"),
        ],
    )
    def test_bad_trace_file_exit_2(self, tmp_path, capsys, key, content, expected):
        good = "\n".join(f"{0.02 * k:.9g},{math.exp(-0.02 * k):.9g}" for k in range(50))
        conf = _supplied_traces_conf(tmp_path, good, good)
        path = tmp_path / f"{key[-1]}.csv"
        prefix = f"config error: [estimate] {key} = '{path}'"
        if content is None:
            path.unlink()
        elif content is UNSET:
            lines = Path(conf).read_text().splitlines(keepends=True)
            Path(conf).write_text("".join(x for x in lines if not x.startswith(key)))
            prefix = f"config error: [estimate] {key}"
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code = main(["estimate", "--config", conf, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert prefix in err
        assert expected in err

    @pytest.mark.parametrize(
        "line, bad_line, message",
        [
            ("e_c_ghz = 0.208", "e_c_ghz = nan", "E_C = nan must be finite"),
            ("g_ghz = 0.126", "g_ghz = inf", "g = inf must be finite"),
        ],
    )
    def test_non_finite_circuit_parameter_exit_2(
        self, tmp_path, capsys, line, bad_line, message
    ):
        conf = tmp_path / "p.conf"
        conf.write_text(POLARITON_CONF.replace(line, bad_line))
        code = main(["polariton", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: [polariton] invalid parameters: {message}" in err

    @pytest.mark.parametrize(
        "command", ["estimate", "ramsey", "sweep-detuning", "trajectory", "wigner", "sweep-gain"]
    )
    @pytest.mark.parametrize(
        "line, bad_line, message",
        [
            ("n = 0.88", "n = 0", "unphysical moments: |M|^2 = 1.1664 exceeds N(N+1) = 0"),
            ("n = 0.88", "n = -1", "N must be nonnegative, got -1.0"),
            ("bandwidth_mhz = 13.0", "bandwidth_mhz = 0", "bandwidth must be positive, got 0.0"),
            ("bandwidth_mhz = 13.0", "bandwidth_mhz = -1", "bandwidth must be positive, got -1.0"),
            ("n = 0.88", "n = nan", "N must be finite, got nan"),
            ("m = 1.08", "m = inf", "|M| must be finite, got inf"),
            ("m = 1.08", "m = 1e300", "unphysical moments: |M|^2 = inf exceeds N(N+1) = 1.6544"),
        ],
    )
    def test_invalid_reservoir_exit_2(self, tmp_path, capsys, command, line, bad_line, message):
        bundled = resources.files("sqbloch").joinpath("data/paper.conf").read_text()
        assert line in bundled
        conf = tmp_path / "r.conf"
        conf.write_text(bundled.replace(line, bad_line))
        out = tmp_path / "o"
        code = main([command, "--config", str(conf), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"config error: [reservoir] invalid moments: {message}" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", SIX_COMMANDS)
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("system", "t1_us", "-1"),
            ("system", "t1_us", "nan"),
            ("system", "t1_us", "0.65%"),
            ("system", "t_phi_us", "0"),
            ("system", "t_phi_us", "-5"),
            ("protocol", "n_samples", "3"),
            ("protocol", "t_max_us", "0"),
            ("protocol", "t_max_us", "inf"),
            ("protocol", "omega_mod_mhz", "0"),
            ("protocol", "phi_grid_pi", "nan"),
            ("protocol", "delta_max_mhz", "inf"),
            ("protocol", "prep_theta_pi", "nan"),
            ("protocol", "prep_phi_pi", "inf"),
            ("reservoir", "eta", "nan"),
            ("reservoir", "eta", "2"),
            ("reservoir", "eta", "0"),
            ("reservoir", "eta", "-0.5"),
            ("protocol", "n_max", "nan"),
            ("protocol", "n_max", "-1"),
            ("polariton", "gamma_over_2pi_mhz", "-1"),
            ("reservoir", "m", "-1"),
            ("reservoir", "n_th", "-1"),
            ("reservoir", "n_th", "nan"),
            # Positive and finite, but the sample step t_max_us / (n_samples - 1)
            # is subnormal; at 1e-305 only on estimate's t_max_us / 3 grid.
            ("protocol", "t_max_us", "5e-324"),
            ("protocol", "t_max_us", "1.01e-321"),
            ("protocol", "t_max_us", "1e-310"),
            ("protocol", "t_max_us", "1e-305"),
        ],
    )
    def test_field_edit_exit_2(self, tmp_path, capsys, command, section, key, value):
        # Each single-field edit of the bundled config is refused at load,
        # under every subcommand, by a message that names the field.
        conf = tmp_path / "c.conf"
        conf.write_text(_with_field(BUNDLED, key, value))
        out = tmp_path / "o"
        code = main([command, "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: [{section}] {key} must be " in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", SIX_COMMANDS + ["polariton", "validate"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("t_phi_us =", "t_phi_uss =", "[system] t_phi_uss is not a known key"),
            ("[protocol]", "[protocl]", "[protocl] is not a known section"),
            ("[system]", "[DEFAULT]\nt1_us = 0.65\n[system]", "[DEFAULT] is not a known section"),
        ],
        ids=["misspelled-key", "unknown-section", "default-section"],
    )
    def test_unknown_key_or_section_exit_2(self, tmp_path, capsys, command, old, new, message):
        # A key or section the field table does not name would otherwise be
        # ignored, and a misspelled key would silently take its default.
        assert BUNDLED.count(old) == 1
        conf = tmp_path / "c.conf"
        conf.write_text(BUNDLED.replace(old, new))
        out = tmp_path / "o"
        code = main([command, "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: {message}" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, key, value, command, message",
        [
            ("direct", "t_max_us", "1e300", "ramsey", "closed-form propagator overflows"),
            ("direct", "t_max_us", "1e300", "estimate", "closed-form propagator overflows"),
            ("direct", "t_max_us", "1e300", "sweep-detuning", "closed-form propagator overflows"),
            ("direct", "delta_max_mhz", "1e300", "sweep-detuning",
             "kappa^2 overflows at delta = -1e+300 MHz"),
            ("direct", "n_max", "1e300", "sweep-gain", "M - N at N = 4.16667e+298 overflows"),
            ("direct", "n_th", "1e300", "estimate", "overflow their squares"),
            ("direct", "t1_us", "1e300", "trajectory",
             "fitted Tz = inf us is not a positive, finite decay time"),
            ("direct", "e_c_ghz", "1e300", "polariton", "vanishing 0-1 charge matrix element"),
            ("polariton", "g_ghz", "0", "ramsey", "transition (0, 1) is radiatively dark"),
        ],
    )
    def test_numerical_edge_exit_3(self, tmp_path, capsys, base, key, value, command, message):
        # Valid but extreme single-field edits that the computation cannot
        # carry: each names the operation that fails.
        conf = tmp_path / "c.conf"
        conf.write_text(_with_field(BASES[base], key, value))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the E_J/E_C transmon-regime warning
            code = main([command, "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"numerical failure in '{command}'" in captured.err
        assert message in captured.err
        assert captured.out == ""  # trajectory computes its Tz line, then fails
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["ramsey", "trajectory", "sweep-detuning", "sweep-gain", "estimate"]
    )
    @pytest.mark.parametrize(
        "edits",
        [
            {"t_phi_us": "5e-324"},
            {"t1_us": "5e-324"},
            {"t1_us": "1e-300", "n": "1e10"},
        ],
        ids=["t_phi-subnormal", "t1-subnormal", "t1-tiny-n-huge"],
    )
    def test_non_finite_rates_exit_3(self, tmp_path, capsys, command, edits):
        # Each value passes its config rule, but a rate 1/T or gamma (2N + 1)
        # overflows: every subcommand that builds the rates fails naming them.
        text = BUNDLED
        for key, value in edits.items():
            text = _with_field(text, key, value)
        conf = tmp_path / "c.conf"
        conf.write_text(text)
        out = tmp_path / "o"
        code = main([command, "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"numerical failure in '{command}': UnphysicalRatesError: rates gamma = " in (
            captured.err
        )
        assert "give a non-finite decay rate" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda text: "\ufeff" + text, id="byte-order-mark"),
            pytest.param(lambda text: text + "   \n\t\n", id="whitespace-only-lines"),
            pytest.param(lambda text: " \n" + text, id="leading-whitespace-line"),
            pytest.param(lambda text: "  # exported by scope\n" + text, id="indented-comment"),
            pytest.param(lambda text: "\t " + text, id="indented-header"),
            pytest.param(lambda text: text.replace(",", " ,\t "), id="space-padded-fields"),
        ],
    )
    def test_trace_edits_read_as_the_plain_trace(self, tmp_path, edit):
        trace_x, trace_z = _measured_traces()
        moments = []
        for name, edited in (("plain", lambda text: text), ("edited", edit)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "x.csv").write_text(edited(trace_x), encoding="utf-8")
            (tmp_path / name / "z.csv").write_text(edited(trace_z), encoding="utf-8")
            conf = tmp_path / name / "c.conf"
            conf.write_text(FAST_CONF + "[estimate]\ntrace_x = x.csv\ntrace_z = z.csv\n")
            out = tmp_path / name / "o"
            assert main(["estimate", "--config", str(conf), "--out", str(out)]) == 0
            moments.append((out / "moments.json").read_bytes())
        assert json.loads(moments[0])["source"] == "supplied"
        assert moments[1] == moments[0]

    def test_relative_trace_paths(self, tmp_path, monkeypatch):
        # Relative trace names resolve against the config file's directory,
        # whatever the working directory; the result matches absolute names.
        t = np.linspace(0.0, 4.0, 160)
        x = np.exp(-t / 1.6312) * np.sin(2.0 * math.pi * 5.0 * t + 0.3)
        z = 0.3623 + 0.6377 * np.exp(-t / 0.23551)
        data = tmp_path / "data"
        (data / "traces").mkdir(parents=True)
        for name, y in (("x.csv", x), ("traces/z.csv", z)):
            (data / name).write_text("".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(t, y)))
        (data / "rel.conf").write_text(
            FAST_CONF + "[estimate]\ntrace_x = x.csv\ntrace_z = traces/z.csv\n"
        )
        (data / "abs.conf").write_text(
            FAST_CONF + f"[estimate]\ntrace_x = {data / 'x.csv'}\n"
            f"trace_z = {data / 'traces/z.csv'}\n"
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["estimate", "--config", str(data / "rel.conf"), "--out", "rel"]) == 0
        assert main(["estimate", "--config", "../data/rel.conf", "--out", "rel2"]) == 0
        assert main(["estimate", "--config", str(data / "abs.conf"), "--out", "abs"]) == 0
        expected = (elsewhere / "abs" / "moments.json").read_bytes()
        assert json.loads(expected)["source"] == "supplied"
        for out in ("rel", "rel2"):
            assert (elsewhere / out / "moments.json").read_bytes() == expected

    def test_byte_identical_reruns(self, fast_conf, tmp_path):
        pol_conf = tmp_path / "p.conf"
        pol_conf.write_text(POLARITON_CONF)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            for cmd in ("ramsey", "estimate", "sweep-detuning"):
                assert main([cmd, "--config", fast_conf, "--out", str(out)]) == 0
            code = main(["polariton", "--config", str(pol_conf), "--out", str(out)])
            assert code == 0
        assert (out_a / "detuning_traces_x.csv").exists()
        assert (out_a / "polariton.json").exists()
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

        # Each trace-grid column is the Ramsey trace at that detuning.
        cfg = load_config(fast_conf)
        t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
        deltas = np.linspace(-cfg.delta_max_mhz, cfg.delta_max_mhz, cfg.delta_points)
        lines = (out_a / "detuning_traces_x.csv").read_text().splitlines()
        columns = list(zip(*(line.split(",") for line in lines[2:])))
        assert len(columns) == 1 + len(deltas)
        for column, delta in zip(columns[1:], deltas):
            rates = DecayRates.from_times(
                T1=cfg.t1_us, T_phi=cfg.t_phi_us, N=cfg.n, M=cfg.m, delta=delta
            )
            trace = ramsey(rates, 0.5 * math.pi, cfg.omega_mod_mhz, t)
            assert list(column) == [f"{v:.9g}" for v in trace]

    def test_trajectory_echoes_prep_angles_as_configured(self, tmp_path):
        # x * pi / pi is not x for every x: 1.3897349477489307 comes back as
        # 1.3897349477489305, so the summary must echo the configured value.
        conf = tmp_path / "c.conf"
        conf.write_text(FAST_CONF.replace("[output]", "prep_theta_pi = 1.3897349477489307\n[output]"))
        out = tmp_path / "t"
        assert main(["trajectory", "--config", str(conf), "--out", str(out)]) == 0
        summary = json.loads((out / "trajectory_summary.json").read_text())
        assert summary["prep_theta_pi"] == 1.3897349477489307
        assert summary["prep_phi_pi"] == 0.83

    def test_format_override(self, fast_conf, tmp_path):
        out = tmp_path / "fmt"
        assert main(
            ["wigner", "--config", fast_conf, "--out", str(out), "--format", "json"]
        ) == 0
        assert not (out / "wigner.csv").exists()
        assert (out / "wigner_summary.json").exists()

    def test_json_format_encodes_no_csv(self, fast_conf, tmp_path, monkeypatch):
        from sqbloch.reservoir import WignerGrid

        def fail(self):
            raise AssertionError("wigner.csv encoded but not written")

        monkeypatch.setattr(WignerGrid, "csv_blocks", fail)
        out = tmp_path / "fmt"
        assert main(["wigner", "--config", fast_conf, "--out", str(out), "--format", "json"]) == 0
        assert [p.name for p in out.iterdir()] == ["wigner_summary.json"]

    def test_sweep_labels_key_summary_and_trace_columns(self, fast_conf, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep-detuning", "--config", fast_conf, "--out", str(out)]) == 0
        summary = json.loads((out / "detuning_summary.json").read_text())
        header = (out / "detuning_traces_x.csv").read_text().split("\n")[1].split(",")
        cfg = load_config(fast_conf)
        deltas = np.linspace(-cfg.delta_max_mhz, cfg.delta_max_mhz, cfg.delta_points)
        labels = [f"{d:+.4g}" for d in deltas]
        assert header == ["t_us"] + [f"delta_{label}" for label in labels]
        assert sorted(summary["x"]) == sorted(summary["y"]) == sorted(labels)

    def test_repeated_detuning_label_exit_2(self, tmp_path, capsys):
        # 10001 points over +-2 MHz are 0.0004 MHz apart, which 4 significant
        # digits cannot tell apart near +-2: the run stops before the sweep.
        conf = tmp_path / "c.conf"
        conf.write_text(
            _with_field(_with_field(FAST_CONF, "delta_max_mhz", "2"), "delta_points", "10001")
        )
        out = tmp_path / "o"
        code = main(["sweep-detuning", "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: [protocol] delta_points = 10001 repeats label -2" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("ramsey", POLARITON_CONF.replace("e_c_ghz = 0.208\n", ""),
             "[polariton] is missing 'e_c_ghz'"),
            ("ramsey", POLARITON_CONF.replace(CIRCUIT_SECTION, ""),
             "[system] type = polariton but no [polariton] section"),
            ("ramsey", POLARITON_CONF.replace("gamma_over_2pi_mhz = 0.240\n", ""),
             "[polariton] gamma_over_2pi_mhz is required for type = polariton"),
            ("polariton", FAST_CONF, "[polariton] section required for this subcommand"),
        ],
        ids=["missing-circuit-key", "no-circuit-section", "no-gamma", "spectrum-without-circuit"],
    )
    def test_polariton_config_error_exit_2(self, tmp_path, capsys, command, text, message):
        conf = tmp_path / "c.conf"
        conf.write_text(text)
        out = tmp_path / "o"
        code = main([command, "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: {message}" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_cached_parser_parses_each_call_on_its_own(self, fast_conf, tmp_path, capsys):
        # build_parser() is built once per process; every main() call must
        # still read only its own argv.
        from sqbloch.cli import build_parser

        assert build_parser() is build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["wigner", "--config", fast_conf, "--out", str(first), "--format", "json"]) == 0
        assert main(["sweep-gain", "--config", fast_conf, "--out", str(second)]) == 0
        assert sorted(f.name for f in first.iterdir()) == ["wigner_summary.json"]
        assert (second / "gain_sweep.csv").exists() and (second / "gain_summary.json").exists()
        assert not (second / "wigner.csv").exists()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["sweep-gain", "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        third = tmp_path / "third"
        assert main(["wigner", "--config", fast_conf, "--out", str(third)]) == 0
        assert (third / "wigner.csv").exists() and (third / "wigner_summary.json").exists()

    def test_polariton_subcommand(self, tmp_path):
        conf = tmp_path / "p.conf"
        conf.write_text(POLARITON_CONF)
        out = tmp_path / "p"
        assert main(["polariton", "--config", str(conf), "--out", str(out)]) == 0
        payload = json.loads((out / "polariton.json").read_text())
        assert abs(payload["g_to_minus_ghz"] - 5.8989) * 1e3 <= 15.0
        assert abs(payload["splitting_mhz"] - 255.0) <= 10.0
        system = _polariton_system(load_config(conf))
        assert payload["labels"][:3] == ["g", "-", "+"]
        assert len(payload["energies_ghz"]) == 16  # 4 transmon x 4 photon levels
        assert payload["A_abs"][0][1] == pytest.approx(abs(system.A[0, 1]), rel=1e-9)
        levels = (out / "polariton.csv").read_text().strip().split("\n")
        assert levels[0] == "#schema=polariton-levels-v1"

    @pytest.mark.parametrize(
        "g, expected",
        [
            ("0.14", "g->- transition: 5.8850 GHz (ok)\npolariton splitting: 282.6 MHz (off)\n"),
            ("0.2", "g->- transition: 5.8254 GHz (off)\npolariton splitting: 401.9 MHz (off)\n"),
        ],
    )
    def test_polariton_off_target(self, tmp_path, capsys, g, expected):
        # A coupling away from the paper's moves the spectrum off its targets:
        # the run still exits 0, marking each figure outside its tolerance.
        conf = tmp_path / "p.conf"
        conf.write_text(_with_field(POLARITON_CONF, "g_ghz", g))
        assert main(["polariton", "--config", str(conf), "--out", str(tmp_path / "p")]) == 0
        assert capsys.readouterr().out == expected

    def test_validate_writes_report(self, fast_conf, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["validate", "--config", fast_conf, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is True
        assert len(report["criteria"]) == 11
        stdout = capsys.readouterr().out
        assert stdout.count("[PASS]") == 11

    def test_failing_validate_writes_report(self, fast_conf, tmp_path, capsys, monkeypatch):
        # validate returns 3 rather than raising when a criterion fails, so
        # its report is still written.
        from sqbloch import acceptance

        failed = acceptance.CriterionResult(1, "forced failure", passed=False)
        monkeypatch.setattr(acceptance, "CRITERIA", [lambda: failed] + acceptance.CRITERIA[1:])
        out = tmp_path / "v"
        assert main(["validate", "--config", fast_conf, "--out", str(out)]) == 3
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is False
        assert [c["passed"] for c in report["criteria"]] == [False] + [True] * 10
        stdout = capsys.readouterr().out
        assert stdout.count("[FAIL]") == 1 and stdout.count("[PASS]") == 10

    @pytest.mark.parametrize("error", [errors.NumericalFailure, MemoryError])
    @pytest.mark.parametrize("command", SIX_COMMANDS + ["polariton", "validate"])
    def test_failed_run_leaves_out_unchanged(
        self, tmp_path, capsys, monkeypatch, command, error
    ):
        # A failure after the subcommand has staged its outputs (here, in
        # encoding its JSON) writes none of them, CSV files included. An
        # allocation that fails, such as a grid of n_points = 100000000000,
        # is a numerical failure that names the MemoryError.
        def fail(name, payload):
            raise error(f"{name}: forced")

        monkeypatch.setattr(cli, "_json_text", fail)
        out = tmp_path / "o"
        out.mkdir()
        (out / "sentinel").write_bytes(b"keep\n")
        code = main([command, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"numerical failure in '{command}': {error.__name__}: " in captured.err
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["sentinel"]
        assert (out / "sentinel").read_bytes() == b"keep\n"

    def test_non_finite_json_exit_3(self, fast_conf, tmp_path, capsys, monkeypatch):
        # A JSON payload holding NaN after every check of its subcommand is
        # refused by its encoder, naming the file, before any file exists.
        wigner = cli.COMMANDS["wigner"]

        def nan_summary(cfg, out):
            result = wigner(cfg, out)
            out["wigner_summary.json"]["sigmaI_sq"] = math.nan
            return result

        monkeypatch.setitem(cli.COMMANDS, "wigner", nan_summary)
        out = tmp_path / "new" / "o"
        code = main(["wigner", "--config", fast_conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "wigner_summary.json would hold a non-finite value" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "under, message", [("", "File exists"), ("sub", "Not a directory")],
        ids=["out-is-a-file", "out-under-a-file"],
    )
    def test_unwritable_out_exit_2(self, fast_conf, tmp_path, capsys, under, message):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / under if under else taken
        code = main(["wigner", "--config", fast_conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: --out {out}: {message}" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert taken.read_text() == "a file\n"

    def test_unwritable_output_file_named_exit_2(self, fast_conf, tmp_path, capsys):
        # An output file that is a directory is named before any file is
        # written, so --out is left as it was.
        out = tmp_path / "od"
        (out / "wigner_summary.json").mkdir(parents=True)
        code = main(["wigner", "--config", fast_conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: --out {out}: wigner_summary.json: Is a directory" in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [p.name for p in out.iterdir()] == ["wigner_summary.json"]
        assert not any((out / "wigner_summary.json").iterdir())

    def test_output_file_named_through_new_parent_exit_2(self, fast_conf, tmp_path, capsys):
        # "x" of "x/../partial" does not exist until the run makes it: the
        # directory output file is still named, nothing is moved into
        # "partial", and "x" is removed again.
        partial = tmp_path / "partial"
        (partial / "wigner_summary.json").mkdir(parents=True)
        out = tmp_path / "x" / ".." / "partial"
        code = main(["wigner", "--config", fast_conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: --out {out}: wigner_summary.json: Is a directory" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()
        assert [p.name for p in partial.iterdir()] == ["wigner_summary.json"]
        assert not any((partial / "wigner_summary.json").iterdir())

    def test_failed_write_through_new_parent_removes_it(
        self, fast_conf, tmp_path, capsys, monkeypatch
    ):
        # Both "x" and "y" of "x/../y" are made by the run, and both are
        # removed when a write fails.
        write = cli._write_blocks

        def failing(path, blocks):
            if path.name.startswith(".wigner_summary.json."):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(path, blocks)

        monkeypatch.setattr(cli, "_write_blocks", failing)
        out = tmp_path / "x" / ".." / "y"
        code = main(["wigner", "--config", fast_conf, "--out", str(out)])
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: --out {out}: wigner_summary.json: No space left" in captured.err
        assert not (tmp_path / "x").exists()
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("step", ["write", "replace"])
    @pytest.mark.parametrize("exists", [False, True], ids=["new-out", "existing-out"])
    def test_failed_write_leaves_out_as_it_was(
        self, fast_conf, tmp_path, capsys, monkeypatch, step, exists
    ):
        # The second file's write fails part-way, or the first move into
        # place fails: every temporary file is removed, and so are the --out
        # directory and its parents that the run created.
        out = tmp_path / "new" / "o"
        if exists:
            out.mkdir(parents=True)
            (out / "sentinel").write_bytes(b"keep\n")
        calls = []
        write, replace = cli._write_blocks, cli.os.replace

        def failing(original, fails_on, *args):
            calls.append(args)
            if len(calls) < fails_on:
                return original(*args)
            if original is write:
                write(args[0], ["".join(args[1])[:100]])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if step == "write":
            monkeypatch.setattr(cli, "_write_blocks", lambda *a: failing(write, 2, *a))
            name = "wigner_summary.json"
        else:
            monkeypatch.setattr(cli.os, "replace", lambda *a: failing(replace, 1, *a))
            name = "wigner.csv"
        code = main(["wigner", "--config", fast_conf, "--out", str(out)])
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: --out {out}: {name}: No space left on device" in captured.err
        assert captured.out == ""
        if exists:
            assert [p.name for p in out.iterdir()] == ["sentinel"]
            assert (out / "sentinel").read_bytes() == b"keep\n"
        else:
            assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("exists", [False, True], ids=["new-out", "existing-out"])
    def test_encoder_error_mid_file_leaves_out_as_it_was(
        self, fast_conf, tmp_path, capsys, monkeypatch, exists
    ):
        # A CSV encoder that fails part-way through its file, with a block
        # of rows already written, is not an OSError: it propagates, but
        # only after the temporary file and the directories the run created
        # are removed.
        from sqbloch.reservoir import WignerGrid

        encode = WignerGrid.csv_blocks
        written = []

        def failing(self):
            yield from itertools.islice(encode(self), 3)  # the header, two blocks of rows
            written.extend(out.glob(".wigner.csv.*.tmp"))
            raise RuntimeError("encoder failed")

        monkeypatch.setattr(WignerGrid, "csv_blocks", failing)
        out = tmp_path / "new" / "o"
        if exists:
            out.mkdir(parents=True)
            (out / "sentinel").write_bytes(b"keep\n")
        with pytest.raises(RuntimeError, match="encoder failed"):
            main(["wigner", "--config", fast_conf, "--out", str(out)])
        assert len(written) == 1  # the temporary file, while the encoder ran
        assert capsys.readouterr().out == ""
        if exists:
            assert [p.name for p in out.iterdir()] == ["sentinel"]
            assert (out / "sentinel").read_bytes() == b"keep\n"
        else:
            assert not (tmp_path / "new").exists()

    def test_estimate_heap_peak(self, tmp_path, capsys):
        # The Wigner CSV is streamed into its file, so one estimate run on
        # exact 201-sample traces holds less than twice the 832 kB file's
        # text (2.1 MiB when the whole text and its bytes were built).
        t = np.linspace(0.0, 5.0, 201)
        tx, rz, sz_ss = 1.4, 3.1, 0.25
        x = np.exp(-t / tx) * np.cos(2.0 * math.pi * 5.0 * t)
        z = sz_ss + (-1.0 - sz_ss) * np.exp(-rz * t)
        traces = [
            "#schema=ramsey-trace-v1\nt_us,sz\n" + "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(t, y))
            for y in (x, z)
        ]
        conf = _supplied_traces_conf(tmp_path, *traces)
        argv = ["estimate", "--config", conf, "--out"]
        assert main(argv + [str(tmp_path / "warm")]) == 0  # imports and caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv + [str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        size = (tmp_path / "o" / "wigner_reconstructed.csv").stat().st_size
        assert size > 800_000
        assert peak < 2 * size

    def test_trajectory_fit_failure_exit_3(self, tmp_path, capsys):
        # Every sample after the first sits on the steady state to the last
        # bit; the z fit returns a negative time, which exits 3 as in
        # estimate, with nothing printed or written.
        conf = tmp_path / "c.conf"
        conf.write_text(_with_field(_with_field(BUNDLED, "t_max_us", "100"), "n_samples", "8"))
        out = tmp_path / "o"
        code = main(["trajectory", "--config", str(conf), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "numerical failure in 'trajectory': UnphysicalRatesError: fitted Tz = -" in (
            captured.err
        )
        assert captured.err.rstrip().endswith("us is not a positive, finite decay time")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, big, message",
        [
            # The z trace's last quarter sums past the float limit, so the
            # exponential fit has no finite guess.
            ("z", 1.7e308, "exponential fit: the initial guess (a, T, c) is not finite"),
            # The x trace's mean overflows, so the damped-sinusoid fit has none.
            ("x", -1.7e308,
             "damped-sinusoid fit: the initial guess (a, T, phase, c) is not finite"),
        ],
        ids=["z", "x"],
    )
    def test_overflowing_trace_exit_3(self, tmp_path, capsys, axis, big, message):
        # Exit 3 naming the fit, with no numpy warning, nothing printed or written.
        traces = dict(zip("xz", _measured_traces()))
        t = np.linspace(0.0, 4.0, 160)
        traces[axis] = "".join(f"{a!r},{1.0 if a < 3.0 else big!r}\n" for a in t.tolist())
        conf = _supplied_traces_conf(tmp_path, traces["x"], traces["z"])
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--config", conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"numerical failure in 'estimate': DegenerateFitError: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_overflowing_squared_residuals_exit_3(self, tmp_path, capsys):
        # Every sample of the x trace is finite, but the squared residuals at
        # the damped-sinusoid fit's guess sum past the float limit: exit 3
        # naming the overflow, with no numpy warning, nothing printed or
        # written.
        t = np.linspace(0.0, 4.0, 160)
        x = 1e300 * np.exp(-t) * np.sin(2.0 * math.pi * 5.0 * t)
        trace_x = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), x.tolist()))
        conf = _supplied_traces_conf(tmp_path, trace_x, _measured_traces()[1])
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--config", conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(
            "numerical failure in 'estimate': DegenerateFitError: squared residuals overflow "
            "at the initial guess (largest |residual| "
        )
        assert captured.out == ""
        assert not out.exists()

    def test_flat_x_trace_exit_3(self, tmp_path, capsys):
        # A constant x trace has no fringe to decay: its fit has Tx = inf,
        # which exits 3 naming Tx, with nothing printed and --out untouched.
        t = np.linspace(0.0, 2.0, 201)
        trace_x = "t_us,sz\n" + "".join(f"{a!r},0.2\n" for a in t.tolist())
        conf = _supplied_traces_conf(tmp_path, trace_x, _measured_traces()[1])
        out = tmp_path / "o"
        out.mkdir()
        (out / "moments.json").write_text("kept\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--config", conf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(
            "numerical failure in 'estimate': UnphysicalRatesError: "
            "fitted Tx = inf us is not a positive, finite decay time"
        )
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["moments.json"]
        assert (out / "moments.json").read_text() == "kept\n"

    @pytest.mark.parametrize("fmt", ["csv", "both"])
    def test_overflowing_variance_exit_3(self, tmp_path, capsys, fmt):
        # n = 1e308 is finite but sigma_I^2 = 2(n + m + 1/2) is not: the run
        # fails before any axis is built, under either format, with no
        # numpy warning and no file.
        conf = tmp_path / "c.conf"
        conf.write_text(_with_field(_with_field(BUNDLED, "n", "1e308"), "m", "0"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["wigner", "--config", str(conf), "--out", str(out), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3
        assert "numerical failure in 'wigner': UnphysicalRatesError: quadrature variance " \
            "sigma_I^2 = 2(N + |M| + 1/2) is not finite at N = 1e+308, |M| = 0" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


EDIT_VALUES = ["-1", "-1e300", "0", "nan", "inf", "-inf", "1e300", "soon", ""]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(BASES)).flatmap(
        lambda base: st.tuples(
            st.just(base),
            st.lists(
                st.tuples(
                    st.sampled_from(re.findall(r"^(\w+) = ", BASES[base], flags=re.M)),
                    st.sampled_from(EDIT_VALUES),
                ),
                min_size=1, max_size=2, unique_by=lambda edit: edit[0],
            ),
        )
    ),
    st.sampled_from(SIX_COMMANDS + ["polariton"]),
)
def test_field_edits_keep_exit_contract(base_edits, command):
    # Any edit of one or two fields ends in exit 0, 2 or 3 without a
    # traceback; a failed run writes nothing, and a successful run writes
    # only strict JSON.
    base, edits = base_edits
    text = BASES[base]
    for key, value in edits:
        text = _with_field(text, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "c.conf"
        conf.write_text(text)
        out = Path(tmp) / "o"
        stderr, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main([command, "--config", str(conf), "--out", str(out)])
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue() + stdout.getvalue()
        if code != 0:
            assert not out.exists()
        else:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)


def test_cli_import_leaves_acceptance_unloaded():
    # Only `validate` and `polariton` (its spectrum targets) import the
    # acceptance suite; importing the CLI, and every other subcommand, skips it.
    import sqbloch

    src = str(Path(sqbloch.__file__).resolve().parents[1])
    code = "import sys, sqbloch.cli; print('sqbloch.acceptance' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
        timeout=120,
    )
    assert proc.stdout.strip() == "False"


def test_package_surface():
    # Each public name has one import route, its module: every __all__ name
    # resolves there, and the root binds the submodules and __version__ but
    # no function or class of its own.
    import sqbloch

    for info in pkgutil.iter_modules(sqbloch.__path__):
        module = importlib.import_module(f"sqbloch.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    for name in ("blochdyn", "estimation", "numerics", "polariton", "protocols", "reservoir"):
        assert inspect.ismodule(getattr(sqbloch, name)), name
    assert sqbloch.__version__ == "0.1.0"
    bound = [n for n, v in vars(sqbloch).items() if inspect.isfunction(v) or inspect.isclass(v)]
    assert bound == []


def test_every_error_is_a_numerical_failure():
    # main() maps NumericalFailure to exit 3, so every exception class the
    # errors module defines must derive from it.
    defined = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert len(defined) == 9
    assert all(issubclass(cls, errors.NumericalFailure) for cls in defined)
