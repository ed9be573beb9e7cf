"""Every CSV table against the per-value ``f"{v:.9g}"`` writer it replaced.

The oracles below are those writers, kept verbatim but for their arguments:
they take the arrays the protocols return.  The
cells cover signed zeros, subnormals, 1e300, negatives, inf and nan, and the
long tables span more than one encoder block.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from sqbloch import _table
from sqbloch._table import _BLOCK_CELLS, _format_table, csv_blocks
from sqbloch.blochdyn import DecayRates
from sqbloch.cli import _trace_grid_csv, load_config, main
from sqbloch.protocols import detuning_sweep, gain_sweep
from sqbloch.reservoir import QuadratureVariances, WignerGrid, wigner_grid_for

TIMES = [-1e300, -2.5, -0.0, 5e-324, 1e-310, 1.0 / 3.0, 123456789.5, 1e300]
SZ = [-1.0, -0.0, 0.0, 5e-324, -1e-310, -1.0 / 3.0, 0.999999999, 1e-300]
EDGE = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, -2.5, 2.0 / 3.0]


def _ramsey_oracle(times, sz):
    lines = ["#schema=ramsey-trace-v1", "t_us,sz"]
    for t, v in zip(times, sz):
        lines.append(f"{t:.9g},{v:.9g}")
    return "\n".join(lines) + "\n"


def _trajectory_oracle(times, xyz):
    lines = ["#schema=bloch-trajectory-v1", "t_us,sx,sy,sz"]
    for t, (sx, sy, sz) in zip(times, xyz):
        lines.append(f"{t:.9g},{sx:.9g},{sy:.9g},{sz:.9g}")
    return "\n".join(lines) + "\n"


def _detuning_oracle(deltas, T_eff, converged):
    lines = ["#schema=detuning-sweep-v1", "delta_mhz,T_eff_us,converged"]
    for delta, T, conv in zip(deltas, T_eff, converged):
        lines.append(f"{delta:.9g},{T:.9g},{int(conv)}")
    return "\n".join(lines) + "\n"


def _gain_oracle(rows):
    lines = ["#schema=gain-sweep-v1", "N,M,Tx_us,Ty_us,Tz_us,M_minus_N"]
    for N, M, Tx, Ty, Tz, M_minus_N in rows:
        lines.append(f"{N:.9g},{M:.9g},{Tx:.9g},{Ty:.9g},{Tz:.9g},{M_minus_N:.9g}")
    return "\n".join(lines) + "\n"


def _trace_grid_oracle(deltas, t, traces):
    header = "t_us," + ",".join(f"delta_{d:+.4g}" for d in deltas)
    lines = ["#schema=detuning-trace-grid-v1", header]
    for k, tk in enumerate(t):
        lines.append(
            f"{tk:.9g}," + ",".join(f"{tr[k]:.9g}" for tr in traces)
        )
    return "\n".join(lines) + "\n"


def _wigner_oracle(grid):
    lines = ["#schema=wigner-grid-v1", "," + ",".join(f"{q:.9g}" for q in grid.Q_axis)]
    for i, row in zip(grid.I_axis, grid.values):
        lines.append(f"{i:.9g}," + ",".join(f"{w:.9g}" for w in row))
    return "\n".join(lines) + "\n"


def _long_trace(n=3000, seed=5):
    """n samples of |sz| <= 1 spread over 320 decades, strictly increasing t."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.exponential(size=n)) - 7.0
    sz = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-320, 1, n)
    return t, sz


def _edge_trace(shift=0):
    return np.array(TIMES), np.roll(SZ, shift)


@pytest.mark.parametrize("trace", [_edge_trace(), _long_trace()], ids=["edge", "long"])
def test_ramsey_trace(trace):
    # The table the ramsey subcommand writes for each trace.
    assert "".join(csv_blocks("ramsey-trace-v1", "t_us,sz", *trace)) == _ramsey_oracle(*trace)


def test_bloch_trajectory():
    # The table the trajectory subcommand writes.
    xyz = np.array([
        (-0.0, 0.0, 5e-324),
        (-1e-310, 0.6, -0.8),
        (1.0 / 3.0, -2.0 / 3.0, 0.0),
        (5e-324, -5e-324, -1.0),
        (1e-300, -0.0, 0.999999999),
        (-0.5, 0.5, 0.5),
        (0.0, 0.0, 0.0),
        (-1e-5, 1e-4, 0.25),
    ])
    t = np.array(TIMES)
    text = "".join(csv_blocks("bloch-trajectory-v1", "t_us,sx,sy,sz", t, xyz))
    assert text == _trajectory_oracle(t, xyz)
    empty = "".join(
        csv_blocks("bloch-trajectory-v1", "t_us,sx,sy,sz", np.array([]), np.empty((0, 3)))
    )
    assert empty == _trajectory_oracle([], [])


def _detuning_csv(deltas, T_eff, converged):
    # The table the sweep-detuning subcommand writes for each prep axis.
    header = "delta_mhz,T_eff_us,converged"
    return "".join(csv_blocks("detuning-sweep-v1", header, deltas, T_eff, converged))


def _gain_csv(rows):
    # The table the sweep-gain subcommand writes.
    return "".join(csv_blocks("gain-sweep-v1", "N,M,Tx_us,Ty_us,Tz_us,M_minus_N", rows))


def test_detuning_sweep():
    deltas = np.array(EDGE)
    t_eff = np.array([math.inf, math.nan, 1e300, -1e-310, 0.0, -0.0, 5e-324, -math.inf, 2.5])
    converged = np.arange(len(EDGE)) % 2 == 1
    assert _detuning_csv(deltas, t_eff, converged) == _detuning_oracle(deltas, t_eff, converged)
    empty = np.array([])
    assert _detuning_csv(empty, empty, empty.astype(bool)) == _detuning_oracle([], [], [])


def test_gain_sweep():
    rows = np.array([np.roll(EDGE, k)[:6] for k in range(len(EDGE))])
    assert _gain_csv(rows) == _gain_oracle(rows)
    assert _gain_csv(np.empty((0, 6))) == _gain_oracle([])


def test_cli_sweep_tables(tmp_path):
    # The files sweep-detuning and sweep-gain write for the bundled config,
    # against the oracles on the arrays the two sweeps return.
    cfg = load_config(None)
    assert cfg.type == "direct"
    rates = DecayRates.from_times(T1=cfg.t1_us, T_phi=cfg.t_phi_us, N=cfg.n, M=cfg.m)
    t = np.linspace(0.0, cfg.t_max_us, cfg.n_samples)
    deltas = np.linspace(-cfg.delta_max_mhz, cfg.delta_max_mhz, cfg.delta_points)
    _, T_eff, converged = detuning_sweep(
        rates, deltas, (0.5 * math.pi, math.pi), t, omega_mod=cfg.omega_mod_mhz
    )
    rows = gain_sweep(np.linspace(0.0, cfg.n_max, cfg.n_points), cfg.eta, cfg.t1_us, cfg.t_phi_us)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep-detuning", "--out", str(tmp_path)]) == 0
        assert main(["sweep-gain", "--out", str(tmp_path)]) == 0
    for i, tag in enumerate("xy"):
        text = (tmp_path / f"detuning_t{tag}.csv").read_text()
        assert text == _detuning_oracle(deltas, T_eff[i], converged[i])
    assert (tmp_path / "gain_sweep.csv").read_text() == _gain_oracle(rows)


@pytest.mark.parametrize("long", [False, True], ids=["edge", "long"])
def test_trace_grid(long):
    if long:
        t = _long_trace(seed=0)[0]
        traces = [_long_trace(seed=s)[1] for s in range(8)]
    else:
        t = np.array(TIMES)
        traces = [_edge_trace(shift)[1] for shift in range(3)]
    deltas = np.linspace(-0.6, 0.6, len(traces))
    labels = [f"{d:+.4g}" for d in deltas]
    assert "".join(_trace_grid_csv(labels, t, traces)) == _trace_grid_oracle(deltas, t, traces)


def test_wigner_grid():
    # 301 columns: a block holds 13 rows, so 20 rows take two blocks.
    rng = np.random.default_rng(11)
    q_axis = np.concatenate([EDGE, rng.normal(size=291) * 10.0 ** rng.integers(-300, 300, 291)])
    i_axis = np.concatenate([EDGE, rng.normal(size=11)])
    values = np.abs(rng.normal(size=(20, 300))) * 10.0 ** rng.integers(-320, 300, (20, 300))
    values[0, :3] = [-0.0, 0.0, 5e-324]
    grid = WignerGrid(I_axis=i_axis, Q_axis=q_axis, values=values)
    assert grid.to_csv() == _wigner_oracle(grid)
    empty = WignerGrid(I_axis=np.array([]), Q_axis=np.array([]), values=np.empty((0, 0)))
    assert empty.to_csv() == _wigner_oracle(empty)


def _even_grid(n_points=41):
    return wigner_grid_for(QuadratureVariances(4.92, 0.60), n_points=n_points)


def test_wigner_partial_mirror():
    # An axis whose bits are not even is encoded in full: a changed last bit
    # in either half, and 0.0 against -0.0, keep their own text; mirror rows
    # with the same NaN bits get the same text.
    grid = _even_grid()
    values = grid.values.copy()
    values[40 - 3, 7] = np.nextafter(values[40 - 3, 7], 1.0)  # past the middle
    values[5, 11] = np.nextafter(values[5, 11], 0.0)  # before it
    values[1, 0], values[39, 0] = 0.0, -0.0
    values[2, :3], values[38, :3] = np.nan, np.nan
    partial = WignerGrid(I_axis=grid.I_axis, Q_axis=grid.Q_axis, values=values)
    text = partial.to_csv()
    assert text == _wigner_oracle(partial)
    lines = text.splitlines()
    assert lines[2 + 39].split(",", 2)[1] == "-0" and lines[2 + 1].split(",", 2)[1] == "0"


def test_wigner_no_mirror_rows():
    # Random rows are never bitwise mirrors, so every row is encoded; 301
    # columns make 20 rows span two encoder blocks.
    rng = np.random.default_rng(23)
    i_axis = np.sort(rng.normal(size=20))
    q_axis = rng.normal(size=301)
    values = np.abs(rng.normal(size=(20, 301))) * 10.0 ** rng.integers(-320, 300, (20, 301))
    grid = WignerGrid(I_axis=i_axis, Q_axis=q_axis, values=values)
    assert grid.to_csv() == _wigner_oracle(grid)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_wigner_zero_and_one_rows(n_rows):
    q_axis = np.array([-1.5, -0.0, 0.0, 2.0 / 3.0])
    grid = WignerGrid(I_axis=np.full(n_rows, -0.25), Q_axis=q_axis, values=np.full((n_rows, 4), 0.5))
    assert grid.to_csv() == _wigner_oracle(grid)


def _encoded_cells(monkeypatch, grid):
    """The CSV text of ``grid`` and the number of cells sent to the encoder."""
    encoded = []
    encode = _table._format_rows
    monkeypatch.setattr(_table, "_format_rows", lambda rows: encoded.append(rows.size) or encode(rows))
    return grid.to_csv(), sum(encoded)


@pytest.mark.parametrize("n_points", [2, 40, 41, 241])
def test_even_grid_encodes_one_quadrant(monkeypatch, n_points):
    # The header, the I column and the first ceil(n / 2) cells of the first
    # ceil(n / 2) rows are all the cells an even grid sends to the encoder.
    grid = _even_grid(n_points)
    text, cells = _encoded_cells(monkeypatch, grid)
    assert text == _wigner_oracle(grid)
    assert cells == 2 * n_points + ((n_points + 1) // 2) ** 2


@pytest.mark.parametrize("shape", [(41, 40), (40, 41), (41, 41), (2, 3)])
@pytest.mark.parametrize("even", ["rows", "columns"])
def test_grid_even_along_one_axis(monkeypatch, shape, even):
    # Mirror rows (or columns) of random values: only that axis is halved.
    n, width = shape
    rng = np.random.default_rng(n * width)
    values = np.abs(rng.normal(size=shape)) * 10.0 ** rng.integers(-320, 300, shape)
    if even == "rows":
        values[n - n // 2 :] = values[: n // 2][::-1]
        expected = (n + 1) // 2 * width
    else:
        values[:, width - width // 2 :] = values[:, : width // 2][:, ::-1]
        expected = n * ((width + 1) // 2)
    grid = WignerGrid(I_axis=rng.normal(size=n), Q_axis=rng.normal(size=width), values=values)
    text, cells = _encoded_cells(monkeypatch, grid)
    assert text == _wigner_oracle(grid)
    assert cells == n + width + expected


@pytest.mark.parametrize("n_points", [40, 41])
def test_one_cell_breaks_the_column_mirror(monkeypatch, n_points):
    # One cell of a right-hand column, doubled in two mirror rows, leaves
    # the rows even: half the rows are encoded, each in full.
    grid = _even_grid(n_points)
    values = grid.values.copy()
    values[[3, n_points - 4], n_points - 2] *= 2.0
    broken = WignerGrid(I_axis=grid.I_axis, Q_axis=grid.Q_axis, values=values)
    text, cells = _encoded_cells(monkeypatch, broken)
    assert text == _wigner_oracle(broken)
    assert text != grid.to_csv()
    assert cells == 2 * n_points + (n_points + 1) // 2 * n_points


@pytest.mark.parametrize("n_cols", [0, 1, 2])
@pytest.mark.parametrize("n_rows", [0, 1, 2])
@pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
def test_wigner_small_shapes(n_rows, n_cols, even):
    values = np.full((n_rows, n_cols), 0.5)
    if not even:
        values += np.arange(n_rows * n_cols).reshape(n_rows, n_cols) / 3.0
    i_axis = np.linspace(-0.25, 0.0, n_rows)
    q_axis = np.array([-1.5, 2.0 / 3.0])[:n_cols]
    grid = WignerGrid(I_axis=i_axis, Q_axis=q_axis, values=values)
    assert grid.to_csv() == _wigner_oracle(grid)


@pytest.mark.parametrize(
    "shape", [(819, 5), (1024, 4), (17, 241), (4095, 1), (4096, 1), (4097, 1), (5000, 1)]
)
def test_format_table_blocks(monkeypatch, shape):
    # 4,095, 4,096 and 4,097 cells sit on either side of one encoder block,
    # and 5,000 one-cell rows span two; every block holds whole rows and at
    # most _BLOCK_CELLS cells, and the text is the per-value one.
    rng = np.random.default_rng(shape[0] * shape[1])
    table = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, shape)
    table.flat[: len(EDGE) + 2] = EDGE + [math.inf, math.nan]
    blocks = []
    encode = _table._format_rows
    monkeypatch.setattr(_table, "_format_rows", lambda rows: blocks.append(rows.shape) or encode(rows))
    expected = [",".join("%.9g" % v for v in row) + "\n" for row in table]
    step = _BLOCK_CELLS // shape[1]
    texts = list(_format_table(table))
    assert texts == ["".join(expected[k : k + step]) for k in range(0, shape[0], step)]
    assert blocks == [(min(step, shape[0] - k), shape[1]) for k in range(0, shape[0], step)]


def _check_blocks(blocks, text):
    """``blocks`` join to ``text``, and each after the first (the header)
    holds whole rows: exactly as many as _BLOCK_CELLS cells hold (at least
    one), except the last block, which holds no more."""
    assert "".join(blocks) == text
    for k in range(1, len(blocks)):
        rows = blocks[k].splitlines()
        assert blocks[k].endswith("\n")
        full = max(1, _BLOCK_CELLS // (rows[0].count(",") + 1))
        assert len(rows) == full if k < len(blocks) - 1 else 1 <= len(rows) <= full


@pytest.mark.parametrize("n_points", [241, 240, 3, 2])
def test_wigner_blocks_join_to_the_text(n_points):
    # The file the CLI streams is the text to_csv returns, and the
    # per-value one, on even grids of odd and even size.
    grid = _even_grid(n_points)
    text = grid.to_csv()
    assert text == _wigner_oracle(grid)
    _check_blocks(list(grid.csv_blocks()), text)


def test_uneven_wigner_blocks_join_to_the_text():
    # 301 columns: a block holds 13 output rows, so 20 rows take two blocks.
    rng = np.random.default_rng(31)
    values = np.abs(rng.normal(size=(20, 301))) * 10.0 ** rng.integers(-320, 300, (20, 301))
    grid = WignerGrid(I_axis=rng.normal(size=20), Q_axis=rng.normal(size=301), values=values)
    blocks = list(grid.csv_blocks())
    assert len(blocks) == 3
    _check_blocks(blocks, _wigner_oracle(grid))


@pytest.mark.parametrize("n_rows", [2048, 2049, 3000])
def test_csv_blocks_join_to_the_table(n_rows):
    # Two columns: 2,048 rows fill one encoder block, 2,049 spill one row
    # into a second.
    t, sz = _long_trace(n_rows)
    blocks = list(csv_blocks("ramsey-trace-v1", "t_us,sz", t, sz))
    assert len(blocks) == 1 + -(-n_rows // (_BLOCK_CELLS // 2))
    text = "".join(csv_blocks("ramsey-trace-v1", "t_us,sz", t, sz))
    assert text == _ramsey_oracle(t, sz)
    _check_blocks(blocks, text)
