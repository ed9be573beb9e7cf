"""Every CSV table against the per-value ``f"{v:.9g}"`` writer it replaced.

The oracles below are those writers, kept verbatim but for their arguments:
the Ramsey and trajectory ones take the arrays the protocols return.  The
cells cover signed zeros, subnormals, 1e300, negatives, inf and nan, and the
long tables span more than one encoder block.
"""

import math

import numpy as np
import pytest

from sqbloch._table import csv_table
from sqbloch.cli import _trace_grid_csv
from sqbloch.protocols import (
    DetuningSweepPoint,
    GainSweepPoint,
    detuning_sweep_to_csv,
    gain_sweep_to_csv,
)
from sqbloch.reservoir import WignerGrid

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


def _detuning_oracle(points):
    lines = ["#schema=detuning-sweep-v1", "delta_mhz,T_eff_us,converged"]
    for p in points:
        lines.append(f"{p.delta:.9g},{p.T_eff:.9g},{int(p.converged)}")
    return "\n".join(lines) + "\n"


def _gain_oracle(points):
    lines = ["#schema=gain-sweep-v1", "N,M,Tx_us,Ty_us,Tz_us,M_minus_N"]
    for p in points:
        lines.append(
            f"{p.N:.9g},{p.M:.9g},{p.Tx:.9g},{p.Ty:.9g},{p.Tz:.9g},{p.M_minus_N:.9g}"
        )
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
    assert csv_table("ramsey-trace-v1", "t_us,sz", *trace) == _ramsey_oracle(*trace)


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
    text = csv_table("bloch-trajectory-v1", "t_us,sx,sy,sz", t, xyz)
    assert text == _trajectory_oracle(t, xyz)
    empty = csv_table("bloch-trajectory-v1", "t_us,sx,sy,sz", np.array([]), np.empty((0, 3)))
    assert empty == _trajectory_oracle([], [])


def test_detuning_sweep():
    t_eff = [math.inf, math.nan, 1e300, -1e-310, 0.0, -0.0, 5e-324, -math.inf, 2.5]
    points = [
        DetuningSweepPoint(delta, T, bool(k % 2))
        for k, (delta, T) in enumerate(zip(EDGE, t_eff))
    ]
    assert detuning_sweep_to_csv(points) == _detuning_oracle(points)
    assert detuning_sweep_to_csv([]) == _detuning_oracle([])


def test_gain_sweep():
    points = [GainSweepPoint(*np.roll(EDGE, k)[:6]) for k in range(len(EDGE))]
    assert gain_sweep_to_csv(points) == _gain_oracle(points)
    assert gain_sweep_to_csv([]) == _gain_oracle([])


@pytest.mark.parametrize("long", [False, True], ids=["edge", "long"])
def test_trace_grid(long):
    if long:
        t = _long_trace(seed=0)[0]
        traces = [_long_trace(seed=s)[1] for s in range(8)]
    else:
        t = np.array(TIMES)
        traces = [_edge_trace(shift)[1] for shift in range(3)]
    deltas = np.linspace(-0.6, 0.6, len(traces))
    assert _trace_grid_csv(deltas, t, traces) == _trace_grid_oracle(deltas, t, traces)


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
