"""Plot-ready CSV tables: a ``#schema=`` line, a header line, then rows of
numbers, each printed exactly as ``"%.9g" % x`` prints it.

Every CSV file of the package is written by :func:`csv_blocks` except two:
the polariton level table, which has a text column, and the Wigner grid,
which :meth:`sqbloch.reservoir.WignerGrid.csv_blocks` builds from
:func:`_format_table` blocks so that it can encode one quadrant of an even
grid.  Each yields its text in blocks of whole rows of at most
``_BLOCK_CELLS`` cells (one row where a row is wider), so that a file can
be written without its whole text in memory; where the whole text is wanted,
it is the join of the blocks.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["csv_blocks"]


def csv_blocks(schema: str, header: str, *columns) -> Iterator[str]:
    """CSV text of ``columns`` side by side under a ``#schema=`` line and
    ``header``, in blocks.  Each column is a 1-D sequence of numbers or a 2-D
    array of several columns, all of the same length; every number is
    printed as ``"%.9g" % x`` prints it."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    yield f"#schema={schema}\n{header}\n"
    yield from _format_table(np.column_stack(columns))


def _block_rows(width: int) -> int:
    """Rows of ``width`` cells in one block: as many as ``_BLOCK_CELLS``
    holds, at least one."""
    return max(1, _BLOCK_CELLS // width)


def _format_table(table: np.ndarray) -> Iterator[str]:
    """:func:`_format_rows` of a 2-D array, :func:`_block_rows` rows at a
    time to bound the encoder's temporaries."""
    step = _block_rows(table.shape[1])
    for k in range(0, len(table), step):
        yield _format_rows(table[k : k + step])


# --- Vectorised "%.9g" ---------------------------------------------------------
#
# A double x with 1e-14 <= |x| < 1e31 has a decimal exponent e in [-14, 30], so
# y = |x| * 10**(8 - e) takes one multiplication or division by an exact power
# of ten (10**22 is the largest double that is one): y is the exact product
# rounded once.  Below 2**30 every k + 1/2 is a double and rounding is
# monotone, so y lies on the same side of k + 1/2 as the exact product, and
# rint(y) is the correctly rounded 9-digit mantissa that "%.9g" prints (Gay's
# algorithm, round half to even) unless y is exactly halfway.  Those cells,
# and every cell outside the range (0, -0.0, subnormals, inf, nan), are
# formatted one at a time.

_BLOCK_CELLS = 4096
_PLACES = (10 ** np.arange(8, -1, -1, dtype=np.int32))[:, None]
_DIGIT = np.arange(9, dtype=np.int32)[:, None]  # digit position, leading first
# Row e + 16 of these tables serves exponent e.  |x| * _UP / _DOWN is
# |x| * 10**(8 - e) with one rounding for e in [-14, 30]; the rows for
# e = -16, -15, 31 and 32 only steer the log10 correction.
_UP = np.array([float(10 ** max(8 - e, 0)) for e in range(-16, 33)])
_DOWN = np.array([float(10 ** max(e - 8, 0)) for e in range(-16, 33)])
_EXPONENTS = np.array([list(b"e%+03d" % e) for e in range(-16, 33)], np.uint8).T


def _decimal9(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """9-digit mantissas ``m`` in [1e8, 1e9) and exponents ``e`` with ``|x|``
    rounded to ``m * 10**(e - 8)``, and ``ok``, False for the cells the
    arithmetic cannot round correctly (there m = 1e8 and e = 0)."""
    a = np.abs(x)
    ok = (a >= 1e-14) & (a < 1e31)
    a = np.where(ok, a, 1.0)
    row = np.floor(np.log10(a)).astype(np.int32) + 16
    y = a * _UP[row] / _DOWN[row]
    row += (y >= 1e9).astype(np.int32) - (y < 1e8)  # log10 near a power of ten
    y = a * _UP[row] / _DOWN[row]
    m = np.rint(y)
    ok &= (row >= 2) & (row <= 46) & (y >= 1e8) & (y < 1e9)  # e in [-14, 30]
    ok &= np.abs(y - m) < 0.5  # not halfway (y - m is exact)
    carry = m == 1e9
    m = np.where(carry | ~ok, 1e8, m).astype(np.int32)
    return m, np.where(ok, row - 16 + carry, 0), ok


def _format_rows(rows: np.ndarray) -> str:
    """``"%.9g" % x`` of every entry of a 2-D array, joined by "," within a
    row and ended by a newline after each row."""
    x = rows.ravel()
    m, e, ok = _decimal9(x)
    q = m // _PLACES  # (9, cells): the leading 1..9 digits
    n_sig = 1 + (q[:-1] * _PLACES[:-1] != m).sum(axis=0, dtype=np.uint8)
    # Digit i is q[i] - 10 q[i-1], in 0..9, so uint8 arithmetic (mod 256)
    # gets it exactly in one byte per digit.
    digits = q.astype(np.uint8)
    del q
    digits[1:] -= 10 * digits[:-1]
    digits += ord("0")
    # Fixed notation for -4 <= e < 9, with -e zeros before the digits when
    # e < 0 ("0.00ddd"); else one digit before the point and an exponent.
    sci = (e < -4) | (e >= 9)
    n_lead = np.where(sci, 0, np.maximum(-e, 0))
    n_int = np.where(sci, 1, np.maximum(e + 1, 1))  # characters before the point
    length = np.maximum(n_int, n_lead + n_sig)  # without the point
    point = length > n_int
    neg = x < 0
    size = (neg + length + point + 4 * sci + 1).astype(np.int32)  # as every offset below
    # Cells left to Python are laid out as "1" or "-1" below, and their own
    # text, never shorter, is written over that last.
    fallback = {k: ("%.9g" % x[k]).encode() for k in np.flatnonzero(~ok)}
    for k, text in fallback.items():
        size[k] = len(text) + 1
    end = np.cumsum(size, dtype=np.int32)  # each cell ends with its separator
    start = end - size
    base = start + neg
    trash = end[-1]

    # Every byte not written below is a zero of "0.000"; the extra byte
    # takes cut digits.
    buf = np.full(trash + 1, ord("0"), np.uint8)
    buf[start[neg]] = ord("-")
    # Digit j's byte, past the point once j reaches the integer digits; a
    # digit beyond the cell's length goes to the extra byte.  One (9, cells)
    # int32 index array, updated in place.
    slot = base + n_lead + _DIGIT
    slot += _DIGIT >= n_int - n_lead
    np.putmask(slot, _DIGIT >= length - n_lead, trash)
    buf[slot] = digits
    buf[np.where(point, base + n_int, trash)] = ord(".")
    at = (base + length + point)[sci]
    buf[at + np.arange(4)[:, None]] = np.take(_EXPONENTS, e[sci] + 16, axis=1)
    sep = np.full(rows.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    buf[end - 1] = sep.ravel()
    for k, text in fallback.items():
        buf[start[k] : end[k] - 1] = np.frombuffer(text, np.uint8)
    return buf[:-1].tobytes().decode("ascii")
