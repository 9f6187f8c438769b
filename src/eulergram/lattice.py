"""Square lattices, bit grids and Gauss digitization.

Design notes
------------
A :class:`Lattice` is the finite window ``{origin + epsilon*(i, j)}`` for
``0 <= i < nx``, ``0 <= j < ny``.  A :class:`BitGrid` stores one bit per
lattice point in a read-only numpy bool array of shape ``(ny, nx)``; row
``j`` holds the points with the j-th smallest y coordinate.  Vectorized
boolean algebra on these arrays plays the role of word-wise bit fiddling.

Digitization samples the indicator predicate at every lattice point, so
whether boundary points belong to the set is decided by the predicate
itself (closed sets answer True on their boundary).  The predicate is
called once on the two broadcast axes, a ``(1, nx)`` row of x values and
an ``(ny, 1)`` column of y values, so a disc squares 1-D differences and
only its sum and comparison are full-grid.  A union evaluates each member
on its bounding box's block of the axes only, so each member costs its
own box rather than the whole grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import InvalidSpec

__all__ = [
    "Lattice",
    "IndicatorSet",
    "BitGrid",
    "digitize",
    "grid_volume",
    "lattice_covering",
    "write_pgm",
    "read_pgm",
]


@dataclass(frozen=True)
class Lattice:
    """Finite square lattice with spacing ``epsilon`` anchored at ``origin``."""

    epsilon: float
    origin: tuple[float, float]
    nx: int
    ny: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must hold at least one point per axis")

    def point(self, i: int, j: int) -> tuple[float, float]:
        return (self.origin[0] + self.epsilon * i, self.origin[1] + self.epsilon * j)

    def xs(self) -> np.ndarray:
        return self.origin[0] + self.epsilon * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.origin[1] + self.epsilon * np.arange(self.ny)


@dataclass(frozen=True)
class IndicatorSet:
    """A measurable planar set given by its indicator predicate.

    ``contains`` must accept broadcastable numpy arrays ``(x, y)`` and
    return a bool array of the broadcast shape.  ``bounding_box`` is
    ``(x0, x1, y0, y1)`` with the set contained in the closed box; a union
    relies on it, evaluating each member only where its box can hold points.

    ``row_runs(xs, ys, dx)`` lists the cells of a stack of copies of one
    row grid, row by row.  ``xs`` are ascending, evenly spaced column
    coordinates; copy ``q`` has the rows ``ys[q]`` of the ``(copies,
    rows)`` array ``ys`` and the x-offset ``dx[q]``.  It returns ``(lo,
    hi)``, two ``(copies * rows, k)`` int arrays of half-open column
    ranges, the rows of copy 0 first, such that ``contains(xs[i] - dx[q],
    y)`` holds exactly for the columns of the ranges of row ``y`` of copy
    ``q``: each point is the float ``xs[i] - dx[q]``, as a caller shifting
    the columns itself would make it.  A row's ranges are disjoint and
    never touch; empty ranges (``lo == hi``) may sit among them and pad
    rows with fewer than ``k``.  Every set has it: discs, annuli, their
    unions and their window clips give it in closed form, and a set built
    without one reads it off ``contains`` cell by cell.
    """

    contains: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounding_box: tuple[float, float, float, float]
    row_runs: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray],
                                tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        runs = self.row_runs
        if runs is None or (isinstance(runs, _DenseRuns) and runs.contains is not self.contains):
            object.__setattr__(self, "row_runs", _DenseRuns(self.contains))


# a dense evaluation holds at most this many cells at once, so memory stays
# flat on fine meshes
_DENSE_CELLS = 1 << 20


def _run_list(inside: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of True in the rows of a 2-D bool array, in raster order.

    Returns three flat arrays: each run's row, first column and end column
    (exclusive).
    """
    p = np.zeros((len(inside), inside.shape[1] + 2), dtype=bool)
    p[:, 1:-1] = inside
    change = p[:, 1:] != p[:, :-1]
    rows, cols = np.divmod(np.flatnonzero(change), change.shape[1])
    # a row's value changes alternate, starting with a run start, since
    # both of its ends are padded with False
    return rows[::2], cols[::2], cols[1::2]


def _runs_of(inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of True in each row of a 2-D bool array, as ``row_runs`` lists them."""
    rows, lo, hi = _run_list(inside)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    out = np.zeros((2, len(inside), max(1, rank.max(initial=-1) + 1)), dtype=np.intp)
    out[0, rows, rank] = lo
    out[1, rows, rank] = hi
    return out[0], out[1]


@dataclass(frozen=True)
class _DenseRuns:
    """``row_runs`` read off ``contains``, evaluated on every cell of a copy a block at a time.

    It keeps the predicate it reads, so a set whose ``contains`` is
    replaced reads its runs off the new one.
    """

    contains: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, xs, ys, dx):
        step = max(1, _DENSE_CELLS // xs.size)
        parts = []
        for d, rows in zip(dx, ys):
            x = (xs - d)[None, :]
            for chunk in np.split(rows, np.arange(step, rows.size, step)):
                inside = np.asarray(self.contains(x, chunk[:, None]), dtype=bool)
                parts.append(_runs_of(np.broadcast_to(inside, (chunk.size, xs.size))))
        k = max(lo.shape[1] for lo, _ in parts)

        def joined(ends):
            return np.concatenate([np.pad(a, ((0, 0), (0, k - a.shape[1]))) for a in ends])
        return joined([lo for lo, _ in parts]), joined([hi for _, hi in parts])


@dataclass(frozen=True, eq=False)
class BitGrid:
    """Bits of a digitized set on a lattice.  Immutable."""

    lattice: Lattice
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.lattice.ny, self.lattice.nx):
            raise ValueError(
                "bits shape %s does not match lattice (ny=%d, nx=%d)"
                % (bits.shape, self.lattice.ny, self.lattice.nx)
            )
        bits = bits.copy()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitGrid):
            return NotImplemented
        return self.lattice == other.lattice and bool(np.array_equal(self.bits, other.bits))


def digitize(indicator: IndicatorSet, lattice: Lattice) -> BitGrid:
    """Sample ``indicator`` on ``lattice``.

    Bit ``(i, j)`` is set iff the predicate holds at
    ``origin + epsilon*(i, j)``.  Points of the set falling
    outside the lattice window are silently truncated; size the lattice
    with :func:`lattice_covering` to avoid that.  A lattice of more than
    2**31 points raises :class:`InvalidSpec` before anything is allocated.
    """
    if lattice.nx * lattice.ny > 1 << 31:  # refused before any allocation
        raise InvalidSpec(f"a {lattice.ny} x {lattice.nx} lattice has more than 2**31 points")
    xs, ys = lattice.xs(), lattice.ys()
    mask = np.asarray(indicator.contains(xs[None, :], ys[:, None]), dtype=bool)
    return BitGrid(lattice, np.broadcast_to(mask, (lattice.ny, lattice.nx)))


def _whole_multiple(value: float, unit: float) -> Optional[int]:
    """``round(value / unit)`` if that ratio is finite and whole to a relative 1e-9, else None."""
    q = value / unit
    if not math.isfinite(q):
        return None
    k = round(q)
    return int(k) if abs(q - k) <= 1e-9 * max(1.0, abs(q)) else None


def grid_volume(grid: BitGrid) -> float:
    """Counting-measure volume: epsilon^2 per set bit."""
    return grid.lattice.epsilon ** 2 * grid.count


def lattice_covering(
    bounding_box: tuple[float, float, float, float],
    epsilon: float,
    margin: int = 1,
) -> Lattice:
    """Smallest lattice of spacing ``epsilon``, anchored on ``epsilon * Z^2``,
    covering the box with ``margin`` extra empty cells on every side.  A box
    whose ends over ``epsilon`` are not finite, which ``epsilon`` cannot
    resolve (an end x with x + epsilon == x), or whose lattice would end at
    an infinite coordinate raises :class:`InvalidSpec`."""
    x0, x1, y0, y1 = bounding_box
    if not (x1 >= x0 and y1 >= y0):
        raise ValueError("malformed bounding box")
    wx, wy = (x1 - x0) / epsilon, (y1 - y0) / epsilon
    if max(wx, wy) > 1 << 31:
        raise InvalidSpec(f"epsilon {epsilon} spans {bounding_box} with a {wy:.3g} x {wx:.3g} "
                          "lattice; an axis holds at most 2**31 points")
    e = float(epsilon)
    if not all(math.isfinite(v / e) and v + e != v for v in map(float, bounding_box)):
        raise InvalidSpec(f"epsilon {epsilon} cannot resolve the box {bounding_box}: an end "
                          "over epsilon is not finite, or adding epsilon leaves it unchanged")
    i0 = int(np.floor(x0 / epsilon)) - margin
    i1 = int(np.ceil(x1 / epsilon)) + margin
    j0 = int(np.floor(y0 / epsilon)) - margin
    j1 = int(np.ceil(y1 / epsilon)) + margin
    if not all(math.isfinite(i * e) for i in (i0, i1, j0, j1)):
        raise InvalidSpec(f"epsilon {epsilon} puts the lattice covering {bounding_box} "
                          "beyond the floats: an end point i * epsilon is not finite")
    return Lattice(
        epsilon=epsilon,
        origin=(i0 * epsilon, j0 * epsilon),
        nx=i1 - i0 + 1,
        ny=j1 - j0 + 1,
    )


# ---------------------------------------------------------------------------
# binary bitmap I/O (P4) with a JSON sidecar for lattice metadata


def write_pgm(grid: BitGrid, path) -> None:
    """Write the bits as a binary P4 bitmap plus a ``.json`` sidecar.

    Width is nx, height is ny, rows are packed most-significant-bit
    first, and file row 0 is the row with the smallest y coordinate.
    """
    path = Path(path)
    header = b"P4\n%d %d\n" % (grid.lattice.nx, grid.lattice.ny)
    packed = np.packbits(grid.bits, axis=1)
    path.write_bytes(header + packed.tobytes())
    sidecar = {
        "epsilon": grid.lattice.epsilon,
        "origin": [grid.lattice.origin[0], grid.lattice.origin[1]],
        "nx": grid.lattice.nx,
        "ny": grid.lattice.ny,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True))


def read_pgm(path) -> BitGrid:
    """Read a bitmap written by :func:`write_pgm` (sidecar required)."""
    path = Path(path)
    raw = path.read_bytes()
    magic, pos = _next_token(raw, 0)
    if magic != b"P4":
        raise ValueError("not a P4 bitmap: %r" % magic)
    wtok, pos = _next_token(raw, pos)
    htok, pos = _next_token(raw, pos)
    nx, ny = int(wtok), int(htok)
    # exactly one whitespace byte separates the header from the raster
    data = raw[pos + 1 :]
    row_bytes = (nx + 7) // 8
    if len(data) < ny * row_bytes:
        raise ValueError(f"truncated raster: {ny} rows of {nx} bits need "
                         f"{ny * row_bytes} bytes, the file holds {len(data)}")
    packed = np.frombuffer(data[: ny * row_bytes], dtype=np.uint8).reshape(ny, row_bytes)
    bits = np.unpackbits(packed, axis=1)[:, :nx].astype(bool)
    meta = json.loads(path.with_suffix(".json").read_text())
    lattice = Lattice(
        epsilon=float(meta["epsilon"]),
        origin=(float(meta["origin"][0]), float(meta["origin"][1])),
        nx=int(meta["nx"]),
        ny=int(meta["ny"]),
    )
    if (lattice.nx, lattice.ny) != (nx, ny):
        raise ValueError("sidecar dimensions disagree with bitmap header")
    return BitGrid(lattice, bits)


def _next_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines, per the netpbm header grammar
    n = len(raw)
    while pos < n:
        c = raw[pos : pos + 1]
        if c == b"#":
            while pos < n and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not raw[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated bitmap header")
    return raw[start:pos], pos
