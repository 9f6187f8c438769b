"""Shot-noise fields with polyrectangular grains and their mean geometry.

The random field is f(y) = sum of m * 1{y in x + W} over a Poisson process
of germs x with i.i.d. grains W and marks m; the object of study is the
level set F = {f >= lambda}, which for unit marks and lambda in (0,1) is
the boolean model.  Everything here is exact per realization: F restricted
to a polyrectangular window is itself a polyrectangle living on the cell
arrangement spanned by the germ rectangle edges, so chi, perimeters and
areas come from integer/float cell bookkeeping rather than digitization.
The level set is built as row runs, one list per horizontal strip of the
arrangement, straight from the rectangle edges, and no field or mask of
the arrangement's size is made.  A replicate's columns are cut into bands
twice the mean width of its own rectangles wide; a band's strips are cut
only by the edges of the rectangle pieces in that band, each band strip
sums its own +w/-w edge events, and runs that meet at a band cut are
joined.  The run kernel of ``topology`` reads chi (runs minus links
between adjacent strips), perimeters and area off the runs.  The Monte
Carlo makes one such strip-run pass per batch of replicates, their
arrangements side by side with a strip of no cells between two, and a
single realization is a batch of one; a replicate's bands, and so its
features, are the same in any batch.  The density estimator runs the
same batched pass on its coarse axes, so the pass is the one place that
decides f >= lambda on a realization.  It lays each replicate's runs
onto the fine columns that read them under each column shift, one table
of coarse rows per shift, and reads every fine mask by gathering rows of
those tables.  A warning of a tie with the level, or of a coarse
epsilon, names the first line outside the package that led to it: the
caller of the public function, or the CLI line that ran the subcommand.
A realization holds its germs as arrays: translated grain rectangles and marks.

Each probability law is one class with ``sample``, ``mean`` and, for the
scalar laws, ``bound``: marks follow ``AtomicMarks``, ``Uniform`` or
``Exponential``, and the random rectangles of ``RectFamily`` draw their
edges from the same ``Uniform`` and ``Exponential`` classes.

The closed-form mean of chi(F intersect V) is evaluated from the grain
moments and the law of f(0), which for atomic marks is a compound Poisson
sum computed by truncated convolution.  Counting corners of F (chi of a
polyrectangle is (convex - reflex corners) / 4) gives, with intensity rho,

    E chi(F cap V) = Vol(V) chi_bar + chi(V) P(f(0) >= lam)
                     + (rho p1 / 4) (Per1(V) E Per2 + Per2(V) E Per1),
    chi_bar = rho p1 E chi + (rho^2 / 4) (p2 - p2') E Per1 E Per2,

where for g ~ f(0) and independent marks m, m1, m2
p1 = P(lam - m <= g < lam), p2 = P(lam - m1 - m2 <= g < lam - max(m1, m2))
and p2' = P(lam - min(m1, m2) <= g < lam).  In the boolean regime (unit
marks, lam in (0, 1)) p1 = p2' = exp(-rho E Vol) and p2 = 0, which is
Miles' formula.  The Monte Carlo estimators next to it simulate honestly
and are the measuring stick the closed forms are compared against.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateArrangement,
    InvalidSpec,
    UnboundedGrain,
    UnsupportedMarkLaw,
    _kind,
    _only_keys,
)
from .shapes import PolyRectangle, polyrect_features
from .topology import _run_features

__all__ = [
    "AtomicMarks",
    "Uniform",
    "Exponential",
    "GrainMixture",
    "RectFamily",
    "ShotNoiseModel",
    "Realization",
    "sample_realization",
    "level_set_features_exact",
    "mean_chi_closed_form",
    "mc_mean_chi",
    "estimate_stationary_densities",
    "stationary_density_closed_form",
]

_TAIL_TOL = 1e-12


def _warn(message: str) -> None:
    """Warn at the first frame outside the package, counting its CLI as outside: the
    line that called a public function, or that ran a subcommand."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(
            "eulergram.") and frame.f_globals["__name__"] != "eulergram.cli":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


# ------------------------------------------------------- mark and edge laws

@dataclass(frozen=True)
class AtomicMarks:
    """Finite mixture of strictly positive mark values."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        ps = tuple(float(p) for p in self.probs)
        if len(vals) != len(ps) or not vals:
            raise InvalidSpec("mark atoms and probabilities must pair up")
        if any(v <= 0 for v in vals):
            raise InvalidSpec("mark atoms must be strictly positive")
        if any(p < 0 for p in ps) or abs(sum(ps) - 1.0) > 1e-12:
            raise InvalidSpec("mark probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", ps)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if len(self.values) == 1:
            return np.full(n, self.values[0])
        return rng.choice(np.array(self.values), size=n, p=np.array(self.probs))

    @property
    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [low, high], 0 <= low < high < inf: a mark law or an edge law."""

    low: float
    high: float

    def __post_init__(self):
        if not 0 <= self.low < self.high < math.inf:
            raise InvalidSpec(f"uniform law needs 0 <= low < high < inf, got {self!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def bound(self) -> float:
        return self.high


@dataclass(frozen=True)
class Exponential:
    """Exponential law of mean ``scale``: a mark law or an edge law.

    With ``truncate_q`` the draws are clamped at that quantile, and ``mean``
    and ``bound`` are those of the clamped law; without it the law has no
    almost-sure bound (``bound`` is None).  Draws never fall below 1e-300,
    so no mark or edge is zero.
    """

    scale: float
    truncate_q: float | None = None

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise InvalidSpec(f"exponential law needs a positive finite scale, got {self!r}")
        if self.truncate_q is not None and not 0 < self.truncate_q < 1:
            raise InvalidSpec(f"exponential law needs 0 < truncate_q < 1, got {self!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        vals = rng.exponential(self.scale, size=n)
        if self.truncate_q is not None:
            vals = np.minimum(vals, self.bound)
        return np.maximum(vals, 1e-300)

    @property
    def mean(self) -> float:
        # E min(X, b) = scale * q when b is the q-quantile of X ~ Exp(scale)
        return self.scale if self.truncate_q is None else self.scale * self.truncate_q

    @property
    def bound(self) -> float | None:
        return None if self.truncate_q is None else -self.scale * math.log1p(-self.truncate_q)


# ------------------------------------------------------- grain distributions

@dataclass(frozen=True)
class GrainMixture:
    """Finite mixture of fixed polyrectangles with probabilities."""

    components: tuple[PolyRectangle, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        ps = tuple(float(p) for p in self.probs)
        if len(comps) != len(ps) or not comps:
            raise InvalidSpec("grain components and probabilities must pair up")
        if any(p < 0 for p in ps) or abs(sum(ps) - 1.0) > 1e-12:
            raise InvalidSpec("grain probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "probs", ps)
        # the sampler's rows: every component gives its interior-disjoint
        # pieces, so that no point of a grain takes its germ's mark twice
        tables = [w._pieces for w in comps]
        object.__setattr__(self, "_table", np.concatenate(tables))
        object.__setattr__(self, "_sizes", np.array([len(t) for t in tables]))

    def moments(self) -> dict:
        out = {"chi": 0.0, "per1": 0.0, "per2": 0.0, "vol": 0.0}
        for w, p in zip(self.components, self.probs):
            f = polyrect_features(w)
            for k in out:
                out[k] += p * f[k]
        return out

    def extent(self) -> tuple[float, float, float, float]:
        boxes = [w.bounding_box for w in self.components]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def min_edge(self) -> float:
        return min(min(x1 - x0, y1 - y0)
                   for w in self.components for x0, x1, y0, y1 in w.rects)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Rectangles of n drawn grains, (m, 4) in germ then grain order, with each row's germ."""
        idx = (rng.choice(len(self.components), size=n, p=np.array(self.probs))
               if len(self.components) > 1 else np.zeros(n, dtype=int))
        sizes = self._sizes
        owner = np.repeat(np.arange(n), sizes[idx])
        # per germ, its component's first table row minus its own first output row
        shift = np.cumsum(sizes)[idx] - np.cumsum(sizes[idx])
        return self._table[shift[owner] + np.arange(owner.size)], owner


@dataclass(frozen=True)
class RectFamily:
    """Random rectangles [0, A] x [0, B] with independent edge laws.

    Each edge law is a :class:`Uniform` with low > 0 or an :class:`Exponential`.
    Sampling pads the germ domain by the laws' bounds, so an exponential
    edge needs ``truncate_q``; the moments are those of the laws as sampled.
    """

    a_law: Uniform | Exponential
    b_law: Uniform | Exponential

    def __post_init__(self):
        for law in (self.a_law, self.b_law):
            if not isinstance(law, (Uniform, Exponential)):
                raise InvalidSpec(f"unknown edge law {law!r}")
            if isinstance(law, Uniform) and law.low <= 0:
                raise InvalidSpec(f"uniform edge law needs 0 < low, got {law!r}")

    def moments(self) -> dict:
        ea, eb = self.a_law.mean, self.b_law.mean
        return {"chi": 1.0, "per1": 2.0 * eb, "per2": 2.0 * ea, "vol": ea * eb}

    def extent(self) -> tuple[float, float, float, float]:
        if self.a_law.bound is None or self.b_law.bound is None:
            raise UnboundedGrain(
                "edge law has unbounded support; set truncate_q to pad the germ domain")
        return (0.0, self.a_law.bound, 0.0, self.b_law.bound)

    def min_edge(self) -> float:
        return min(self.a_law.mean, self.b_law.mean)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Rectangles [0, A] x [0, B] of n drawn grains, (n, 4), with each row's germ."""
        zeros = np.zeros(n)
        return (np.stack([zeros, self.a_law.sample(rng, n), zeros, self.b_law.sample(rng, n)], 1),
                np.arange(n))


# ------------------------------------------------------------------- model

# the keys each law reads besides its tag, "dist" for an edge and "type" for
# a mark: only an edge takes truncate_q, the bound that pads the germ domain
_EDGE_LAWS = {"uniform": ("low", "high"), "exponential": ("scale", "truncate_q")}
_MARK_LAWS = {"uniform": ("low", "high"), "exponential": ("scale",)}


def _law(cfg: dict, tag: str, laws: dict) -> Uniform | Exponential:
    """The law ``cfg[tag]`` names in ``laws``; a null key counts as absent."""
    kind = _kind(cfg, tag, laws, "law")
    # an absent required key leaves the constructor's TypeError naming it
    return {"uniform": Uniform, "exponential": Exponential}[kind](
        **{key: float(cfg[key]) for key in laws[kind] if cfg.get(key) is not None})


@dataclass(frozen=True)
class ShotNoiseModel:
    intensity: float
    grain_dist: GrainMixture | RectFamily
    mark_dist: AtomicMarks | Uniform | Exponential
    level: float

    def __post_init__(self):
        if self.intensity < 0 or not math.isfinite(self.intensity):
            raise InvalidSpec("intensity must be a finite nonnegative real")
        if not math.isfinite(self.level):
            raise InvalidSpec(f"level must be finite, got {self.level}")
        # integrability: E[mark] * E[grain volume] finite by construction
        vol = self.grain_dist.moments()["vol"]
        if not math.isfinite(vol * self.mark_dist.mean):
            raise InvalidSpec("expected mark x grain volume must be finite")

    @classmethod
    def from_config(cls, cfg: dict) -> "ShotNoiseModel":
        """Build a model from the JSON experiment layout.

        {"intensity": 1.0, "grains": [{"rects": [[0,1,0,1]], "p": 1.0}],
         "marks": [{"value": 1.0, "p": 1.0}], "lambda": 1.5}; 'grains' may
        instead be {"type": "rect_family", "a": {...}, "b": {...}} and
        'marks' may be {"type": "exponential"|"uniform", ...}.  Every object
        holds exactly the keys it reads; any other key raises InvalidSpec.
        """
        _only_keys(cfg, ("intensity", "grains", "marks", "lambda"), "model")
        grains = cfg["grains"]
        if isinstance(grains, dict):
            _kind(grains, "type", {"rect_family": ("a", "b")}, "grain family")
            grain_dist = RectFamily(a_law=_law(grains["a"], "dist", _EDGE_LAWS),
                                    b_law=_law(grains["b"], "dist", _EDGE_LAWS))
        else:
            grains = [_only_keys(g, ("rects", "p"), "grain entry") for g in grains]
            grain_dist = GrainMixture(
                components=tuple(PolyRectangle(rects=tuple(tuple(r) for r in g["rects"]))
                                 for g in grains),
                probs=tuple(g["p"] for g in grains))
        marks = cfg["marks"]
        if isinstance(marks, dict):
            mark_dist = _law(marks, "type", _MARK_LAWS)
        else:
            marks = [_only_keys(m, ("value", "p"), "mark atom") for m in marks]
            mark_dist = AtomicMarks(values=tuple(m["value"] for m in marks),
                                    probs=tuple(m["p"] for m in marks))
        return cls(intensity=float(cfg["intensity"]), grain_dist=grain_dist,
                   mark_dist=mark_dist, level=float(cfg["lambda"]))


@dataclass(frozen=True, eq=False)
class Realization:
    """Germs drawn on a padded domain: ``rects`` (m, 4), the translated grain rectangles
    in germ then grain order, ``marks`` (m,), their germs' marks, and the draw's bookkeeping.
    """

    rects: np.ndarray
    marks: np.ndarray
    count: int
    padded_domain: tuple[float, float, float, float]
    expected_count: float


# what a draw holds at least per germ: its location, its mark, and one
# translated grain rectangle with its mark, all float64
_GERM_BYTES = 8 * (2 + 1 + 4 + 1)


def _physical_memory() -> float:
    """Bytes of physical memory on this host; infinite where the OS does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return float(pages * size) if pages > 0 and size > 0 else math.inf


def sample_realization(model: ShotNoiseModel, domain, seed: int) -> Realization:
    """Draw one Poisson field of germs whose grains can reach the domain.

    The germ region is the domain padded on every side by the maximal
    grain extent of that axis (largest coordinate magnitude over the
    family), a superset of the germs whose grains can touch the domain,
    so the field restricted to the domain has exactly the law of the
    infinite-plane process.  Deterministic given the seed: germ count,
    then locations, then grains, then marks are drawn in that fixed order.
    An expected germ count that is not finite, exceeds 2**31 or needs more
    than the host's physical memory raises :class:`InvalidSpec` before
    anything is drawn.
    """
    x0, x1, y0, y1 = (float(v) for v in domain)
    ex0, ex1, ey0, ey1 = model.grain_dist.extent()
    pad_x, pad_y = max(abs(ex0), abs(ex1)), max(abs(ey0), abs(ey1))
    px0, px1 = x0 - pad_x, x1 + pad_x
    py0, py1 = y0 - pad_y, y1 + pad_y
    mean = model.intensity * (px1 - px0) * (py1 - py0)
    if not mean <= 1 << 31:  # refused before numpy tries to draw or hold the germs
        raise InvalidSpec(f"expected germ count {mean:.3g} is not finite or exceeds 2**31")
    need, have = mean * _GERM_BYTES, _physical_memory()
    if need > have:
        raise InvalidSpec(f"expected germ count {mean:.3g} needs {need / 2**30:.3g} GiB, "
                          f"more than the host's {have / 2**30:.3g} GiB of memory")

    rng = np.random.default_rng(seed)
    n = int(rng.poisson(mean)) if mean > 0 else 0
    xs = rng.uniform(px0, px1, size=n)
    ys = rng.uniform(py0, py1, size=n)
    grains, owner = model.grain_dist.sample(rng, n)
    marks = model.mark_dist.sample(rng, n)
    return Realization(rects=grains + np.stack([xs, xs, ys, ys], 1)[owner],
                       marks=marks[owner], count=n, padded_domain=(px0, px1, py0, py1),
                       expected_count=mean)


# ------------------------------------------------- exact level-set geometry

def _band_strips(i0, i1, j0, j1, first, stop):
    """The rectangles of :func:`_level_runs` cut into column bands, and the bands' strips.

    An arrangement is a run of consecutive strips with one first and stop.
    Its columns are cut into bands ``width`` wide, twice the mean column
    span of its own rectangles rounded up, or one band as wide as its
    columns where they span none, and each rectangle into one piece per
    band it meets, so no arrangement's bands depend on the ones beside it.
    A band strip is a run of its arrangement's strips with no edge of the
    band's pieces between them: one boolean array per band, all laid end
    to end, marks the strips where a band strip starts, and a cumsum
    numbers the band strips.  Returns the pieces (their rectangle,
    columns pi0 to pi1 and band strips s0 to s1), each band strip's
    columns (first to stop), and its first strip and strip count in the
    caller's numbering.  Bands come in column order within an arrangement,
    and band strips in strip order within a band.
    """
    ny = len(first)
    new = np.ones(ny, dtype=bool)
    new[1:] = (first[1:] != first[:-1]) | (stop[1:] != stop[:-1])
    head = np.flatnonzero(new)
    height = np.diff(np.append(head, ny))
    a_first, cols = first[head], stop[head] - first[head]
    # the arrangement of each rectangle, and each arrangement's band width
    arr = np.searchsorted(head, j0, side="right") - 1
    span = i1 - i0
    width = -(-2 * np.bincount(arr, span, head.size).astype(np.int64)
              // np.maximum(np.bincount(arr, minlength=head.size), 1))
    width = np.where(width > 0, width, np.maximum(cols, 1))
    bands = -(-cols // width)
    band0 = np.cumsum(bands) - bands
    arr_of = np.repeat(np.arange(head.size), bands)
    band_lo = a_first[arr_of] + width[arr_of] * (np.arange(arr_of.size) - band0[arr_of])
    band_hi = np.minimum(band_lo + width[arr_of], (a_first + cols)[arr_of])

    # the bands of each rectangle's first and last column
    b0 = (i0 - a_first[arr]) // width[arr]
    pieces = np.where(span > 0, (i1 - 1 - a_first[arr]) // width[arr] - b0 + 1, 0)
    rect = np.repeat(np.arange(span.size), pieces)
    band = np.repeat(band0[arr] + b0 - np.cumsum(pieces) + pieces, pieces) + np.arange(rect.size)

    # band b's strips are the slots off[b] to off[b + 1] - 1 of the marks,
    # and the slot after the last band's ends it
    strips = height[arr_of]
    off = np.cumsum(strips) - strips
    total = int(strips.sum())
    mark = np.zeros(total + 1, dtype=bool)
    mark[off] = True
    mark[total] = True
    top = off[band] - head[arr[rect]]
    s0, s1 = top + j0[rect], top + j1[rect]
    mark[s0] = True
    mark[s1] = True
    number = np.cumsum(mark) - 1
    at = np.flatnonzero(mark)
    owner = np.searchsorted(off, at[:-1], side="right") - 1
    return (rect, np.maximum(i0[rect], band_lo[band]), np.minimum(i1[rect], band_hi[band]),
            number[s0], number[s1], band_lo[owner], band_hi[owner],
            at[:-1] - off[owner] + head[arr_of[owner]], np.diff(at))


def _level_runs(i0, i1, j0, j1, w, first, stop, level):
    """Row runs (rows, lo, hi) of the cells where the summed weights are >= level,
    and the number of (edge, band strip) events summed to find them.

    Strip g holds the cells first[g] <= i < stop[g], and rectangle k adds
    w[k] to the cells i0[k] <= i < i1[k] of the strips j0[k] <= g < j1[k],
    with j0[k] < j1[k] and first[g] <= i0[k] <= i1[k] <= stop[g] on each.
    Consecutive strips with one first and stop form an arrangement, and
    each rectangle's strips lie in one.  The field is never built: it is
    summed on the band strips of :func:`_band_strips`, each cut only by
    the edges of its band's pieces.  Each piece adds +w at its first
    column and -w at its stop on every band strip it spans; events at a
    band strip's stop are dropped.  A band strip's events, by column, fill
    one row of a buffer headed by its first column, and one cumulative sum
    per row gives each stretch of cells from one event column to the next
    its value, the sum after the last event at its column.  Each band
    strip restarts at 0, so no rounding carries across band strips, and
    cells no rectangle covers read 0.  This is the one place that decides
    f >= level on a realization.  Runs are maximal stretches of values >=
    level, half-open in columns, in raster order: each band strip's runs
    go to each of its strips, and two runs that meet at a band cut are
    joined.  A value within 1e-12 max(1, |level|) of the level warns that
    the closed-set convention decides it, counting two boolean masks and
    no float temporary.
    """
    key16 = len(first) <= 1 << 16  # the strips' indices sort as uint16
    rect, i0, i1, j0, j1, first, stop, strip_row, strip_rows = _band_strips(
        i0, i1, j0, j1, first, stop)
    ny = len(first)
    col = np.concatenate([i0, i1])
    edge = np.flatnonzero(col < np.tile(stop[j0], 2))
    edge = edge[np.argsort(col[edge], kind="stable")]
    col, step = col[edge], np.concatenate([w[rect], -w[rect]])[edge]
    bottom = np.concatenate([j0, j0])[edge]
    span = np.concatenate([j1 - j0, j1 - j0])[edge]
    count = np.cumsum(np.bincount(bottom, minlength=ny + 1)
                      - np.bincount(bottom + span, minlength=ny + 1))[:-1]
    # the strip of each (edge, strip) event, edge by edge; a stable sort by
    # strip keeps each strip's events in column order.  Event-sized arrays
    # go as soon as they are read: with a small peak the heap is not grown
    # and trimmed again on every call.
    strip = np.repeat(bottom - np.cumsum(span) + span, span)
    strip += np.arange(strip.size)
    order = np.argsort(strip.astype(np.uint16) if ny <= 1 << 16 else strip, kind="stable")
    del strip
    src = np.repeat(np.arange(edge.size), span)[order]
    del order
    # event k of strip j fills slot (j, k + 1) of the buffers; slot (j, 0) heads the strip
    width = int(count.max(initial=0)) + 2
    slot = np.repeat(np.arange(1, ny * width, width) - (np.cumsum(count) - count), count)
    slot += np.arange(slot.size)
    value = np.zeros((ny, width))
    value.ravel()[slot] = step[src]
    bound = np.empty((ny, width), dtype=np.int32 if stop.max(initial=0) < 1 << 31 else np.int64)
    bound[:] = stop[:, None]
    bound[:, 0] = first
    bound.ravel()[slot] = col[src]
    del slot, src
    np.cumsum(value, axis=1, out=value)
    # stretch k of a strip holds the cells from bound k to bound k + 1, at value k
    cells = bound[:, 1:] > bound[:, :-1]
    ends = np.cumsum(np.count_nonzero(cells, axis=1))
    value, start = value[:, :-1][cells], bound[:, :-1][cells]
    del cells, bound
    tol = 1e-12 * max(1.0, abs(level))
    if np.count_nonzero(value >= level - tol) > np.count_nonzero(value > level + tol):
        _warn("field value ties the level on some cell; the closed-set "
              "convention decides membership")
    inside = value >= level
    del value
    # each strip's stretches tile its cells; a run closes where its strip
    # ends or the next stretch is outside, and opens after a close
    last = np.zeros(start.size + 1, dtype=bool)
    last[ends] = True
    last = last[1:]
    brk = last | np.append(inside[1:] != inside[:-1], True)
    opens = inside & np.roll(brk, 1)
    close = np.flatnonzero(inside & brk)
    rows = np.searchsorted(ends, np.flatnonzero(opens), side="right")
    # a run that does not end its strip ends where the next stretch starts
    lo = start[opens]
    hi = np.where(last[close], stop[rows], start[np.minimum(close + 1, start.size - 1)])
    del start, inside, last, brk, opens, close

    # each band strip's runs go to each of its rows; a stable sort by row
    # puts one row's runs in band order, each band's in column order
    rows_of = strip_rows[rows]
    row = np.repeat(strip_row[rows] - np.cumsum(rows_of) + rows_of, rows_of)
    row += np.arange(row.size)
    order = np.argsort(row.astype(np.uint16) if key16 else row, kind="stable")
    row, lo, hi = row[order], np.repeat(lo, rows_of)[order], np.repeat(hi, rows_of)[order]
    # two runs of one row that meet are the two sides of a band cut
    opens = np.ones(row.size + 1, dtype=bool)
    opens[1:-1] = (row[1:] != row[:-1]) | (lo[1:] != hi[:-1])
    at = np.flatnonzero(opens)
    return row[at[:-1]], lo[at[:-1]], hi[at[1:] - 1], int(count.sum())


def _batch_axis(raw, owner, count, lo, hi):
    """Arrangement axes of ``count`` replicates side by side, and where each coordinate went.

    ``raw`` are the coordinates of all replicates, ``owner`` the replicate of
    each; every replicate owns some.  A sort of the coordinates clipped to
    [lo, hi], a stable sort of that order by replicate, and one dedupe give
    the axes: replicate r's is axis[cut[r]:cut[r + 1]], and raw[k] clipped
    is axis[index[k]].
    """
    vals = np.clip(raw, lo, hi)
    order = np.argsort(vals)
    order = order[np.argsort(owner[order].astype(np.uint16) if count <= 1 << 16
                             else owner[order], kind="stable")]
    vals, owner = vals[order], owner[order]
    new = np.ones(vals.size, dtype=bool)
    new[1:] = (vals[1:] != vals[:-1]) | (owner[1:] != owner[:-1])
    index = np.empty(vals.size, dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    axis, owner = vals[new], owner[new]
    return axis, np.searchsorted(owner, np.arange(count + 1)), index


def _batch_runs(reals, level: float, window: PolyRectangle) -> tuple[tuple, int]:
    """Row runs of {f >= level} in the window for each realization, and the batch's
    event count, from one strip-run pass over the batch.

    Each replicate's axes hold its rectangle and window edges clipped to the
    window's box.  The axes lie side by side, so strip j of replicate r is
    strip cut[r] + j of the batch.  The window's pieces are index boxes on
    each replicate's axes, and the runs they give each strip cut the level
    runs.  The strip between two replicates holds no cells, so it has no
    runs even at levels <= 0, and no link joins two replicates.  The runs
    come as (xs, ys, rows, lo, hi, x_cut, y_cut), the arguments of
    :func:`_run_features`: replicate r has the axes xs[x_cut[r]:x_cut[r + 1]]
    and ys[y_cut[r]:y_cut[r + 1]], and its runs index into them.  Two
    distinct coordinates of one replicate's axis closer than 1e-12 raise
    :class:`DegenerateArrangement`, since these axes decide f >= level.
    """
    win = window._pieces
    n, k = len(reals), len(win)
    rects = np.concatenate([real.rects for real in reals])
    marks = np.concatenate([real.marks for real in reals])
    owner = np.concatenate([np.repeat(np.arange(n), 2 * k),
                            np.tile(np.repeat(np.arange(n), [len(real.rects) for real in reals]),
                                    2)])
    x0, x1, y0, y1 = window.bounding_box
    # window edges first, then the rectangles' low edges, then their high edges
    xs, x_cut, col = _batch_axis(np.concatenate([np.tile(win[:, :2].ravel(), n),
                                                 rects[:, 0], rects[:, 1]]), owner, n, x0, x1)
    ys, y_cut, row = _batch_axis(np.concatenate([np.tile(win[:, 2:].ravel(), n),
                                                 rects[:, 2], rects[:, 3]]), owner, n, y0, y1)
    for axis, cut in ((xs, x_cut), (ys, y_cut)):
        gap = np.diff(axis)
        gap[cut[1:-1] - 1] = np.inf  # from one replicate's axis to the next one's
        if (gap < 1e-12).any():
            raise DegenerateArrangement(
                "two distinct arrangement coordinates closer than 1e-12; "
                "resample or nudge germ locations by less than 1e-9")
    i0, i1 = col[2 * k * n:].reshape(2, -1)
    j0, j1 = row[2 * k * n:].reshape(2, -1)
    keep = (i1 > i0) & (j1 > j0)
    i0, i1, j0, j1 = i0[keep], i1[keep], j0[keep], j1[keep]

    # strip g of replicate r holds the columns x_cut[r] to x_cut[r + 1] - 1,
    # and the strip above r's top edge, between two replicates, holds none
    strips = np.arange(len(ys) - 1)
    rep = np.repeat(np.arange(n), np.diff(y_cut))[:-1]
    first, stop = x_cut[rep], x_cut[rep + 1] - 1
    stop[y_cut[1:-1] - 1] = first[y_cut[1:-1] - 1]
    rows, lo, hi, events = _level_runs(i0, i1, j0, j1, marks[keep], first, stop, level)

    # window piece q covers the columns wx[g, q, 0] to wx[g, q, 1] of the
    # strips g with wy[g, q, 0] <= g < wy[g, q, 1]; the pieces that cover a
    # strip are its maximal runs, in column order, and the others are empty
    wx = col[:2 * k * n].reshape(n, k, 2)[rep]
    wy = row[:2 * k * n].reshape(n, k, 2)[rep]
    inside = (wy[:, :, 0] <= strips[:, None]) & (strips[:, None] < wy[:, :, 1])
    win_lo, win_hi = np.where(inside, wx[:, :, 0], 0), np.where(inside, wx[:, :, 1], 0)
    # maximal runs of two maximal families meet in maximal runs, still in raster order
    lo = np.maximum(lo[:, None], win_lo[rows])
    hi = np.minimum(hi[:, None], win_hi[rows])
    keep = hi > lo
    rows = np.broadcast_to(rows[:, None], keep.shape)[keep]
    return (xs, ys, rows, lo[keep], hi[keep], x_cut, y_cut), events


# the event count, piece edges times the band strips they cross, that a
# batch of replicates is sized to: large enough that the per-pass cost is
# shared, small enough that the pass's buffers stay in the heap the
# allocator keeps.  A replicate of 145 unit squares on [0, 10]^2 makes
# about 1,700 events and one of 240 squares and tees on [0, 7]^2 about
# 7,100, so a batch holds some eighteen or four of them; a bound of 49,152
# held half as many again, for a peak memory 4% higher and no faster
_BATCH_EVENTS = 32768


def _replicate_features(reals, level: float, window: PolyRectangle, collect=None) -> list:
    """One result per realization of ``reals`` from the strip-run pass, run in batches.

    A batch's runs (see :func:`_batch_runs`) become the exact features of
    {f >= level} in the window, or ``collect(batch, runs)``, a list of one
    result per replicate of the batch.  A batch closes before it would pass
    ``_BATCH_EVENTS`` at the events per rectangle, at least one, of the
    last batch that held a rectangle; until then each batch is one
    replicate.  The results do not depend on the batches: each replicate's
    bands, and so each of its sums, are the ones it gets alone.
    """
    out, batch, rects, per_rect = [], [], 0, None
    for real in itertools.chain(reals, [None]):
        if batch and (real is None or per_rect is None
                      or (rects + len(real.rects)) * per_rect > _BATCH_EVENTS):
            runs, events = _batch_runs(batch, level, window)
            out += _run_features(*runs) if collect is None else collect(batch, runs)
            per_rect = max(events, rects) / rects if rects else per_rect
            batch, rects = [], 0
        if real is not None:
            batch.append(real)
            rects += len(real.rects)
    return out


def level_set_features_exact(real: Realization, level: float,
                             window: PolyRectangle) -> dict:
    """Exact chi, directional perimeters and area of {f >= level} in the window.

    The field is constant on each open cell of the arrangement spanned by
    the germ and window edges; the level set is the union of the closed
    occupied cells (boundary values only ever exceed the neighbouring cell
    values, so closure adds nothing in generic position).  Its row runs,
    cut by the window's runs, go to the run kernel.  This is the strip-run
    pass of the Monte Carlo on a batch of one.
    """
    return _replicate_features([real], level, window)[0]


# ------------------------------------------------------------- closed forms

def _coverage_distribution(model: ShotNoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Law of f(0) for atomic marks: independent Poisson counts per atom.

    Truncated when the neglected tail mass falls below 1e-12 overall.
    """
    if not isinstance(model.mark_dist, AtomicMarks):
        raise UnsupportedMarkLaw(
            "closed-form probabilities are implemented for atomic marks only")
    vol = model.grain_dist.moments()["vol"]
    dist = {0.0: 1.0}
    atoms = list(zip(model.mark_dist.values, model.mark_dist.probs))
    tol = _TAIL_TOL / max(len(atoms), 1)
    for value, p_atom in atoms:
        rate = model.intensity * vol * p_atom
        pk = math.exp(-rate)
        terms = [(0, pk)]
        cum = pk
        k = 0
        while cum < 1.0 - tol:
            k += 1
            pk *= rate / k
            terms.append((k, pk))
            cum += pk
        new: dict[float, float] = {}
        for v, p in dist.items():
            for k, q in terms:
                key = v + k * value
                new[key] = new.get(key, 0.0) + p * q
        dist = new
    values = np.array(sorted(dist))
    probs = np.array([dist[v] for v in values])
    return values, probs


def _interval_prob(values: np.ndarray, probs: np.ndarray, a: float, b: float) -> float:
    """P(a <= f(0) < b) with a hair of tolerance on the half-open ends."""
    tol = 1e-9 * max(1.0, abs(a) if math.isfinite(a) else 0.0,
                     abs(b) if math.isfinite(b) else 0.0)
    lo = 0 if a == -math.inf else int(np.searchsorted(values, a - tol, side="left"))
    hi = len(values) if b == math.inf else int(np.searchsorted(values, b - tol, side="left"))
    return float(probs[lo:hi].sum())


def stationary_density_closed_form(model: ShotNoiseModel) -> dict:
    """Densities per unit area of chi, directional perimeters and volume of F.

    A polyrectangle has chi = (convex - reflex corners) / 4.  Grain corners
    occur at density rho and edge crossings of two grains at density
    rho^2 E Per1 E Per2.  By Slivnyak-Mecke the field from all other germs
    at a grain corner, or at a crossing of two grains' edges, has the law
    of g ~ f(0).  A corner of a grain with mark m is a corner of F iff
    lam - m <= g < lam (p1).  At a crossing of a vertical edge (mark m1)
    with a horizontal edge (mark m2) the quadrants carry g, g+m1, g+m2,
    g+m1+m2: exactly one is in F iff lam - m1 - m2 <= g < lam - max(m1, m2)
    (p2, a convex corner), and exactly three iff lam - min(m1, m2) <= g <
    lam (p2', a reflex one).  So

        chi_bar    = rho p1 E chi + (rho^2 / 4) (p2 - p2') E Per1 E Per2
        per_bar_ui = rho p1 E Per_i
        vol_bar    = P(f(0) >= lam)
    """
    rho = model.intensity
    g = model.grain_dist.moments()
    values, probs = _coverage_distribution(model)
    lam = model.level
    if np.any(np.abs(values - lam) <= 1e-9 * max(1.0, abs(lam))):
        _warn("level coincides with an achievable mark sum; "
              "closed-form interval probabilities use the closed-set side")
    marks = list(zip(model.mark_dist.values, model.mark_dist.probs))
    p1 = math.fsum(p * _interval_prob(values, probs, lam - m, lam) for m, p in marks)
    p2 = 0.0
    p2p = 0.0
    for m1, q1 in marks:
        for m2, q2 in marks:
            p2 += q1 * q2 * _interval_prob(values, probs, lam - m1 - m2, lam - max(m1, m2))
            p2p += q1 * q2 * _interval_prob(values, probs, lam - min(m1, m2), lam)
    return {
        "chi_bar": rho * p1 * g["chi"] + 0.25 * rho * rho * (p2 - p2p) * g["per1"] * g["per2"],
        "per_bar_u1": rho * p1 * g["per1"],
        "per_bar_u2": rho * p1 * g["per2"],
        # complement of the below-level mass: exact even when the convolution
        # truncates the far upper tail (all truncated mass sits above the level)
        "vol_bar": 1.0 - _interval_prob(values, probs, -math.inf, lam),
    }


def mean_chi_closed_form(model: ShotNoiseModel, window: PolyRectangle) -> float:
    """Closed-form E chi(F intersect V) for atomic marks.

    Corners of F inside V give Vol(V) chi_bar; corners of V inside F give
    chi(V) vol_bar; each crossing of an edge of V with a perpendicular edge
    of F is a convex corner, which gives (Per1(V) per_bar_u2 + Per2(V)
    per_bar_u1) / 4 with per_bar_ui = rho p1 E Per_i.
    """
    d = stationary_density_closed_form(model)
    v = polyrect_features(window)
    return (v["vol"] * d["chi_bar"]
            + v["chi"] * d["vol_bar"]
            + 0.25 * (v["per1"] * d["per_bar_u2"] + v["per2"] * d["per_bar_u1"]))


# ------------------------------------------------------------- Monte Carlo

# what the results of one replicate hold at least, as tracemalloc measured the
# memory held at the end of runs of 2,000 and 6,000 replicates: about 260 bytes
# in densities (a tuple of four floats) and 410 in shotnoise (a dict of four
# features and a table row)
_REPLICATE_BYTES = 256


def _realizations(model: ShotNoiseModel, domain, replicates: int, seed: int):
    """Replicates on the domain drawn with seeds seed, seed+1, ..., at least two.

    A count whose results need more than the host's physical memory raises
    :class:`InvalidSpec` before anything is drawn.
    """
    if replicates < 2:
        raise InvalidSpec("need at least 2 replicates")
    have = _physical_memory()
    if replicates * _REPLICATE_BYTES > have:
        raise InvalidSpec(f"more than {have / _REPLICATE_BYTES:.3g} replicates need more than "
                          f"the host's {have / 2**30:.3g} GiB of memory for their results")
    return (sample_realization(model, domain, seed + i) for i in range(replicates))


def _mean_stderr(vals) -> dict:
    """Sample mean and its standard error (n - 1 in the variance)."""
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return {"mean": mean, "stderr": math.sqrt(var / n)}


# each density of stationary_density_closed_form with the key of its estimate's stderr
_DENSITY_KEYS = (("chi_bar", "chi_stderr"), ("per_bar_u1", "per_u1_stderr"),
                 ("per_bar_u2", "per_u2_stderr"), ("vol_bar", "vol_stderr"))


def mc_mean_chi(model: ShotNoiseModel, window: PolyRectangle,
                replicates: int, seed: int) -> dict:
    """Average exact per-realization chi over independent replicates."""
    feats = _replicate_features(_realizations(model, window.bounding_box, replicates, seed),
                                model.level, window)
    return _mean_stderr([f["chi"] for f in feats])


def _grown(lo: float, hi: float, e: float) -> tuple[float, float]:
    """Floats a <= lo - e and b >= hi + e with fl(a + e) <= lo and fl(b - e) >= hi,
    so that every cell of [lo, hi] finds a coarse cell in [a, b] under each shift."""
    a, b = lo - e, hi + e
    while a + e > lo:
        a = np.nextafter(a, -math.inf)
    while b - e < hi:
        b = np.nextafter(b, math.inf)
    return a, b


def _translate_maps(coarse: np.ndarray, fine: np.ndarray, e: float) -> np.ndarray:
    """The first cell of ``fine`` that reads each coordinate of ``coarse``, one row per
    shift o of (0, -e, e): when the rectangles are stamped shifted by o, fine cells
    start[c] to start[c + 1] - 1 read coarse cell c.

    Stamping rects + o on the fine axis evaluates f(x - o), and a rectangle covers
    fine cell i iff fl(a + o) <= fine[i] < fl(b + o) for its edges a < b.  Every edge
    is a coarse coordinate or lies beyond the coarse axis, whose ends :func:`_grown`
    sets, and fl(. + o) is monotone, so this holds iff a <= c < b for the last coarse
    coordinate c with fl(c + o) <= fine[i]: the same rectangles cover the fine cell
    and the coarse cell it reads.  So start[c] counts the fine cells below fl(c + o):
    it runs from 0 to the number of fine cells, and a coarse cell that no fine cell
    reads (in the margin beyond the window) starts where the next one does.
    """
    return np.searchsorted(fine[:-1], coarse + np.array([[0.0], [-e], [e]]))


def estimate_stationary_densities(model: ShotNoiseModel, epsilon: float, window,
                                  replicates: int, seed: int) -> dict:
    """Finite-difference densities of chi, perimeter and volume per unit area.

    Per realization, the probability of each membership pattern (point in F
    with its epsilon-translates out, and the reverse) is computed as an exact
    area fraction of the window.  The level set is built once, by the
    batched strip-run pass of :func:`mc_mean_chi`, on the coarse
    arrangement of the rectangle edges in the window grown by epsilon.
    The fine arrangement adds the edges' epsilon-translates, and its cells
    read their own membership and that of their four translates through
    exact integer maps onto the coarse cells.  For each column shift (0,
    and epsilon east and west) the runs fill one table of coarse rows by
    fine columns, each run covering the fine columns that read its coarse
    cells.  Every fine mask then gathers rows of a table, or of a
    combination of two tables made at the coarse rows' size, by the row
    map of its row shift; each pattern's area sums the same cells in the
    same raster order as five stamped fields would.  The
    Monte Carlo average over replicates then estimates the densities
    chi = (P1 - P2)/eps^2, Per_ui = 2 P(in, +eps u_i out)/eps, Vol = P(in).
    Returns a dict with the keys of :func:`stationary_density_closed_form`
    (``chi_bar``, ``per_bar_u1``, ``per_bar_u2``, ``vol_bar``), each holding
    the mean over replicates, and the standard error of each under
    ``chi_stderr``, ``per_u1_stderr``, ``per_u2_stderr`` and ``vol_stderr``.
    """
    e = float(epsilon)
    if not 0 < e < math.inf:
        raise InvalidSpec(f"epsilon must be positive and finite, got {epsilon}")
    if e * e == 0:  # chi is read per epsilon**2
        raise InvalidSpec(f"epsilon {epsilon} squared underflows to 0")
    wx0, wx1, wy0, wy1 = (float(v) for v in window)
    if not (all(map(math.isfinite, (wx0, wx1, wy0, wy1))) and wx1 > wx0 and wy1 > wy0):
        raise InvalidSpec(f"window {tuple(window)} needs finite x0 < x1 and y0 < y1")
    # shifted membership looks up to epsilon beyond the window
    reals = _realizations(model, (wx0 - e, wx1 + e, wy0 - e, wy1 + e), replicates, seed)
    min_edge = model.grain_dist.min_edge()
    if epsilon > 0.25 * min_edge:
        _warn(f"epsilon {epsilon} is not small against the grain edge "
              f"scale {min_edge}; densities will carry finite-mesh bias")

    w_area = (wx1 - wx0) * (wy1 - wy0)
    gx0, gx1 = _grown(wx0, wx1, e)
    gy0, gy1 = _grown(wy0, wy1, e)

    shifts = np.array([0.0, -e, e])
    cell_area = np.empty(0)

    def batch_samples(batch, runs):
        nonlocal cell_area
        coarse_x, coarse_y, rows, lo, hi, cx_cut, cy_cut = runs
        # the fine axes: the window edges and each rectangle edge with its two
        # epsilon-translates, clipped to the window, one replicate after another
        n = len(batch)
        rects = np.concatenate([real.rects for real in batch])
        owner = np.concatenate([np.repeat(np.arange(n), 2),
                                np.repeat(np.arange(n), [6 * len(real.rects) for real in batch])])
        fine_x, fx_cut, _ = _batch_axis(np.concatenate([np.tile((wx0, wx1), n),
                                                        (rects[:, :2, None] + shifts).ravel()]),
                                        owner, n, wx0, wx1)
        fine_y, fy_cut, _ = _batch_axis(np.concatenate([np.tile((wy0, wy1), n),
                                                        (rects[:, 2:, None] + shifts).ravel()]),
                                        owner, n, wy0, wy1)
        first = np.searchsorted(rows, cy_cut)
        span = np.stack([lo, hi], 1)
        out = []
        for r in range(n):
            cx, cy = coarse_x[cx_cut[r]:cx_cut[r + 1]], coarse_y[cy_cut[r]:cy_cut[r + 1]]
            xs, ys = fine_x[fx_cut[r]:fx_cut[r + 1]], fine_y[fy_cut[r]:fy_cut[r + 1]]
            # one table per column shift o, coarse rows by fine columns, laid end to
            # end: each of replicate r's runs holds the fine columns from where its
            # coarse column lo starts to where hi does.  The runs' ends, in raster
            # order, never decrease, so the tables are the runs and the gaps between
            # them repeated to their lengths; a run or gap that no fine column reads
            # has length 0
            k = slice(first[r], first[r + 1])
            ny, nx = len(cy) - 1, len(xs) - 1
            row = (np.arange(0, 3 * ny, ny)[:, None, None] + rows[k, None] - cy_cut[r]) * nx
            ends = np.concatenate(
                ([0], (row + _translate_maps(cx, xs, e)[:, span[k] - cx_cut[r]]).ravel(),
                 [3 * ny * nx]))
            here, east, west = np.repeat(np.arange(ends.size - 1) % 2 == 1,
                                         ends[1:] - ends[:-1]).reshape(3, ny, nx)
            # a map for shift o reads f(x - o): -e the east or north translate, +e the
            # west or south.  Each fine mask gathers rows of a table or of a row-wise
            # combination made at the coarse rows' size; on booleans a > b is a & ~b
            start = _translate_maps(cy, ys, e)
            at, north, south = np.repeat(np.arange(3 * ny) % ny,
                                         (start[:, 1:] - start[:, :-1]).ravel()).reshape(3, -1)
            inside, north_in = here[at], here[north]
            east_out = np.greater(here, east)[at]

            # one buffer of cell areas serves the replicates, grown to twice the
            # need when one outgrows it: a fresh array per replicate is often
            # mapped anew and faulted in page by page
            if cell_area.size < inside.size:
                cell_area = np.empty(2 * inside.size)
            area = np.multiply(np.diff(ys)[:, None], np.diff(xs)[None, :],
                               out=cell_area[:inside.size].reshape(inside.shape))

            def frac(mask: np.ndarray) -> float:
                return float(area[mask].sum()) / w_area

            p_out = frac(np.greater(east_out, north_in))
            p_in = frac(np.greater(west, here)[at] & here[south])
            out.append(((p_out - p_in) / (e * e),
                        2.0 * frac(east_out) / e,
                        2.0 * frac(np.greater(inside, north_in)) / e,
                        frac(inside)))
        return out

    grown = PolyRectangle(rects=((gx0, gx1, gy0, gy1),))
    samples = _replicate_features(reals, model.level, grown, batch_samples)
    out = {}
    for (density, stderr), col in zip(_DENSITY_KEYS, zip(*samples)):
        stats = _mean_stderr(col)
        out[density], out[stderr] = stats["mean"], stats["stderr"]
    return out
