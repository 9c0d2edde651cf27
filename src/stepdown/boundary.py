"""Group-sequential critical values for standardized Gaussian statistics.

For a driftless Gaussian random walk S_n observed only at the analysis
sizes n_1 < ... < n_J, the chance that the standardized value S_n / sqrt(n)
ever meets or exceeds a boundary b_1, ..., b_J is computed by recursive
numerical integration over the walk's Markov transitions.  Calibration
root-finds the scalar c so that the boundary c * g(n) is crossed with a
prescribed probability, where g encodes the boundary shape.

The integration works on the sum scale (Armitage, McPherson & Rowe 1969;
Jennison & Turnbull 2000, ch. 19).  At each analysis the density of S_n
restricted to {not yet crossed} is carried on a uniform grid from eight
standard deviations below zero up to the boundary (at most eight above)
and propagated through the Gaussian increment to the next analysis with
trapezoidal weights.  Every look's grid has one spacing h, the narrowest
look's span over grid_points - 1, and ends on its threshold node, so the
transition kernel depends only on the difference of node indices: one
vector of exponentials per look, applied as a convolution.  That
convolution is one real FFT circular convolution, at least as long as the
kernel, so that its wrap-around misses every output kept, at the cost of
about one ulp of 1 per look against direct summation; kernel and weighted
density share one zero-filled buffer, transformed by a single rfft call.
No grid holds more than _GRID_CAP * grid_points points; a wider look
widens h instead.  The crossing probability is one minus the surviving
mass at the final analysis.  Grid error shrinks quadratically in h, so
doubling the grid gives a practical convergence check.  Boundaries whose
looks have equal point counts, as a flat boundary's do at constants
inside the span up to rounding, run as one recursion with a row each;
numpy computes each row as it would the row alone, so the bits do not
depend on the other rows.

Each constant c is found on the normal-quantile scale: the root of
z(P(c * g)) - z(rho), where z(q) is the upper-tail quantile
-normal_quantile(q), which stays accurate for tiny q.  That gap increases
with c and, for one look, is c * max(g) - z(rho) up to grid error, so the
search starts at z(rho) / max(g), takes one Newton step with slope max(g)
and then secant steps, about five recursions per level.  A bracket from
the signs seen so far keeps it inside [-10, 10]: a step that leaves the
bracket, or an infinite gap (a recursion that returns exactly 0 or 1),
bisects instead.  The levels' searches step together: each step
evaluates every pending constant as a row of one batched recursion, and
one more call checks every level on the doubled grid.  Each search sees
the probabilities it would see alone, so a level's constant does not
depend on the other levels calibrated with it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Generator, Iterable, Mapping, Sequence

import numpy as np

from .core import SampleSchedule, check_integer

__all__ = [
    "CalibrationError",
    "GridError",
    "CriticalFunction",
    "normal_quantile",
    "shape_multipliers",
    "crossing_probability",
    "calibrate_levels",
]

SHAPES = ("flat", "obrien-fleming")

_SPAN_SD = 8.0  # grid half-width in standard deviations of S_n

# Grid-size limits, in points on the narrowest look's grid, and the cap on
# any look's points as a multiple of them: at most 65,536 points, and a
# 1 MiB kernel vector, for the doubled-grid check at the upper limit.
MIN_GRID_POINTS = 8
MAX_GRID_POINTS = 4096
_GRID_CAP = 8

# Transform lengths 2^a 3^b 5^c, on which numpy's FFT is fastest, up to
# 2^17, the next above the longest kernel: two looks of 2 * _GRID_CAP *
# MAX_GRID_POINTS points.  The table stays: the next power of two lost
# all 8 paired 3 s bench/run.py runs of calibrate (1,247-1,531
# norm_ops_per_s against 1,543-1,778) and of sweep (2.77-2.88M against
# 3.09-3.26M) on a 2-core host.
_FFT_SIZES = sorted(
    2**a * 3**b * 5**c
    for a in range(18)
    for b in range(11)
    for c in range(8)
    if 2**a * 3**b * 5**c <= 2**17
)

# Largest gap calibrate_levels accepts between a level and the crossing
# probability its boundary achieves on the doubled grid, absolute and
# relative to the level (which binds for levels below 1e-2).
CALIBRATION_TOL = 1e-4
CALIBRATION_RTOL = 1e-2

# Root-search steps _solve_constant takes before it gives up on a level.
_MAX_STEPS = 100

# Levels closer than this are one level to a CriticalFunction lookup.
_LEVEL_RTOL = 1e-12
_LEVEL_ATOL = 1e-15


class CalibrationError(RuntimeError):
    """Root-finding for a boundary constant failed."""


class GridError(RuntimeError):
    """The integration grid is too coarse for the requested tolerance."""


def normal_quantile(q: float) -> float:
    """Standard normal quantile (inverse CDF).

    Args:
        q: Probability strictly between 0 and 1.

    Returns:
        The value z with P(Z <= z) = q for Z standard normal, by Wichura's
        AS241 (1988), which is accurate to about 1e-15 relative.
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {q}")
    # Imported on use: statistics adds about 5 ms to `import stepdown`.
    from statistics import NormalDist

    return NormalDist().inv_cdf(q)


def _check_grid_points(grid_points: int) -> int:
    """Validate an integration grid size before anything is allocated."""
    return check_integer(grid_points, "grid_points", MIN_GRID_POINTS, MAX_GRID_POINTS + 1)


def _check_levels(levels: Iterable[float]) -> list[float]:
    """Validate the levels of a calibration or of a critical table.

    Every level must lie strictly in (0, 1), and no two may be so close
    that a CriticalFunction lookup could not tell them apart.
    """
    checked: list[float] = []
    for rho in levels:
        rho = float(rho)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"level must lie strictly between 0 and 1, got {rho}")
        for seen in checked:
            if math.isclose(seen, rho, rel_tol=_LEVEL_RTOL, abs_tol=_LEVEL_ATOL):
                raise ValueError(f"levels {seen!r} and {rho!r} name the same level")
        checked.append(rho)
    return checked


def shape_multipliers(shape: str, schedule: SampleSchedule | Sequence[int]) -> np.ndarray:
    """Per-analysis boundary multipliers g(n) for a named shape.

    ``flat`` uses the same critical value at every analysis.
    ``obrien-fleming`` scales by sqrt(n_max / n), making early stopping
    conservative and the final analysis the cheapest.
    """
    analyses = np.asarray(SampleSchedule(schedule).analyses, dtype=float)
    if shape == "flat":
        return np.ones_like(analyses)
    if shape == "obrien-fleming":
        return np.sqrt(analyses[-1] / analyses)
    raise ValueError(f"unknown boundary shape {shape!r}; expected one of {SHAPES}")


def crossing_probability(
    schedule: SampleSchedule | Sequence[int],
    boundary: Sequence[float],
    *,
    grid_points: int = 512,
    tol: float | None = None,
) -> float:
    """Probability a driftless standardized walk ever crosses a boundary.

    Computes P(max over analyses n of [S_n / sqrt(n) - b_n] >= 0) for a
    Gaussian random walk with standard normal increments, by recursive
    integration.

    Args:
        schedule: Analysis sizes n_1 < ... < n_J.
        boundary: Standardized critical values b_1, ..., b_J.
        grid_points: Points on the narrowest look's grid, whose spacing
            every look shares.  Error shrinks quadratically, so 512 is
            ample for four-decimal work.
        tol: If given, recompute at twice the grid and require the two
            answers to agree within tol, returning the finer one.
            Raises GridError otherwise.

    Returns:
        The crossing probability in [0, 1].
    """
    analyses = SampleSchedule(schedule).analyses
    b = np.asarray(boundary, dtype=float)
    if b.shape != (len(analyses),):
        raise ValueError(
            f"boundary must provide one value per analysis ({len(analyses)}), got shape {b.shape}"
        )
    if np.isnan(b).any():
        raise ValueError(f"boundary {b.tolist()} must not contain NaN")
    _check_grid_points(grid_points)
    p = _crossing_rows(analyses, b[np.newaxis], grid_points)[0]
    if tol is not None:
        p_fine = _crossing_rows(analyses, b[np.newaxis], 2 * grid_points)[0]
        if abs(p_fine - p) > tol:
            raise GridError(
                f"grid refinement moved the crossing probability by {abs(p_fine - p):.3g}, "
                f"beyond the requested tolerance {tol:.3g}; increase grid_points"
            )
        return p_fine
    return p


def _look_grids(analyses: tuple[int, ...], b: np.ndarray, grid_points: int) -> tuple | None:
    """The common spacing h and each look's top node and point count.

    Look j's grid runs from its threshold node (or the span's top) down by
    h to within one step of -_SPAN_SD sd, floor(span_j / h) + 1 points; a
    1e-9 relative slack in the quotient keeps the narrowest look's
    grid_points.  None when a look's span is empty, or h falls below the
    float spacing of the nodes, whose magnitudes reach _SPAN_SD sd of the
    last look: the walk crosses there but for a mass below float resolution.
    """
    # Per-look scalars as plain floats: the same IEEE operations as
    # numpy's, without an array call each.
    sd = [math.sqrt(n) for n in analyses]
    tops = [min(bound * s, _SPAN_SD * s) for bound, s in zip(b.tolist(), sd)]
    spans = [top + _SPAN_SD * s for top, s in zip(tops, sd)]
    h = max(min(spans) / (grid_points - 1), max(spans) / (_GRID_CAP * grid_points - 1))
    if min(spans) <= 0.0 or h < math.ulp(_SPAN_SD * sd[-1]):
        return None
    return h, tops, [math.floor(span / h * (1.0 + 1e-9)) + 1 for span in spans]


def _crossing_rows(
    analyses: tuple[int, ...], bounds: np.ndarray, grid_points: int
) -> list[float]:
    """The crossing probability of each row of a (rows, looks) boundary array.

    Rows whose looks have equal point counts share every array length and
    transform size, so they run as one recursion with h and the tops as
    columns; numpy computes each row of it as it would the row alone.
    O'Brien-Fleming rows on several looks all but never share one: their
    point counts move with c, as every top scales with it.  A row with no
    grid crosses for certain.
    """
    probabilities = [1.0] * len(bounds)
    groups: dict[tuple[int, ...], list] = {}
    for i, b in enumerate(bounds):
        grids = _look_grids(analyses, b, grid_points)
        if grids is not None:
            h, tops, counts = grids
            groups.setdefault(tuple(counts), []).append((i, h, tops))
    for counts, rows in groups.items():
        indices, hs, tops = zip(*rows)
        h = np.array(hs)[:, np.newaxis]
        for i, p in zip(indices, _group_recursion(analyses, h, np.array(tops), counts)):
            probabilities[i] = p
    return probabilities


def _group_recursion(
    analyses: tuple[int, ...], h: np.ndarray, tops: np.ndarray, counts: tuple[int, ...]
) -> list[float]:
    # Survival density of S_n on {walk below the boundary so far},
    # propagated analysis to analysis on the sum scale, one row per
    # boundary: h is a column, tops has one column per look.
    n1 = analyses[0]
    x = tops[:, :1] - h * np.arange(counts[0] - 1, -1, -1)
    dens = np.exp(-0.5 * x * x / n1) / math.sqrt(2.0 * math.pi * n1)
    for j in range(1, len(analyses)):
        dn = analyses[j] - analyses[j - 1]
        old, new = counts[j - 1], counts[j]
        # Node differences x_j[i] - x_{j-1}[k] = (top_j - top_{j-1})
        # + (i - k + old - new) * h, for old and new points on the two
        # looks, depend on i - k alone, so the Gaussian kernel is one
        # vector over the old + new - 1 differences, applied by a "valid"
        # convolution.
        kernel = (tops[:, j : j + 1] - tops[:, j - 1 : j]) + h * np.arange(1 - new, old)
        kernel *= -0.5 * kernel
        kernel /= dn
        np.exp(kernel, out=kernel)
        kernel /= math.sqrt(2.0 * math.pi * dn)
        dens = _valid_convolution(kernel, _trapezoid(dens, h))
    mass = _trapezoid(dens, h).sum(axis=-1)
    return [min(1.0, max(0.0, 1.0 - m)) for m in mass.tolist()]


def _valid_convolution(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """np.convolve(kernel, signal, "valid") along the last axis, for a
    kernel at least as long as the signal, by one real FFT circular
    convolution of at least the kernel's length: its wrap-around reaches
    only the outputs below len(signal) - 1, which "valid" drops.  Kernel
    and signal are written into one zero-filled (2, ..., size) buffer, so
    a single rfft call transforms both.  Two calls give the same bits but
    ran calibrate slower, so the one stacked call is kept for speed."""
    width, length = kernel.shape[-1], signal.shape[-1]
    size = _FFT_SIZES[bisect.bisect_left(_FFT_SIZES, width)]
    stacked = np.zeros((2, *kernel.shape[:-1], size))
    stacked[0, ..., :width] = kernel
    stacked[1, ..., :length] = signal
    # np.fft is an attribute numpy loads on first access: importing
    # numpy.fft at module level would load it on every `import stepdown`.
    spectra = np.fft.rfft(stacked)
    return np.fft.irfft(spectra[0] * spectra[1], size)[..., length - 1 : width]


def _trapezoid(dens: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """Weight densities on grids of spacing h along the last axis by the
    trapezoid rule, in place: h at inner nodes, h / 2 at each end (a
    one-node grid's once)."""
    dens *= h
    dens[..., :: max(dens.shape[-1] - 1, 1)] *= 0.5
    return dens


@dataclass(frozen=True)
class CriticalFunction:
    """Critical values C_n(rho) on a schedule, for a set of levels rho.

    ``table`` maps each calibrated level to its per-analysis critical
    values.  Values must be non-increasing in the level at every
    analysis: smaller crossing probabilities demand higher boundaries.
    When the table came from calibration, a level's boundary constant is
    its last critical value (both shapes have g = 1 there), and
    ``achieved`` records the crossing probability each boundary achieves
    on the doubled grid.  On the solve grid that probability is rho to
    within the root search's tolerance, so ``achieved[rho] - rho`` is the
    grid-refinement gap.  A table supplied from outside is
    ``CriticalFunction(schedule, table)``, the schedule given as a
    SampleSchedule or a sequence of sizes.  After construction ``table``
    and ``achieved`` are read-only mappings, so the checks made here hold
    for the object's life; pickling rebuilds it through the constructor.
    """

    schedule: SampleSchedule
    table: Mapping[float, tuple[float, ...]]
    achieved: Mapping[float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", SampleSchedule(self.schedule))
        table = {float(r): tuple(float(v) for v in vals) for r, vals in self.table.items()}
        if not table:
            raise ValueError("critical table must contain at least one level")
        _check_levels(table)
        width = len(self.schedule)
        for rho, vals in table.items():
            if len(vals) != width:
                raise ValueError(
                    f"level {rho} needs one critical value per analysis ({width}), got {len(vals)}"
                )
            if any(math.isnan(v) for v in vals):
                raise ValueError(f"critical values for level {rho} must not be NaN")
        levels = sorted(table)
        for lo, hi in zip(levels, levels[1:]):
            if any(a < b for a, b in zip(table[lo], table[hi])):
                raise ValueError(
                    "critical values must be non-increasing in the level at every analysis"
                )
        object.__setattr__(self, "table", MappingProxyType(table))
        # The stage rows procedures._stage_bounds builds from the table,
        # per (rule, alpha, k).
        object.__setattr__(self, "_stage_rows", {})
        if self.achieved is not None:
            achieved = {float(r): float(v) for r, v in self.achieved.items()}
            object.__setattr__(self, "achieved", MappingProxyType(achieved))

    def __reduce__(self):
        # A mappingproxy does not pickle: send plain dicts and rerun the
        # constructor's checks on arrival.
        achieved = None if self.achieved is None else dict(self.achieved)
        return type(self), (self.schedule, dict(self.table), achieved)

    def _find_level(self, rho: float) -> float:
        rho = float(rho)
        if rho in self.table:
            return rho
        for stored in self.table:
            if math.isclose(stored, rho, rel_tol=_LEVEL_RTOL, abs_tol=_LEVEL_ATOL):
                return stored
        raise KeyError(
            f"no critical values calibrated for level {rho!r}; "
            f"available levels: {sorted(self.table)}"
        )

    def boundary(self, rho: float) -> np.ndarray:
        """The per-analysis critical values for one level."""
        return np.asarray(self.table[self._find_level(rho)], dtype=float)


def calibrate_levels(
    schedule: SampleSchedule | Sequence[int],
    levels: Iterable[float],
    shape: str = "flat",
    *,
    grid_points: int = 512,
) -> CriticalFunction:
    """Calibrate one boundary per level on a common schedule and shape.

    Each level rho gets its own root c of crossing_probability(schedule,
    c * g) = rho, verified on a doubled grid (GridError if it misses rho
    by more than CALIBRATION_TOL or by more than CALIBRATION_RTOL * rho),
    so it does not depend on the other levels.  grid_points counts the
    points on the narrowest look's grid.  Every level is validated
    before any is calibrated.  A level listed twice is calibrated once;
    two unequal levels a table lookup could not tell apart raise
    ValueError.
    """
    _check_grid_points(grid_points)
    levels = _check_levels(dict.fromkeys(float(rho) for rho in levels))
    schedule = SampleSchedule(schedule)
    g = shape_multipliers(shape, schedule)
    results = _solve_constants(schedule.analyses, g, levels, grid_points)
    # Every level's doubled-grid check in one call; then the levels are
    # checked in input order, so the first to fail raises its own error.
    found = {rho: c for rho, c in zip(levels, results) if not isinstance(c, CalibrationError)}
    doubled = np.multiply.outer(list(found.values()), g)
    achieved = dict(zip(found, _crossing_rows(schedule.analyses, doubled, 2 * grid_points)))
    for rho, c in zip(levels, results):
        if isinstance(c, CalibrationError):
            raise c
        p = achieved[rho]
        miss = abs(p - rho)
        if miss > CALIBRATION_TOL or miss > CALIBRATION_RTOL * rho:
            raise GridError(
                f"calibrated boundary for level {rho} achieves {p:.6g} on a doubled "
                f"grid, off by {miss:.3g} ({miss / rho:.3g} relative; the limits are "
                f"{CALIBRATION_TOL:.1g} and {CALIBRATION_RTOL:.1g} relative); increase grid_points"
            )
    table = {rho: tuple(float(v) for v in c * g) for rho, c in found.items()}
    return CriticalFunction(schedule, table, achieved)


def _solve_constants(
    analyses: tuple[int, ...], g: np.ndarray, levels: Sequence[float], grid_points: int
) -> list[float | CalibrationError]:
    """Each level's constant, or the CalibrationError its search raised.

    The levels' root searches step together: each step evaluates every
    pending constant as one row of a single _crossing_rows call.
    """
    slope = float(np.max(g))
    searches = [_solve_constant(slope, rho) for rho in levels]
    results: list[float | CalibrationError] = [math.nan] * len(levels)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        rows = np.multiply.outer(list(pending.values()), g)
        for i, p in zip(list(pending), _crossing_rows(analyses, rows, grid_points)):
            try:
                pending[i] = searches[i].send(p)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
            except CalibrationError as error:
                results[i] = error
                del pending[i]
    return results


def _solve_constant(slope: float, rho: float) -> Generator[float, float, float]:
    """The root search for one level's constant c, given slope = max(g).

    Yields each constant to evaluate and is sent the crossing probability
    of c * g there; returns the root, or raises CalibrationError.
    """
    lo, hi = -10.0, 10.0
    target = -normal_quantile(rho)
    # [a, b] brackets the root by the signs seen so far; a domain end
    # counts as a bracket end before it is evaluated, and is evaluated
    # only when a step would leave the domain there.
    a, b = lo, hi
    seen_a = seen_b = False
    c = min(hi, max(lo, target / slope))
    last: tuple[float, float] | None = None  # the previous finite (c, gap)
    for _ in range(_MAX_STEPS):
        p = yield c
        # The gap: upper-tail normal quantile of the crossing probability,
        # minus rho's; increasing in c, +inf where the recursion returns 0
        # and -inf where it returns 1.
        if p == 0.0:
            f = math.inf
        elif p == 1.0:
            f = -math.inf
        else:
            f = -normal_quantile(p) - target
        if f == 0.0:
            return c
        if f < 0.0:
            a, seen_a = c, True
        else:
            b, seen_b = c, True
        if (c == hi and f < 0.0) or (c == lo and f > 0.0):
            raise CalibrationError(
                f"no boundary constant in [{lo:g}, {hi:g}] calibrates level {rho}: "
                f"the crossing probability at c = {c:g} is on the wrong side of it"
            )
        if not math.isfinite(f) or (last is not None and f == last[1]):
            new = 0.5 * (a + b)
        else:
            # A Newton step with slope max(g) first, then secant steps.
            secant = slope if last is None else (f - last[1]) / (c - last[0])
            new, last = c - f / secant, (c, f)
        if new == c:
            # A step that rounds back onto c, already a bracket end, has
            # converged; clamping it would bisect the bracket afresh.
            return c
        if new <= a:
            new = 0.5 * (a + b) if seen_a else lo
        elif new >= b:
            new = 0.5 * (a + b) if seen_b else hi
        if abs(new - c) <= 1e-10 + 1e-12 * abs(c):
            return new
        c = new
    raise CalibrationError(
        f"no boundary constant in [{lo:g}, {hi:g}] calibrates level {rho}: "
        f"the root search did not settle in {_MAX_STEPS} steps"
    )
