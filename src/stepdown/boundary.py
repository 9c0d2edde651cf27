"""Group-sequential critical values for standardized Gaussian statistics.

For a driftless Gaussian random walk S_n observed only at the analysis
sizes n_1 < ... < n_J, the chance that the standardized value S_n / sqrt(n)
ever meets or exceeds a boundary b_1, ..., b_J is computed by recursive
numerical integration over the walk's Markov transitions.  Calibration
root-finds the scalar c so that the boundary c * g(n) is crossed with a
prescribed probability, where g encodes the boundary shape.

The integration works on the sum scale.  At each analysis the density of
S_n restricted to {not yet crossed} is carried on a uniform grid spanning
eight standard deviations either side of zero and propagated through the
Gaussian increment to the next analysis with trapezoidal weights.  The
propagation fills and applies the transition kernel block by block, a
fixed number of rows at a time, so memory grows with the grid size, not
with its square.  The crossing probability is one minus the surviving
mass at the final analysis.  Grid error shrinks quadratically in the
number of points, so doubling the grid gives a practical convergence
check.

Each constant c is found on the normal-quantile scale: the root of
z(P(c * g)) - z(rho), where z(q) is the upper-tail quantile
-normal_quantile(q), which stays accurate for tiny q.  That gap increases
with c and, for one look, is c * max(g) - z(rho) up to grid error, so the
search starts at z(rho) / max(g), takes one Newton step with slope max(g)
and then secant steps, about five recursions per level.  A bracket from
the signs seen so far keeps it inside [-10, 10]: a step that leaves the
bracket, or an infinite gap (a recursion that returns exactly 0 or 1),
bisects instead.  Every level starts afresh, so its constant does not
depend on the other levels calibrated with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

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

# Grid-size limits.  The doubled-grid check integrates on 2 * grid_points
# points; its largest buffer is one (_KERNEL_ROWS, 2 * grid_points) float64
# kernel block, 4 MiB at the upper limit.
MIN_GRID_POINTS = 8
MAX_GRID_POINTS = 4096

# Rows of the transition kernel held in memory at once.  Not every block
# gives the same bits: OpenBLAS may round a mat-vec differently with its
# row count (four-row blocks moved the last bit of a 293-point case that
# 1- to 293-row blocks agreed on), so a new value needs a bit check.
_KERNEL_ROWS = 64

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

_STANDARD_NORMAL = NormalDist()


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
    return _STANDARD_NORMAL.inv_cdf(q)


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
        grid_points: Points per integration grid.  Error shrinks
            quadratically, so 512 is ample for four-decimal work.
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
    p = _crossing_recursion(analyses, b, grid_points)
    if tol is not None:
        p_fine = _crossing_recursion(analyses, b, 2 * grid_points)
        if abs(p_fine - p) > tol:
            raise GridError(
                f"grid refinement moved the crossing probability by {abs(p_fine - p):.3g}, "
                f"beyond the requested tolerance {tol:.3g}; increase grid_points"
            )
        return p_fine
    return p


def _crossing_recursion(analyses: tuple[int, ...], b: np.ndarray, grid_points: int) -> float:
    # Survival density of S_n on {walk below the boundary so far},
    # propagated analysis to analysis on the sum scale.
    thresholds = b * np.sqrt(np.asarray(analyses, dtype=float))

    n1 = analyses[0]
    lo, hi = -_SPAN_SD * math.sqrt(n1), min(thresholds[0], _SPAN_SD * math.sqrt(n1))
    if hi <= lo:
        return 1.0
    grid = np.linspace(lo, hi, grid_points)
    dens = np.exp(-0.5 * grid * grid / n1) / math.sqrt(2.0 * math.pi * n1)

    # The Gaussian transition kernel is filled and applied one block of
    # rows at a time in this buffer, never as a whole N x N matrix.  Each
    # entry is exp(-0.5 * d * d / dn) / scale rounded exactly as in the
    # whole-matrix expression (scaling by -0.5 is exact, so squaring first
    # changes no bit); tests compare against the whole matrix applied in
    # the same row slices.
    block = np.empty((_KERNEL_ROWS, grid_points))
    for j in range(1, len(analyses)):
        dn = analyses[j] - analyses[j - 1]
        lo = -_SPAN_SD * math.sqrt(analyses[j])
        hi = min(thresholds[j], _SPAN_SD * math.sqrt(analyses[j]))
        if hi <= lo:
            return 1.0
        new_grid = np.linspace(lo, hi, grid_points)
        weighted = dens * _trapezoid_weights(grid)
        scale = math.sqrt(2.0 * math.pi * dn)
        for start in range(0, grid_points, _KERNEL_ROWS):
            stop = min(start + _KERNEL_ROWS, grid_points)
            rows = block[: stop - start]
            np.subtract(new_grid[start:stop, None], grid[None, :], out=rows)
            np.square(rows, out=rows)
            rows *= -0.5
            rows /= dn
            np.exp(rows, out=rows)
            rows /= scale
            np.matmul(rows, weighted, out=dens[start:stop])
        grid = new_grid

    return min(1.0, max(0.0, 1.0 - _trapezoid_mass(dens, grid)))


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(grid.shape, h)
    w[0] = w[-1] = h / 2.0
    return w


def _trapezoid_mass(dens: np.ndarray, grid: np.ndarray) -> float:
    return float(dens @ _trapezoid_weights(grid))


@dataclass(frozen=True)
class CriticalFunction:
    """Critical values C_n(rho) on a schedule, for a set of levels rho.

    ``table`` maps each calibrated level to its per-analysis critical
    values.  Values must be non-increasing in the level at every
    analysis: smaller crossing probabilities demand higher boundaries.
    ``constants`` records the scalar boundary multiplier per level when
    the table came from calibration.  A table supplied from outside is
    ``CriticalFunction(schedule, table)``, the schedule given as a
    SampleSchedule or a sequence of sizes.
    """

    schedule: SampleSchedule
    table: Mapping[float, tuple[float, ...]]
    constants: Mapping[float, float] | None = None

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
        object.__setattr__(self, "table", table)
        if self.constants is not None:
            object.__setattr__(
                self, "constants", {float(r): float(c) for r, c in self.constants.items()}
            )

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
    so it does not depend on the other levels.  Every level is validated
    before any is calibrated.  A level listed twice is calibrated once;
    two unequal levels a table lookup could not tell apart raise
    ValueError.
    """
    _check_grid_points(grid_points)
    levels = _check_levels(dict.fromkeys(float(rho) for rho in levels))
    schedule = SampleSchedule(schedule)
    g = shape_multipliers(shape, schedule)
    table: dict[float, tuple[float, ...]] = {}
    constants: dict[float, float] = {}
    for rho in levels:
        c = _solve_constant(schedule.analyses, g, rho, grid_points)
        achieved = _crossing_recursion(schedule.analyses, c * g, 2 * grid_points)
        miss = abs(achieved - rho)
        if miss > CALIBRATION_TOL or miss > CALIBRATION_RTOL * rho:
            raise GridError(
                f"calibrated boundary for level {rho} achieves {achieved:.6g} on a doubled "
                f"grid, off by {miss:.3g} ({miss / rho:.3g} relative; the limits are "
                f"{CALIBRATION_TOL:.1g} and {CALIBRATION_RTOL:.1g} relative); increase grid_points"
            )
        table[rho] = tuple(float(v) for v in c * g)
        constants[rho] = c
    return CriticalFunction(schedule, table, constants)


def _solve_constant(
    analyses: tuple[int, ...], g: np.ndarray, rho: float, grid_points: int
) -> float:
    lo, hi = -10.0, 10.0
    target = -normal_quantile(rho)
    slope = float(np.max(g))

    def gap(c: float) -> float:
        # Upper-tail normal quantile of the crossing probability, minus
        # rho's: increasing in c, +inf where the recursion returns 0 and
        # -inf where it returns 1.
        p = _crossing_recursion(analyses, c * g, grid_points)
        if p == 0.0:
            return math.inf
        if p == 1.0:
            return -math.inf
        return -normal_quantile(p) - target

    # [a, b] brackets the root by the signs seen so far; a domain end
    # counts as a bracket end before it is evaluated, and is evaluated
    # only when a step would leave the domain there.
    a, b = lo, hi
    seen_a = seen_b = False
    c = min(hi, max(lo, target / slope))
    last: tuple[float, float] | None = None  # the previous finite (c, gap)
    for _ in range(_MAX_STEPS):
        f = gap(c)
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
