"""Shared vocabulary for multistage multiple testing.

A hypothesis family is abstract here: it knows how many hypotheses there
are, how they are labelled, and which hypotheses contain the complement
of which others.  That containment relation is the only structural
information the step-down machinery ever consults, so these types stay
independent of any concrete parameter space or trial model.  No text
is parsed here: the command-line grammars live in ``stepdown.cli``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "HypothesisFamily",
    "SampleSchedule",
    "StatisticPaths",
    "StageRecord",
    "TrialResult",
    "check_alpha",
    "check_integer",
    "check_pvalues",
]


def check_alpha(alpha: float) -> float:
    """Validate a familywise error level, returning it as a float."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha


def check_integer(value: int, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """Validate a count, size or index in ``[lo, hi)``, returning it as an int.

    Ints and numpy integers pass; bools and floats, even whole ones, do not.
    A bound left as None is open."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if hi is not None and not lo <= value < hi:
        top = "2**64" if hi == 2**64 else hi
        raise ValueError(f"{name} must lie in [{lo}, {top}), got {value}")
    if lo is not None and value < lo:
        rule = "a positive integer" if lo == 1 else f"at least {lo}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def check_pvalues(p_values: Iterable[float]) -> np.ndarray:
    """Validate p-values, returning them as a float array.

    Accepts a nonempty vector, or a matrix holding one such vector per
    row.
    """
    p = np.asarray(p_values if isinstance(p_values, np.ndarray) else [*p_values], dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] == 0:
        raise ValueError("p-values must form a nonempty vector or a matrix of such rows")
    if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return p


@dataclass(frozen=True)
class HypothesisFamily:
    """A family of k null hypotheses under simultaneous test.

    ``contains_complement[a][b]`` is True when hypothesis ``b`` contains
    the complement of hypothesis ``a``.  Rejecting ``a`` then certifies
    every parameter outside ``a``, so ``b`` can be accepted without
    further testing; the stopping and implied-acceptance rules read the
    relation exactly that way.

    ``closed_monotone`` asserts that the family is closed under
    intersection and that the statistics used with it are ordered along
    the containment relation.  Operations specific to closed families
    refuse to run without the flag.

    ``_implied[a]`` holds row a of ``contains_complement`` as an int
    bitmask, bit b set when b is accepted once a is rejected.
    """

    k: int
    labels: tuple[str, ...] = ()
    contains_complement: tuple[tuple[bool, ...], ...] = ()
    closed_monotone: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_integer(self.k, "family size k", 1))
        labels = tuple(self.labels) if self.labels else tuple(f"H{i + 1}" for i in range(self.k))
        if len(labels) != self.k:
            raise ValueError(f"expected {self.k} labels, got {len(labels)}")
        if len(set(labels)) != self.k:
            raise ValueError("hypothesis labels must be distinct")
        if not all(labels):
            raise ValueError("hypothesis labels must be nonempty")
        object.__setattr__(self, "labels", labels)

        if self.contains_complement:
            rel = tuple(tuple(bool(x) for x in row) for row in self.contains_complement)
        else:
            rel = tuple(tuple(False for _ in range(self.k)) for _ in range(self.k))
        if len(rel) != self.k or any(len(row) != self.k for row in rel):
            raise ValueError("contains_complement must be a k-by-k boolean relation")
        for a in range(self.k):
            if rel[a][a]:
                raise ValueError(
                    f"hypothesis {labels[a]} cannot contain its own complement"
                )
        object.__setattr__(self, "contains_complement", rel)
        object.__setattr__(self, "closed_monotone", bool(self.closed_monotone))
        implied = tuple(sum(1 << b for b, x in enumerate(row) if x) for row in rel)
        object.__setattr__(self, "_implied", implied)


@dataclass(frozen=True)
class SampleSchedule:
    """The finite, strictly increasing set of allowed analysis sizes."""

    analyses: tuple[int, ...]

    def __post_init__(self) -> None:
        analyses = tuple(check_integer(n, "analysis size") for n in self.analyses)
        if len(analyses) == 0:
            raise ValueError("a sample schedule needs at least one analysis")
        if any(n < 1 for n in analyses):
            raise ValueError("analysis sizes must be positive")
        if any(b <= a for a, b in zip(analyses, analyses[1:])):
            raise ValueError("analysis sizes must be strictly increasing")
        object.__setattr__(self, "analyses", analyses)

    def __len__(self) -> int:
        return len(self.analyses)

    def __iter__(self) -> Iterator[int]:
        return iter(self.analyses)

    @property
    def sup(self) -> int:
        """The largest allowed sample size."""
        return self.analyses[-1]


_PLAIN_INT = frozenset({int})


@functools.lru_cache(maxsize=256)
def _int_schedule(analyses: tuple[int, ...]) -> tuple[int, ...]:
    """SampleSchedule's checks on a tuple of plain ints, made once per tuple.

    Only plain-int tuples may reach the memo: (26.0, 29.0, 35.0) equals
    (26, 29, 35) as a key but fails the checks.  The memo stays: without it
    10,000 StatisticPaths constructions took 61 ms, not 33-35, and the
    closed-fwe benchmark's setup_s rose 24%, near its 0.25 bound (2-core host).
    """
    return SampleSchedule(analyses).analyses


@dataclass(frozen=True, eq=False)
class StatisticPaths:
    """Test statistics for every hypothesis at every analysis size.

    ``values[i, j]`` is the statistic for hypothesis ``i`` at the j-th
    analysis.
    """

    analyses: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        analyses = self.analyses
        if type(analyses) is tuple and {*map(type, analyses)} == _PLAIN_INT:
            analyses = _int_schedule(analyses)
        else:
            analyses = SampleSchedule(analyses).analyses
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(analyses):
            raise ValueError(
                f"values must have shape (k, {len(analyses)}), got {values.shape}"
            )
        if values.shape[0] < 1:
            raise ValueError("paths must cover at least one hypothesis")
        # min propagates NaN; a sum would turn inf + -inf into NaN.
        if math.isnan(values.min()):
            raise ValueError("statistic values must not be NaN")
        object.__setattr__(self, "analyses", analyses)
        object.__setattr__(self, "values", values)


class StageRecord(NamedTuple("StageRecord", [
    ("stage", int),
    ("n", int),
    ("active", tuple[int, ...]),
    ("ordered", tuple[int, ...]),
    ("rejected", tuple[int, ...]),
])):
    """What one executed stage saw and decided.

    ``ordered`` lists the active hypotheses by descending statistic at
    the stage sample size; ``rejected`` is the prefix of that order the
    stage rejected (always at least one hypothesis).

    An immutable named tuple: every construction, ``_replace`` and
    unpickling included, runs the checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        stage: int,
        n: int,
        active: tuple[int, ...],
        ordered: tuple[int, ...],
        rejected: tuple[int, ...],
    ) -> "StageRecord":
        if len(rejected) < 1:
            raise ValueError("an executed stage must reject at least one hypothesis")
        if rejected != ordered[: len(rejected)]:
            raise ValueError("rejections must form a prefix of the stage ordering")
        return tuple.__new__(cls, (stage, n, active, ordered, rejected))

    @classmethod
    def _make(cls, iterable: Iterable) -> "StageRecord":
        return cls(*iterable)


class TrialResult(NamedTuple("TrialResult", [
    ("rejected", tuple[bool, ...]),
    ("decision_stage", tuple[int, ...]),
    ("endpoint_final_n", tuple[int, ...]),
    ("stages", tuple[StageRecord, ...]),
])):
    """Final decisions of a multistage run.

    ``decision_stage[i]`` is the stage at which hypothesis ``i`` was
    decided and ``endpoint_final_n[i]`` the sample size its data stream
    had reached at that moment; a decided hypothesis is never re-tested,
    so its stream stops growing there.

    An immutable named tuple: every construction, ``_replace`` and
    unpickling included, runs the checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        rejected: tuple[bool, ...],
        decision_stage: tuple[int, ...],
        endpoint_final_n: tuple[int, ...],
        stages: tuple[StageRecord, ...] = (),
    ) -> "TrialResult":
        k = len(rejected)
        if not (len(decision_stage) == len(endpoint_final_n) == k):
            raise ValueError("per-hypothesis fields must have equal length")
        if k and min(decision_stage) < 1:
            raise ValueError("decision stages are 1-based")
        if k and min(endpoint_final_n) < 1:
            raise ValueError("final sample sizes must be positive")
        return tuple.__new__(cls, (rejected, decision_stage, endpoint_final_n, stages))

    @classmethod
    def _make(cls, iterable: Iterable) -> "TrialResult":
        return cls(*iterable)

    @property
    def decisions(self) -> tuple[str, ...]:
        return tuple("rejected" if r else "accepted" for r in self.rejected)

    @property
    def total_measurements(self) -> int:
        """Measurements consumed across all data streams."""
        return int(sum(self.endpoint_final_n))
