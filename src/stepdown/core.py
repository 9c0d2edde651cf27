"""Shared vocabulary for multistage multiple testing.

A hypothesis family is abstract here: it knows how many hypotheses there
are, how they are labelled, and which hypotheses contain the complement
of which others.  That containment relation is the only structural
information the step-down machinery ever consults, so these types stay
independent of any concrete parameter space or trial model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "HypothesisFamily",
    "SampleSchedule",
    "StatisticPaths",
    "StageRecord",
    "TrialResult",
    "check_alpha",
    "check_pvalues",
]


def check_alpha(alpha: float) -> float:
    """Validate a familywise error level, returning it as a float."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha


def check_pvalues(p_values: Iterable[float]) -> np.ndarray:
    """Validate p-values, returning them as a float array.

    Accepts a nonempty vector, or a matrix holding one such vector per
    row.
    """
    p = np.asarray(list(p_values) if not isinstance(p_values, np.ndarray) else p_values, dtype=float)
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
    """

    k: int
    labels: tuple[str, ...] = ()
    contains_complement: tuple[tuple[bool, ...], ...] = ()
    closed_monotone: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"family size k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        labels = tuple(self.labels) if self.labels else tuple(f"H{i + 1}" for i in range(self.k))
        if len(labels) != self.k:
            raise ValueError(f"expected {self.k} labels, got {len(labels)}")
        if len(set(labels)) != self.k:
            raise ValueError("hypothesis labels must be distinct")
        for lab in labels:
            if not lab or "," in lab or "\n" in lab:
                raise ValueError(f"label {lab!r} must be nonempty and free of commas and newlines")
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

    @classmethod
    def simple(cls, k: int, labels: Iterable[str] | None = None) -> "HypothesisFamily":
        """A family with no containment structure."""
        return cls(k=k, labels=tuple(labels) if labels is not None else ())

    def implied_acceptances(self, a: int) -> tuple[int, ...]:
        """Indices of hypotheses accepted outright once ``a`` is rejected."""
        return tuple(b for b in range(self.k) if self.contains_complement[a][b])

    def to_text(self) -> str:
        """Serialize as flat ``key = value`` lines (round-trips exactly)."""
        pairs = [
            f"{a + 1}>{b + 1}"
            for a in range(self.k)
            for b in range(self.k)
            if self.contains_complement[a][b]
        ]
        lines = [
            f"k = {self.k}",
            f"labels = {','.join(self.labels)}",
            f"contains_complement = {';'.join(pairs) if pairs else 'none'}",
            f"closed_monotone = {'true' if self.closed_monotone else 'false'}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HypothesisFamily":
        """Parse the ``to_text`` format, rejecting unknown keys."""
        entries = parse_kv_text(text)
        known = {"k", "labels", "contains_complement", "closed_monotone"}
        for key in entries:
            if key not in known:
                raise ValueError(f"unknown family key {key!r}")
        if "k" not in entries:
            raise ValueError("family text must define k")
        try:
            k = int(entries["k"])
        except ValueError:
            raise ValueError(f"family size k must be an integer, got {entries['k']!r}") from None
        labels: tuple[str, ...] = ()
        if entries.get("labels"):
            labels = tuple(s.strip() for s in entries["labels"].split(","))
        rel_text = entries.get("contains_complement", "none").strip()
        rel = [[False] * k for _ in range(k)]
        if rel_text and rel_text != "none":
            for token in rel_text.split(";"):
                token = token.strip()
                try:
                    a_s, b_s = token.split(">")
                    a, b = int(a_s) - 1, int(b_s) - 1
                except ValueError:
                    raise ValueError(f"bad containment pair {token!r}, expected 'a>b'") from None
                if not (0 <= a < k and 0 <= b < k):
                    raise ValueError(f"containment pair {token!r} is out of range for k={k}")
                rel[a][b] = True
        closed = entries.get("closed_monotone", "false").strip().lower()
        if closed not in ("true", "false"):
            raise ValueError(f"closed_monotone must be true or false, got {closed!r}")
        return cls(
            k=k,
            labels=labels,
            contains_complement=tuple(tuple(row) for row in rel),
            closed_monotone=closed == "true",
        )


@dataclass(frozen=True)
class SampleSchedule:
    """The finite, strictly increasing set of allowed analysis sizes."""

    analyses: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            analyses = tuple(int(n) for n in self.analyses)
        except (TypeError, ValueError):
            raise ValueError("analyses must be integers") from None
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


@dataclass(frozen=True, eq=False)
class StatisticPaths:
    """Test statistics for every hypothesis at every analysis size.

    ``values[i, j]`` is the statistic for hypothesis ``i`` at the j-th
    analysis.  ``sums`` optionally records the raw cumulative sums the
    statistics were computed from, for consumers that need the original
    scale (for instance exact tail probabilities of a count).
    """

    analyses: tuple[int, ...]
    values: np.ndarray
    sums: np.ndarray | None = None

    def __post_init__(self) -> None:
        analyses = tuple(int(n) for n in self.analyses)
        if any(b <= a for a, b in zip(analyses, analyses[1:])) or not analyses:
            raise ValueError("analyses must be nonempty and strictly increasing")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(analyses):
            raise ValueError(
                f"values must have shape (k, {len(analyses)}), got {values.shape}"
            )
        if values.shape[0] < 1:
            raise ValueError("paths must cover at least one hypothesis")
        if np.any(np.isnan(values)):
            raise ValueError("statistic values must not be NaN")
        object.__setattr__(self, "analyses", analyses)
        object.__setattr__(self, "values", values)
        if self.sums is not None:
            sums = np.asarray(self.sums, dtype=float)
            if sums.shape != values.shape:
                raise ValueError("sums must match the shape of values")
            object.__setattr__(self, "sums", sums)

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class StageRecord:
    """What one executed stage saw and decided.

    ``ordered`` lists the active hypotheses by descending statistic at
    the stage sample size; ``rejected`` is the prefix of that order the
    stage rejected (always at least one hypothesis).
    """

    stage: int
    n: int
    active: tuple[int, ...]
    ordered: tuple[int, ...]
    rejected: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rejected) < 1:
            raise ValueError("an executed stage must reject at least one hypothesis")
        if self.rejected != self.ordered[: len(self.rejected)]:
            raise ValueError("rejections must form a prefix of the stage ordering")


@dataclass(frozen=True)
class TrialResult:
    """Final decisions of a multistage run.

    ``decision_stage[i]`` is the stage at which hypothesis ``i`` was
    decided and ``endpoint_final_n[i]`` the sample size its data stream
    had reached at that moment; a decided hypothesis is never re-tested,
    so its stream stops growing there.
    """

    rejected: tuple[bool, ...]
    decision_stage: tuple[int, ...]
    endpoint_final_n: tuple[int, ...]
    stages: tuple[StageRecord, ...] = ()

    def __post_init__(self) -> None:
        k = len(self.rejected)
        if not (len(self.decision_stage) == len(self.endpoint_final_n) == k):
            raise ValueError("per-hypothesis fields must have equal length")
        if any(s < 1 for s in self.decision_stage):
            raise ValueError("decision stages are 1-based")
        if any(n < 1 for n in self.endpoint_final_n):
            raise ValueError("final sample sizes must be positive")

    @property
    def decisions(self) -> tuple[str, ...]:
        return tuple("rejected" if r else "accepted" for r in self.rejected)

    @property
    def total_measurements(self) -> int:
        """Measurements consumed across all data streams."""
        return int(sum(self.endpoint_final_n))


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment.

    Later occurrences of a key override earlier ones.  Blank lines are
    ignored.  Lines without ``=`` are rejected.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        entries[key] = value.strip()
    return entries


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list like ``26,29,35``."""
    try:
        return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def parse_float_list(text: str) -> tuple[float, ...]:
    """Parse a comma-separated float list like ``0.05,0.025``."""
    try:
        return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expected a comma-separated numeric list, got {text!r}") from None
