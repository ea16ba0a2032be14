"""Ranking evaluation: S@1, reciprocal rank, precision, average precision,
truncated average precision, aggregation over replicates, and chance baselines.

Metrics consume rank-ordered red/green masks (or (Ranking, truth) pairs) only
— they never look at graphs — so they can be tested against brute-force
oracles on synthetic rankings.  :func:`mask_metrics` scores a stack of
orderings at once, one row per ordering, with the columns S@1, RR, AP and
then AP^y for each requested y.  :class:`MetricTable` folds such arrays over
replicates into means and standard errors per gamma; no other module maps a
criterion to its column (:func:`column_index`).  Chance baselines are exact:
under a uniformly random ranking the rank of the j-th red candidate is
negative-hypergeometric, and MAP has Bestgen's (2015) closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, fsum

import numpy as np

from .errors import InputError, NoRedCandidatesError
from .nomination import Ranking

CRITERIA = ("s_at_1", "mrr", "map")  # the first three columns of mask_metrics
BASELINE_CRITERIA = CRITERIA + ("ap_y",)


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one ranking against one truth set."""

    s_at_1: int
    rr: float
    ap: float
    ap_y: dict = field(default_factory=dict)


def _truth_mask(r: Ranking, truth) -> np.ndarray:
    t = np.unique(np.asarray(list(truth), dtype=np.int64))
    if t.size == 0:
        raise NoRedCandidatesError("truth set is empty")
    if not np.isin(t, r.ordered).all():
        raise InputError("truth contains ids outside the ranked candidates")
    return np.isin(r.ordered, t)


def success_at_1(r: Ranking, truth) -> int:
    """1 iff the top-ranked candidate is truly red."""
    return int(_truth_mask(r, truth)[0])


def reciprocal_rank(r: Ranking, truth) -> float:
    """1 / rank of the first truly red candidate (1-indexed)."""
    mask = _truth_mask(r, truth)
    return 1.0 / (int(np.argmax(mask)) + 1)


def precision_at(r: Ranking, truth, rank: int) -> float:
    """Fraction of the first ``rank`` positions that are truly red."""
    mask = _truth_mask(r, truth)
    if not 1 <= rank <= mask.size:
        raise InputError(f"rank must lie in 1..{mask.size}, got {rank}")
    return float(np.count_nonzero(mask[:rank])) / rank


def average_precision(r: Ranking, truth) -> float:
    """Mean precision at the rank of every truly red candidate."""
    return float(mask_metrics(_truth_mask(r, truth))[0, 2])


def average_precision_at_y(r: Ranking, truth, y: int) -> float:
    """Average precision truncated at the y-th red candidate's rank."""
    return float(mask_metrics(_truth_mask(r, truth), (y,))[0, 3])


def mask_metrics(masks, y_values=()) -> np.ndarray:
    """Metrics of rank-ordered red/green membership masks, one row per mask.

    ``masks`` is one mask or a stack of orderings of the same candidates.
    Columns: S@1, RR, AP, then AP^y for each y in ``y_values``.
    """
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    counts = np.count_nonzero(masks, axis=1)
    n_red = int(counts[0])
    if n_red == 0:
        raise NoRedCandidatesError("truth set is empty")
    if (counts != n_red).any():
        raise InputError("every ordering in a stack must hold the same number of red candidates")
    for y in y_values:
        if not 1 <= y <= n_red:
            raise InputError(f"y must lie in 1..{n_red}, got {y}")
    # the precision at the j-th red candidate is j / its rank
    ranks = np.flatnonzero(masks).reshape(len(masks), n_red) % masks.shape[1] + 1
    hits = np.arange(1, n_red + 1) / ranks
    out = np.empty((len(masks), 3 + len(y_values)))
    out[:, 0] = masks[:, 0]
    out[:, 1] = hits[:, 0]
    out[:, 2] = hits.mean(axis=1)
    for col, y in enumerate(y_values, start=3):
        out[:, col] = hits[:, :y].mean(axis=1)
    return out


def report_from_mask(mask: np.ndarray, y_values=()) -> EvalReport:
    """All metrics from a rank-ordered red/green membership mask."""
    row = mask_metrics(mask, y_values)[0]
    return EvalReport(s_at_1=int(row[0]), rr=float(row[1]), ap=float(row[2]),
                      ap_y={int(y): float(v) for y, v in zip(y_values, row[3:])})


def evaluate_ranking(r: Ranking, truth, y_values=()) -> EvalReport:
    """All metrics of one ranking in a single pass."""
    return report_from_mask(_truth_mask(r, truth), y_values)


def mean_se(values):
    """Means and standard errors over the last axis of ``values``.

    Standard errors are sample SD / sqrt(n), NaN with a single value.  The
    last axis is made contiguous, so each row reduces exactly like a 1-d
    array of its values, whatever the stacking.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    if n < 2:
        return mean, np.full_like(mean, np.nan)
    return mean, values.std(axis=-1, ddof=1) / np.sqrt(n)


def column_index(criterion: str, y: int | None = None, y_values=()) -> int:
    """Column of ``criterion`` (of AP^y for 'ap_y') in a :func:`mask_metrics`
    array computed for ``y_values``."""
    if criterion == "ap_y" and y in y_values:
        return len(CRITERIA) + tuple(y_values).index(y)
    if criterion in CRITERIA and y is None:
        return CRITERIA.index(criterion)
    raise InputError(f"no column for criterion {criterion!r} with y={y} "
                     f"(y values {tuple(y_values)})")


@dataclass(frozen=True)
class MetricTable:
    """Means and standard errors over replicates, one row per gamma.

    ``mean`` and ``se`` are (gammas x columns) arrays with the columns of
    :func:`mask_metrics` for ``y_values``; standard errors are NaN with a
    single replicate.  Tables compare equal when their NaNs sit in the same
    places.
    """

    gammas: tuple
    y_values: tuple
    mean: np.ndarray = field(repr=False)
    se: np.ndarray = field(repr=False)
    replicates: int

    @classmethod
    def fold(cls, gammas, values, y_values=()) -> "MetricTable":
        """Table of a (gammas x columns x replicates) array."""
        mean, se = mean_se(values)
        return cls(tuple(gammas), tuple(int(y) for y in y_values), mean, se,
                   np.shape(values)[-1])

    def column(self, criterion: str, y: int | None = None, *, se: bool = False) -> np.ndarray:
        """One criterion's means (or standard errors) over the gammas."""
        return (self.se if se else self.mean)[:, column_index(criterion, y, self.y_values)]

    def value(self, criterion: str, gamma: float, y: int | None = None, *,
              se: bool = False) -> float:
        """One criterion's mean (or standard error) at one gamma."""
        return float(self.column(criterion, y, se=se)[self.gammas.index(gamma)])

    def __eq__(self, other):
        if not isinstance(other, MetricTable):
            return NotImplemented
        return ((self.gammas, self.y_values, self.replicates)
                == (other.gammas, other.y_values, other.replicates)
                and np.array_equal(self.mean, other.mean, equal_nan=True)
                and np.array_equal(self.se, other.se, equal_nan=True))


def aggregate_reports(reports: dict) -> MetricTable:
    """Fold per-replicate reports, ``{gamma: [EvalReport, ...]}``, into a table."""
    counts = {len(reps) for reps in reports.values()}
    if len(counts) != 1 or 0 in counts:
        raise InputError("need the same, non-zero number of reports at every gamma")
    y_values = tuple(next(iter(reports.values()))[0].ap_y)
    values = [[[r.s_at_1, r.rr, r.ap, *(r.ap_y[y] for y in y_values)] for r in reps]
              for reps in reports.values()]
    return MetricTable.fold(reports, np.swapaxes(values, 1, 2), y_values)


def _expected_hit_precision(n: int, r: int, j: int) -> float:
    """E[j / X_j], X_j the rank of the j-th of r reds among n shuffled candidates.

    X_j is negative-hypergeometric: P(X_j = k) = C(k-1, j-1) C(n-k, r-j) /
    C(n, r) for k in j..n-r+j.  Each term is one correctly rounded ratio of
    integers, each numerator follows from the previous one, and fsum adds
    the terms with a single final rounding.
    """
    total = comb(n, r)
    last = n - r + j
    ways = comb(n - j, r - j)  # C(k-1, j-1) C(n-k, r-j) at k = j
    terms = []
    for k in range(j, last + 1):
        terms.append(j * ways / (k * total))
        if k < last:
            ways = ways * k * (n - k - r + j) // ((k - j + 1) * (n - k))
    return fsum(terms)


def chance_baseline(n_candidates: int, n_red: int, criterion: str,
                    y: int | None = None) -> float:
    """Expected metric value under a uniformly random ranking, exactly.

    E[S@1] = R/N; MRR is E[1/X_1] and AP^y the mean of E[j/X_j] over j <= y,
    with X_j the negative-hypergeometric rank of the j-th red; MAP is
    Bestgen's O(N) closed form ((R-1)/(N-1) (N - H_N) + H_N) / N, H_N the
    N-th harmonic number.
    """
    if not 1 <= n_red <= n_candidates:
        raise InputError("need 1 <= n_red <= n_candidates")
    if criterion not in BASELINE_CRITERIA:
        raise InputError(f"criterion must be one of {BASELINE_CRITERIA}, got {criterion!r}")
    if criterion == "ap_y":
        if y is None:
            raise InputError("criterion 'ap_y' requires y")
        if not 1 <= y <= n_red:
            raise InputError(f"y must lie in 1..{n_red}, got {y}")
    elif y is not None:
        raise InputError("y is only meaningful for criterion 'ap_y'")

    n, r = n_candidates, n_red
    if criterion == "s_at_1":
        return r / n
    if criterion == "map":
        harmonic = fsum(1.0 / k for k in range(1, n + 1))
        slope = (r - 1) / (n - 1) if n > 1 else 0.0
        return (slope * (n - harmonic) + harmonic) / n
    depth = 1 if criterion == "mrr" else y
    return fsum(_expected_hit_precision(n, r, j) for j in range(1, depth + 1)) / depth
