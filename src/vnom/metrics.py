"""Ranking evaluation: S@1, reciprocal rank, precision, average precision,
truncated average precision, aggregation over replicates, and chance baselines.

Metrics consume rank-ordered red/green masks (or (Ranking, truth) pairs) only
— they never look at graphs — so they can be tested against brute-force
oracles on synthetic rankings.  :func:`mask_metrics` scores a stack of
orderings at once, one row per ordering, with the columns S@1, RR, AP and
then AP^y for each requested y; :func:`evaluate_ranking` reads one ranking's
row into an :class:`EvalReport`, and :func:`precision_at` gives precision@r,
which no column holds.  :class:`MetricTable` folds such arrays over
replicates into means and standard errors per gamma; no other module maps a
criterion to its column (:func:`column_index`).  Chance baselines come from
exact distributions: under a uniformly random ranking the rank of the j-th red
candidate is negative-hypergeometric, and MAP has Bestgen's (2015) closed form.
"""

from __future__ import annotations

from math import fsum, log1p

import numpy as np

from .errors import InputError, NoRedCandidatesError
from .graph import MAX_VERTICES, _Record, _sorted_unique
from .kidney_egg import _mode_masses
from .nomination import Ranking

CRITERIA = ("s_at_1", "mrr", "map")  # the first three columns of mask_metrics
BASELINE_CRITERIA = CRITERIA + ("ap_y",)


class EvalReport(_Record):
    """Metrics of one ranking against one truth set."""

    s_at_1: int
    rr: float
    ap: float
    ap_y: dict


def _truth_mask(r: Ranking, truth) -> np.ndarray:
    t = _sorted_unique(np.asarray(list(truth), dtype=np.int64))
    if t.size == 0:
        raise NoRedCandidatesError("truth set is empty")
    if not np.isin(t, r.ordered).all():
        raise InputError("truth contains ids outside the ranked candidates")
    return np.isin(r.ordered, t)


def precision_at(r: Ranking, truth, rank: int) -> float:
    """Fraction of the first ``rank`` positions that are truly red."""
    mask = _truth_mask(r, truth)
    if not 1 <= rank <= mask.size:
        raise InputError(f"rank must lie in 1..{mask.size}, got {rank}")
    return float(np.count_nonzero(mask[:rank])) / rank


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
    return EvalReport(int(row[0]), float(row[1]), float(row[2]),
                      {int(y): float(v) for y, v in zip(y_values, row[3:])})


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


class MetricTable(_Record):
    """Means and standard errors over replicates, one row per gamma.

    ``mean`` and ``se`` are (gammas x columns) arrays, or stacks of them, with
    the columns of :func:`mask_metrics` for ``y_values``; standard errors are
    NaN with a single replicate.  Tables compare equal when their NaNs sit in
    the same places.
    """

    gammas: tuple
    y_values: tuple
    mean: np.ndarray
    se: np.ndarray
    replicates: int

    @classmethod
    def fold(cls, gammas, values, y_values=()) -> "MetricTable":
        """Table of a (gammas x columns x replicates) array, or of a stack of them."""
        mean, se = mean_se(values)
        return cls(tuple(gammas), tuple(int(y) for y in y_values), mean, se,
                   np.shape(values)[-1])

    def column(self, criterion: str, y: int | None = None, *, se: bool = False) -> np.ndarray:
        """One criterion's means (or standard errors) over the gammas, per stacked row."""
        return (self.se if se else self.mean)[..., column_index(criterion, y, self.y_values)]

    def value(self, criterion: str, gamma: float, y: int | None = None, *,
              se: bool = False) -> float:
        """One criterion's mean (or standard error) at one gamma of an unstacked table."""
        return float(self.column(criterion, y, se=se)[..., self.gammas.index(gamma)])


def aggregate_reports(reports: dict) -> MetricTable:
    """Fold per-replicate reports, ``{gamma: [EvalReport, ...]}``, into a table."""
    counts = {len(reps) for reps in reports.values()}
    if len(counts) != 1 or 0 in counts:
        raise InputError("need the same, non-zero number of reports at every gamma")
    y_values = tuple(next(iter(reports.values()))[0].ap_y)
    values = [[[r.s_at_1, r.rr, r.ap, *(r.ap_y[y] for y in y_values)] for r in reps]
              for reps in reports.values()]
    return MetricTable.fold(reports, np.swapaxes(values, 1, 2), y_values)


# Past this many terms a harmonic sum takes H_n's asymptotic series, whose
# first omitted term, 1/(252 n**6), is below 1e-20 there.
_HARMONIC_TERMS = 1024


def _harmonic_series(n: int) -> float:
    """H_n - ln n - Euler's gamma = 1/(2n) - 1/(12n**2) + 1/(120n**4) - ..."""
    inv = 1.0 / n
    inv2 = inv * inv
    return inv / 2 - inv2 / 12 + inv2 * inv2 / 120


def _harmonic_span(lo: int, hi: int) -> float:
    """H_hi - H_(lo-1), the sum of 1/k over k = lo..hi, in O(_HARMONIC_TERMS) steps.

    A span of at most ``_HARMONIC_TERMS`` terms is one fsum.  A longer one
    sums its terms up to ``mid = max(lo - 1, _HARMONIC_TERMS)`` by fsum and
    adds H_hi - H_mid from the series H_n = ln n + gamma + 1/(2n) -
    1/(12n**2) + 1/(120n**4): log1p((hi - mid) / mid) plus the difference of
    the power terms, gamma cancelling.  Against the full fsum it agrees
    within 1 ulp from the cutoff to 10**6 terms, at spans starting anywhere.
    """
    if hi - lo < _HARMONIC_TERMS:
        return fsum(1.0 / k for k in range(lo, hi + 1))
    mid = max(lo - 1, _HARMONIC_TERMS)
    head = fsum(1.0 / k for k in range(lo, mid + 1))
    return head + (log1p((hi - mid) / mid) + (_harmonic_series(hi) - _harmonic_series(mid)))


def _expected_hit_precision(n: int, r: int, j: int) -> float:
    """E[j / X_j], X_j the rank of the j-th of r reds among n shuffled candidates.

    X_j is negative-hypergeometric: P(X_j = k) = C(k-1, j-1) C(n-k, r-j) /
    C(n, r) for k in j..n-r+j.  For j = 1 the sum has the closed form
    E[1/X_1] = r (H_n - H_(r-1)) / (n - r + 1).  For j > 1 the masses come
    from the ratio recurrence of :func:`~vnom.kidney_egg._mode_masses`,
    P(X_j = k+1) / P(X_j = k) = k (n-k-r+j) / ((k-j+1) (n-k)), anchored at the
    mode, which for this log-concave distribution is the number of ratios
    >= 1.  The result is fsum(p j/k) / fsum(p): O(n) floats, each sum
    correctly rounded and free of BLAS.
    """
    if j == 1:
        return r * _harmonic_span(r, n) / (n - r + 1)
    k = np.arange(j, n - r + j + 1, dtype=np.float64)  # the support of X_j
    head = k[:-1]
    ratio = head * (n - head - r + j) / ((head - j + 1) * (n - head))
    masses = _mode_masses(ratio, int(np.count_nonzero(ratio >= 1.0)))
    return fsum(masses * j / k) / fsum(masses)


def chance_baseline(n_candidates: int, n_red: int, criterion: str,
                    y: int | None = None) -> float:
    """Expected metric value under a uniformly random ranking.

    E[S@1] = R/N; MRR is E[1/X_1] = R (H_N - H_(R-1)) / (N - R + 1) and AP^y
    the mean of E[j/X_j] over j <= y, with X_j the negative-hypergeometric
    rank of the j-th red; MAP is Bestgen's closed form
    ((R-1)/(N-1) (N - H_N) + H_N) / N, H_N the N-th harmonic number.  The
    harmonic sums take at most ``_HARMONIC_TERMS`` float steps
    (:func:`_harmonic_span`); AP^y for y >= 2 takes O(N), so N is bounded by
    ``graph.MAX_VERTICES``, the size of the largest graph whose candidates
    could be ranked.  E[j/X_j] for j >= 2 multiplies up to N rounded ratios,
    so AP^y's relative error grows with N: at most 2.8e-16 for N < 60, and
    7.4e-14 for AP^2 at N = 2**24, R = 3.
    """
    if not 1 <= n_red <= n_candidates:
        raise InputError("need 1 <= n_red <= n_candidates")
    if n_candidates > MAX_VERTICES:
        raise InputError(f"n_candidates must be at most {MAX_VERTICES} (graph.MAX_VERTICES), "
                         f"got {n_candidates}")
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
        harmonic = _harmonic_span(1, n)
        slope = (r - 1) / (n - 1) if n > 1 else 0.0
        return (slope * (n - harmonic) + harmonic) / n
    depth = 1 if criterion == "mrr" else y
    return fsum(_expected_hit_precision(n, r, j) for j in range(1, depth + 1)) / depth
