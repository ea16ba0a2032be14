"""Content/context fusion scores and candidate ranking.

A candidate's context score counts its identified neighbors; its content
score counts its incident red-topic edges; the fused score is the convex
combination ``(1-gamma)*context + gamma*content``.  Candidates are ranked by
fused score descending, with ties broken by a seeded uniform random
permutation within each tied group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .graph import OCCLUDED, RED, AttributedGraph, candidate_set
from .kidney_egg import _content_scores, _context_scores
from .seeding import generator

GAMMA_GRID_DEFAULT = tuple(k / 100 for k in range(101))


@dataclass(frozen=True)
class Ranking:
    """Ordered candidate list with scores and the tie-break record.

    ``tie_groups`` holds half-open index ranges ``(start, stop)`` of positions
    whose scores were exactly equal (groups of size >= 2 only); the order
    within each range is a seeded uniform random permutation.
    """

    ordered: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    tie_groups: tuple
    gamma: float
    seed_used: object = None

    def __post_init__(self):
        ordered = np.asarray(self.ordered, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if ordered.size == 0 or ordered.shape != scores.shape:
            raise InputError("ranking needs aligned, non-empty ordered ids and scores")
        if np.unique(ordered).size != ordered.size:
            raise InputError("ranking contains a duplicate candidate")
        if np.any(np.diff(scores) > 0):
            raise InputError("ranking scores must be non-increasing")
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.ordered.size)


def _require_candidate(g: AttributedGraph, v: int):
    if not 0 <= v < g.n:
        raise InputError(f"unknown vertex id {v}")
    if g.observed[v] != OCCLUDED:
        raise InputError(f"vertex {v} is identified, not a candidate")


def context_score(g: AttributedGraph, v: int) -> int:
    """Number of identified (observed red) neighbors of candidate v."""
    _require_candidate(g, v)
    return int(np.count_nonzero(g.observed[g.neighbors(v)] == RED))


def content_score(g: AttributedGraph, v: int) -> int:
    """Number of red-topic edges incident to candidate v."""
    _require_candidate(g, v)
    return int(np.count_nonzero(g.incident_attrs(v) == RED))


def fused_score(g: AttributedGraph, v: int, gamma: float) -> float:
    """(1-gamma) * context + gamma * content."""
    _check_gamma(gamma)
    return (1.0 - gamma) * context_score(g, v) + gamma * content_score(g, v)


def _check_gamma(gamma: float):
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must lie in [0, 1], got {gamma}")


def candidate_statistics(g: AttributedGraph):
    """(candidate ids, context scores, content scores) as aligned arrays."""
    cand = candidate_set(g)
    t0 = _context_scores(g)[cand]
    t1 = _content_scores(g)[cand]
    return cand, t0, t1


@lru_cache(maxsize=256)
def _gamma_as_fraction(gamma: float):
    """Small exact rational equal to gamma, or None if there is none."""
    frac = Fraction(gamma).limit_denominator(1_000_000)
    return frac if float(frac) == gamma else None


def fused_order(t0, t1, gamma, tiebreak_keys):
    """Permutation sorting candidates by fused score descending.

    Returns (order, scores, tie_groups) where ``order`` indexes the input
    arrays.  Tie detection compares exact rational scores — (den-num)*t0 +
    num*t1 in integer arithmetic when gamma is a grid rational — so equal
    fused values never split and unequal ones never merge through float
    rounding.
    """
    _check_gamma(gamma)
    t0 = np.asarray(t0, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    frac = _gamma_as_fraction(float(gamma))
    if frac is not None:
        num, den = frac.numerator, frac.denominator
        key = (den - num) * t0 + num * t1
        order = np.lexsort((tiebreak_keys, -key))
        sorted_key = key[order]
        scores = sorted_key / den if den > 1 else sorted_key.astype(np.float64)
        boundaries = np.flatnonzero(np.diff(sorted_key) != 0) + 1
    else:
        fg = Fraction(gamma)  # exact binary value of the float
        keys = [(1 - fg) * int(a) + fg * int(b) for a, b in zip(t0, t1)]
        order = np.asarray(sorted(range(len(keys)),
                                  key=lambda i: (-keys[i], tiebreak_keys[i])),
                           dtype=np.int64)
        sorted_exact = [keys[i] for i in order]
        scores = np.array([float(x) for x in sorted_exact])
        boundaries = np.flatnonzero(
            [sorted_exact[i] != sorted_exact[i + 1] for i in range(len(sorted_exact) - 1)]) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(t0)]])
    tie_groups = tuple((int(a), int(b)) for a, b in zip(starts, stops) if b - a >= 2)
    return order, scores, tie_groups


def order_by_fused_scores(cand, t0, t1, gamma, tiebreak_keys):
    """Like :func:`fused_order` but returns the reordered candidate ids."""
    cand = np.asarray(cand, dtype=np.int64)
    order, scores, tie_groups = fused_order(t0, t1, gamma, tiebreak_keys)
    return cand[order], scores, tie_groups


def rank_candidates(g: AttributedGraph, gamma: float, seed) -> Ranking:
    """Rank every occluded vertex by fused score, descending.

    The seed drives only tie-breaking; rankings with all-distinct scores are
    seed-independent.
    """
    cand, t0, t1 = candidate_statistics(g)
    if cand.size == 0:
        raise InputError("graph has no candidates to rank")
    tiebreak = generator(seed).permutation(cand.size)
    ordered, scores, ties = order_by_fused_scores(cand, t0, t1, gamma, tiebreak)
    return Ranking(ordered, scores, ties, gamma=float(gamma), seed_used=seed)
