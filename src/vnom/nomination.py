"""Content/context fusion scores and candidate ranking.

A candidate's context score counts its identified neighbors; its content
score counts its incident red-topic edges; the fused score is the convex
combination ``(1-gamma)*context + gamma*content``.  Candidates are ranked by
fused score descending, with ties broken by a seeded uniform random
permutation within each tied group.

Ranking compares one exact integer key per candidate, ``(den-num)*context +
num*content`` with ``gamma = num/den``: the small rational a grid float stands
for, or else the float's exact binary value.  Equal fused values therefore
never split and unequal ones never merge through float rounding.

:func:`score_counts` counts both scores for every vertex from bare edge arrays;
it serves attributed graphs, importance trials and sampled score PMFs alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .graph import OCCLUDED, RED, AttributedGraph, candidate_set
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


def validate_gamma_grid(gamma_grid) -> tuple:
    """The grid as a tuple of floats: non-empty, each in [0, 1], no repeats
    (results are keyed by gamma, so a repeat would merge in some outputs)."""
    grid = tuple(float(x) for x in gamma_grid)
    if not grid:
        raise InputError("gamma grid must be non-empty")
    for gamma in grid:
        _check_gamma(gamma)
    if len(set(grid)) != len(grid):
        raise InputError(f"gamma grid repeats a value: {grid}")
    return grid


def score_counts(n: int, edge_u, edge_v, red_edge, identified):
    """(context, content) of all n vertices: neighbors in the ``identified``
    vertex mask, and incident edges in the ``red_edge`` edge mask."""
    context = (np.bincount(edge_u[identified[edge_v]], minlength=n)
               + np.bincount(edge_v[identified[edge_u]], minlength=n))
    content = (np.bincount(edge_u[red_edge], minlength=n)
               + np.bincount(edge_v[red_edge], minlength=n))
    return context, content


def candidate_statistics(g: AttributedGraph):
    """(candidate ids, context scores, content scores) as aligned arrays."""
    cand = candidate_set(g)
    t0, t1 = score_counts(g.n, g.edge_u, g.edge_v, g.edge_attr == RED, g.observed == RED)
    return cand, t0[cand], t1[cand]


_INT64_DENOMINATOR = 1_000_000  # largest small-rational denominator; its keys fit int64


@lru_cache(maxsize=256)
def _gamma_as_fraction(gamma: float) -> Fraction:
    """The small rational gamma stands for, else its exact binary value."""
    frac = Fraction(gamma).limit_denominator(_INT64_DENOMINATOR)
    return frac if float(frac) == gamma else Fraction(gamma)


def _fused_keys(t0, t1, gamma):
    """(keys, den): fused scores times den as exact integers, gamma = num/den.

    Keys are int64 for small-rational gammas; otherwise den is a large power
    of two and the keys are Python ints in an object array.
    """
    _check_gamma(gamma)
    frac = _gamma_as_fraction(float(gamma))
    num, den = frac.numerator, frac.denominator
    dtype = np.int64 if den <= _INT64_DENOMINATOR else object
    t0 = np.asarray(t0, dtype=np.int64).astype(dtype, copy=False)
    t1 = np.asarray(t1, dtype=np.int64).astype(dtype, copy=False)
    return (den - num) * t0 + num * t1, den


def fused_order(t0, t1, gamma, tiebreak_keys) -> np.ndarray:
    """Permutation sorting candidates by fused score descending.

    The permutation indexes the input arrays; candidates with exactly equal
    fused scores are ordered by ascending ``tiebreak_keys``.
    """
    keys, _ = _fused_keys(t0, t1, gamma)
    return np.lexsort((tiebreak_keys, -keys))


def rank_candidates(g: AttributedGraph, gamma: float, seed) -> Ranking:
    """Rank every occluded vertex by fused score, descending.

    The seed drives only tie-breaking; rankings with all-distinct scores are
    seed-independent.  Scores are the exact fused scores correctly rounded to
    float; tie groups are the runs of exactly equal scores.
    """
    cand, t0, t1 = candidate_statistics(g)
    if cand.size == 0:
        raise InputError("graph has no candidates to rank")
    tiebreak = generator(seed).permutation(cand.size)
    order = fused_order(t0, t1, gamma, tiebreak)
    keys, den = _fused_keys(t0, t1, gamma)
    sorted_keys = keys[order]
    bounds = [0, *(np.flatnonzero(np.diff(sorted_keys) != 0) + 1).tolist(), cand.size]
    tie_groups = tuple((a, b) for a, b in zip(bounds, bounds[1:]) if b - a >= 2)
    return Ranking(cand[order], sorted_keys / den, tie_groups, gamma=float(gamma))
