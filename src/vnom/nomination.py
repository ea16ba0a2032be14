"""Content/context fusion scores and candidate ranking.

A candidate's context score counts its identified neighbors; its content
score counts its incident red-topic edges; the fused score is the convex
combination ``(1-gamma)*context + gamma*content``.  Candidates are ranked by
fused score descending, with ties broken by a seeded uniform random
permutation within each tied group.

Ranking compares one exact integer per candidate, the fused key
``(den-num)*context + num*content`` with ``gamma = num/den``: the small
rational a grid float stands for, or else the float's exact binary value.
Equal fused values therefore never split and unequal ones never merge through
float rounding.  :func:`fused_order` sorts the keys stably, so tied
candidates keep their input order; callers put the candidates in tie-break
order first, once per candidate set, and rank that order at every gamma.
:func:`prepare_ranking` checks the score range once per candidate set and
narrows the scores to int32, from which :func:`fused_order` takes its int64
path by dtype and ``den < 2**32`` alone, with no pass over the data.  Keys
int64 cannot be shown to hold, as for a gamma that is no small rational, are
Python ints.

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
    vertex mask, and incident edges in the ``red_edge`` edge mask (both
    boolean arrays).  Masks become index arrays once and the endpoints are
    gathered by them, which is cheaper than boolean indexing."""
    to_identified = identified[edge_v].nonzero()[0]
    from_identified = identified[edge_u].nonzero()[0]
    red = red_edge.nonzero()[0]
    context = (np.bincount(edge_u[to_identified], minlength=n)
               + np.bincount(edge_v[from_identified], minlength=n))
    content = (np.bincount(edge_u[red], minlength=n)
               + np.bincount(edge_v[red], minlength=n))
    return context, content


def candidate_statistics(g: AttributedGraph):
    """(candidate ids, context scores, content scores) as aligned arrays."""
    cand = candidate_set(g)
    t0, t1 = score_counts(g.n, g.edge_u, g.edge_v, g.edge_attr == RED, g.observed == RED)
    return cand, t0[cand], t1[cand]


_SMALL_DENOMINATOR = 1_000_000  # largest denominator read as a small rational
_INT32 = np.dtype(np.int32)
_FAST_LIMIT = 1 << 32  # den below this keeps every fused key of int32 scores inside int64


@lru_cache(maxsize=4096)
def _gamma_weights(gamma) -> tuple:
    """(den - num, num, den) with gamma = num/den: the small rational gamma
    stands for, else its exact binary value.  Cached so that any grid of up
    to a few thousand points is converted once."""
    _check_gamma(gamma)
    gamma = float(gamma)
    frac = Fraction(gamma).limit_denominator(_SMALL_DENOMINATOR)
    if float(frac) != gamma:
        frac = Fraction(gamma)
    return frac.denominator - frac.numerator, frac.numerator, frac.denominator


def prepare_ranking(t0, t1) -> tuple:
    """(t0, t1) as int32, the dtype of :func:`fused_order`'s int64 path, when
    every score lies in [0, 2**31), which holds exactly when the bitwise OR of
    all scores does; else as int64 arrays."""
    t0 = np.asarray(t0, dtype=np.int64)
    t1 = np.asarray(t1, dtype=np.int64)
    if t0.size and 0 <= np.bitwise_or.reduce(t0 | t1, axis=None) < 1 << 31:
        return t0.astype(np.int32), t1.astype(np.int32)
    return t0, t1


def _fused_keys(t0, t1, gamma) -> tuple:
    """(keys, den): ``-((den-num)*t0 + num*t1)``, an exact integer per
    candidate, ascending as the fused score descends.  Int32 scores with
    den < 2**32 give int64 keys at once; other scores go through
    :func:`prepare_ranking` first, and keys int64 still cannot be shown to
    hold are Python ints (:func:`_exact_keys`)."""
    w0, w1, den = _gamma_weights(gamma)
    t0, t1 = np.asarray(t0), np.asarray(t1)
    if t0.dtype != _INT32 or t1.dtype != _INT32:
        t0, t1 = prepare_ranking(t0, t1)  # t0, t1 share a dtype
    if t0.dtype == _INT32 and den < _FAST_LIMIT:
        return _key_formula(t0, t1, w0, w1, np.int64), den
    return _exact_keys(t0, t1, w0, w1), den


def _key_formula(t0, t1, w0, w1, dtype):
    # widened before any product, so no numpy version's promotion rules apply
    keys = t0.astype(dtype)
    keys *= -w0
    term = t1.astype(dtype)
    term *= -w1
    keys += term
    return keys


def _exact_keys(t0, t1, w0, w1):
    """The fused keys as Python ints, for keys int64 cannot hold."""
    return _key_formula(t0, t1, w0, w1, object)


def fused_order(t0, t1, gamma) -> np.ndarray:
    """Stable permutation sorting candidates by fused score descending.

    The permutation indexes the input arrays; candidates with exactly equal
    fused scores keep their input order, so callers break ties by ordering
    the candidates first.  Stacks of candidate rows are ranked row by row.
    """
    keys, _ = _fused_keys(t0, t1, gamma)
    return keys.argsort(axis=-1, kind="stable")  # the method skips np.argsort's dispatch


def rank_candidates(g: AttributedGraph, gamma: float, seed) -> Ranking:
    """Rank every occluded vertex by fused score, descending.

    The seed drives only tie-breaking; rankings with all-distinct scores are
    seed-independent.  Scores are the exact fused scores correctly rounded to
    float; tie groups are the runs of exactly equal scores.
    """
    cand, t0, t1 = candidate_statistics(g)
    if cand.size == 0:
        raise InputError("graph has no candidates to rank")
    first = generator(seed).permutation(cand.size).argsort(kind="stable")  # tie-break order
    keys, den = _fused_keys(t0[first], t1[first], gamma)
    order = keys.argsort(kind="stable")  # ties keep the tie-break order
    fused = -keys[order]  # fused scores times den, descending
    bounds = [0, *(np.flatnonzero(np.diff(fused) != 0) + 1).tolist(), cand.size]
    tie_groups = tuple((a, b) for a, b in zip(bounds, bounds[1:]) if b - a >= 2)
    return Ranking(cand[first[order]], fused / den, tie_groups)
