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
order first (:func:`tiebreak_order`), once per candidate set, and rank that
order at every gamma.

:func:`prepare_ranking` stacks both scores into one ``(..., 2, candidates)``
array, checks their range once per candidate set and narrows the stack to
int16 (every score below 2**8) or int32 (below 2**31).  Each gamma's keys are
then the product of the negated weight vector ``w = (-(den-num), -num)`` with
the stack: ``np.dot(w, scores)`` for a single row, and for a stack of rows two
multiplies in the weights' dtype and an add, which beat numpy's integer
matmul there.  The stack's dtype and ``den`` alone pick the weights' dtype,
and with it the key type, with no pass over the data:

- int16 scores below 2**8 and ``den <= 128`` give int16 keys
  (|key| <= 128*255 < 2**15): int16 weights times an int16 stack, so no
  gamma's product casts the stack;
- int16 or int32 scores and ``den < 2**32`` give int64 keys;
- any other keys, as for a gamma that is no small rational, are Python ints.

Both terms of a key share a sign and its magnitude is at most ``den`` times
the largest score, so no partial sum of the product leaves the key type.  An
array-by-array dot product promotes alike under legacy promotion and NEP 50,
and the multiplies name their dtype, so neither rule set can move the key
type.  A stable sort orders equal keys by position whatever their dtype, so
every tier gives the same permutation as the widest; numpy sorts 16-bit keys
stably by radix sort, which is what the narrow tiers buy.

:func:`score_counts` counts both scores for every vertex from bare edge arrays;
it serves attributed graphs, importance trials and sampled score PMFs alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .graph import RED, AttributedGraph, _Record, _sorted_unique
from .seeding import generator

GAMMA_GRID_DEFAULT = tuple(k / 100 for k in range(101))


class Ranking(_Record):
    """Ordered candidate list with scores and the tie-break record.

    ``tie_groups`` holds half-open index ranges ``(start, stop)`` of positions
    whose scores were exactly equal (groups of size >= 2 only); the order
    within each range is a seeded uniform random permutation.
    """

    ordered: np.ndarray
    scores: np.ndarray
    tie_groups: tuple

    def __post_init__(self):
        ordered = np.asarray(self.ordered, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if ordered.size == 0 or ordered.shape != scores.shape:
            raise InputError("ranking needs aligned, non-empty ordered ids and scores")
        if _sorted_unique(ordered).size != ordered.size:
            raise InputError("ranking contains a duplicate candidate")
        if np.any(np.diff(scores) > 0):
            raise InputError("ranking scores must be non-increasing")
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.ordered.size)


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
    boolean arrays).  Masks become index arrays once; each score's endpoints,
    gathered from both ends with ``take``, are joined into one array and
    counted by one ``bincount``."""
    to_identified = identified[edge_v].nonzero()[0]
    from_identified = identified[edge_u].nonzero()[0]
    red = red_edge.nonzero()[0]
    context = np.bincount(np.concatenate((edge_u.take(to_identified),
                                          edge_v.take(from_identified))), minlength=n)
    content = np.bincount(np.concatenate((edge_u.take(red), edge_v.take(red))), minlength=n)
    return context, content


def candidate_statistics(g: AttributedGraph):
    """(candidate ids, context scores, content scores) as aligned arrays.
    A vertex is observed RED or OCCLUDED, so the candidates (occluded, as
    :func:`vnom.graph.candidate_set` finds them) are the unidentified ones."""
    identified = g.observed == RED
    cand = (~identified).nonzero()[0]
    t0, t1 = score_counts(g.n, g.edge_u, g.edge_v, g.edge_attr == RED, identified)
    return cand, t0[cand], t1[cand]


_SMALL_DENOMINATOR = 1_000_000  # largest denominator read as a small rational
_INT16, _INT32 = np.dtype(np.int16), np.dtype(np.int32)
_NARROW = (_INT16, _INT32)  # the score dtypes prepare_ranking returns short of int64
_INT16_DEN = 128  # den up to this keeps every fused key of scores below 2**8 inside int16
_INT64_DEN = 1 << 32  # den below this keeps every fused key of int32 scores inside int64


@lru_cache(maxsize=4096)
def _gamma_weights(gamma) -> tuple:
    """(den, int16 weights, int64 weights, object weights) with gamma =
    num/den: the small rational gamma stands for, else its exact binary
    value.  Each weight vector is ``(-(den-num), -num)``, given in int16 only
    when ``den <= 128`` and in int64 only when ``den < 2**32`` (else None).
    Cached so that any grid of up to a few thousand points is converted once."""
    _check_gamma(gamma)
    gamma = float(gamma)
    frac = Fraction(gamma).limit_denominator(_SMALL_DENOMINATOR)
    if float(frac) != gamma:
        frac = Fraction(gamma)
    num, den = frac.numerator, frac.denominator
    weights = (num - den, -num)
    return (den,
            np.array(weights, dtype=np.int16) if den <= _INT16_DEN else None,
            np.array(weights, dtype=np.int64) if den < _INT64_DEN else None,
            np.array(weights, dtype=object))


def prepare_ranking(t0, t1) -> np.ndarray:
    """The C-contiguous ``(..., 2, candidates)`` stack of context scores
    ``t0`` and content scores ``t1``, in the narrowest dtype of
    :func:`fused_order`'s key tiers: int16 when every score lies in
    [0, 2**8), int32 when every score lies in [0, 2**31), else int64.  Each
    range holds exactly when the bitwise OR of all scores lies in it, so one
    reduction per input picks the dtype, and the stack is built in it.  The
    narrow tier is int16, the dtype of its keys, so its product with int16
    weights casts nothing at any gamma."""
    t0, t1 = np.asarray(t0, dtype=np.int64), np.asarray(t1, dtype=np.int64)
    bits = np.bitwise_or.reduce(t0, axis=None) | np.bitwise_or.reduce(t1, axis=None)  # 0 if empty
    dtype = _INT16 if 0 <= bits < 1 << 8 else _INT32 if 0 <= bits < 1 << 31 else np.int64
    return np.stack((t0, t1), axis=-2, dtype=dtype, casting="unsafe")


def _fused_keys(scores, gamma) -> tuple:
    """(keys, den): ``-((den-num)*t0 + num*t1)`` for a score stack of
    :func:`prepare_ranking`, an exact integer per candidate, ascending as
    the fused score descends, in the key tier (module docstring) that the
    stack's dtype and ``den`` pick.  The stable sort of any tier gives the
    same permutation, so the choice never moves an output byte.  In the
    narrow tier the weights have the stack's own dtype (int16 with int16), so
    the product reads the stack as it is; int64 keys widen the stack inside
    the product, at larger denominators or wider scores."""
    den, int16_weights, int64_weights, exact_weights = _gamma_weights(gamma)
    if scores.dtype == _INT16 and den <= _INT16_DEN:
        weights = int16_weights
    elif scores.dtype in _NARROW and den < _INT64_DEN:
        weights = int64_weights
    else:
        return _exact_keys(scores, exact_weights), den
    if scores.ndim == 2:  # one row: np.dot avoids the matmul gufunc's per-call set-up
        return np.dot(weights, scores), den
    # numpy's integer matmul is no BLAS call: two multiplies beat it on stacks
    context, content = np.moveaxis(scores, -2, 0)
    keys = np.multiply(context, weights[0], dtype=weights.dtype)
    keys += np.multiply(content, weights[1], dtype=weights.dtype)
    return keys, den


def _exact_keys(scores, weights):
    """The fused keys as Python ints, for keys int64 cannot hold."""
    return weights @ scores.astype(object)


def _stable_order(keys) -> np.ndarray:
    """The stable argsort of ``keys`` along the last axis: every ranking sort."""
    return keys.argsort(axis=-1, kind="stable")  # the method skips np.argsort's dispatch


def tiebreak_order(tiebreak) -> np.ndarray:
    """Stable permutation sorting candidates by ascending ``tiebreak`` keys,
    row by row for stacks.  Integer keys in [0, 2**16), which cover every
    permutation of fewer than 65 536 candidates, are sorted as uint16, which
    numpy sorts by radix sort; the permutation is the same for any dtype."""
    keys = np.asarray(tiebreak)
    if keys.dtype.kind in "iu" and 0 <= np.bitwise_or.reduce(keys, axis=None) < 1 << 16:
        keys = keys.astype(np.uint16)
    return _stable_order(keys)


def fused_order(scores, gamma) -> np.ndarray:
    """Stable permutation sorting candidates by fused score descending.

    ``scores`` is a stack from :func:`prepare_ranking`; the permutation
    indexes its last axis.  Candidates with exactly equal fused scores keep
    their input order, so callers break ties by ordering the candidates
    first.  Stacks of candidate rows are ranked row by row.
    """
    keys, _ = _fused_keys(scores, gamma)
    return _stable_order(keys)


def rank_candidates(g: AttributedGraph, gamma: float, seed) -> Ranking:
    """Rank every occluded vertex by fused score, descending.

    The seed drives only tie-breaking; rankings with all-distinct scores are
    seed-independent.  Scores are the exact fused scores correctly rounded to
    float; tie groups are the runs of exactly equal scores.
    """
    cand, t0, t1 = candidate_statistics(g)
    if cand.size == 0:
        raise InputError("graph has no candidates to rank")
    first = tiebreak_order(generator(seed).permutation(cand.size))
    keys, den = _fused_keys(prepare_ranking(t0[first], t1[first]), gamma)
    order = _stable_order(keys)  # ties keep the tie-break order
    fused = -keys[order]  # fused scores times den, descending
    bounds = [0, *(np.flatnonzero(np.diff(fused) != 0) + 1).tolist(), cand.size]
    tie_groups = tuple((a, b) for a, b in zip(bounds, bounds[1:]) if b - a >= 2)
    return Ranking(cand[first[order]], fused / den, tie_groups)
