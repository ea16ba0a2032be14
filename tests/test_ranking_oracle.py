"""fused_order, rank_candidates and evaluate_grid against a pure-Python
ranking oracle.

The oracle (conftest's ``oracle_order``) shares no code with vnom.nomination:
it reads gamma as the small rational the float stands for (denominator at
most 10**6) or else as its exact binary value, computes every fused score as
a Fraction and sorts the candidates by (-fused, tie-break key, index).
"""

import random
import tracemalloc

import numpy as np
import pytest

import vnom.nomination
from vnom import KidneyEggParams, candidate_statistics, rank_candidates, sample_kidney_egg
from vnom.experiments import evaluate_grid
from vnom.metrics import mask_metrics
from vnom.nomination import _fused_keys, _gamma_weights, prepare_ranking, tiebreak_order

from conftest import exact_fused, oracle_order, oracle_ranking, order_with_tiebreak

GAMMAS = (0.0, 1.0, 1 / 3, 0.1 + 0.2, 0.3333333217048645, 999_983 / 1_000_000,
          1 / 999_983, 5e-324, 0.5, 0.37)
BIG = (0, 1, 2 ** 31 - 2, 2 ** 31 - 1, 2 ** 31)  # int32's edge and just past it


def random_case(rng, rows, n):
    """(t0, t1, tiebreak) lists of shape (rows, n), drawn from mixed score
    ranges and tie-break kinds."""
    shape = (rows, n)
    scores = rng.integers(4)
    if scores == 0:
        t0, t1 = rng.integers(0, 3, shape), rng.integers(0, 3, shape)  # heavy ties
    elif scores == 1:
        t0, t1 = rng.integers(0, 200, shape), rng.integers(0, 200, shape)
    else:
        t0, t1 = rng.choice(BIG, shape), rng.choice(BIG, shape)
    kind = rng.integers(6)
    if kind == 0:
        tiebreak = np.stack([rng.permutation(n) for _ in range(rows)])
    elif kind == 1:
        tiebreak = rng.integers(0, 4, shape)  # duplicates: index order decides
    elif kind == 5:  # up to the top of the uint8 or uint16 range
        tiebreak = rng.integers(0, rng.choice([1 << 8, 1 << 16]), shape)
    elif kind == 2:
        tiebreak = rng.integers(-50, 50, shape)
    elif kind == 3:
        tiebreak = rng.integers(0, 10 ** 6, shape)  # not a permutation, wider than uint16
    else:
        tiebreak = rng.random(shape)
    return t0.tolist(), t1.tolist(), tiebreak.tolist()


def as_input(values, kind):
    if kind == "list":
        return values
    array = np.array(values, dtype=np.int64)
    if kind == "int32" and array.min() >= -2 ** 31 and array.max() < 2 ** 31:
        return array.astype(np.int32)
    return array


@pytest.mark.parametrize("kind", ["list", "int32", "int64"])
def test_fused_order_matches_oracle(kind):
    rng = np.random.default_rng({"list": 1, "int32": 2, "int64": 3}[kind])
    for case in range(24):
        rows = 1 if case % 2 else int(rng.integers(2, 5))
        n = int(rng.choice([1, 2, 7, 60, 300]))
        t0, t1, tiebreak = random_case(rng, rows, n)
        for gamma in GAMMAS:
            if rows == 1:
                got = order_with_tiebreak(as_input(t0[0], kind), as_input(t1[0], kind), gamma,
                                  tiebreak[0]).tolist()
                assert got == oracle_order(t0[0], t1[0], gamma, tiebreak[0]), (case, gamma)
            else:
                got = order_with_tiebreak(as_input(t0, kind), as_input(t1, kind), gamma,
                                  np.array(tiebreak)).tolist()
                want = [oracle_order(a, b, gamma, c) for a, b, c in zip(t0, t1, tiebreak)]
                assert got == want, (case, gamma)



@pytest.mark.parametrize("top", [(1 << 8) - 1, (1 << 16) - 1, (1 << 20) - 1, (1 << 31) - 1,
                                 1 << 40, -1])
def test_tie_break_keys_at_the_edge_of_their_range(top):
    # candidate 1 outranks candidate 0 by the smallest fused step, yet holds
    # the widest tie-break key: the key must never reach into the next step
    dtype = np.min_scalar_type(top)
    for gamma in (0.0, 0.5, 1.0, 1 / 3):
        for t0, t1 in (([0, 1], [0, 1]), ([0, 3], [1, 0]), ([5, 5], [5, 6])):
            tiebreak = np.array([0, top], dtype=dtype)
            want = oracle_order(t0, t1, gamma, tiebreak.tolist())
            assert order_with_tiebreak(np.array(t0), np.array(t1), gamma, tiebreak).tolist() == want
            assert order_with_tiebreak(np.array(t0, np.int32), np.array(t1, np.int32), gamma,
                               tiebreak).tolist() == want


def test_more_candidates_than_uint16_keys():
    # repeated and negative tie-break keys, wider than any uint16 key
    rng = np.random.default_rng(8)
    n = (1 << 16) + 5
    t0, t1 = rng.integers(0, 5, n), rng.integers(0, 5, n)
    tiebreak = rng.integers(-n, n, n)
    for gamma, (w0, w1) in ((0.0, (1, 0)), (0.5, (1, 1)), (1 / 3, (2, 1))):
        want = np.lexsort((tiebreak, -(w0 * t0 + w1 * t1)))
        assert np.array_equal(order_with_tiebreak(t0, t1, gamma, tiebreak), want), gamma


# den 1, 128, 2, 128, 1 take int16 keys for scores below 2**8; den 129 takes
# int64; the last three are no small rationals: den 2**31 takes the widest
# int64 keys (2**31 * (2**31 - 1) for int32 scores), den 2**32 and
# 0.3333333217048645 Python-int keys
TIER_GAMMAS = (0.0, 1 / 128, 0.5, 127 / 128, 1.0, 1 / 129, 128 / 129,
               1 - 2 ** -31, 2 ** -32, 0.3333333217048645)


def tier_dtypes(top, den):
    """(score stack dtype, key dtype) for scores in [0, top] at denominator den."""
    scores = np.int16 if top < 1 << 8 else np.int32 if top < 1 << 31 else np.int64
    if scores == np.int16 and den <= 128:
        return scores, np.int16
    return scores, (np.int64 if scores != np.int64 and den < 1 << 32 else object)


@pytest.mark.parametrize("top", [(1 << 8) - 1, 1 << 8, (1 << 31) - 1, 1 << 31])
def test_key_tiers_at_their_edges_match_oracle(top):
    # row 0 holds the widest int16 key, -(128*255), at den 128; rows 1 and 2
    # are all tied, row 3 ties in pairs around the top score, and row 4's
    # scores OR to exactly the top, so alone it sits at the edge of its tier
    rng = np.random.default_rng(top)
    n = 50
    t0, t1 = rng.integers(0, top + 1, (5, n)), rng.integers(0, top + 1, (5, n))
    t0[0, :2] = t1[0, :2] = top
    t0[1], t1[1] = top, top
    t0[2], t1[2] = 7, 0
    t0[3], t1[3] = rng.integers(top - 1, top + 1, (2, n))
    t0[4], t1[4] = rng.choice([0, top], (2, n))
    tiebreak = np.stack([rng.permutation(n) for _ in range(5)])
    scores = prepare_ranking(t0, t1)
    assert scores.shape == (5, 2, n) and scores.flags.c_contiguous
    assert scores.dtype == tier_dtypes(top, 1)[0]
    assert scores[:, 0].tolist() == t0.tolist() and scores[:, 1].tolist() == t1.tolist()
    for gamma in TIER_GAMMAS:
        den = _gamma_weights(gamma)[0]
        keys, _ = _fused_keys(scores, gamma)
        assert keys.dtype == tier_dtypes(top, den)[1], gamma
        want_keys = [[-den * f for f in exact_fused(a, b, gamma)]
                     for a, b in zip(t0.tolist(), t1.tolist())]
        assert keys.tolist() == want_keys, gamma
        deep, _ = _fused_keys(scores.reshape(5, 1, 2, n), gamma)  # a stack of stacks
        assert deep.dtype == keys.dtype and deep.tolist() == [[k] for k in want_keys], gamma
        want = [oracle_order(a, b, gamma, c)
                for a, b, c in zip(t0.tolist(), t1.tolist(), tiebreak.tolist())]
        assert order_with_tiebreak(t0, t1, gamma, tiebreak).tolist() == want, gamma
        for row in range(5):  # a row alone: its own stack, the same keys and order
            alone = prepare_ranking(t0[row], t1[row])
            assert alone.shape == (2, n) and alone.flags.c_contiguous
            assert _fused_keys(alone, gamma)[0].tolist() == want_keys[row], (gamma, row)
            # the row of the stack: one row by matmul, a stack of it by multiplies
            single, stacked = (_fused_keys(x, gamma)[0] for x in (scores[row], scores[row:row + 1]))
            assert single.dtype == stacked.dtype == keys.dtype, (gamma, row)
            assert [single.tolist()] == stacked.tolist() == [want_keys[row]], (gamma, row)
            got = order_with_tiebreak(t0[row], t1[row], gamma, tiebreak[row])
            assert got.tolist() == want[row], (gamma, row)
        for shape in ((0,), (5, 0)):  # no candidates: empty keys and orders
            empty = np.zeros(shape, dtype=np.int64)
            assert prepare_ranking(empty, empty).shape == (*shape[:-1], 2, 0)
            got = order_with_tiebreak(empty, empty, gamma, empty)
            assert got.shape == shape and got.dtype == np.intp, gamma


def test_prepare_ranking_builds_no_wide_stack():
    # a sweep chunk: 40 graphs of 183 candidates, int64 scores below 2**6; an
    # int64 (40, 2, 183) stack narrowed afterwards would hold 4x the result
    t0, t1 = np.random.default_rng(4).integers(0, 1 << 6, (2, 40, 183))
    tracemalloc.start()
    try:
        scores = prepare_ranking(t0, t1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.dtype == np.int16 and scores.shape == (40, 2, 183)
    assert scores[:, 0].tolist() == t0.tolist() and scores[:, 1].tolist() == t1.tolist()
    assert peak <= 3 * scores.nbytes


@pytest.mark.parametrize("top, dtype", [((1 << 16) - 1, np.int64), (1 << 16, np.int64),
                                        ((1 << 16) - 1, np.uint32), (1 << 16, np.uint32),
                                        (-1, np.int64), (-1, np.int32)])
def test_tiebreak_order_at_the_uint16_edge(top, dtype):
    # a key cast to uint16 past its range would wrap (65536 -> 0, -1 -> 65535)
    # and move ahead of, or behind, the small keys beside it
    rng = np.random.default_rng(abs(top))
    n = 40
    keys = rng.integers(min(top, 0), max(top, 0) + 1, (4, n))
    keys[0, :4] = (top, 0, 1, top)
    keys[1] = top  # all tied: position order
    keys[2] = rng.integers(0, 3, n)
    keys[3] = rng.choice([0, top], n)  # alone, ORs to exactly the top
    keys = keys.astype(dtype)
    want = [sorted(range(n), key=lambda i: (row[i], i)) for row in keys.tolist()]
    assert tiebreak_order(keys).tolist() == want
    for row in range(4):
        assert tiebreak_order(keys[row]).tolist() == want[row]


# the grid, gammas next to 0 and 1, and random floats (mostly Python-int keys)
MORE_GAMMAS = (tuple(k / 100 for k in range(101)) + (1 - 2 ** -53,)
               + tuple(random.Random(17).random() for _ in range(40)))


@pytest.mark.parametrize("params,seed", [
    (KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2)), 3),
    (KidneyEggParams(60, 16, 5, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2)), 8),
    (KidneyEggParams(20, 6, 2, (0.6, 0.0, 0.4), (0.4, 0.0, 0.6)), 5),  # content all tied
])
def test_rank_candidates_matches_oracle(params, seed):
    g = sample_kidney_egg(params, seed)
    for gamma in GAMMAS + MORE_GAMMAS:
        ordered, scores = rank_candidates(g, gamma, seed)
        want_ids, want_fused = oracle_ranking(g, gamma, seed)
        assert ordered.tolist() == want_ids, gamma
        assert scores.dtype == np.float64
        assert scores.tolist() == [float(f) for f in want_fused], gamma


@pytest.mark.parametrize("seed", [9, 10])
def test_rank_candidates_matches_int64_keys(monkeypatch, seed):
    # the bench surface shape: scores below 2**8, so den <= 128 takes int16 keys
    g = sample_kidney_egg(KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2)), seed)
    assert prepare_ranking(*candidate_statistics(g)[1:]).dtype == np.int16
    gammas = (0.0, 1 / 128, 0.37, 127 / 128, 1.0, 1 / 129)
    narrow = [rank_candidates(g, gamma, seed) for gamma in gammas]
    monkeypatch.setattr(vnom.nomination, "_INT16_DEN", 0)  # every den takes int64 keys
    for gamma, (ordered, scores) in zip(gammas, narrow):
        want_ordered, want_scores = rank_candidates(g, gamma, seed)
        assert ordered.tolist() == want_ordered.tolist(), gamma
        assert scores.dtype == want_scores.dtype == np.float64
        assert scores.tobytes() == want_scores.tobytes(), gamma
        assert (np.diff(scores) == 0).any(), gamma  # ties, kept in tie-break order


def lexsort_metrics(t0, t1, red, tiebreak, gamma, y_values):
    """Metric rows of one gamma, ranked by np.lexsort on the dense ranks of
    the exact fused scores."""
    orders = []
    for row0, row1, keys in zip(t0, t1, tiebreak):
        fused = exact_fused(row0, row1, gamma)
        dense = {value: rank for rank, value in enumerate(sorted(set(fused), reverse=True))}
        orders.append(np.lexsort((np.array(keys), np.array([dense[f] for f in fused]))))
    return mask_metrics(np.take_along_axis(np.array(red), np.array(orders), axis=1), y_values)


def test_evaluate_grid_rows_match_lexsort_reference():
    rng = np.random.default_rng(11)
    for case in range(16):
        rows, n = (1, int(rng.integers(2, 300))) if case % 2 else (int(rng.integers(2, 6)), 40)
        t0, t1, tiebreak = random_case(rng, rows, n)
        n_red = int(rng.integers(1, n + 1))
        red = [rng.permutation(np.arange(n) < n_red).tolist() for _ in range(rows)]
        y_values = tuple(range(1, min(3, n_red) + 1))
        want = np.stack([lexsort_metrics(t0, t1, red, tiebreak, gamma, y_values)
                         for gamma in GAMMAS], axis=1)
        if rows == 1:
            got = evaluate_grid(np.array(t0[0]), np.array(t1[0]), np.array(red[0]),
                                np.array(tiebreak[0]), GAMMAS, y_values)
            assert got.tobytes() == want[0].tobytes(), case
        else:
            got = evaluate_grid(np.array(t0), np.array(t1), np.array(red), np.array(tiebreak),
                                GAMMAS, y_values)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), case


def test_a_large_grid_converts_each_gamma_once():
    rng = np.random.default_rng(4)
    t0, t1 = rng.integers(0, 30, 50), rng.integers(0, 90, 50)
    red, tiebreak = np.arange(50) < 5, rng.permutation(50)
    grid = tuple(k / 1000 for k in range(1001))
    _gamma_weights.cache_clear()
    first = evaluate_grid(t0, t1, red, tiebreak, grid)
    assert _gamma_weights.cache_info().misses == len(grid)
    assert np.array_equal(evaluate_grid(t0, t1, red, tiebreak, grid), first)
    info = _gamma_weights.cache_info()
    assert (info.misses, info.hits) == (len(grid), len(grid))
