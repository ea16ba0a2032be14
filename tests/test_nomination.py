"""Fusion scores, ranking, tie-breaking, and the gamma search."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from vnom import (InputError, KidneyEggParams, candidate_statistics, gamma_star,
                  rank_candidates, sample_kidney_egg)
from vnom.graph import RED
from vnom.nomination import fused_order, prepare_ranking, score_counts

from conftest import build_attributed, order_with_tiebreak


def graph_with_statistics(pairs, n_identified, n_vertices):
    """Candidates 0..k-1 with the given (context, content) scores.

    Candidate i has green edges to the first pairs[i][0] identified vertices
    (ids k..k+n_identified-1) and red edges to pairs[i][1] leaves of its own;
    the remaining vertices are isolated.  Leaves score (0, 1), isolated
    vertices (0, 0).
    """
    pairs = list(pairs)
    ident = range(len(pairs), len(pairs) + n_identified)
    edges, leaf = [], ident.stop
    for i, (context, content) in enumerate(pairs):
        edges += [(i, v, 2) for v in ident[:context]]
        edges += [(i, leaf + j, 1) for j in range(content)]
        leaf += content
    assert leaf <= n_vertices
    return build_attributed(n_vertices, edges, red=set(ident), identified=set(ident))


def one_four_two_two_graph():
    """Candidates 0, 1, 2 with (context, content) = (1, 4), (2, 2), (2, 2) and
    candidate 3 with (0, 1); vertices 4 and 5 are identified."""
    edges = [(0, 5, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1),
             (1, 4, 1), (1, 5, 2), (2, 4, 1), (2, 5, 2)]
    return build_attributed(6, edges, red={4, 5}, identified={4, 5})


def statistics_of(g):
    """{candidate: (context, content)} as :func:`candidate_statistics` gives them."""
    cand, t0, t1 = candidate_statistics(g)
    return dict(zip(cand.tolist(), zip(t0.tolist(), t1.tolist())))


def graph_score_counts(g):
    """(context, content) of every vertex of ``g`` by the per-edge oracle."""
    return loop_score_counts(g.n, g.edge_u, g.edge_v, g.edge_attr == RED, g.observed == RED)


class TestScores:
    def test_isolated_vertex_scores_zero(self):
        g = build_attributed(4, [], red={0}, identified={0})
        assert statistics_of(g)[1] == (0, 0)

    def test_star_center_counts_identified(self, star_graph):
        # center 0 is adjacent to identified 1,2,3 and occluded 4,5
        assert statistics_of(star_graph)[0][0] == 3

    def test_context_upper_bound_attained(self):
        g = build_attributed(5, [(4, 0, 1), (4, 1, 2), (4, 2, 1)],
                             red={0, 1, 2, 4}, identified={0, 1, 2})
        assert statistics_of(g)[4][0] == 3 == g.num_identified

    def test_content_counts_red_edges_only(self):
        g = build_attributed(6, [(0, 1, 2), (0, 2, 2)], red={0}, identified=set())
        assert statistics_of(g)[0][1] == 0
        g2 = build_attributed(6, [(0, 1, 1), (0, 2, 1), (0, 3, 2), (0, 4, 1)])
        assert statistics_of(g2)[0][1] == 3

    def test_content_upper_bound_complete_red(self):
        import itertools
        edges = [(u, v, 1) for u, v in itertools.combinations(range(5), 2)]
        g = build_attributed(5, edges)
        assert statistics_of(g)[2][1] == 4

    def test_identified_vertex_is_no_candidate(self, star_graph):
        assert sorted(statistics_of(star_graph)) == [0, 4, 5]

    def test_score_bounds_on_samples(self):
        params = KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        for s in range(5):
            g = sample_kidney_egg(params, s)
            cand, t0, t1 = candidate_statistics(g)
            context, content = graph_score_counts(g)
            # every edge counted as red: content is then the degree
            _, degree = loop_score_counts(g.n, g.edge_u, g.edge_v,
                                          np.ones(g.num_edges, dtype=bool), g.observed == RED)
            assert t0.tolist() == [context[v] for v in cand]
            assert t1.tolist() == [content[v] for v in cand]
            assert (t0 <= g.num_identified).all()
            assert (t1 <= np.array(degree)[cand]).all() and max(degree) <= g.n - 1


def loop_score_counts(n, edge_u, edge_v, red_edge, identified):
    """Per-edge oracle: each edge adds context to an end whose other end is
    identified, and content to both ends if it is red."""
    context, content = [0] * n, [0] * n
    for u, v, red in zip(edge_u.tolist(), edge_v.tolist(), red_edge.tolist()):
        context[u] += bool(identified[v])
        context[v] += bool(identified[u])
        content[u] += red
        content[v] += red
    return context, content


def random_edges(rng, n, size):
    """``size`` distinct pairs u < v of n vertices, in random order."""
    iu, iv = np.triu_indices(n, k=1)
    pick = rng.choice(iu.size, size=size, replace=False)
    return iu[pick], iv[pick]


class TestScoreCountsOracle:
    def check(self, n, edge_u, edge_v, red_edge, identified):
        got = score_counts(n, edge_u, edge_v, red_edge, identified)
        want = loop_score_counts(n, edge_u, edge_v, red_edge, identified)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.tolist() == w
        return got

    def test_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            eu, ev = random_edges(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
            self.check(n, eu, ev, rng.random(eu.size) < rng.random(),
                       rng.random(n) < rng.random())

    def test_no_identified_vertex_and_no_red_edge(self):
        rng = np.random.default_rng(6)
        eu, ev = random_edges(rng, 15, 40)
        t0, t1 = self.check(15, eu, ev, np.zeros(40, dtype=bool), np.zeros(15, dtype=bool))
        assert not t0.any() and not t1.any()
        t0, t1 = self.check(15, eu, ev, np.ones(40, dtype=bool), np.zeros(15, dtype=bool))
        assert not t0.any() and t1.sum() == 80

    def test_isolated_vertices_and_no_edges(self):
        # vertices 6..11 touch no edge; their scores are 0, not missing
        eu, ev = np.array([0, 1, 2, 0]), np.array([1, 2, 5, 5])
        t0, t1 = self.check(12, eu, ev, np.array([True, False, True, True]),
                            np.isin(np.arange(12), [1, 5, 9]))
        assert len(t0) == len(t1) == 12 and not t0[6:].any() and not t1[6:].any()
        empty = np.array([], dtype=np.int64)
        t0, t1 = self.check(4, empty, empty, np.array([], dtype=bool), np.ones(4, dtype=bool))
        assert t0.tolist() == t1.tolist() == [0] * 4

    def test_stacked_disjoint_copies(self):
        # the input importance trials build: one graph's edges repeated over
        # copies, vertex v of copy i at i*n + v, with per-copy masks
        rng = np.random.default_rng(7)
        n, copies = 17, 9
        eu, ev = random_edges(rng, n, 50)
        red = rng.random((copies, eu.size)) < 0.4
        identified = rng.random((copies, n)) < 0.3
        shift = (np.arange(copies) * n)[:, None]
        t0, t1 = self.check(copies * n, (eu + shift).ravel(), (ev + shift).ravel(),
                            red.ravel(), identified.ravel())
        for i in range(copies):
            one = score_counts(n, eu, ev, red[i], identified[i])
            assert t0[i * n:(i + 1) * n].tolist() == one[0].tolist()
            assert t1[i * n:(i + 1) * n].tolist() == one[1].tolist()

    @pytest.mark.parametrize("copies", [1, 6])
    def test_stacked_copies_with_int32_ids(self, copies):
        # as importance trials build them: int32 vertex ids, copy i shifted by
        # i*n; copy 0 has no red edge and no identified vertex, so a stack of
        # it alone gathers and joins only empty int32 arrays
        rng = np.random.default_rng(12 + copies)
        n = 23
        eu, ev = random_edges(rng, n, 60)
        red = rng.random((copies, eu.size)) < 0.3
        identified = rng.random((copies, n)) < 0.25
        red[0], identified[0] = False, False
        shift = (np.arange(copies, dtype=np.int32) * n)[:, None]
        edge_u = (eu.astype(np.int32) + shift).ravel()
        edge_v = (ev.astype(np.int32) + shift).ravel()
        assert edge_u.dtype == edge_v.dtype == np.int32
        t0, t1 = self.check(copies * n, edge_u, edge_v, red.ravel(), identified.ravel())
        assert not t0[:n].any() and not t1[:n].any()


class TestRankCandidates:
    def test_distinct_scores_are_seed_independent(self):
        # content scores 3, 2, 1, 0 for candidates 1..4
        g = build_attributed(5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 2, 1),
                                 (0, 3, 2), (3, 4, 2)],
                             red={0}, identified={0})
        rankings = [rank_candidates(g, 1.0, seed) for seed in (1, 2, 3)]
        orders = [list(r.ordered) for r in rankings]
        assert orders[0] == orders[1] == orders[2] == [1, 2, 3, 4]
        assert rankings[0].tie_groups == ()

    def test_hand_scores_order(self):
        # candidate 0: (t0, t1) = (3, 5); candidate 6: (2, 2); gamma 0.5 -> 4.0 > 2.0
        edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1),
                 (6, 1, 1), (6, 2, 1), (6, 7, 2)]
        g = build_attributed(8, edges, red={1, 2, 3}, identified={1, 2, 3})
        r = rank_candidates(g, 0.5, 0)
        assert list(r.ordered[:2]) == [0, 6]
        assert r.scores[0] == pytest.approx(4.0)
        assert r.scores[1] == pytest.approx(2.0)

    def test_empty_candidate_set_rejected(self):
        g = build_attributed(3, [], red={0, 1, 2}, identified={0, 1, 2})
        with pytest.raises(InputError):
            rank_candidates(g, 0.5, 0)

    def test_full_tie_is_uniform_over_seeds(self):
        # empty graph: every candidate ties at 0; rank-1 occupancy should be
        # uniform within multinomial noise over many seeds
        g = build_attributed(6, [], red={0}, identified={0})
        n_cand = 5
        trials = 10_000
        counts = np.zeros(6)
        for seed in range(trials):
            r = rank_candidates(g, 0.5, seed)
            assert r.tie_groups == ((0, n_cand),)
            counts[r.ordered[0]] += 1
        expected = trials / n_cand
        sigma = np.sqrt(trials * (1 / n_cand) * (1 - 1 / n_cand))
        assert np.all(np.abs(counts[1:] - expected) < 4 * sigma)

    def test_endpoint_identity_with_pure_statistics(self):
        params = KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        g = sample_kidney_egg(params, 5)
        for gamma, stat in zip((0.0, 1.0), graph_score_counts(g)):
            r = rank_candidates(g, gamma, 123)
            stats = [stat[v] for v in r.ordered]
            assert stats == sorted(stats, reverse=True)
            assert np.allclose(r.scores, stats)

    def test_scale_invariance_of_order(self):
        # ranking depends on score order only: scaling both statistics by a
        # positive constant changes nothing
        t0 = np.array([3, 1, 4, 1, 5])
        t1 = np.array([2, 7, 1, 8, 2])
        tiebreak = np.array([4, 2, 0, 1, 3])
        assert np.array_equal(order_with_tiebreak(t0, t1, 0.25, tiebreak),
                              order_with_tiebreak(3 * t0, 3 * t1, 0.25, tiebreak))
        # the same statistics on graphs: equal orders and tie groups among the
        # five candidates, which outrank every leaf and isolated vertex
        a, b = (rank_candidates(graph_with_statistics(zip(k * t0, k * t1), 15, 80), 0.25, 0)
                for k in (1, 3))
        assert np.array_equal(a.ordered[:5], b.ordered[:5])
        head = [[grp for grp in r.tie_groups if grp[1] <= 5] for r in (a, b)]
        assert head[0] == head[1] == [(2, 4)]

    def test_rational_gamma_ties_exactly(self):
        # the float 1/3 stands for the rational 1/3, under which
        # (t0, t1) = (1, 4) and (2, 2) have exactly equal fused scores
        t0 = np.array([1, 2, 2])
        t1 = np.array([4, 2, 2])
        assert list(fused_order(prepare_ranking(t0, t1), 1 / 3)) == [0, 1, 2]
        r = rank_candidates(one_four_two_two_graph(), 1 / 3, 0)
        assert r.tie_groups == ((0, 3),)
        assert r.scores[0] == r.scores[1] == r.scores[2] == pytest.approx(2.0)
        assert r.ordered[3] == 3  # (0, 1) scores 1/3

    def test_non_grid_gamma_falls_back_to_exact_binary(self):
        # an arbitrary float is taken at its exact binary value: (1, 4) and
        # (2, 2) no longer tie, while equal pairs still do
        gamma = 0.3333333217048645  # deliberately near but not equal to 1/3
        t0 = np.array([1, 2, 2])
        t1 = np.array([4, 2, 2])
        assert fused_order(prepare_ranking(t0, t1), gamma)[-1] == 0  # 1 + 3*gamma < 2
        r = rank_candidates(one_four_two_two_graph(), gamma, 0)
        assert r.tie_groups == ((0, 2),)
        assert list(r.ordered[2:]) == [0, 3]

    def test_gamma_bounds(self, star_graph):
        with pytest.raises(InputError):
            rank_candidates(star_graph, 1.5, 0)


def exact_fused_scores(g, gamma):
    """Candidate -> exact fused score, from the edge list and Fractions only.

    gamma stands for the smallest-denominator rational (denominator at most
    10**6) that rounds to it, or else for its exact binary value.
    """
    frac = Fraction(gamma).limit_denominator(10 ** 6)
    weight = frac if float(frac) == gamma else Fraction(gamma)
    identified = {v for v in range(g.n) if g.observed[v] == 1}
    context, content = Counter(), Counter()
    for u, v, attr in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_attr.tolist()):
        for a, b in ((u, v), (v, u)):
            context[a] += b in identified
            content[a] += attr == 1
    return {v: (1 - weight) * context[v] + weight * content[v]
            for v in range(g.n) if v not in identified}


class TestExactOracle:
    GAMMAS = (tuple(k / 100 for k in range(101))
              + (1 / 3, 0.1 + 0.2, 0.3333333217048645, 5e-324, 1 - 2 ** -53)
              + tuple(random.Random(17).random() for _ in range(40)))

    @pytest.mark.parametrize("n,m,m_prime,seed", [(30, 10, 4, 3), (60, 16, 5, 8)])
    def test_scores_and_tie_groups_are_exact(self, n, m, m_prime, seed):
        g = sample_kidney_egg(KidneyEggParams(n, m, m_prime, (0.6, 0.2, 0.2),
                                              (0.4, 0.4, 0.2)), seed)
        for gamma in self.GAMMAS:
            exact = exact_fused_scores(g, gamma)
            r = rank_candidates(g, gamma, seed)
            assert sorted(r.ordered.tolist()) == sorted(exact)
            ranked = [exact[v] for v in r.ordered.tolist()]
            assert all(x >= y for x, y in zip(ranked, ranked[1:])), gamma
            assert r.scores.tolist() == [float(x) for x in ranked], gamma
            runs, start = [], 0
            for i in range(1, len(ranked) + 1):
                if i == len(ranked) or ranked[i] != ranked[start]:
                    if i - start >= 2:
                        runs.append((start, i))
                    start = i
            assert r.tie_groups == tuple(runs), gamma


class TestMonotoneSignal:
    def test_red_candidates_have_larger_content_scores(self):
        # with s1 > p1 and s2 = p2, red candidates' content score is
        # stochastically larger; compare class means over many samples
        params = KidneyEggParams(30, 10, 3, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        red_total, green_total, n_red, n_green = 0.0, 0.0, 0, 0
        for i in range(10_000):
            g = sample_kidney_egg(params, np.random.SeedSequence(entropy=31, spawn_key=(i,)))
            red_edge = g.edge_attr == 1
            t1 = (np.bincount(g.edge_u[red_edge], minlength=g.n)
                  + np.bincount(g.edge_v[red_edge], minlength=g.n))
            reds = g.red_candidates()
            greens = np.flatnonzero(g.truth == 2)
            red_total += t1[reds].sum(); n_red += reds.size
            green_total += t1[greens].sum(); n_green += greens.size
        # E[T1 | red] - E[T1 | green] = (m-1)(s1-p1) = 1.8 here
        assert red_total / n_red > green_total / n_green + 1.0


class TestGammaStar:
    def test_singleton_grid(self):
        params = KidneyEggParams(20, 6, 2, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        assert gamma_star(params, [0.5], "map", replicates=3, seed=0) == 0.5

    def test_context_only_signal_selects_zero(self):
        # content carries no signal (s1 = p1) while the block is denser via
        # green edges (s2 > p2), so context alone should win
        params = KidneyEggParams(40, 12, 6, (0.7, 0.2, 0.1), (0.4, 0.2, 0.4))
        best = gamma_star(params, [0.0, 0.5, 1.0], "map", replicates=250, seed=2)
        assert best == 0.0

    def test_invalid_criterion(self):
        params = KidneyEggParams(20, 6, 2, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        with pytest.raises(InputError):
            gamma_star(params, [0.5], "ndcg", replicates=1, seed=0)
