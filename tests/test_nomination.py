"""Fusion scores, ranking, tie-breaking, and the gamma search."""

import tracemalloc

import numpy as np
import pytest

from vnom import (InputError, KidneyEggParams, candidate_statistics, rank_candidates,
                  sample_kidney_egg)
from vnom.graph import RED
from vnom.nomination import fused_order, prepare_ranking, score_counts

from conftest import best_grid_gamma, build_attributed, order_with_tiebreak


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
        # one graph's edges repeated over copies, vertex v of copy i at
        # i*n + v, with per-copy masks: each copy counts as the graph alone
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
        # int32 vertex ids, copy i shifted by i*n; copy 0 has no red edge and
        # no identified vertex, so a stack of it alone gathers and joins only
        # empty int32 arrays
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


class TestStackedScoreCounts:
    """(rows x n) identified and (rows x edges) red masks over one edge list,
    as importance trials count a block of instances: row i as a graph alone."""

    def check(self, n, edge_u, edge_v, red, identified):
        t0, t1 = score_counts(n, edge_u, edge_v, red, identified)
        assert t0.shape == t1.shape == identified.shape
        assert t0.dtype == t1.dtype == np.int64
        for i in range(len(identified)):
            want = loop_score_counts(n, edge_u, edge_v, red[i], identified[i])
            assert [t0[i].tolist(), t1[i].tolist()] == [list(w) for w in want], i
            one = score_counts(n, edge_u, edge_v, red[i], identified[i])
            assert t0[i].tolist() == one[0].tolist() and t1[i].tolist() == one[1].tolist()
        return t0, t1

    def test_random_stacks(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            n, rows = int(rng.integers(2, 30)), int(rng.integers(1, 9))
            eu, ev = random_edges(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
            self.check(n, eu, ev, rng.random((rows, eu.size)) < rng.random(),
                       rng.random((rows, n)) < rng.random())

    def test_rows_without_identified_vertices_or_red_edges(self):
        rng = np.random.default_rng(41)
        n, rows = 19, 7
        eu, ev = random_edges(rng, n, 70)
        red = rng.random((rows, eu.size)) < 0.4
        identified = rng.random((rows, n)) < 0.3
        red[[0, 3]], identified[[0, 5]] = False, False
        identified[6] = True
        t0, t1 = self.check(n, eu, ev, red, identified)
        assert not t0[[0, 5]].any() and not t1[[0, 3]].any()
        assert t0[6].sum() == 2 * eu.size

    def test_empty_edge_list(self):
        empty = np.array([], dtype=np.int64)
        t0, t1 = self.check(5, empty, empty, np.zeros((3, 0), dtype=bool), np.ones((3, 5), bool))
        assert not t0.any() and not t1.any()

    def test_single_row(self):
        rng = np.random.default_rng(42)
        eu, ev = random_edges(rng, 12, 30)
        self.check(12, eu, ev, rng.random((1, 30)) < 0.5, rng.random((1, 12)) < 0.4)

    def test_memory_at_the_bench_trial_block(self):
        # 96 instances of a 184-vertex, 824-edge graph, 5 identified each: the
        # stack counts through int32 ids in ~1.09 MB of traced memory; int64
        # ids took ~1.55 MB, and the flat gather through offset ids of every
        # edge end (the one-graph call on n_rows disjoint copies) ~1.89 MB
        rng = np.random.default_rng(96)
        n, rows = 184, 96
        eu, ev = random_edges(rng, n, 824)
        red = rng.random((rows, eu.size)) < 0.37
        identified = np.zeros((rows, n), dtype=bool)
        for row in identified:
            row[rng.choice(n, size=5, replace=False)] = True
        shift = (np.arange(rows, dtype=np.int32) * n)[:, None]

        def flat():
            return score_counts(rows * n, (eu.astype(np.int32) + shift).ravel(),
                                (ev.astype(np.int32) + shift).ravel(), red.ravel(),
                                identified.ravel())

        def peak(count):
            count()  # any first-call allocation stays out of the measurement
            tracemalloc.start()
            try:
                got = count()
                return tracemalloc.get_traced_memory()[1], got
            finally:
                tracemalloc.stop()

        flat_peak, (flat_t0, flat_t1) = peak(flat)
        stacked_peak, (t0, t1) = peak(lambda: score_counts(n, eu, ev, red, identified))
        assert t0.ravel().tolist() == flat_t0.tolist() and t1.ravel().tolist() == flat_t1.tolist()
        assert stacked_peak <= flat_peak
        assert stacked_peak <= 1_300_000, stacked_peak


class TestRankCandidates:
    def test_distinct_scores_are_seed_independent(self):
        # content scores 3, 2, 1, 0 for candidates 1..4
        g = build_attributed(5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 2, 1),
                                 (0, 3, 2), (3, 4, 2)],
                             red={0}, identified={0})
        rankings = [rank_candidates(g, 1.0, seed) for seed in (1, 2, 3)]
        orders = [ordered.tolist() for ordered, _ in rankings]
        assert orders[0] == orders[1] == orders[2] == [1, 2, 3, 4]
        assert rankings[0][1].tolist() == [3.0, 2.0, 1.0, 0.0]

    def test_hand_scores_order(self):
        # candidate 0: (t0, t1) = (3, 5); candidate 6: (2, 2); gamma 0.5 -> 4.0 > 2.0
        edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1),
                 (6, 1, 1), (6, 2, 1), (6, 7, 2)]
        g = build_attributed(8, edges, red={1, 2, 3}, identified={1, 2, 3})
        ordered, scores = rank_candidates(g, 0.5, 0)
        assert list(ordered[:2]) == [0, 6]
        assert scores[0] == pytest.approx(4.0)
        assert scores[1] == pytest.approx(2.0)

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
            ordered, scores = rank_candidates(g, 0.5, seed)
            assert scores.tolist() == [0.0] * n_cand
            counts[ordered[0]] += 1
        expected = trials / n_cand
        sigma = np.sqrt(trials * (1 / n_cand) * (1 - 1 / n_cand))
        assert np.all(np.abs(counts[1:] - expected) < 4 * sigma)

    def test_endpoint_identity_with_pure_statistics(self):
        params = KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        g = sample_kidney_egg(params, 5)
        for gamma, stat in zip((0.0, 1.0), graph_score_counts(g)):
            ordered, scores = rank_candidates(g, gamma, 123)
            stats = [stat[v] for v in ordered]
            assert stats == sorted(stats, reverse=True)
            assert np.allclose(scores, stats)

    def test_scale_invariance_of_order(self):
        # ranking depends on score order only: scaling both statistics by a
        # positive constant changes nothing
        t0 = np.array([3, 1, 4, 1, 5])
        t1 = np.array([2, 7, 1, 8, 2])
        tiebreak = np.array([4, 2, 0, 1, 3])
        assert np.array_equal(order_with_tiebreak(t0, t1, 0.25, tiebreak),
                              order_with_tiebreak(3 * t0, 3 * t1, 0.25, tiebreak))
        # the same statistics on graphs: equal orders and ties among the five
        # candidates, which outrank every leaf and isolated vertex
        a, b = (rank_candidates(graph_with_statistics(zip(k * t0, k * t1), 15, 80), 0.25, 0)
                for k in (1, 3))
        assert np.array_equal(a[0][:5], b[0][:5])
        ties = [np.flatnonzero(np.diff(scores[:5]) == 0).tolist() for _, scores in (a, b)]
        assert ties[0] == ties[1] == [2]  # positions 2 and 3 tie

    def test_rational_gamma_ties_exactly(self):
        # the float 1/3 stands for the rational 1/3, under which
        # (t0, t1) = (1, 4) and (2, 2) have exactly equal fused scores
        t0 = np.array([1, 2, 2])
        t1 = np.array([4, 2, 2])
        assert list(fused_order(prepare_ranking(t0, t1), 1 / 3)) == [0, 1, 2]
        ordered, scores = rank_candidates(one_four_two_two_graph(), 1 / 3, 0)
        assert scores.tolist() == [2.0, 2.0, 2.0, 1 / 3]
        assert ordered[3] == 3  # (0, 1) scores 1/3

    def test_non_grid_gamma_falls_back_to_exact_binary(self):
        # an arbitrary float is taken at its exact binary value: (1, 4) and
        # (2, 2) no longer tie, while equal pairs still do
        gamma = 0.3333333217048645  # deliberately near but not equal to 1/3
        t0 = np.array([1, 2, 2])
        t1 = np.array([4, 2, 2])
        assert fused_order(prepare_ranking(t0, t1), gamma)[-1] == 0  # 1 + 3*gamma < 2
        ordered, scores = rank_candidates(one_four_two_two_graph(), gamma, 0)
        assert scores[0] == scores[1] > scores[2] > scores[3]
        assert list(ordered[2:]) == [0, 3]

    def test_gamma_bounds(self, star_graph):
        with pytest.raises(InputError):
            rank_candidates(star_graph, 1.5, 0)


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


class TestBestGamma:
    def test_context_only_signal_selects_zero(self):
        # content carries no signal (s1 = p1) while the block is denser via
        # green edges (s2 > p2), so context alone should win
        params = KidneyEggParams(40, 12, 6, (0.7, 0.2, 0.1), (0.4, 0.2, 0.4))
        assert best_grid_gamma(params, [0.0, 0.5, 1.0], "map", replicates=250, seed=2) == 0.0
