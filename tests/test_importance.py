"""Screening, topic profiles, edge instantiation, trials, rate estimation."""

from math import comb

import numpy as np
import pytest

from vnom import (AttributedGraph, EmptyProfileError, InputError, KidneyEggParams, Partition,
                  ScreeningResult, ScreeningThresholds, TopicMap, UndefinedDensityError, delta_p,
                  delta_rho, estimate_rates, generate_surrogate, instantiate_edges,
                  TopicGraph, run_importance_trials, sample_kidney_egg, screen_partitions,
                  topic_profile)
from vnom import importance
from vnom.importance import (_SCREEN_BLOCK, _chunk_rows, _cumulative_topics, _draw_instances,
                             _edge_weights, _gap_estimate, _normalized, _profile_gap,
                             _profiles, _rates, _red_slots, _red_totals, _screen_block,
                             _screen_tables, _sides, _smallest_keys_mask, _topic_labels,
                             _topic_totals, _topics, bin_index, check_trial_arguments)
from vnom.graph import GREEN, RED
from vnom.seeding import child_seed, generator

from conftest import build_attributed, build_topic, point_mass


def two_block_topic_graph():
    """8 vertices; red side {0,1,2,3} has 4 of 6 internal edges, green side 2 of 6."""
    edges = []
    for u, v in [(0, 1), (0, 2), (0, 3), (1, 2)]:
        edges.append((u, v, 1, point_mass(0, 2)))
    for u, v in [(4, 5), (6, 7)]:
        edges.append((u, v, 1, point_mass(1, 2)))
    return build_topic(8, edges, 2)


class TestDeltaRho:
    def test_hand_construction(self):
        g = two_block_topic_graph()
        part = Partition(8, np.arange(4))
        assert delta_rho(g, part) == pytest.approx(4 / 6 - 2 / 6)

    def test_symmetric_densities_cancel(self):
        edges = [(0, 1, 1, point_mass(0, 2)), (2, 3, 1, point_mass(1, 2))]
        g = build_topic(4, edges, 2)
        assert delta_rho(g, Partition(4, np.array([0, 1]))) == 0.0

    def test_extremes(self):
        edges = [(0, 1, 1, point_mass(0, 2)), (0, 2, 1, point_mass(0, 2)),
                 (1, 2, 1, point_mass(0, 2))]
        g = build_topic(5, edges, 2)
        assert delta_rho(g, Partition(5, np.array([0, 1, 2]))) == 1.0

    def test_small_side_rejected(self):
        g = two_block_topic_graph()
        with pytest.raises(UndefinedDensityError):
            delta_rho(g, Partition(8, np.array([0])))


class TestTopicProfile:
    def test_single_edge_is_its_distribution(self):
        g = build_topic(3, [(0, 1, 5, np.array([0.3, 0.7]))], 2)
        assert np.allclose(topic_profile(g, [0, 1]), [0.3, 0.7])

    def test_two_unit_edges_mix_evenly(self):
        g = build_topic(4, [(0, 1, 1, point_mass(0, 3)), (2, 3, 1, point_mass(1, 3))], 3)
        assert np.allclose(topic_profile(g, range(4)), [0.5, 0.5, 0.0])

    def test_message_count_weighting(self):
        # counts (1,1,2) on point masses (topic0, topic1, topic1)
        g = build_topic(6, [(0, 1, 1, point_mass(0, 2)),
                            (2, 3, 1, point_mass(1, 2)),
                            (4, 5, 2, point_mass(1, 2))], 2)
        assert np.allclose(topic_profile(g, range(6)), [0.25, 0.75])
        assert np.allclose(topic_profile(g, range(6), weighted=False), [1 / 3, 2 / 3])

    def test_empty_profile_rejected(self):
        g = two_block_topic_graph()
        with pytest.raises(EmptyProfileError):
            topic_profile(g, [0, 7])

    @pytest.mark.parametrize("vs", [[0, 1, 8], [-1, 0, 1]])
    def test_unknown_vertex_named(self, vs):
        g = two_block_topic_graph()
        bad = next(v for v in vs if not 0 <= v < g.n)
        with pytest.raises(InputError, match=f"unknown vertex id {bad}$"):
            topic_profile(g, vs)


class TestDeltaP:
    def test_identical_profiles(self):
        g = build_topic(4, [(0, 1, 1, np.array([0.5, 0.5])),
                            (2, 3, 1, np.array([0.5, 0.5]))], 2)
        assert delta_p(g, Partition(4, np.array([0, 1]))) == 0.0

    def test_disjoint_point_masses(self):
        g = build_topic(4, [(0, 1, 1, point_mass(0, 2)), (2, 3, 1, point_mass(1, 2))], 2)
        assert delta_p(g, Partition(4, np.array([0, 1]))) == pytest.approx(2.0)

    def test_hand_profiles(self):
        g = build_topic(4, [(0, 1, 1, np.array([0.75, 0.25])),
                            (2, 3, 1, np.array([0.25, 0.75]))], 2)
        assert delta_p(g, Partition(4, np.array([0, 1]))) == pytest.approx(1.0)


class TestTopicMapFromProfiles:
    def test_sign_rule_with_tie_going_green(self):
        labels = _topic_labels(np.array([0.5, 0.3, 0.2]), np.array([0.3, 0.3, 0.4]))
        assert list(labels) == [1, 2, 2]

    def test_invalid_labels_rejected(self):
        with pytest.raises(InputError):
            TopicMap(np.array([1, 3]))
        # checked as given, before narrowing to int8: 257 and 258 would wrap
        # to RED and GREEN, and as a list they would overflow int8
        for labels in (np.array([257, 258]), [257, 258], np.array([1, 2**63 - 1])):
            with pytest.raises(InputError, match="RED or GREEN"):
                TopicMap(labels)


class TestScreenPartitions:
    def test_no_thresholds_accepts_every_draw(self):
        g = two_block_topic_graph()
        res = screen_partitions(g, 4, ScreeningThresholds(-np.inf, -np.inf), 40, 0)
        assert res.attempts == 40
        assert res.n_accepted == 40
        assert res.draw_index.tolist() == list(range(40))

    def test_impossible_topic_bar_rejects_everything(self):
        # delta_p never exceeds 2
        g = two_block_topic_graph()
        res = screen_partitions(g, 4, ScreeningThresholds(-np.inf, 2.0), 60, 0)
        assert res.n_accepted == 0
        assert res.acceptance_rate == 0.0

    def test_filter_soundness_and_map_consistency(self):
        g = two_block_topic_graph()
        thresholds = ScreeningThresholds(0.1, 0.5)
        res = screen_partitions(g, 4, thresholds, 400, 3)
        assert res.n_accepted > 0
        for i in range(res.n_accepted):
            part = Partition(g.n, res.red_ids[i])
            assert res.delta_rho[i] > thresholds.tau_rho
            assert res.delta_p[i] > thresholds.tau_p
            # stored gaps match the public operations
            assert res.delta_rho[i] == pytest.approx(delta_rho(g, part))
            assert res.delta_p[i] == pytest.approx(delta_p(g, part))
            # re-deriving the map from the partition's profiles reproduces it exactly
            red_in, green_in = _sides(g, part.red_mask()[None])
            weights = _edge_weights(g, True)
            _, pr, pg = _profile_gap(weights, _topic_totals(weights, red_in), green_in)
            assert np.array_equal(_topic_labels(pr[0], pg[0]), res.topic_labels[i])

    def test_deterministic(self):
        g = two_block_topic_graph()
        a = screen_partitions(g, 4, ScreeningThresholds(0.1, 0.5), 300, 12)
        b = screen_partitions(g, 4, ScreeningThresholds(0.1, 0.5), 300, 12)
        assert a.draw_index.tolist() == b.draw_index.tolist()
        assert np.array_equal(a.red_ids, b.red_ids)

    def test_take_picks_the_same_rows_of_every_column(self):
        g = two_block_topic_graph()
        res = screen_partitions(g, 4, ScreeningThresholds(-np.inf, -np.inf), 10, 0)
        for rows in (slice(2, 5), res.draw_index % 3 == 0, np.array([7, 1])):
            picked = res.take(rows)
            assert picked.attempts == 10
            for column in ("red_ids", "topic_labels", "delta_rho", "delta_p", "draw_index"):
                assert np.array_equal(getattr(picked, column), getattr(res, column)[rows])
        assert res.take(slice(None)) == res
        assert res.take(slice(0)).n_accepted == 0 and res.take(slice(0)).red_ids.shape == (0, 4)

    @pytest.mark.parametrize("tau_rho,tau_p", [(np.nan, 0.2), (0.1, np.nan)])
    def test_nan_threshold_rejected(self, tau_rho, tau_p):
        with pytest.raises(InputError):
            ScreeningThresholds(tau_rho, tau_p)

    def test_m_bounds(self):
        g = two_block_topic_graph()
        with pytest.raises(InputError):
            screen_partitions(g, 1, ScreeningThresholds(), 10, 0)
        with pytest.raises(InputError):
            screen_partitions(g, 7, ScreeningThresholds(), 10, 0)


def argpartition_red_sets(keys, m):
    """Screening's red sets as first written: argpartition's m smallest keys."""
    chosen = np.argpartition(keys, m - 1, axis=1)[:, :m]
    mask = np.zeros(keys.shape, dtype=bool)
    mask[np.arange(len(keys))[:, None], chosen] = True
    return mask


class TestScreeningSelection:
    @pytest.mark.parametrize("rows,n,m", [(1, 5, 2), (511, 179, 10), (513, 40, 38),
                                          (1100, 12, 2), (4096, 179, 10), (1424, 184, 2),
                                          (1424, 184, 10), (1424, 184, 40), (1424, 184, 92)])
    def test_matches_argpartition_on_random_blocks(self, rows, n, m):
        keys = np.random.default_rng(rows).random((rows, n))
        mask = _smallest_keys_mask(keys, m)
        assert np.array_equal(mask, argpartition_red_sets(keys, m))
        assert (mask.sum(axis=1) == m).all()

    @pytest.mark.parametrize("m", range(1, 12))
    def test_bit_order_edges_match_argpartition(self, m):
        # keys are compared by their high words, ties by argpartition on the
        # floats: zero, two subnormals, the smallest normal, one half and the
        # largest double below 1 must order as floats.
        # Rows of six distinct edge keys and six more never tie; rows of each
        # edge key twice tie at the m-th place for odd m; constant rows always
        rng = np.random.default_rng(m)
        edges = [0.0, 5e-324, 1e-310, 2.0 ** -1022, 0.5, 1 - 2.0 ** -53]
        more = [1e-323, 1e-300, 2.0 ** -1022 * (1 + 2.0 ** -52), 0.25, 0.5 - 2.0 ** -54, 0.75]
        kinds = [edges + more, edges * 2] + [[x] * 12 for x in edges]
        keys = np.array([rng.permutation(kind) for kind in kinds for _ in range(40)])
        mask = _smallest_keys_mask(keys, m)
        assert np.array_equal(mask, argpartition_red_sets(keys, m))
        assert (mask.sum(axis=1) == m).all()

    @pytest.mark.parametrize("m", [2, 10, 40, 92])
    def test_keys_tied_in_their_high_words_match_argpartition(self, m):
        # each row holds two distinct keys, k and the next double above it,
        # whose high 32 bits are equal, at ranks r and r + 1: at r = m the row
        # marks m + 1 entries by high words and takes argpartition's pick; at
        # r = m - 1 or m + 1 its high words alone decide it
        rng = np.random.default_rng(m)
        n, rows = 184, 200
        keys = []
        for r in (m - 1, m, m + 1):
            for _ in range(rows):
                k = np.float64(rng.uniform(0.3, 0.4))
                k = (k.view(np.int64) & ~np.int64(0xFFFFFFFF) | 1).view(np.float64)
                pair = np.array([k, np.nextafter(k, 1)])
                high = pair.view(np.int64) >> 32
                assert pair[0] < pair[1] and high[0] == high[1]
                row = np.concatenate([rng.uniform(0.0, 0.25, r - 1), pair,
                                      rng.uniform(0.5, 1.0, n - r - 1)])
                keys.append(rng.permutation(row))
        keys = np.array(keys)
        mask = _smallest_keys_mask(keys, m)
        assert np.array_equal(mask, argpartition_red_sets(keys, m))
        assert (mask.sum(axis=1) == m).all()

    @pytest.mark.parametrize("m", [2, 10, 40, 92])
    def test_subnormal_keys_match_argpartition(self, m):
        # subnormals below 2**-1042 have a zero high word, so each such row
        # ties at the m-th place and takes argpartition's pick; rows of wider
        # subnormals, high words in 0..4095, are decided or not
        rng = np.random.default_rng(m)
        zero_high = rng.integers(1, 2**32, (300, 184)).view(np.float64)
        some_high = rng.integers(1, 2**44, (300, 184)).view(np.float64)
        assert (zero_high.view(np.int64) >> 32 == 0).all()
        assert (some_high < np.finfo(np.float64).tiny).all()
        keys = np.concatenate([zero_high, some_high])
        mask = _smallest_keys_mask(keys, m)
        assert np.array_equal(mask, argpartition_red_sets(keys, m))
        assert (mask.sum(axis=1) == m).all()

    @pytest.mark.parametrize("levels", [2, 3, 8])
    def test_tied_rows_take_argpartitions_pick(self, levels):
        # keys on a few levels tie at the m-th place in most rows
        keys = np.random.default_rng(levels).integers(0, levels, (1500, 20)) / levels
        mask = _smallest_keys_mask(keys, 6)
        assert np.array_equal(mask, argpartition_red_sets(keys, 6))
        assert (mask.sum(axis=1) == 6).all()

    def test_screen_block_with_keys_tied_at_the_mth_place(self):
        g = two_block_topic_graph()
        planted = [[0.1, 0.5, 0.5, 0.5, 0.9, 0.5, 0.2, 0.7],  # 2nd smallest tied four ways
                   [0.3] * 8,  # every key tied
                   [0.6, 0.4, 0.4, 0.8, 0.1, 0.2, 0.3, 0.0]]  # no tie
        (red_ids, *_, draw_index), _ = _screen_block(
            g, 2, ScreeningThresholds(-np.inf, -np.inf), _screen_tables(g, 2, True),
            PlantedUniforms(planted), 0, len(planted))
        want = argpartition_red_sets(np.array(planted), 2)
        assert draw_index.tolist() == [0, 1, 2]
        for ids, row in zip(red_ids, want):
            assert ids.tolist() == row.nonzero()[0].tolist()
        assert red_ids[2].tolist() == [4, 7]


def screened(columns):
    """Every field of each accepted draw of a block's columns, its gaps by their bits."""
    red_ids, labels, d_rho, d_p, draw_index = columns
    return [(index, ids.tolist(), row.tolist(), a.hex(), b.hex()) for ids, row, a, b, index
            in zip(red_ids, labels, d_rho.tolist(), d_p.tolist(), draw_index.tolist())]


class TestScreenChunks:
    """A block's accepted list does not depend on the rows each kernel call
    takes, and a short block reads the first rows of the full block's draw."""

    thresholds = ScreeningThresholds(0.0, 0.3)  # 67 of the first 157 draws pass tau_rho, 35 both

    @pytest.mark.parametrize("draws", [1, 157, _SCREEN_BLOCK])
    @pytest.mark.parametrize("chunk", ["default", "3 rows", "whole block"])
    @pytest.mark.parametrize("m", [6, 30])  # 15 or 435 red pairs, against 60 vertices
    def test_a_block_reads_the_prefix_of_the_full_block_draw(self, monkeypatch, draws, chunk, m):
        # the reference: one (block x n) draw, argpartition's red sets and
        # per-draw gaps, as screening was first written
        g = importance_surrogate()
        if chunk == "3 rows":
            # 157 draws end with a ragged chunk of 1; the density pass looks up
            # 3 rows' red pairs a call (one row's at m = 30), the profile pass
            # one row's
            monkeypatch.setattr(importance, "_ROW_CELLS", 3 * g.n)
            assert _chunk_rows(g.n) == 3 and _chunk_rows(g.num_edges) == 1
        elif chunk == "whole block":
            monkeypatch.setattr(importance, "_ROW_CELLS", draws * g.num_edges)
            assert _chunk_rows(g.n) >= draws and _chunk_rows(g.num_edges) == draws
        keys = generator(5).random((_SCREEN_BLOCK, g.n))[:draws]
        weights = _edge_weights(g, True)
        want = []
        for row, red_mask in enumerate(argpartition_red_sets(keys, m)):
            part = Partition(g.n, red_mask.nonzero()[0])
            d_rho = delta_rho(g, part)
            d_p, pr, pg = per_draw_profile_gap(weights, *_sides(g, red_mask))
            if d_rho > self.thresholds.tau_rho and d_p > self.thresholds.tau_p:
                want.append((row, part.red_ids.tolist(), _topic_labels(pr, pg).tolist(),
                             d_rho.hex(), d_p.hex()))
        got, _ = _screen_block(g, m, self.thresholds, _screen_tables(g, m, True),
                               generator(5), 0, draws)
        assert screened(got) == want
        if draws == 157:
            assert len(want) == (35 if m == 6 else 10)


class TestInstantiateEdges:
    def test_point_mass_red_topic(self):
        g = build_topic(4, [(0, 1, 1, point_mass(0, 2)), (1, 2, 1, point_mass(0, 2))], 2)
        tmap = TopicMap(np.array([1, 2]))
        ag = instantiate_edges(g, tmap, Partition(4, np.array([0, 1])), 5)
        assert (ag.edge_attr == 1).all()
        assert list(ag.truth) == [1, 1, 2, 2]
        assert (ag.observed == 0).all()

    def test_uniform_topic_edge_is_red_half_the_time(self):
        g = build_topic(2, [(0, 1, 1, np.array([0.5, 0.5]))], 2)
        tmap = TopicMap(np.array([1, 2]))
        part = Partition(2, np.array([0]))
        reds = sum(int(instantiate_edges(g, tmap, part, s).edge_attr[0] == 1)
                   for s in range(10_000))
        assert reds / 10_000 == pytest.approx(0.5, abs=0.015)

    def test_per_edge_red_rates_match_topic_mass(self):
        # three edges with different red-topic masses under map {0,1}->red
        probs = [np.array([0.1, 0.3, 0.6]), np.array([0.5, 0.25, 0.25]),
                 np.array([0.0, 0.9, 0.1])]
        g = build_topic(6, [(0, 1, 1, probs[0]), (2, 3, 1, probs[1]), (4, 5, 1, probs[2])], 3)
        tmap = TopicMap(np.array([1, 1, 2]))
        part = Partition(6, np.array([0, 1]))
        hits = np.zeros(3)
        trials = 8000
        for s in range(trials):
            hits += instantiate_edges(g, tmap, part, s).edge_attr == 1
        expected = [p[:2].sum() for p in probs]
        assert np.allclose(hits / trials, expected, atol=0.02)

    def test_topology_unchanged_and_deterministic(self):
        g = two_block_topic_graph()
        tmap = TopicMap(np.array([1, 2]))
        part = Partition(8, np.arange(4))
        a = instantiate_edges(g, tmap, part, 7)
        b = instantiate_edges(g, tmap, part, 7)
        assert a == b
        assert np.array_equal(a.edge_u, g.edge_u)
        assert np.array_equal(a.edge_v, g.edge_v)

    @pytest.mark.parametrize("labels", [[1, 2, 2, 1], [1, 1, 1, 1], [2, 2, 2, 2]],
                             ids=["mixed", "all-red", "all-green"])
    @pytest.mark.parametrize("m", [2, 23], ids=["m=2", "m=n-2"])
    def test_stored_graph_equals_the_validated_one(self, labels, m):
        # the unchecked store gives what the validating constructor makes of
        # the same edges, handed over shuffled and flipped, and of labels
        # built from the partition's ids alone
        n, rng = 25, np.random.default_rng(m)
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        pairs = pairs[rng.random(len(pairs)) < 0.4]
        g = TopicGraph(n, pairs[:, 0], pairs[:, 1], rng.dirichlet(np.ones(4), len(pairs)),
                       np.ones(len(pairs)))
        tmap = TopicMap(np.array(labels))
        for seed in range(5):
            part = Partition(n, rng.choice(n, size=m, replace=False))
            ag = instantiate_edges(g, tmap, part, seed)
            shuffle, flip = rng.permutation(g.num_edges), rng.random(g.num_edges) < 0.5
            eu, ev = g.edge_u[shuffle], g.edge_v[shuffle]
            red = set(part.red_ids.tolist())
            truth = [1 if v in red else 2 for v in range(n)]
            want = AttributedGraph(n, np.where(flip, ev, eu), np.where(flip, eu, ev),
                                   ag.edge_attr[shuffle], truth, [0] * n)
            assert ag == want
            arrays = ("edge_u", "edge_v", "edge_attr", "truth", "observed")
            assert [getattr(ag, f).dtype for f in arrays] == [getattr(want, f).dtype
                                                              for f in arrays]
            if len(set(labels)) == 1:
                assert (ag.edge_attr == labels[0]).all()


class PlantedUniforms:
    """A stand-in generator whose stream is the planted values, row by row:
    random(size) hands out the next prod(size) of them, as a generator's
    stream does, and never more than were planted."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.used = 0

    def random(self, size):
        shape = tuple(np.atleast_1d(size))
        end = self.used + int(np.prod(shape))
        assert end <= self.values.size
        out = self.values[self.used:end].reshape(shape)
        self.used = end
        return out


class TestDrawTopics:
    def test_planted_uniforms_match_bisection(self):
        from bisect import bisect_right
        from itertools import accumulate
        probs = [np.full(4, 0.25), np.array([0.0, 0.5, 0.0, 0.5]),
                 np.array([0.1, 0.2, 0.3, 0.4 - 1e-12]), point_mass(2, 4)]
        g = build_topic(5, [(0, v + 1, 1, p) for v, p in enumerate(probs)], 4)
        cums = [list(accumulate(row)) for row in g.topic_probs.tolist()]
        assert cums[2][-1] < 1.0  # a row whose probabilities sum to 1 - 1e-12
        planted = [
            [0.0] * 4,
            [cum[1] for cum in cums],  # exactly an interior cumulative value
            [np.nextafter(cum[1], 0.0) for cum in cums],  # the float just below it
            [cum[-1] + 5e-13 for cum in cums],  # above the short row's total
            [0.3, 0.75, 0.999, 0.5],
        ]
        for u in planted:
            expected = [min(bisect_right(cum, x), 3) for cum, x in zip(cums, u)]
            got = _topics(_cumulative_topics(g), np.array(u))
            assert got.tolist() == expected

    @pytest.mark.parametrize("k,dtype", [(256, np.uint8), (257, np.uint16)])
    def test_counts_narrow_to_the_topic_count(self, k, dtype):
        # k - 1 = 255 is the largest count a uint8 holds; 256 needs a uint16
        from bisect import bisect_right
        from itertools import accumulate
        rng = np.random.default_rng(k)
        probs = [point_mass(k - 1, k), point_mass(0, k), rng.dirichlet(np.full(k, 0.5)),
                 np.full(k, 1.0 / k), point_mass(k // 2, k)]
        g = build_topic(6, [(0, v + 1, 1, p) for v, p in enumerate(probs)], k)
        cum = _cumulative_topics(g)
        cums = [list(accumulate(row)) for row in g.topic_probs.tolist()]
        planted = np.array([[0.0] * 5, [0.999999] * 5, rng.random(5), rng.random(5),
                            [cum[k // 2, e] for e in range(5)]])
        got = _topics(cum, planted)
        assert got.dtype == dtype
        for row, u in zip(got, planted):
            assert row.tolist() == [min(bisect_right(c, x), k - 1) for c, x in zip(cums, u)]
        assert got[:, 0].tolist() == [k - 1] * 5  # every uniform at or above the zeros before


def per_draw_profile(weights, sel):
    """A side's topic profile as computed one draw at a time before the
    profile kernel was stacked."""
    total = weights[sel].sum(axis=0)
    mass = total.sum()
    return total / mass if mass > 0.0 else np.zeros_like(total)


def per_draw_profile_gap(weights, red_in, green_in):
    pr, pg = per_draw_profile(weights, red_in), per_draw_profile(weights, green_in)
    return (float(np.abs(pr - pg).sum()) if pr.any() and pg.any() else 0.0), pr, pg


def per_instance_draw_topics(cum_topics, rng):
    """One instance's topic draw as written before the trials stacked it."""
    u = rng.random(cum_topics.shape[1])
    return np.minimum((u >= cum_topics).sum(axis=0, dtype=np.int32), cum_topics.shape[0] - 1)


def assert_gaps_match_per_draw(weights, red_in, green_in):
    d_p, pr, pg = _profile_gap(weights, _topic_totals(weights, red_in), green_in)
    assert d_p.shape == (len(red_in),) and pr.shape == pg.shape == (len(red_in), weights.shape[1])
    for i in range(len(red_in)):
        want_d, want_r, want_g = per_draw_profile_gap(weights, red_in[i], green_in[i])
        assert d_p[i] == want_d
        assert pr[i].tobytes() == want_r.tobytes() and pg[i].tobytes() == want_g.tobytes()


def spread_weights(rng, edges, k):
    """(edges x k) weights spread over 16 decades, some exactly zero."""
    weights = rng.random((edges, k)) * 10.0 ** rng.uniform(-8, 8, (edges, 1))
    weights[rng.random((edges, k)) < 0.2] = 0.0
    return weights


class TestStackedProfiles:
    """The stacked profile kernel against the per-draw sums it replaced, to the byte."""

    @pytest.mark.parametrize("rows", [1, 2, 600])
    @pytest.mark.parametrize("k", [2, 5, 32, 64])
    def test_random_side_masks(self, rows, k):
        rng = np.random.default_rng(rows * 100 + k)
        weights = spread_weights(rng, 500, k)
        red_in = rng.random((rows, 500)) < rng.uniform(0, 0.2, (rows, 1))
        green_in = rng.random((rows, 500)) < rng.uniform(0.2, 1, (rows, 1))
        assert_gaps_match_per_draw(weights, red_in, green_in)

    def test_sides_without_edges_or_weight(self):
        rng = np.random.default_rng(3)
        weights = spread_weights(rng, 40, 3)
        weights[:5] = 0.0
        red_in = rng.random((6, 40)) < 0.3
        green_in = rng.random((6, 40)) < 0.6
        red_in[0] = False  # no red edge
        green_in[1] = False  # no green edge
        red_in[2], green_in[2] = False, False  # neither
        red_in[3] = False
        red_in[3, :5] = True  # red edges, all of weight zero
        assert_gaps_match_per_draw(weights, red_in, green_in)
        d_p, pr, pg = _profile_gap(weights, _topic_totals(weights, red_in), green_in)
        assert d_p[:4].tolist() == [0.0] * 4
        assert not pr[[0, 2, 3]].any() and not pg[[1, 2]].any()

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("k", [2, 7])
    def test_screened_profiles_across_chunk_boundaries(self, monkeypatch, weighted, k):
        # 7 rows per kernel call: 20 all-pass draws end chunks at 7 and 14
        rng = np.random.default_rng(k)
        n = 30
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        probs = rng.dirichlet(np.full(k, 0.3), len(pairs))
        counts = 10 ** rng.integers(0, 16, len(pairs))  # message counts over 16 decades
        g = build_topic(n, [(u, v, int(c), p) for (u, v), c, p in zip(pairs, counts, probs)], k)
        monkeypatch.setattr(importance, "_ROW_CELLS", 7 * g.num_edges)
        assert _chunk_rows(g.num_edges) == 7
        weights = _edge_weights(g, weighted)
        tables = _screen_tables(g, 4, weighted)
        all_pass = ScreeningThresholds(-np.inf, -np.inf)
        for draws in (6, 7, 8, 13, 14, 15, 20):
            (red_ids, labels, _, d_p, draw_index), _ = _screen_block(
                g, 4, all_pass, tables, generator(draws), 0, draws)
            assert draw_index.tolist() == list(range(draws))
            for ids, row, got in zip(red_ids, labels, d_p.tolist()):
                red_in, green_in = _sides(g, Partition(g.n, ids).red_mask())
                want_d, want_r, want_g = per_draw_profile_gap(weights, red_in, green_in)
                assert got == want_d
                assert row.tolist() == _topic_labels(want_r, want_g).tolist()

    def test_public_functions_match_per_draw_sums(self):
        rng = np.random.default_rng(11)
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5]
        probs = rng.dirichlet(np.full(4, 0.5), len(pairs))
        counts = 10 ** rng.integers(0, 16, len(pairs))
        g = build_topic(12, [(u, v, int(c), p) for (u, v), c, p in zip(pairs, counts, probs)], 4)
        part = Partition(12, np.arange(5))
        red_in, green_in = _sides(g, part.red_mask())
        for weighted in (True, False):
            weights = _edge_weights(g, weighted)
            assert delta_p(g, part, weighted=weighted) == \
                per_draw_profile_gap(weights, red_in, green_in)[0]
            assert topic_profile(g, part.red_ids, weighted=weighted).tobytes() == \
                per_draw_profile(weights, red_in).tobytes()


def importance_surrogate():
    """60 vertices, 146 edges, 8 topics, a dense topically skewed group of 15."""
    return generate_surrogate(60, 8, 0.08, group_size=15, seed=4)


def red_ids_mask(n, chosen):
    mask = np.zeros((len(chosen), n), dtype=bool)
    mask[np.arange(len(chosen))[:, None], chosen] = True
    return mask


def check_red_totals(g, chosen, weighted=True):
    """Screening's red-side edge counts and topic totals of the rows of red
    ids ``chosen``, from their red-pair slots, against the count and the
    einsum over each row's red side mask, to the bit; returns the totals."""
    chosen = np.sort(np.asarray(chosen, dtype=np.int64), axis=1)
    weights, table, offsets, _, pairs, *_ = _screen_tables(g, chosen.shape[1], weighted)
    step = _chunk_rows(len(pairs[0]))  # rows per lookup, as screening takes them
    slots = [_red_slots(table, offsets, chosen[lo:lo + step], pairs)
             for lo in range(0, len(chosen), step)]
    counts = np.concatenate([np.count_nonzero(rows, axis=1) for rows in slots])
    got = np.concatenate([_red_totals(weights, rows) for rows in slots])
    red_in, _ = _sides(g, red_ids_mask(g.n, chosen))
    assert counts.tolist() == np.count_nonzero(red_in, axis=1).tolist()
    want = _topic_totals(weights[1:], red_in)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert _normalized(got).tobytes() == _profiles(weights[1:], red_in).tobytes()
    return got


class TestRedTotals:
    """Screening's red-side edge counts and topic totals, from each draw's
    red-pair slots, against the count and the einsum over its red side mask,
    to the bit."""

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("m", [2, 6, 30])
    def test_random_draws(self, weighted, m):
        g = importance_surrogate()
        rng = np.random.default_rng(m)
        chosen = np.argsort(rng.random((300, g.n)), axis=1)[:, :m]
        check_red_totals(g, chosen, weighted)

    def test_weights_over_sixteen_decades(self, monkeypatch):
        # message counts 1..1e15 make every addition round: only the order
        # of the additions keeps the bits; 4 rows per lookup call
        rng = np.random.default_rng(2)
        pairs = [(u, v) for u in range(25) for v in range(u + 1, 25) if rng.random() < 0.6]
        probs = rng.dirichlet(np.full(5, 0.3), len(pairs))
        counts = 10 ** rng.integers(0, 16, len(pairs))
        g = build_topic(25, [(u, v, int(c), p) for (u, v), c, p in zip(pairs, counts, probs)], 5)
        monkeypatch.setattr(importance, "_ROW_CELLS", 4 * comb(8, 2))
        check_red_totals(g, np.argsort(rng.random((50, 25)), axis=1)[:, :8])

    def test_a_row_without_red_edges(self):
        g = two_block_topic_graph()  # red edges only among 0..3 and 4..7
        got = check_red_totals(g, [[0, 4], [0, 1], [2, 5], [1, 6]])
        assert not got[[0, 2, 3]].any() and got[1].any()

    def test_a_complete_red_block(self):
        n = 8
        g = build_topic(n, [(u, v, 1 + u, np.array([0.25, 0.5, 0.25])) for u in range(n)
                            for v in range(u + 1, n) if u < 5 or v == u + 1], 3)
        got = check_red_totals(g, [[0, 1, 2, 3, 4], [3, 4, 5, 6, 7], [0, 2, 4, 6, 7]])
        inside = g.edge_v < 5  # the edges among 0..4, every pair of them
        assert np.count_nonzero(inside) == comb(5, 2)
        assert got[0].tobytes() == _edge_weights(g, True)[inside].sum(axis=0).tobytes()

    def test_edgeless_graph(self):
        g = build_topic(6, [], 4)
        got = check_red_totals(g, [[0, 1], [2, 5], [3, 4]])
        assert got.shape == (3, 4) and not got.any()
        got = check_red_totals(g, [[0, 1, 2, 3]])
        assert not got.any()


def random_topic_graph(n, edges, k, seed):
    """n vertices joined by ``edges`` uniformly drawn distinct pairs, each
    with a random topic distribution and message count."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    pick = rng.choice(u.size, edges, replace=False)
    return TopicGraph(n, u[pick], v[pick], rng.dirichlet(np.full(k, 0.5), edges),
                      1 + rng.poisson(1.0, edges))


class TestSlotTiers:
    """Screening with slots of each width: uint8 up to 255 edges, uint16 up to
    65 535 and uint32 beyond, the edgeless graph included."""

    tiers = pytest.mark.parametrize("n,edges,m,dtype", [
        (30, 0, 8, np.uint8), (30, 255, 8, np.uint8), (30, 256, 8, np.uint16),
        (400, 65535, 60, np.uint16), (400, 65536, 60, np.uint32)])

    @tiers
    def test_every_draw_has_the_public_gaps(self, n, edges, m, dtype):
        g = random_topic_graph(n, edges, 3, edges)
        assert _screen_tables(g, m, True)[1].dtype == dtype
        res = screen_partitions(g, m, ScreeningThresholds(-np.inf, -np.inf), 12, edges)
        assert res.n_accepted == 12
        for ids, got_rho, got_p in zip(res.red_ids, res.delta_rho, res.delta_p):
            part = Partition(g.n, ids)
            assert got_rho == delta_rho(g, part)
            try:
                want = delta_p(g, part)
            except EmptyProfileError:  # a side without edges: screening's gap is 0
                want = 0.0
            assert got_p == want

    @tiers
    def test_red_totals_reach_the_last_slot(self, n, edges, m, dtype):
        g = random_topic_graph(n, edges, 3, edges)
        chosen = np.argsort(np.random.default_rng(edges).random((20, n)), axis=1)[:, :m]
        if edges:  # one row holds the last edge, whose slot is the largest
            ends = [g.edge_u[-1], g.edge_v[-1]]
            chosen[0] = np.concatenate([ends, np.setdiff1d(np.arange(n), ends)[:m - 2]])
        got = check_red_totals(g, chosen)
        assert got[0].any() == bool(edges)


def gap_estimates_and_exact(g, chosen, weighted=True):
    """(estimate, bound, exact delta_p, exact green profiles) of each row of
    red ids ``chosen``: the certificate's inputs from the screen's tables, the
    exact pass's values from each row's green edge mask."""
    chosen = np.sort(np.asarray(chosen), axis=1)
    weights, table, offsets, _, pairs, incident, total = _screen_tables(g, chosen.shape[1],
                                                                        weighted)
    red_total = _red_totals(weights, _red_slots(table, offsets, chosen, pairs))
    estimate, bound = _gap_estimate(incident, total, chosen, red_total,
                                    g.num_edges + chosen.shape[1] + g.k_topics)
    _, green_in = _sides(g, red_ids_mask(g.n, chosen))
    exact, _, pg = _profile_gap(weights[1:], red_total, green_in)
    return estimate, bound, exact, pg


class TestGapCertificate:
    """The delta_p estimate from complement totals, and its bound on the
    distance to the exact pass's value."""

    @pytest.mark.parametrize("m", [2, 8, 20])
    def test_bound_holds_with_weights_over_sixteen_decades(self, m):
        # message counts 1..1e15: the complement's subtraction cancels most
        # of the all-edge totals whenever a red vertex carries a heavy edge
        rng = np.random.default_rng(m)
        pairs = [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.3]
        probs = rng.dirichlet(np.full(5, 0.3), len(pairs))
        counts = 10 ** rng.integers(0, 16, len(pairs))
        g = build_topic(40, [(u, v, int(c), p) for (u, v), c, p in zip(pairs, counts, probs)], 5)
        chosen = np.argsort(rng.random((3000, g.n)), axis=1)[:, :m]
        estimate, bound, exact, pg = gap_estimates_and_exact(g, chosen)
        sure = np.isfinite(bound)
        assert (estimate != exact).any() and sure.all() and (bound < 1e-9).all()
        assert (np.abs(estimate - exact) <= bound).all()
        assert pg[sure & (bound > 0)].any(axis=1).all()  # a certified green mass
        assert (exact[bound == 0] == 0).all()

    def test_bound_holds_where_the_complement_cancels_heavy_edges(self):
        # red set {0, 1, 2} carries cross edges of 1e15 messages, so its
        # green totals (at most 1e3) are what is left of a 1e15-scale
        # subtraction: the estimate moves, and the bound must cover it
        heavy = [(0, 5), (1, 6), (2, 7), (0, 8)]
        green = [(3, 4), (5, 6), (7, 8), (8, 9), (4, 9), (3, 9)]
        edges = ([(u, v, 10**15 - 7 * u, np.array([0.3, 0.7])) for u, v in heavy]
                 + [(0, 1, 10**14, np.array([0.5, 0.5]))]
                 + [(u, v, 1 + 97 * i, np.array([1.0, 0.0]) if i % 2 else np.array([0.2, 0.8]))
                    for i, (u, v) in enumerate(green)])
        g = build_topic(10, edges, 2)
        rng = np.random.default_rng(5)
        chosen = [[0, 1, 2]] + [rng.choice(10, 3, replace=False) for _ in range(200)]
        estimate, bound, exact, _ = gap_estimates_and_exact(g, chosen)
        assert np.isfinite(bound[0]) and abs(estimate[0] - exact[0]) > 1e-9
        sure = np.isfinite(bound)
        assert (np.abs(estimate - exact)[sure] <= bound[sure]).all()

    def test_no_green_mass_is_certified_from_a_cancelled_complement(self):
        # every edge has an end in {0, 1, 2, 3}: the green side of that red
        # set has no edge, and its complement totals are rounding residue
        rng = np.random.default_rng(8)
        edges = [(u, v, int(10 ** rng.integers(0, 16)), rng.dirichlet([0.5, 0.5, 0.5]))
                 for u in range(4) for v in range(u + 1, 9) if rng.random() < 0.8]
        g = build_topic(9, edges, 3)
        _, bound, exact, pg = gap_estimates_and_exact(g, [[0, 1, 2, 3]])
        assert not pg.any() and exact[0] == 0.0 and np.isinf(bound[0])

    def test_bound_is_tight_on_the_bench_corpus(self):
        g = generate_surrogate(184, 32, seed=3)
        chosen = np.argsort(np.random.default_rng(1).random((500, g.n)), axis=1)[:, :10]
        estimate, bound, exact, _ = gap_estimates_and_exact(g, chosen)
        assert (np.abs(estimate - exact) <= bound).all() and (bound < 1e-11).all()

    def test_sides_without_edges(self):
        g = build_topic(8, [(0, 1, 1, point_mass(0, 2)), (0, 2, 1, point_mass(0, 2)),
                            (4, 5, 1, point_mass(1, 2)), (6, 7, 1, np.array([0.5, 0.5]))], 2)
        # rows 0 and 4 have no green edge, row 1 no red edge
        chosen = [[0, 4, 6, 7], [0, 3, 5, 7], [4, 5, 6, 7], [0, 1, 2, 3], [0, 5, 6, 7]]
        estimate, bound, exact, pg = gap_estimates_and_exact(g, chosen, weighted=False)
        assert estimate[1] == exact[1] == 0.0 and bound[1] == 0.0
        assert not pg[[0, 4]].any() and np.isinf(bound[[0, 4]]).all()
        assert np.isfinite(bound[[2, 3]]).all()
        assert (np.abs(estimate - exact)[[2, 3]] <= bound[[2, 3]]).all()

    @pytest.mark.parametrize("keep", [0, 1, 7, 40])
    def test_the_exact_pass_takes_only_the_kept_rows(self, monkeypatch, keep):
        g = importance_surrogate()
        thresholds = ScreeningThresholds(0.0, 0.3)
        full = screen_partitions(g, 6, thresholds, 3000, 5)
        profiled = []

        def counted(weights, red_total, green_in):
            profiled.append(len(green_in))
            return _profile_gap(weights, red_total, green_in)

        monkeypatch.setattr(importance, "_profile_gap", counted)
        capped = screen_partitions(g, 6, thresholds, 3000, 5, keep=keep)
        assert full.n_accepted > 40 and capped.n_accepted == full.n_accepted
        assert capped.take(slice(None)) == full.take(slice(keep))
        assert sum(profiled) == keep  # the bound decides every other row

    def test_keep_below_zero_rejected(self):
        with pytest.raises(InputError, match="keep must be >= 0"):
            screen_partitions(two_block_topic_graph(), 4, ScreeningThresholds(), 10, 0, keep=-1)


class TestBlockTopicDraws:
    """Block topic mapping against the per-instance draw it replaced."""

    def graph_with_short_rows(self):
        probs = [np.full(4, 0.25), np.array([0.0, 0.5, 0.0, 0.5]),
                 np.array([0.1, 0.2, 0.3, 0.4 - 1e-12]), point_mass(2, 4)]
        return build_topic(5, [(0, v + 1, 1, p) for v, p in enumerate(probs)], 4)

    def test_planted_uniforms_match_per_instance_draws(self):
        g = self.graph_with_short_rows()
        cum = _cumulative_topics(g)
        assert cum[-1, 2] < 1.0  # an edge whose probabilities sum to 1 - 1e-12
        planted = np.array([
            [0.0] * 4,
            cum[1],  # exactly an interior cumulative value
            cum[0],  # exactly the first
            np.nextafter(cum[1], 0.0),  # the float just below it
            cum[-1] + 5e-13,  # above the short edge's last cumulative value
            np.nextafter(cum[-1], 2.0),
            [0.3, 0.75, 0.999, 0.5],
        ])
        got = _topics(cum, planted)
        for row, u in zip(got, planted):
            assert row.tolist() == per_instance_draw_topics(cum, PlantedUniforms(u)).tolist()
        assert got[4, 2] == 3  # clamped at k - 1

    def test_block_draws_match_per_instance_draws(self):
        # 7 partitions x 2 replicates
        rng = np.random.default_rng(5)
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.4]
        k = 6
        g = build_topic(20, [(u, v, 1, p) for (u, v), p in
                             zip(pairs, rng.dirichlet(np.full(k, 0.4), len(pairs)))], k)
        block = screen_partitions(g, 5, ScreeningThresholds(-np.inf, -np.inf), 7, 2)
        cum, base = _cumulative_topics(g), child_seed(8)
        attr, identified, tiebreak = _draw_instances(g, block, 3, 2, 2, base, cum)
        for j, (red_ids, labels) in enumerate(zip(block.red_ids, block.topic_labels)):
            for rep in range(2):
                i = j * 2 + rep
                edge_seed, ident_seed, tie_seed = (child_seed(base, 3 + j, rep, k)
                                                   for k in range(3))
                topics = per_instance_draw_topics(cum, generator(edge_seed))
                assert attr[i].tolist() == labels[topics].tolist()
                picked = generator(ident_seed).choice(red_ids, size=2, replace=False)
                assert identified[i].nonzero()[0].tolist() == sorted(picked.tolist())
                assert tiebreak[i].tolist() == generator(tie_seed).permutation(18).tolist()


class TestEstimateRates:
    def test_no_internal_edges(self):
        g = build_attributed(6, [(0, 3, 1), (1, 4, 2), (2, 5, 1)], red={0, 1, 2})
        est = estimate_rates(g, Partition(6, np.array([0, 1, 2])))
        assert (est.p1, est.p2, est.s1, est.s2) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_counts(self):
        # red side {0,1,2,3}: edges (0,1):1, (0,2):1, (1,2):2 -> s1=2/6, s2=1/6
        g = build_attributed(8, [(0, 1, 1), (0, 2, 1), (1, 2, 2), (4, 5, 1), (0, 4, 2)],
                             red={0, 1, 2, 3})
        est = estimate_rates(g, Partition(8, np.arange(4)))
        assert est.s1 == pytest.approx(2 / 6)
        assert est.s2 == pytest.approx(1 / 6)
        assert est.p1 == pytest.approx(1 / 6)  # green side {4..7}: (4,5) red edge
        assert est.p2 == 0.0  # the cross edge (0,4) counts toward neither side

    def test_a_third_attribute_counts_toward_neither_rate(self):
        # red side {0,1,2}: (0,1):1, (0,2):3, (1,2):2; green side {3,4,5}: (3,4):3, (4,5):2
        g = build_attributed(6, [(0, 1, 1), (0, 2, 3), (1, 2, 2), (3, 4, 3), (4, 5, 2)],
                             red={0, 1, 2}, k_edge_attrs=3)
        est = estimate_rates(g, Partition(6, np.arange(3)))
        assert (est.p1, est.p2, est.s1, est.s2) == (0.0, 1 / 3, 1 / 3, 1 / 3)

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (2, 4, 3)])
    def test_rate_kernel_counts_as_four_masks_do(self, shape):
        # every edge RED or GREEN: a side's green edges are its edges less its red ones
        rng = np.random.default_rng(len(shape))
        attr = np.where(rng.random((*shape, 200)) < 0.3, RED, GREEN)
        red_in = rng.random((*shape[:-1], 1, 200)) < 0.2
        green_in = ~red_in & (rng.random((*shape[:-1], 1, 200)) < 0.5)
        want = np.stack([np.count_nonzero(side & (attr == colour), axis=-1) / pairs
                         for side, pairs in ((green_in, 15), (red_in, 10))
                         for colour in (RED, GREEN)], axis=-1)
        assert np.array_equal(_rates(attr, red_in, green_in, 10, 15), want)

    def test_bounded_by_side_density(self):
        params = KidneyEggParams(40, 12, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        for seed in range(4):
            g = sample_kidney_egg(params, seed)
            part = Partition(g.n, g.red_set())
            est = estimate_rates(g, part)
            for rate_sum, side in ((est.p1 + est.p2, ~part.red_mask()),
                                   (est.s1 + est.s2, part.red_mask())):
                # edges of the side-induced subgraph over its vertex pairs
                num_edges = np.count_nonzero(side[g.edge_u] & side[g.edge_v])
                assert rate_sum <= num_edges / comb(np.count_nonzero(side), 2) + 1e-12

    def test_side_size_validation(self):
        g = build_attributed(4, [], red={0})
        with pytest.raises(UndefinedDensityError):
            estimate_rates(g, Partition(4, np.array([0])))


class TestBinIndex:
    def test_half_open_edges(self):
        assert bin_index(0.3, 0.1) == 3
        assert bin_index(0.39999, 0.1) == 3
        assert bin_index(0.4, 0.1) == 4
        assert bin_index(0.0, 0.1) == 0
        assert bin_index(-0.05, 0.1) == -1


class TestRunImportanceTrials:
    def trivial_screen(self, g, m, attempts=30, seed=0):
        return screen_partitions(g, m, ScreeningThresholds(-np.inf, -np.inf),
                                 attempts, seed)

    def test_single_partition_single_replicate_is_pipeline_identity(self):
        from vnom import evaluate_ranking, rank_candidates
        from vnom.seeding import child_seed

        g = two_block_topic_graph()
        screening = self.trivial_screen(g, 4, attempts=1)
        trials = run_importance_trials(g, screening, 2, [0.0], 1, 123)
        part = Partition(g.n, screening.red_ids[0])
        assert trials.partitions == screening
        assert trials.table.mean.shape == (1, 1, 3) and trials.rates.shape == (1, 4)

        # replay by hand with the same derived seeds and public operations
        edge_seed, ident_seed, tie_seed = child_seed(
            child_seed(123), 0, 0).spawn(3)
        ag = instantiate_edges(g, TopicMap(screening.topic_labels[0]), part, edge_seed)
        rng = np.random.default_rng(ident_seed)
        identified = np.sort(rng.choice(part.red_ids, size=2, replace=False))
        observed = np.zeros(g.n, dtype=np.int8)
        observed[identified] = 1
        from vnom import AttributedGraph
        ag2 = AttributedGraph(g.n, ag.edge_u, ag.edge_v, ag.edge_attr,
                              ag.truth, observed)
        ranking = rank_candidates(ag2, 0.0, tie_seed)
        truth = ag2.red_candidates()
        report = evaluate_ranking(ranking, truth)
        assert trials.table.mean[0, 0, :3].tolist() == [report.s_at_1, report.rr, report.ap]

        est = estimate_rates(ag2, part)
        assert trials.rates[0].tolist() == [est.p1, est.p2, est.s1, est.s2]

    def test_bins_and_insufficient_flag(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=25)
        trials = run_importance_trials(g, res, 1, [0.0, 0.5, 1.0], 2, 5)
        assert sum(b.n_partitions for b in trials.bins.values()) == 25
        assert all(b.table.replicates == 2 * b.n_partitions for b in trials.bins.values())
        assert any(b.insufficient for b in trials.bins.values()) or \
            all(b.n_partitions >= 20 for b in trials.bins.values())
        for b in trials.bins.values():
            assert b.fusion_advantage_mrr == pytest.approx(
                min(b.table.value("mrr", 0.0), b.table.value("mrr", 1.0))
                - b.table.value("mrr", 0.5))

    def test_fusion_advantage_absent_without_triple(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=5)
        trials = run_importance_trials(g, res, 1, [0.0, 1.0], 1, 5)
        assert all(b.fusion_advantage_mrr is None for b in trials.bins.values())

    def test_worker_determinism(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=40)
        a = run_importance_trials(g, res, 2, [0.0, 0.5, 1.0], 3, 9, n_workers=1)
        b = run_importance_trials(g, res, 2, [0.0, 0.5, 1.0], 3, 9, n_workers=4)
        assert a == b

    def test_several_trial_blocks_are_worker_independent(self):
        # 150 partitions span five trial blocks, split over two workers
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=150)
        a = run_importance_trials(g, res, 2, [0.0, 0.5, 1.0], 2, 9, n_workers=1)
        b = run_importance_trials(g, res, 2, [0.0, 0.5, 1.0], 2, 9, n_workers=2)
        assert a.partitions.n_accepted == 150
        assert a == b

    @pytest.mark.parametrize("red_ids,labels,gaps,draws", [
        ([[0, 8]], 2, [0.0, 0.0], [0]), ([[-1, 3]], 2, [0.0, 0.0], [0]),  # ids
        ([[3, 1]], 2, [0.0, 0.0], [0]), ([[2, 2]], 2, [0.0, 0.0], [0]),
        # red-set sizes outside 2..n-2 = 2..6
        ([[0]], 2, [0.0, 0.0], [0]), ([[0, 1, 2, 3, 4, 5, 6]], 2, [0.0, 0.0], [0]),
        ([[0, 1]], 3, [0.0, 0.0], [0]),
        # columns the screened rows do not line up with, and gaps no bin holds
        ([[0, 1]], 2, [np.nan, 0.0], [0]), ([[0, 1]], 2, [np.inf, 0.0], [0]),
        ([[0, 1]], 2, [0.0, -np.inf], [0]), ([[0, 1]], 2, [0.0, 0.0], [0, 1, 2]),
        ([0, 1], 2, [0.0, 0.0], [0])],
        ids=["id-n", "id-negative", "descending", "repeated", "m-1", "m-n-1", "topics",
             "rho-nan", "rho-inf", "p-inf", "three-draws", "flat-ids"])
    def test_screening_that_does_not_fit_the_graph_rejected(self, red_ids, labels, gaps,
                                                             draws):
        g = two_block_topic_graph()  # 8 vertices, 2 topics
        with pytest.raises(InputError, match="screened"):
            screening = ScreeningResult(np.array(red_ids),
                                        np.full((1, labels), 1, dtype=np.int8),
                                        np.array(gaps[:1]), np.array(gaps[1:]),
                                        np.array(draws, dtype=np.int64), 1)
            run_importance_trials(g, screening, 1, [0.5], 1, 0)

    def test_zero_workers_rejected(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=3)
        with pytest.raises(InputError):
            run_importance_trials(g, res, 2, [0.5], 1, 0, n_workers=0)

    @pytest.mark.parametrize("width", [np.nan, np.inf, 0.0, -0.1, 1e-320])  # 2/1e-320 is inf
    def test_bad_bin_width_rejected(self, width):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=3)
        with pytest.raises(InputError):
            run_importance_trials(g, res, 2, [0.5], 1, 0, bin_width=width)

    def test_m_prime_validation(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=3)
        with pytest.raises(InputError):
            run_importance_trials(g, res, 4, [0.5], 1, 0)
        empty = run_importance_trials(g, res.take(slice(0)), 2, [0.5, 1.0], 3, 0)
        assert empty.bins == {} and empty.partitions == res.take(slice(0))
        assert empty.table.gammas == (0.5, 1.0) and empty.table.replicates == 3
        assert empty.table.mean.shape == empty.table.se.shape == (0, 2, 3)
        assert empty.rates.shape == (0, 4)
        with pytest.raises(InputError):  # the trial arguments are checked all the same
            run_importance_trials(g, res.take(slice(0)), 4, [0.5], 1, 0)


class TestCheckTrialArguments:
    def test_returns_float_grid(self):
        assert check_trial_arguments(10, 5, [0, 1], 3, 0.1) == (0.0, 1.0)

    @pytest.mark.parametrize("m,m_prime,grid,replicates,width", [
        (10, 10, (0.5,), 1, 0.1), (10, 0, (0.5,), 1, 0.1), (10, 5, (0.5,), 0, 0.1),
        (10, 5, (0.5,), 1, 0.0), (10, 5, (0.5,), 1, np.nan), (10, 5, (1.5,), 1, 0.1),
        (10, 5, (0.5, 0.5), 1, 0.1), (10, 5, (), 1, 0.1), (10, 5, (0.5,), 2**32 + 1, 0.1)])
    def test_rejects(self, m, m_prime, grid, replicates, width):
        with pytest.raises(InputError):
            check_trial_arguments(m, m_prime, grid, replicates, width)

    @pytest.mark.parametrize("grid", [(), (0.0, 1.5), (np.nan,), (0.5, 0.5)])
    def test_trials_reject_bad_gamma_grid(self, grid):
        g = two_block_topic_graph()
        res = screen_partitions(g, 4, ScreeningThresholds(-np.inf, -np.inf), 3, 0)
        with pytest.raises(InputError):
            run_importance_trials(g, res, 2, grid, 1, 0)


class TestKappaConsistency:
    def test_estimates_recover_generating_rates(self):
        # scaled-down version of the estimator-consistency gate
        params = KidneyEggParams(60, 16, 5, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        acc = np.zeros(4)
        n = 200
        for i in range(n):
            g = sample_kidney_egg(params, np.random.SeedSequence(entropy=91, spawn_key=(i,)))
            est = estimate_rates(g, Partition(g.n, g.red_set()))
            acc += (est.p1, est.p2, est.s1, est.s2)
        acc /= n
        assert np.allclose(acc, [0.2, 0.2, 0.4, 0.2], atol=0.02)
