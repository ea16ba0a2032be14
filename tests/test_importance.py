"""Screening, topic profiles, edge instantiation, trials, rate estimation."""

import numpy as np
import pytest

from vnom import (EmptyProfileError, InputError, KidneyEggParams, Partition,
                  ScreeningThresholds, TopicMap, UndefinedDensityError, delta_p,
                  delta_rho, estimate_rates, instantiate_edges, run_importance_trials,
                  sample_kidney_egg, screen_partitions, topic_profile)
from vnom import importance
from vnom.importance import (_SCREEN_BLOCK, _cumulative_topics, _draw_instances,
                             _edge_weights, _neighbour_lists, _profile_gap, _profile_rows,
                             _screen_block, _sides, _smallest_keys_mask, _topics, bin_index,
                             check_trial_arguments, topic_map_from_profiles)
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
        tmap = topic_map_from_profiles(np.array([0.5, 0.3, 0.2]),
                                       np.array([0.3, 0.3, 0.4]))
        assert list(tmap.labels) == [1, 2, 2]

    def test_invalid_labels_rejected(self):
        with pytest.raises(InputError):
            TopicMap(np.array([1, 3]))


class TestScreenPartitions:
    def test_no_thresholds_accepts_every_draw(self):
        g = two_block_topic_graph()
        res = screen_partitions(g, 4, ScreeningThresholds(-np.inf, -np.inf), 40, 0)
        assert res.attempts == 40
        assert res.n_accepted == 40
        assert [sp.draw_index for sp in res.accepted] == list(range(40))

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
        for sp in res.accepted:
            assert sp.delta_rho > thresholds.tau_rho
            assert sp.delta_p > thresholds.tau_p
            # stored gaps match the public operations
            assert sp.delta_rho == pytest.approx(delta_rho(g, sp.partition))
            assert sp.delta_p == pytest.approx(delta_p(g, sp.partition))
            # re-deriving the map from stored profiles reproduces it exactly
            rederived = topic_map_from_profiles(sp.profile_red, sp.profile_green)
            assert np.array_equal(rederived.labels, sp.topic_map.labels)

    def test_deterministic(self):
        g = two_block_topic_graph()
        a = screen_partitions(g, 4, ScreeningThresholds(0.1, 0.5), 300, 12)
        b = screen_partitions(g, 4, ScreeningThresholds(0.1, 0.5), 300, 12)
        assert [sp.draw_index for sp in a.accepted] == [sp.draw_index for sp in b.accepted]
        assert all(np.array_equal(x.partition.red_ids, y.partition.red_ids)
                   for x, y in zip(a.accepted, b.accepted))

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
                                          (1100, 12, 2), (4096, 179, 10)])
    def test_matches_argpartition_on_random_blocks(self, rows, n, m):
        keys = np.random.default_rng(rows).random((rows, n))
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
        keys = np.random.default_rng(0).random((_SCREEN_BLOCK, g.n))
        keys[:len(planted)] = planted
        accepted = _screen_block(g, 2, ScreeningThresholds(-np.inf, -np.inf),
                                 _edge_weights(g, True), _neighbour_lists(g),
                                 PlantedUniforms(keys), 0, len(planted))
        want = argpartition_red_sets(keys[:len(planted)], 2)
        assert [sp.draw_index for sp in accepted] == [0, 1, 2]
        for sp, row in zip(accepted, want):
            assert sp.partition.red_ids.tolist() == row.nonzero()[0].tolist()
        assert accepted[2].partition.red_ids.tolist() == [4, 7]


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


class PlantedUniforms:
    """A stand-in generator whose random(size) returns planted values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert self.values.shape == tuple(np.atleast_1d(size))
        return self.values


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
    d_p, pr, pg = _profile_gap(weights, red_in, green_in)
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
        d_p, pr, pg = _profile_gap(weights, red_in, green_in)
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
        monkeypatch.setattr(importance, "_PROFILE_CELLS", 7 * g.num_edges)
        assert _profile_rows(g.num_edges) == 7
        weights = _edge_weights(g, weighted)
        all_pass = ScreeningThresholds(-np.inf, -np.inf)
        for draws in (6, 7, 8, 13, 14, 15, 20):
            accepted = _screen_block(g, 4, all_pass, weights, _neighbour_lists(g),
                                     generator(draws), 0, draws)
            assert [sp.draw_index for sp in accepted] == list(range(draws))
            for sp in accepted:
                red_in, green_in = _sides(g, sp.partition.red_mask())
                want_d, want_r, want_g = per_draw_profile_gap(weights, red_in, green_in)
                assert sp.delta_p == want_d
                assert sp.profile_red.tobytes() == want_r.tobytes()
                assert sp.profile_green.tobytes() == want_g.tobytes()
                assert sp.topic_map.labels.tolist() == \
                    topic_map_from_profiles(want_r, want_g).labels.tolist()

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

    def test_block_draws_match_per_instance_draws(self, monkeypatch):
        # 3 instance rows per topic-mapping pass, over 7 partitions x 2 replicates
        rng = np.random.default_rng(5)
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.4]
        k = 6
        g = build_topic(20, [(u, v, 1, p) for (u, v), p in
                             zip(pairs, rng.dirichlet(np.full(k, 0.4), len(pairs)))], k)
        monkeypatch.setattr(importance, "_TOPIC_CELLS", 3 * k * g.num_edges)
        block = screen_partitions(g, 5, ScreeningThresholds(-np.inf, -np.inf), 7, 2).accepted
        cum, base = _cumulative_topics(g), child_seed(8)
        attr, identified, tiebreak = _draw_instances(g, block, 3, 2, 2, base, cum)
        for j, sp in enumerate(block):
            for rep in range(2):
                i = j * 2 + rep
                edge_seed, ident_seed, tie_seed = (child_seed(base, 3 + j, rep, k)
                                                   for k in range(3))
                topics = per_instance_draw_topics(cum, generator(edge_seed))
                assert attr[i].tolist() == sp.topic_map.labels[topics].tolist()
                picked = generator(ident_seed).choice(sp.partition.red_ids, size=2,
                                                      replace=False)
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

    def test_bounded_by_side_density(self):
        from vnom import induced_subgraph, relative_density
        params = KidneyEggParams(40, 12, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
        for seed in range(4):
            g = sample_kidney_egg(params, seed)
            part = Partition(g.n, g.red_set())
            est = estimate_rates(g, part)
            assert est.p1 + est.p2 <= relative_density(
                induced_subgraph(g, part.green_ids())) + 1e-12
            assert est.s1 + est.s2 <= relative_density(
                induced_subgraph(g, part.red_ids)) + 1e-12

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
        sp = self.trivial_screen(g, 4, attempts=1).accepted[0]
        trials = run_importance_trials(g, [sp], 2, [0.0], 1, 123)
        assert len(trials.partitions) == 1
        pt = trials.partitions[0]

        # replay by hand with the same derived seeds and public operations
        edge_seed, ident_seed, tie_seed = child_seed(
            child_seed(123), 0, 0).spawn(3)
        ag = instantiate_edges(g, sp.topic_map, sp.partition, edge_seed)
        rng = np.random.default_rng(ident_seed)
        identified = np.sort(rng.choice(sp.partition.red_ids, size=2, replace=False))
        observed = np.zeros(g.n, dtype=np.int8)
        observed[identified] = 1
        from vnom import AttributedGraph
        ag2 = AttributedGraph(g.n, ag.edge_u, ag.edge_v, ag.edge_attr,
                              ag.truth, observed)
        ranking = rank_candidates(ag2, 0.0, tie_seed)
        truth = ag2.red_candidates()
        report = evaluate_ranking(ranking, truth)
        assert pt.table.value("s_at_1", 0.0) == report.s_at_1
        assert pt.table.value("mrr", 0.0) == report.rr
        assert pt.table.value("map", 0.0) == report.ap

        est = estimate_rates(ag2, sp.partition)
        assert pt.rates == est

    def test_bins_and_insufficient_flag(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=25)
        trials = run_importance_trials(g, res.accepted, 1, [0.0, 0.5, 1.0], 2, 5)
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
        trials = run_importance_trials(g, res.accepted, 1, [0.0, 1.0], 1, 5)
        assert all(b.fusion_advantage_mrr is None for b in trials.bins.values())

    def test_worker_determinism(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=40)
        a = run_importance_trials(g, res.accepted, 2, [0.0, 0.5, 1.0], 3, 9, n_workers=1)
        b = run_importance_trials(g, res.accepted, 2, [0.0, 0.5, 1.0], 3, 9, n_workers=4)
        assert a == b

    def test_several_trial_blocks_are_worker_independent(self):
        # 150 partitions span three trial blocks, split over two workers
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=150)
        a = run_importance_trials(g, res.accepted, 2, [0.0, 0.5, 1.0], 2, 9, n_workers=1)
        b = run_importance_trials(g, res.accepted, 2, [0.0, 0.5, 1.0], 2, 9, n_workers=2)
        assert len(a.partitions) == 150
        assert a == b

    def test_mixed_red_set_sizes_in_one_block(self):
        # partitions of 3 and 4 red vertices share a trial block; each keeps the
        # results it gets among partitions of its own size at the same ordinal
        g = two_block_topic_graph()
        fours = self.trivial_screen(g, 4, attempts=3).accepted
        threes = self.trivial_screen(g, 3, attempts=3, seed=1).accepted
        for head, tail in ((fours, threes), (threes, fours)):
            mixed = run_importance_trials(g, head + tail, 2, [0.0, 0.5, 1.0], 2, 9)
            alone = run_importance_trials(g, head, 2, [0.0, 0.5, 1.0], 2, 9)
            assert mixed.partitions[:3] == alone.partitions

    def test_zero_workers_rejected(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=3)
        with pytest.raises(InputError):
            run_importance_trials(g, res.accepted, 2, [0.5], 1, 0, n_workers=0)

    @pytest.mark.parametrize("width", [np.nan, np.inf, 0.0, -0.1, 1e-320])  # 2/1e-320 is inf
    def test_bad_bin_width_rejected(self, width):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=3)
        with pytest.raises(InputError):
            run_importance_trials(g, res.accepted, 2, [0.5], 1, 0, bin_width=width)

    def test_m_prime_validation(self):
        g = two_block_topic_graph()
        res = self.trivial_screen(g, 4, attempts=3)
        with pytest.raises(InputError):
            run_importance_trials(g, res.accepted, 4, [0.5], 1, 0)
        with pytest.raises(InputError):
            run_importance_trials(g, [], 2, [0.5], 1, 0)


class TestCheckTrialArguments:
    def test_returns_float_grid(self):
        assert check_trial_arguments(10, 5, [0, 1], 3, 0.1) == (0.0, 1.0)

    @pytest.mark.parametrize("m,m_prime,grid,replicates,width", [
        (10, 10, (0.5,), 1, 0.1), (10, 0, (0.5,), 1, 0.1), (10, 5, (0.5,), 0, 0.1),
        (10, 5, (0.5,), 1, 0.0), (10, 5, (0.5,), 1, np.nan), (10, 5, (1.5,), 1, 0.1),
        (10, 5, (0.5, 0.5), 1, 0.1), (10, 5, (), 1, 0.1)])
    def test_rejects(self, m, m_prime, grid, replicates, width):
        with pytest.raises(InputError):
            check_trial_arguments(m, m_prime, grid, replicates, width)

    @pytest.mark.parametrize("grid", [(), (0.0, 1.5), (np.nan,), (0.5, 0.5)])
    def test_trials_reject_bad_gamma_grid(self, grid):
        g = two_block_topic_graph()
        res = screen_partitions(g, 4, ScreeningThresholds(-np.inf, -np.inf), 3, 0)
        with pytest.raises(InputError):
            run_importance_trials(g, res.accepted, 2, grid, 1, 0)


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
