"""Importance kernels against pure-Python oracles.

The public gap, profile and rate functions share their kernels with the
batched screening and trial loops, so neither can serve as the other's
reference.  The oracles here loop over the stored edge arrays one edge at a
time and use only the definitions: density gap over within-side pairs,
(message-weighted) mean topic distribution per side, L1 profile gap, and
attributed edges per within-side pair.  Only public ``vnom`` names are used,
apart from the cell bound of screening's kernel calls (and the rows per call
it gives), which one test lowers so that a block's rows span several calls.
"""

from math import comb, fsum

import numpy as np
import pytest

from vnom import importance
from vnom import (EmptyProfileError, Partition, ScreeningThresholds, TopicMap, delta_p,
                  delta_rho, estimate_rates, generate_surrogate, instantiate_edges,
                  screen_partitions)

from conftest import build_topic, point_mass

TOL = 1e-12


def edges_of(g):
    return list(zip(g.edge_u.tolist(), g.edge_v.tolist()))


def oracle_delta_rho(g, red):
    red = set(red)
    inside_red = inside_green = 0
    for u, v in edges_of(g):
        if u in red and v in red:
            inside_red += 1
        elif u not in red and v not in red:
            inside_green += 1
    return inside_red / comb(len(red), 2) - inside_green / comb(g.n - len(red), 2)


def oracle_profile(g, side, weighted):
    """Topic distribution of the edges inside ``side``; None if there are none."""
    totals = [[] for _ in range(g.k_topics)]
    for e, (u, v) in enumerate(edges_of(g)):
        if u in side and v in side:
            weight = int(g.message_count[e]) if weighted else 1
            for t in range(g.k_topics):
                totals[t].append(weight * float(g.topic_probs[e, t]))
    sums = [fsum(column) for column in totals]
    mass = fsum(sums)
    return [s / mass for s in sums] if mass > 0 else None


def oracle_delta_p(g, red, weighted):
    """L1 gap; 0 when a side has no edges (screening's convention)."""
    red = set(red)
    pr = oracle_profile(g, red, weighted)
    pg = oracle_profile(g, set(range(g.n)) - red, weighted)
    if pr is None or pg is None:
        return 0.0
    return fsum(abs(a - b) for a, b in zip(pr, pg))


def oracle_rates(g, red):
    """(p1, p2, s1, s2) from an attributed graph's edge list."""
    red = set(red)
    counts = {"p1": 0, "p2": 0, "s1": 0, "s2": 0}
    for (u, v), attr in zip(edges_of(g), g.edge_attr.tolist()):
        side = "s" if u in red and v in red else "p" if u not in red and v not in red else None
        if side is not None:
            counts[f"{side}{attr}"] += 1
    pairs_red, pairs_green = comb(len(red), 2), comb(g.n - len(red), 2)
    return (counts["p1"] / pairs_green, counts["p2"] / pairs_green,
            counts["s1"] / pairs_red, counts["s2"] / pairs_red)


def check_public_gaps(g, red, weighted):
    """delta_rho and delta_p against the oracles; delta_p raises on an edgeless side."""
    part = Partition(g.n, np.array(red))
    assert abs(delta_rho(g, part) - oracle_delta_rho(g, red)) <= TOL
    sides = (set(red), set(range(g.n)) - set(red))
    if any(oracle_profile(g, side, weighted) is None for side in sides):
        with pytest.raises(EmptyProfileError):
            delta_p(g, part, weighted=weighted)
    else:
        assert abs(delta_p(g, part, weighted=weighted)
                   - oracle_delta_p(g, red, weighted)) <= TOL


def hand_graph():
    """7 vertices, 3 topics, unequal message counts, one isolated vertex (6)."""
    probs = [np.array([0.5, 0.25, 0.25]), point_mass(0, 3), np.array([0.1, 0.2, 0.7]),
             point_mass(2, 3), np.array([0.3, 0.3, 0.4]), np.array([0.0, 0.6, 0.4])]
    pairs = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (2, 3)]
    counts = [1, 3, 2, 1, 4, 2]
    return build_topic(7, [(u, v, c, p) for (u, v), c, p in zip(pairs, counts, probs)], 3)


def small_surrogate(seed):
    return generate_surrogate(60, 8, 0.08, group_size=15, seed=seed)


def random_red_sets(n, m, count, seed):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(n, size=m, replace=False)) for _ in range(count)]


class TestPublicKernels:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_hand_graph(self, weighted):
        g = hand_graph()
        for red in ([0, 1, 2], [0, 1, 2, 6], [3, 4, 5], [2, 3, 4, 5], [0, 1, 3, 4], [0, 3, 6]):
            check_public_gaps(g, red, weighted)

    def test_hand_values(self):
        # red {0,1,2}: 3 of 3 pairs; green {3,4,5,6}: 2 of 6 pairs
        g = hand_graph()
        assert oracle_delta_rho(g, [0, 1, 2]) == pytest.approx(1 - 2 / 6)
        assert delta_rho(g, Partition(7, np.array([0, 1, 2]))) == pytest.approx(1 - 2 / 6)

    def test_edgeless_sides(self):
        g = hand_graph()
        for red in ([0, 3, 6], [0, 1, 3, 4]):  # no edge inside the red / green side
            assert oracle_delta_p(g, red, True) == 0.0
            with pytest.raises(EmptyProfileError):
                delta_p(g, Partition(7, np.array(red)))

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_surrogate(self, seed, weighted):
        g = small_surrogate(seed)
        for red in random_red_sets(g.n, 12, 15, seed):
            check_public_gaps(g, red.tolist(), weighted)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_rates_on_instantiated_graphs(self, seed):
        g = small_surrogate(seed)
        tmap = TopicMap(np.array([1, 2] * (g.k_topics // 2)))
        for i, red in enumerate(random_red_sets(g.n, 12, 10, seed)):
            part = Partition(g.n, red)
            ag = instantiate_edges(g, tmap, part, 100 * seed + i)
            est = estimate_rates(ag, part)
            expected = oracle_rates(ag, red.tolist())
            got = (est.p1, est.p2, est.s1, est.s2)
            assert all(abs(a - b) <= TOL for a, b in zip(got, expected))


class TestScreenedGaps:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_every_draw_of_the_hand_graph(self, weighted):
        # open thresholds keep every draw, including those with an edgeless side
        g = hand_graph()
        res = screen_partitions(g, 3, ScreeningThresholds(-np.inf, -np.inf), 200, 5,
                                weighted=weighted)
        assert res.n_accepted == 200
        assert (res.delta_p == 0.0).any()
        for ids, d_rho, d_p in zip(res.red_ids, res.delta_rho, res.delta_p):
            red = ids.tolist()
            assert abs(d_rho - oracle_delta_rho(g, red)) <= TOL
            assert abs(d_p - oracle_delta_p(g, red, weighted)) <= TOL

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_accepted_surrogate_partitions(self, seed, weighted):
        g = small_surrogate(seed)
        thresholds = ScreeningThresholds(0.02, 0.3)
        res = screen_partitions(g, 12, thresholds, 5000, seed, weighted=weighted)
        assert res.n_accepted > 0
        for ids, d_rho, d_p in zip(res.red_ids, res.delta_rho, res.delta_p):
            red = ids.tolist()
            assert abs(d_rho - oracle_delta_rho(g, red)) <= TOL
            assert abs(d_p - oracle_delta_p(g, red, weighted)) <= TOL
            assert d_rho > thresholds.tau_rho and d_p > thresholds.tau_p


def edgeless_graph(n=8):
    return build_topic(n, [], 3)


def complete_graph(n=7):
    return build_topic(n, [(u, v, 1 + (u + v) % 3, point_mass((u * v) % 3, 3))
                           for u in range(n) for v in range(u + 1, n)], 3)


def star_graph(n=9):
    return build_topic(n, [(0, v, v, point_mass(v % 3, 3)) for v in range(1, n)], 3)


class TestExactScreenedDensity:
    # open bars accept every draw, so every screened delta_rho is checked, with ==
    @pytest.mark.parametrize("graph", [edgeless_graph, complete_graph, star_graph,
                                       lambda: small_surrogate(3), lambda: small_surrogate(8)],
                             ids=["edgeless", "complete", "star", "surrogate3", "surrogate8"])
    @pytest.mark.parametrize("small", [True, False], ids=["m=2", "m=n-2"])
    def test_every_draw_equals_per_edge_count(self, graph, small):
        g = graph()
        m = 2 if small else g.n - 2
        res = screen_partitions(g, m, ScreeningThresholds(-np.inf, -np.inf), 300, 17)
        assert res.n_accepted == 300
        for ids, d_rho in zip(res.red_ids, res.delta_rho):
            red = ids.tolist()
            assert d_rho == oracle_delta_rho(g, red)
            assert delta_rho(g, Partition(g.n, ids)) == d_rho

def hub_graph():
    """12 vertices: hub 0 joined to 1..9, a few edges among its leaves, one
    vertex (10) joined to two leaves only and one (11) isolated."""
    pairs = ([(0, v) for v in range(1, 10)]
             + [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (8, 9), (4, 10), (9, 10)])
    return build_topic(12, [(u, v, 1 + (u + v) % 4, point_mass((u + 2 * v) % 3, 3))
                            for u, v in pairs], 3)


def check_screened_density(g, m, draws, seed):
    res = screen_partitions(g, m, ScreeningThresholds(-np.inf, -np.inf), draws, seed)
    assert res.n_accepted == draws
    for ids, d_rho in zip(res.red_ids, res.delta_rho):
        red = ids.tolist()
        assert d_rho == oracle_delta_rho(g, red), (m, red)
        assert delta_rho(g, Partition(g.n, ids)) == d_rho, (m, red)
    return res


class TestScreenedDensityOnAnIrregularGraph:
    @pytest.mark.parametrize("m", range(2, 11))
    def test_every_red_set_size(self, m):
        g = hub_graph()
        res = check_screened_density(g, m, 200, m)
        # the draws reach both extremes: red sets with the hub and with the isolated vertex
        reds = [set(ids.tolist()) for ids in res.red_ids]
        assert any(0 in red for red in reds) and any(11 in red for red in reds)

    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_rows_spanning_several_kernel_calls(self, monkeypatch, m):
        # 3 red-pair rows per call: 20 draws end calls at 3, 6, ..., 18
        monkeypatch.setattr(importance, "_ROW_CELLS", 3 * comb(m, 2))
        assert importance._chunk_rows(comb(m, 2)) == 3
        check_screened_density(hub_graph(), m, 20, 100 + m)
