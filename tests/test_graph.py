"""Graph data model: induced subgraphs, relative density, candidate sets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom import (AttributedGraph, InputError, Partition, TopicGraph, UndefinedDensityError,
                  candidate_set, induced_subgraph, relative_density)
from vnom.graph import MAX_VERTICES

from conftest import build_attributed, build_topic, point_mass


class TestAttributedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            build_attributed(3, [(0, 0, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            build_attributed(3, [(0, 1, 1), (1, 0, 2)])

    def test_rejects_identified_green(self):
        with pytest.raises(InputError):
            AttributedGraph.from_edges(2, [], truth=[2, 2], observed=[1, 0])

    def test_rejects_attr_out_of_range(self):
        with pytest.raises(InputError):
            build_attributed(3, [(0, 1, 3)], k_edge_attrs=2)

    def test_edges_canonicalized(self):
        g = build_attributed(4, [(2, 1, 1), (0, 3, 2)])
        assert list(g.edge_u) == [0, 1]
        assert list(g.edge_v) == [3, 2]

    def test_neighbors_sorted(self):
        g = build_attributed(5, [(3, 0, 1), (1, 0, 2), (0, 4, 1)])
        assert list(g.neighbors(0)) == [1, 3, 4]
        assert g.degree(0) == 3
        assert g.degree(2) == 0


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 2**62])
def test_constructors_reject_more_than_max_vertices(n):
    # checked before any (n)-sized array is built or compared
    with pytest.raises(InputError, match="vertices"):
        AttributedGraph(n, [], [], [], truth=[], observed=[])
    with pytest.raises(InputError, match="vertices"):
        TopicGraph(n, [], [], np.zeros((0, 2)), [])


class TestTopicGraph:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_rejects_non_finite_probability(self, k, data):
        probs = np.full(k, 1.0 / k)
        probs[data.draw(st.integers(0, k - 1))] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        with pytest.raises(InputError, match="finite"):
            build_topic(3, [(0, 1, 1, point_mass(0, k)), (1, 2, 2, probs)], k)


class TestInducedSubgraph:
    def test_full_vertex_set_is_identity(self):
        g = build_attributed(5, [(0, 1, 1), (1, 2, 2), (3, 4, 1)], red={0}, identified={0})
        assert induced_subgraph(g, range(5)) == g

    def test_single_vertex_has_no_edges(self):
        g = build_attributed(5, [(0, 1, 1), (1, 2, 2)])
        sub = induced_subgraph(g, [1])
        assert sub.n == 1 and sub.num_edges == 0

    def test_path_graph_prefix(self):
        # path a-b-c-d-e as 0-1-2-3-4; keeping {0,1,2} leaves edges {01, 12}
        g = build_attributed(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.num_edges == 2
        assert list(zip(sub.edge_u, sub.edge_v)) == [(0, 1), (1, 2)]

    def test_unknown_vertex_rejected(self):
        g = build_attributed(3, [(0, 1, 1)])
        with pytest.raises(InputError):
            induced_subgraph(g, [0, 7])

    def test_topic_graph_attributes_preserved(self):
        g = build_topic(4, [(0, 1, 3, point_mass(0, 2)), (1, 2, 1, point_mass(1, 2))], 2)
        sub = induced_subgraph(g, [1, 2])
        assert sub.num_edges == 1
        assert sub.message_count[0] == 1
        assert np.array_equal(sub.topic_probs[0], point_mass(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_edge_count_matches_brute_force(self, data):
        n = data.draw(st.integers(3, 12))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        g = build_attributed(n, [(u, v, 1) for u, v in chosen])
        vs = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
        sub = induced_subgraph(g, vs)
        keep = set(vs)
        expected = sum(1 for u, v in chosen if u in keep and v in keep)
        assert sub.num_edges == expected


class TestRelativeDensity:
    def test_complete_graph(self):
        edges = [(u, v, 1) for u, v in itertools.combinations(range(4), 2)]
        assert relative_density(build_attributed(4, edges)) == 1.0

    def test_empty_graph(self):
        assert relative_density(build_attributed(10, [])) == 0.0

    def test_corpus_scale_density(self):
        # 184 vertices, 841 edges: 841 / C(184,2) = 841/16836
        edges = [(u, v, 1) for u, v in itertools.islice(
            itertools.combinations(range(184), 2), 841)]
        g = build_attributed(184, edges)
        assert relative_density(g) == pytest.approx(841 / 16836)
        assert relative_density(g) == pytest.approx(0.04996, abs=5e-5)

    def test_single_vertex_undefined(self):
        with pytest.raises(UndefinedDensityError):
            relative_density(build_attributed(1, []))

    def test_invariant_under_relabeling(self):
        edges = [(0, 1, 1), (1, 2, 1), (0, 3, 1)]
        g = build_attributed(5, edges)
        relabel = {0: 4, 1: 2, 2: 0, 3: 1, 4: 3}
        g2 = build_attributed(5, [(relabel[u], relabel[v], a) for u, v, a in edges])
        assert relative_density(g) == relative_density(g2)


class TestCandidateSet:
    def test_counts(self):
        g = build_attributed(5, [], red={0, 1}, identified={0})
        assert list(candidate_set(g)) == [1, 2, 3, 4]

    def test_no_occluded_vertices(self):
        g = build_attributed(3, [], red={0, 1, 2}, identified={0, 1, 2})
        assert candidate_set(g).size == 0

    def test_disjoint_union_with_identified(self):
        g = build_attributed(8, [], red={0, 1, 2, 3}, identified={1, 3})
        cand = set(candidate_set(g))
        ident = set(g.identified_set())
        assert cand | ident == set(range(8))
        assert cand & ident == set()


class TestPartition:
    def test_green_is_complement(self):
        part = Partition(6, np.array([1, 4]))
        assert list(part.green_ids()) == [0, 2, 3, 5]
        assert part.num_red == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Partition(3, np.array([5]))
