"""Graph data model: validation, incident-edge accessors, candidate sets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom import AttributedGraph, InputError, Partition, TopicGraph, candidate_set
from vnom.graph import MAX_TOPICS, MAX_VERTICES, RED

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
            AttributedGraph(2, [], [], [], truth=[2, 2], observed=[1, 0])

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
        assert len(g.neighbors(0)) == 3
        assert len(g.neighbors(2)) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_accessors_match_edge_list_scan(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        pairs = list(itertools.combinations(range(n), 2))
        # edges in any order, endpoints either way round; isolated vertices stay likely
        drawn = data.draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans(),
                                             st.integers(1, 3)),
                                   unique_by=lambda e: e[0], max_size=len(pairs))
                          if pairs else st.just([]))
        edges = [(v, u, a) if flip else (u, v, a) for (u, v), flip, a in drawn]
        g = build_attributed(n, edges, k_edge_attrs=3)
        for v in range(n):
            incident = sorted((u if w == v else w, a) for u, w, a in edges if v in (u, w))
            assert g.neighbors(v).tolist() == [x for x, _ in incident]
            assert g.incident_attrs(v).tolist() == [a for _, a in incident]
        for v in (-1, n, n + 5):
            with pytest.raises(InputError, match="unknown vertex"):
                g.neighbors(v)
            with pytest.raises(InputError, match="unknown vertex"):
                g.incident_attrs(v)


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 2**62])
def test_constructors_reject_more_than_max_vertices(n):
    # checked before any (n)-sized array is built or compared
    with pytest.raises(InputError, match="vertices"):
        AttributedGraph(n, [], [], [], truth=[], observed=[])
    with pytest.raises(InputError, match="vertices"):
        TopicGraph(n, [], [], np.zeros((0, 2)), [])


@pytest.mark.parametrize("k", [MAX_TOPICS + 1, 2**40])
def test_topic_graph_rejects_more_than_max_topics(k):
    assert TopicGraph(3, [], [], np.zeros((0, MAX_TOPICS)), []).k_topics == MAX_TOPICS
    with pytest.raises(InputError, match="topics"):
        TopicGraph(3, [], [], np.zeros((0, k)), [])


class TestTopicGraph:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_rejects_non_finite_probability(self, k, data):
        probs = np.full(k, 1.0 / k)
        probs[data.draw(st.integers(0, k - 1))] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        with pytest.raises(InputError, match="finite"):
            build_topic(3, [(0, 1, 1, point_mass(0, k)), (1, 2, 2, probs)], k)

    @pytest.mark.parametrize("name", ["", " a", "a ", "\ta", "a\nb", "a\rb", "\n", 7, None])
    def test_rejects_name_the_file_format_cannot_carry(self, name):
        # write_topic_graph puts each name on a '#vertex <id> <name>' line,
        # and read_topic_graph strips the line and splits off the id
        with pytest.raises(InputError, match="vertex 1 name"):
            TopicGraph(3, [0], [1], [point_mass(0, 2)], [1], ["a", name, "c d"])


ATTRIBUTED = build_attributed(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)], red={0, 1}, identified={0})
TOPIC = TopicGraph(3, [0, 1], [1, 2], [point_mass(0, 2), [0.5, 0.5]], [1, 2], ["a", "b", "c"])


def with_slots(g, **values):
    """A copy of ``g`` with the given slots replaced, built past validation."""
    twin = type(g).__new__(type(g))
    for slot in type(g).__slots__:
        setattr(twin, slot, values.get(slot, getattr(g, slot)))
    return twin


def changed(value):
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[0] += 1
        return value
    if isinstance(value, tuple):
        return ("z", *value[1:])
    return value + 1


SLOT_CASES = [(g, slot) for g in (ATTRIBUTED, TOPIC) for slot in type(g).__slots__]


class TestGraphEquality:
    @pytest.mark.parametrize("g, slot", SLOT_CASES,
                             ids=[f"{type(g).__name__}.{slot}" for g, slot in SLOT_CASES])
    def test_a_copy_differing_in_one_slot_is_unequal(self, g, slot):
        assert with_slots(g) == g
        other = with_slots(g, **{slot: changed(getattr(g, slot))})
        assert other != g and g != other

    def test_graph_kinds_never_compare_equal(self):
        assert (ATTRIBUTED == TOPIC) is False and (TOPIC == ATTRIBUTED) is False
        assert ATTRIBUTED != TOPIC
        assert ATTRIBUTED != "graph"


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
        ident = set(np.flatnonzero(g.observed == RED))
        assert cand | ident == set(range(8))
        assert cand & ident == set()


class TestPartition:
    def test_green_is_complement(self):
        part = Partition(6, np.array([1, 4]))
        assert np.flatnonzero(~part.red_mask()).tolist() == [0, 2, 3, 5]
        assert part.num_red == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Partition(3, np.array([5]))
