"""Graph data model: validation, incident-edge accessors, candidate sets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom import (AttributedGraph, InputError, Partition, RecordError, TopicGraph,
                  candidate_set)
from vnom.graph import GREEN, MAX_TOPICS, MAX_VERTICES, OCCLUDED, RED

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
        # labels are checked as given, before they are narrowed to int8: 257
        # would wrap to RED, and a list of them would overflow int8
        for truth, observed in [(np.array([257, 2]), np.array([0, 0])),
                                (np.array([1, 2]), np.array([257, 0])),
                                ([257, 2], [0, 0]), ([1, 2], [257, 0]),
                                (np.array([1, 2**63 - 1]), np.array([0, 0]))]:
            with pytest.raises(RecordError) as err:
                AttributedGraph(2, [0], [1], [1], truth, observed)
            assert (err.value.kind, err.value.index) == ("vertex", 0 if 257 in truth
                                                         or 257 in observed else 1)

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


# Each validity rule, broken by two records: the error names the first in
# input order, an edge by its position (a repeated pair at its later
# occurrence) and a vertex by its id.  Edges are given in descending pair
# order, so canonical and input positions differ.
EDGES = [(3, 4), (2, 3), (1, 2), (0, 1)]


def attributed(edges=EDGES, attrs=(1, 1, 1, 1), truth=(RED,) * 5, observed=(OCCLUDED,) * 5):
    eu, ev = zip(*edges)
    return AttributedGraph(5, eu, ev, list(attrs), list(truth), list(observed))


def topic(edges=EDGES, counts=(1, 1, 1, 1), probs=((0.5, 0.5),) * 4):
    eu, ev = zip(*edges)
    return TopicGraph(5, eu, ev, np.array(probs, dtype=float), list(counts))


NAN, INF = float("nan"), float("inf")
RULES = {
    "endpoint-high": (lambda: attributed([(3, 4), (2, 5), (1, 2), (9, 0)]), "edge", 1,
                      "unknown vertex id in edge (2, 5)"),
    "endpoint-negative": (lambda: topic([(3, 4), (2, 3), (-1, 2), (0, -4)]), "edge", 2,
                          "unknown vertex id in edge (-1, 2)"),
    "self-loop": (lambda: attributed([(3, 4), (2, 2), (1, 2), (0, 0)]), "edge", 1, "self-loop"),
    "self-loop-topic": (lambda: topic([(3, 4), (2, 3), (1, 1), (0, 0)]), "edge", 2, "self-loop"),
    # (0, 1) sorts first, but its repeat (3) comes after (3, 4)'s (2)
    "repeated-pair": (lambda: attributed([(3, 4), (0, 1), (4, 3), (1, 0)]), "edge", 2,
                      "duplicate edge (3, 4)"),
    "repeated-pair-topic": (lambda: topic([(1, 0), (2, 3), (0, 1), (1, 0)]), "edge", 2,
                            "duplicate edge (0, 1)"),
    "message-count": (lambda: topic(counts=(1, 0, -3, 2)), "edge", 1,
                      "message count must be >= 1"),
    "finite": (lambda: topic(probs=((0.5, 0.5), (0.5, 0.5), (NAN, 1), (0, INF))), "edge", 2,
               "non-finite topic probability"),
    "non-negative": (lambda: topic(probs=((0.5, 0.5), (-0.5, 1.5), (1, 0), (2, -1))), "edge", 1,
                     "negative topic probability"),
    "sums-to-one": (lambda: topic(probs=((0.5, 0.5), (1, 0), (0.5, 0.25), (0.5, 0.75))),
                    "edge", 2, "topic distribution sums to 0.75, expected 1"),
    "attribute": (lambda: attributed(attrs=(1, 2, 3, 0)), "edge", 2,
                  "edge attribute must lie in 1..2"),
    "truth-label": (lambda: attributed(truth=(RED, GREEN, 0, RED, 3)), "vertex", 2,
                    "truth label must be RED or GREEN"),
    "observed-label": (lambda: attributed(observed=(OCCLUDED, RED, OCCLUDED, GREEN, GREEN)),
                       "vertex", 3, "observed label must be RED or OCCLUDED"),
    "identified-red": (lambda: attributed(truth=(RED, GREEN, RED, GREEN, RED),
                                          observed=(RED, OCCLUDED, RED, RED, RED)),
                       "vertex", 3, "an identified vertex must be truly red"),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_a_broken_rule_names_its_first_record(rule):
    build, kind, index, reason = RULES[rule]
    with pytest.raises(RecordError) as err:
        build()
    assert (err.value.kind, err.value.index, err.value.reason) == (kind, index, reason)
    assert str(err.value) == f"{kind} {index}: {reason}"


def test_every_repeated_pair_counts_at_its_later_occurrence():
    # 100 pairs, then the same pairs reversed: the first repeat is edge 100,
    # whatever order the sort leaves each pair's two occurrences in
    pairs = list(itertools.combinations(range(30), 2))[::4][:100]
    eu, ev = zip(*(pairs + pairs[::-1]))
    with pytest.raises(RecordError, match="^edge 100: duplicate edge"):
        TopicGraph(30, eu, ev, np.full((200, 2), 0.5), np.ones(200))


def test_trusted_path_names_edges_in_canonical_order():
    with pytest.raises(RecordError, match="edge 2: edge attribute must lie in 1..2"):
        AttributedGraph._from_canonical(4, np.array([0, 0, 1]), np.array([1, 2, 3]),
                                        np.array([1, 2, 5]), np.full(4, GREEN, np.int8),
                                        np.zeros(4, np.int8))


@pytest.mark.parametrize("n_edges", [0, 1, 2, 50])
def test_one_pair_key_sorts_as_the_two_key_sort(n_edges):
    rng = np.random.default_rng(n_edges)
    pairs = np.array(list(itertools.combinations(range(12), 2)))
    pairs = pairs[rng.permutation(len(pairs))[:n_edges]]
    flip = rng.random(n_edges) < 0.5
    eu, ev = np.where(flip, pairs[:, 1], pairs[:, 0]), np.where(flip, pairs[:, 0], pairs[:, 1])
    g = AttributedGraph(12, eu, ev, np.arange(n_edges) % 2 + 1, np.full(12, GREEN),
                        np.zeros(12))
    order = np.lexsort((pairs.max(axis=1), pairs.min(axis=1)))
    assert g.edge_u.tolist() == pairs.min(axis=1)[order].tolist()
    assert g.edge_v.tolist() == pairs.max(axis=1)[order].tolist()
    assert g.edge_attr.tolist() == (np.arange(n_edges) % 2 + 1)[order].tolist()


ATTRIBUTED = build_attributed(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)], red={0, 1}, identified={0})
TOPIC = TopicGraph(3, [0, 1], [1, 2], [point_mass(0, 2), [0.5, 0.5]], [1, 2], ["a", "b", "c"])


def with_slots(g, **values):
    """A copy of ``g`` with the given slots replaced, built past validation."""
    twin = type(g).__new__(type(g))
    for slot in type(g).__slots__:
        object.__setattr__(twin, slot, values.get(slot, getattr(g, slot)))
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
