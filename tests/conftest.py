import numpy as np
import pytest

from vnom import AttributedGraph, TopicGraph
from vnom.nomination import fused_order, prepare_ranking, tiebreak_order


def build_attributed(n, edges, red=(), identified=(), k_edge_attrs=2):
    """Attributed graph from (u, v, attr) triples and red/identified id sets."""
    truth = [1 if v in set(red) else 2 for v in range(n)]
    observed = [1 if v in set(identified) else 0 for v in range(n)]
    eu, ev, attr = np.asarray(edges, dtype=np.int64).reshape(-1, 3).T
    return AttributedGraph(n, eu, ev, attr, truth, observed, k_edge_attrs)


def build_topic(n, edges, k_topics):
    """Topic graph from (u, v, count, probs) tuples."""
    eu, ev, counts = ([e[i] for e in edges] for i in range(3))
    probs = (np.asarray([e[3] for e in edges], dtype=np.float64) if edges
             else np.zeros((0, k_topics)))
    return TopicGraph(n, eu, ev, probs, counts)


def order_with_tiebreak(t0, t1, gamma, tiebreak):
    """fused_order with exact ties broken by ascending ``tiebreak`` keys, then
    by position: the candidates go into tie-break order first, their scores
    into one stack, and the stable fused order is mapped back to input
    positions (row by row for stacks)."""
    first = tiebreak_order(tiebreak)
    t0, t1 = (np.take_along_axis(np.asarray(t), first, axis=-1) for t in (t0, t1))
    return np.take_along_axis(first, fused_order(prepare_ranking(t0, t1), gamma), axis=-1)


def point_mass(topic, k):
    probs = np.zeros(k)
    probs[topic] = 1.0
    return probs


@pytest.fixture
def star_graph():
    """Six vertices: center 0 adjacent to 1..5; 1,2,3 identified red, 4 red."""
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 2), (0, 4, 1), (0, 5, 2)]
    return build_attributed(6, edges, red={0, 1, 2, 3}, identified={1, 2, 3})
