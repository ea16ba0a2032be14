from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from vnom import AttributedGraph, TopicGraph, gamma_surface
from vnom.experiments import _best_gamma
from vnom.graph import RED
from vnom.nomination import fused_order, prepare_ranking, tiebreak_order
from vnom.seeding import generator


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


def exact_weight(gamma):
    """gamma as the small rational the float stands for (denominator at most
    10**6), or else as its exact binary value."""
    frac = Fraction(gamma).limit_denominator(10 ** 6)
    return frac if float(frac) == gamma else Fraction(gamma)


def exact_fused(t0, t1, gamma):
    w = exact_weight(gamma)
    return [(1 - w) * a + w * b for a, b in zip(t0, t1)]


def oracle_order(t0, t1, gamma, tiebreak):
    """Candidate positions by (-exact fused score, tie-break key, position)."""
    fused = exact_fused(t0, t1, gamma)
    return sorted(range(len(fused)), key=lambda i: (-fused[i], tiebreak[i], i))


def graph_statistics(g):
    """(candidate ids, context scores, content scores) as lists, counted from
    the edge list alone: candidates are the vertices not observed red."""
    identified = {v for v in range(g.n) if g.observed[v] == RED}
    context, content = Counter(), Counter()
    for u, v, attr in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_attr.tolist()):
        for a, b in ((u, v), (v, u)):
            context[a] += b in identified
            content[a] += attr == RED
    cand = [v for v in range(g.n) if v not in identified]
    return cand, [context[v] for v in cand], [content[v] for v in cand]


def oracle_ranking(g, gamma, tie_seed):
    """(candidate ids, exact fused scores), ranked by :func:`oracle_order` with
    the tie-break keys ``generator(tie_seed).permutation(candidates)``, the
    draw every ranking loop makes."""
    cand, t0, t1 = graph_statistics(g)
    tiebreak = generator(tie_seed).permutation(len(cand)).tolist()
    fused = exact_fused(t0, t1, gamma)
    order = oracle_order(t0, t1, gamma, tiebreak)
    return [cand[i] for i in order], [fused[i] for i in order]


def oracle_red_mask(g, gamma, tie_seed):
    """The rank-ordered red mask of :func:`oracle_ranking`."""
    ordered, _ = oracle_ranking(g, gamma, tie_seed)
    return g.truth[ordered] == RED


def best_grid_gamma(params, grid, criterion="map", *, replicates, seed):
    """The grid point of largest :func:`vnom.gamma_surface` mean of
    ``criterion``, ties toward the smallest gamma, as sweep cells pick it."""
    table = gamma_surface(params, grid, 1, replicates, seed)
    return _best_gamma(table.gammas, table.column(criterion))


def point_mass(topic, k):
    probs = np.zeros(k)
    probs[topic] = 1.0
    return probs


@pytest.fixture
def star_graph():
    """Six vertices: center 0 adjacent to 1..5; 1,2,3 identified red, 4 red."""
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 2), (0, 4, 1), (0, 5, 2)]
    return build_attributed(6, edges, red={0, 1, 2, 3}, identified={1, 2, 3})
