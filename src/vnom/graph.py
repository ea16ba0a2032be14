"""Attributed-graph data model.

Two graph kinds share one edge layout: flat endpoint arrays with ``u < v``,
sorted lexicographically, which each constructor builds from edge columns
(endpoints and payload arrays) given in any order.

* :class:`AttributedGraph` — undirected simple graph whose edges carry a
  categorical attribute in ``{1..k_edge_attrs}`` and whose vertices carry a
  ground-truth color (red/green) plus an observed layer (red/occluded).  It
  builds a CSR adjacency, neighbors sorted by id, on first use.
* :class:`TopicGraph` — undirected simple graph whose edges carry an
  empirical probability distribution over topics and a message count.  It
  holds no adjacency; :mod:`vnom.importance` builds its own neighbour lists.

Vertices are dense integer ids ``0..n-1``; external names map through a
symbol table handled by :mod:`vnom.io`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from math import comb

import numpy as np

from .errors import InputError, UndefinedDensityError


class VertexLabel(IntEnum):
    """Vertex color; OCCLUDED is legal only in the observed layer."""

    OCCLUDED = 0
    RED = 1
    GREEN = 2


RED = int(VertexLabel.RED)
GREEN = int(VertexLabel.GREEN)
OCCLUDED = int(VertexLabel.OCCLUDED)

# Largest vertex count of a graph.  Every graph holds (n + 1)-entry arrays and
# screening and trials hold (rows x n) ones, so a larger n cannot be worked
# on; the readers reject such a header before anything is allocated.
MAX_VERTICES = 2**24
# Largest topic count of a topic graph.  Every edge line of a file lists one
# probability per topic and screening holds (draws x topics) profiles per
# side; the topic reader rejects a larger #k= header before allocating.
MAX_TOPICS = 2**16


def _check_vertex_count(n: int):
    if not 1 <= n <= MAX_VERTICES:
        raise InputError(f"graph needs 1..{MAX_VERTICES} vertices, got {n}")


def _check_topic_count(k: int):
    if not 2 <= k <= MAX_TOPICS:
        raise InputError(f"topic graph needs 2..{MAX_TOPICS} topics, got {k}")


def _canonical_edges(n, edge_u, edge_v, *extras):
    """Validate and sort edge arrays into canonical (u < v, lexicographic) order."""
    eu = np.asarray(edge_u, dtype=np.int64).ravel()
    ev = np.asarray(edge_v, dtype=np.int64).ravel()
    if eu.shape != ev.shape:
        raise InputError("edge endpoint arrays must have equal length")
    extras = [np.asarray(x) for x in extras]
    for x in extras:
        if x.shape[0] != eu.shape[0]:
            raise InputError("edge payload arrays must match edge count")
    if eu.size:
        if min(eu.min(), ev.min()) < 0 or max(eu.max(), ev.max()) >= n:
            raise InputError("edge endpoint out of range")
        if np.any(eu == ev):
            raise InputError("self-loops are not allowed")
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    extras = [x[order] for x in extras]
    if lo.size > 1:
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if dup.any():
            i = int(np.flatnonzero(dup)[0])
            raise InputError(f"duplicate edge ({lo[i]}, {hi[i]})")
    return (lo, hi, *extras)


def _build_adjacency(n, eu, ev, payload):
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    pay = np.concatenate([payload, payload])
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order], pay[order]


class AttributedGraph:
    """Undirected simple graph with edge attributes and two vertex layers.

    ``truth[v]`` is RED or GREEN; ``observed[v]`` is RED (identified) or
    OCCLUDED.  An identified vertex is always truly red: the observed layer
    occludes, it never errs.  Instances are immutable after construction.
    """

    __slots__ = ("n", "k_edge_attrs", "edge_u", "edge_v", "edge_attr",
                 "truth", "observed", "_adj")

    def __init__(self, n, edge_u, edge_v, edge_attr, truth, observed, k_edge_attrs=2):
        eu, ev, ea = _canonical_edges(int(n), edge_u, edge_v,
                                      np.asarray(edge_attr, dtype=np.int64))
        self._init_from_canonical(int(n), eu, ev, ea, truth, observed, int(k_edge_attrs))

    def _init_from_canonical(self, n, eu, ev, ea, truth, observed, k):
        _check_vertex_count(n)
        if k < 1:
            raise InputError("k_edge_attrs must be >= 1")
        if ea.size and (ea.min() < 1 or ea.max() > k):
            raise InputError(f"edge attributes must lie in 1..{k}")
        truth = np.asarray(truth, dtype=np.int8)
        observed = np.asarray(observed, dtype=np.int8)
        if truth.shape != (n,) or observed.shape != (n,):
            raise InputError("truth and observed must have one entry per vertex")
        if not ((truth == RED) | (truth == GREEN)).all():
            raise InputError("truth labels must be RED or GREEN")
        if not ((observed == RED) | (observed == OCCLUDED)).all():
            raise InputError("observed labels must be RED or OCCLUDED")
        if np.any((observed == RED) & (truth != RED)):
            raise InputError("an identified vertex must be truly red")
        self.n = n
        self.k_edge_attrs = k
        self.edge_u = eu
        self.edge_v = ev
        self.edge_attr = ea
        self.truth = truth
        self.observed = observed
        self._adj = None

    @classmethod
    def _from_canonical(cls, n, eu, ev, ea, truth, observed, k_edge_attrs=2):
        """Trusted constructor for edge arrays already in canonical order
        (u < v, lexicographically sorted, duplicate-free); skips re-sorting."""
        self = cls.__new__(cls)
        self._init_from_canonical(int(n), eu, ev, ea, truth, observed, int(k_edge_attrs))
        return self

    @property
    def _adjacency(self):
        # built on first use; graphs in hot Monte Carlo loops never need it
        if self._adj is None:
            self._adj = _build_adjacency(self.n, self.edge_u, self.edge_v, self.edge_attr)
        return self._adj

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    @property
    def num_red(self) -> int:
        return int(np.count_nonzero(self.truth == RED))

    @property
    def num_identified(self) -> int:
        return int(np.count_nonzero(self.observed == RED))

    def red_set(self) -> np.ndarray:
        return np.flatnonzero(self.truth == RED)

    def identified_set(self) -> np.ndarray:
        return np.flatnonzero(self.observed == RED)

    def red_candidates(self) -> np.ndarray:
        """Truly red vertices whose attribute is occluded."""
        return np.flatnonzero((self.truth == RED) & (self.observed == OCCLUDED))

    def degree(self, v: int) -> int:
        offsets, _, _ = self._adjacency
        return int(offsets[v + 1] - offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of v, ascending."""
        if not 0 <= v < self.n:
            raise InputError(f"unknown vertex id {v}")
        offsets, dst, _ = self._adjacency
        return dst[offsets[v]:offsets[v + 1]]

    def incident_attrs(self, v: int) -> np.ndarray:
        """Attributes of edges incident to v, aligned with neighbors(v)."""
        if not 0 <= v < self.n:
            raise InputError(f"unknown vertex id {v}")
        offsets, _, attr = self._adjacency
        return attr[offsets[v]:offsets[v + 1]]

    def __eq__(self, other):
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (self.n == other.n and self.k_edge_attrs == other.k_edge_attrs
                and np.array_equal(self.edge_u, other.edge_u)
                and np.array_equal(self.edge_v, other.edge_v)
                and np.array_equal(self.edge_attr, other.edge_attr)
                and np.array_equal(self.truth, other.truth)
                and np.array_equal(self.observed, other.observed))

    def __repr__(self):
        return (f"AttributedGraph(n={self.n}, edges={self.num_edges}, "
                f"red={self.num_red}, identified={self.num_identified})")


class TopicGraph:
    """Undirected simple graph whose edges carry topic distributions.

    ``topic_probs[e]`` is the empirical distribution over ``k_topics`` topics
    for edge ``e`` (rows sum to 1 within 1e-9) and ``message_count[e]`` is the
    number of messages the edge aggregates.
    """

    __slots__ = ("n", "k_topics", "edge_u", "edge_v", "topic_probs",
                 "message_count", "vertex_names")

    def __init__(self, n, edge_u, edge_v, topic_probs, message_count, vertex_names=None):
        n = int(n)
        _check_vertex_count(n)
        probs = np.asarray(topic_probs, dtype=np.float64)
        counts = np.asarray(message_count, dtype=np.int64)
        eu, ev, probs, counts = _canonical_edges(n, edge_u, edge_v, probs, counts)
        if probs.ndim != 2:
            raise InputError("topic_probs must be a 2-d array (edges x topics)")
        k = probs.shape[1]
        _check_topic_count(k)
        if probs.size:
            if not np.isfinite(probs).all():
                raise InputError("topic probabilities must be finite")
            if probs.min() < 0:
                raise InputError("topic probabilities must be non-negative")
            dev = np.abs(probs.sum(axis=1) - 1.0)
            if dev.max() > 1e-9:
                raise InputError("every edge topic distribution must sum to 1 within 1e-9")
            if counts.min() < 1:
                raise InputError("message counts must be >= 1")
        self.n = n
        self.k_topics = int(k)
        self.edge_u = eu
        self.edge_v = ev
        self.topic_probs = probs
        self.message_count = counts
        if vertex_names is not None:
            vertex_names = tuple(vertex_names)
            if len(vertex_names) != n:
                raise InputError("vertex_names must have one entry per vertex")
        self.vertex_names = vertex_names

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def __eq__(self, other):
        if not isinstance(other, TopicGraph):
            return NotImplemented
        return (self.n == other.n and self.k_topics == other.k_topics
                and np.array_equal(self.edge_u, other.edge_u)
                and np.array_equal(self.edge_v, other.edge_v)
                and np.array_equal(self.topic_probs, other.topic_probs)
                and np.array_equal(self.message_count, other.message_count)
                and self.vertex_names == other.vertex_names)

    def __repr__(self):
        return f"TopicGraph(n={self.n}, edges={self.num_edges}, k_topics={self.k_topics})"


@dataclass(frozen=True)
class Partition:
    """A two-way vertex partition: a red set and its green complement."""

    n: int
    red_ids: np.ndarray = field(repr=False)

    def __post_init__(self):
        red = np.unique(np.asarray(self.red_ids, dtype=np.int64))
        if red.size and (red[0] < 0 or red[-1] >= self.n):
            raise InputError("red_ids out of range")
        object.__setattr__(self, "red_ids", red)

    @property
    def num_red(self) -> int:
        return int(self.red_ids.size)

    def green_ids(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.red_ids] = False
        return np.flatnonzero(mask)

    def red_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.red_ids] = True
        return mask

    def truth_labels(self) -> np.ndarray:
        labels = np.full(self.n, GREEN, dtype=np.int8)
        labels[self.red_ids] = RED
        return labels


def _subset_array(n, vs) -> np.ndarray:
    vs = np.unique(np.asarray(list(vs) if not isinstance(vs, np.ndarray) else vs, dtype=np.int64))
    if vs.size and (vs[0] < 0 or vs[-1] >= n):
        bad = vs[(vs < 0) | (vs >= n)][0]
        raise InputError(f"unknown vertex id {bad}")
    return vs


def induced_subgraph(g, vs):
    """Subgraph on vertex set ``vs``: exactly the edges with both endpoints in
    ``vs``, attributes preserved, ids relabeled to 0..len(vs)-1 in ascending
    order of the original ids."""
    vs = _subset_array(g.n, vs)
    keep = np.zeros(g.n, dtype=bool)
    keep[vs] = True
    relabel = np.full(g.n, -1, dtype=np.int64)
    relabel[vs] = np.arange(vs.size)
    emask = keep[g.edge_u] & keep[g.edge_v]
    eu = relabel[g.edge_u[emask]]
    ev = relabel[g.edge_v[emask]]
    if isinstance(g, AttributedGraph):
        return AttributedGraph(vs.size, eu, ev, g.edge_attr[emask],
                               g.truth[vs], g.observed[vs], g.k_edge_attrs)
    if isinstance(g, TopicGraph):
        names = None if g.vertex_names is None else tuple(g.vertex_names[v] for v in vs)
        return TopicGraph(vs.size, eu, ev, g.topic_probs[emask],
                          g.message_count[emask], names)
    raise InputError(f"unsupported graph type {type(g).__name__}")


def relative_density(g) -> float:
    """Edge count divided by the number of vertex pairs."""
    if g.n < 2:
        raise UndefinedDensityError("relative density needs at least two vertices")
    return g.num_edges / comb(g.n, 2)


def candidate_set(g: AttributedGraph) -> np.ndarray:
    """All vertices whose observed attribute is occluded."""
    return np.flatnonzero(g.observed == OCCLUDED)
