"""Attributed-graph data model.

Two graph kinds share one edge layout: flat endpoint arrays with ``u < v``,
sorted lexicographically, which each constructor builds from edge columns
(endpoints and payload arrays) given in any order.  The constructors alone
know what a valid graph is; each names the first record breaking a rule in a
:class:`~vnom.errors.RecordError`: an edge by input position, a vertex by id.

* :class:`AttributedGraph` — undirected simple graph whose edges carry a
  categorical attribute in ``{1..k_edge_attrs}`` and whose vertices carry a
  ground-truth color (red/green) plus an observed layer (red/occluded).  It
  reads a vertex's neighbours off the edge arrays.
* :class:`TopicGraph` — undirected simple graph whose edges carry an
  empirical probability distribution over topics and a message count.  It
  holds no adjacency; :mod:`vnom.importance` screens from a table of every
  vertex pair's edge slot.

Vertices are dense integer ids ``0..n-1``; external names map through a
symbol table handled by :mod:`vnom.io`.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, RecordError


# Vertex colors; OCCLUDED is legal only in the observed layer.
OCCLUDED, RED, GREEN = 0, 1, 2

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


def _first(bad, order=None) -> int:
    """Input position of the first record ``bad`` flags, via ``order`` if canonical."""
    return int(np.flatnonzero(bad)[0] if order is None else order[bad].min())


def _canonical_edges(n, edge_u, edge_v, *extras):
    """Check edge arrays given in any order and sort them into canonical order
    (u < v, by pair).  Returns the sorted arrays and then ``order``, the input
    position of each sorted edge."""
    _check_vertex_count(n)
    eu = np.asarray(edge_u, dtype=np.int64).ravel()
    ev = np.asarray(edge_v, dtype=np.int64).ravel()
    if eu.shape != ev.shape:
        raise InputError("edge endpoint arrays must have equal length")
    extras = [np.asarray(x) for x in extras]
    for x in extras:
        if x.shape[0] != eu.shape[0]:
            raise InputError("edge payload arrays must match edge count")
    if eu.size and (min(eu.min(), ev.min()) < 0 or max(eu.max(), ev.max()) >= n):
        i = _first((eu < 0) | (eu >= n) | (ev < 0) | (ev >= n))
        raise RecordError("edge", i, f"unknown vertex id in edge ({eu[i]}, {ev[i]})")
    loop = eu == ev
    if loop.any():
        raise RecordError("edge", _first(loop), "self-loop")
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    # one key per pair, below n**2 <= 2**48; a stable sort leaves a repeated
    # pair's occurrences in input order, so each after the first is a repeat
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.diff(key[order]) == 0
    if repeat.any():
        i = _first(repeat, order[1:])
        raise RecordError("edge", i, f"duplicate edge ({lo[i]}, {hi[i]})")
    return (lo[order], hi[order], *(x[order] for x in extras), order)


class _Record:
    """Frozen record: each subclass's annotated names are its fields, in order,
    and a class-level value is a field's default.

    One ``__init__`` binds the arguments and runs the subclass's
    ``__post_init__``, which may replace a field with ``object.__setattr__``;
    after it no field can be assigned or deleted.  Records compare field by
    field, arrays element by element with NaNs equal where both sit; array
    fields stay out of the repr and make the record unhashable.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # stored as assignment stores them: going through self.__dict__ would
        # build a dict per record, which slows field reads and the collector
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes at most {len(cls._fields)} arguments, "
                            f"got {len(args)}")
        values = dict(zip(cls._fields, args))
        for key, value in kwargs.items():
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        values = {**cls._defaults, **values}
        missing = [f for f in cls._fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return [values[f] for f in cls._fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f), getattr(other, f)) for f in self._fields)
        return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields
                 if not isinstance(getattr(self, f), np.ndarray))
        return f"{type(self).__qualname__}({', '.join(shown)})"


class _EdgeGraph:
    """What both graph kinds share: canonical ``edge_u``/``edge_v`` arrays,
    and the record contract over every slot of the kind: slot-wise equality,
    no assignment or deletion after construction."""

    __slots__ = ()
    __eq__ = _Record.__eq__
    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def _store(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setstate__(self, state):  # pickle's (None, {slot: value}) of a slotted object
        self._store(*map(state[1].get, self._fields))

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)


class AttributedGraph(_EdgeGraph):
    """Undirected simple graph with edge attributes and two vertex layers.

    ``truth[v]`` is RED or GREEN; ``observed[v]`` is RED (identified) or
    OCCLUDED.  An identified vertex is always truly red: the observed layer
    occludes, it never errs.  Instances are immutable after construction.
    """

    __slots__ = _fields = ("n", "k_edge_attrs", "edge_u", "edge_v", "edge_attr",
                           "truth", "observed")

    def __init__(self, n, edge_u, edge_v, edge_attr, truth, observed, k_edge_attrs=2):
        *edges, order = _canonical_edges(int(n), edge_u, edge_v,
                                         np.asarray(edge_attr, dtype=np.int64))
        self._init_from_canonical(int(n), *edges, truth, observed, int(k_edge_attrs), order)

    def _init_from_canonical(self, n, eu, ev, ea, truth, observed, k, order=None):
        _check_vertex_count(n)
        if k < 1:
            raise InputError("k_edge_attrs must be >= 1")
        if ea.size and (ea.min() < 1 or ea.max() > k):
            raise RecordError("edge", _first((ea < 1) | (ea > k), order),
                              f"edge attribute must lie in 1..{k}")
        # labels are checked as they arrive and only then narrowed, so no
        # label can wrap into a valid one
        truth = np.asarray(truth)
        observed = np.asarray(observed)
        if truth.shape != (n,) or observed.shape != (n,):
            raise InputError("truth and observed must have one entry per vertex")
        red, identified = truth == RED, observed == RED
        for ok, rule in ((red | (truth == GREEN), "truth label must be RED or GREEN"),
                         (identified | (observed == OCCLUDED),
                          "observed label must be RED or OCCLUDED"),
                         (red | ~identified, "an identified vertex must be truly red")):
            if not ok.all():
                raise RecordError("vertex", _first(~ok), rule)
        self._store(n, k, eu, ev, ea, truth.astype(np.int8, copy=False),
                    observed.astype(np.int8, copy=False))

    @classmethod
    def _from_canonical(cls, n, eu, ev, ea, truth, observed, k_edge_attrs=2):
        """Trusted constructor for edge arrays already in canonical order
        (u < v, lexicographically sorted, duplicate-free); skips re-sorting."""
        self = cls.__new__(cls)
        self._init_from_canonical(int(n), eu, ev, ea, truth, observed, int(k_edge_attrs))
        return self

    @property
    def num_red(self) -> int:
        return int(np.count_nonzero(self.truth == RED))

    @property
    def num_identified(self) -> int:
        return int(np.count_nonzero(self.observed == RED))

    def red_set(self) -> np.ndarray:
        return np.flatnonzero(self.truth == RED)

    def red_candidates(self) -> np.ndarray:
        """Truly red vertices whose attribute is occluded."""
        return np.flatnonzero((self.truth == RED) & (self.observed == OCCLUDED))

    def _incident(self, v: int) -> tuple:
        """(edges whose larger end is v, edges whose smaller end is v) as masks.
        Edges sort by (u, v), so the far ends read off the first, then the
        second, ascend."""
        if not 0 <= v < self.n:
            raise InputError(f"unknown vertex id {v}")
        return self.edge_v == v, self.edge_u == v

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of v, ascending."""
        below, above = self._incident(v)
        return np.concatenate([self.edge_u[below], self.edge_v[above]])

    def incident_attrs(self, v: int) -> np.ndarray:
        """Attributes of edges incident to v, aligned with neighbors(v)."""
        below, above = self._incident(v)
        return np.concatenate([self.edge_attr[below], self.edge_attr[above]])

    def __repr__(self):
        return (f"AttributedGraph(n={self.n}, edges={self.num_edges}, "
                f"red={self.num_red}, identified={self.num_identified})")


class TopicGraph(_EdgeGraph):
    """Undirected simple graph whose edges carry topic distributions.

    ``topic_probs[e]`` is the empirical distribution over ``k_topics`` topics
    for edge ``e`` (rows sum to 1 within 1e-9) and ``message_count[e]`` is the
    number of messages the edge aggregates.
    """

    __slots__ = _fields = ("n", "k_topics", "edge_u", "edge_v", "topic_probs",
                           "message_count", "vertex_names")

    def __init__(self, n, edge_u, edge_v, topic_probs, message_count, vertex_names=None):
        n = int(n)
        probs = np.asarray(topic_probs, dtype=np.float64)
        if probs.ndim != 2:
            raise InputError("topic_probs must be a 2-d array (edges x topics)")
        _check_topic_count(probs.shape[1])
        eu, ev, probs, counts, order = _canonical_edges(
            n, edge_u, edge_v, probs, np.asarray(message_count, dtype=np.int64))
        if counts.size:
            if counts.min() < 1:
                raise RecordError("edge", _first(counts < 1, order), "message count must be >= 1")
            if not np.isfinite(probs).all():
                raise RecordError("edge", _first(~np.isfinite(probs).all(axis=1), order),
                                  "non-finite topic probability")
            if probs.min() < 0:
                raise RecordError("edge", _first((probs < 0).any(axis=1), order),
                                  "negative topic probability")
            total = probs.sum(axis=1)
            dev = np.abs(total - 1.0)
            if dev.max() > 1e-9:
                i = _first(dev > 1e-9, order)
                raise RecordError("edge", i, f"topic distribution sums to "
                                             f"{total[order == i].item()!r}, expected 1")
        if vertex_names is not None:
            vertex_names = tuple(vertex_names)
            if len(vertex_names) != n:
                raise InputError("vertex_names must have one entry per vertex")
            for v, name in enumerate(vertex_names):
                # what a '#vertex <id> <name>' line of the topic format carries
                # and reads back unchanged
                if not (isinstance(name, str) and name and name == name.strip()
                        and "\n" not in name and "\r" not in name):
                    raise InputError(f"vertex {v} name {name!r} must be a non-empty string "
                                     f"without surrounding whitespace or line breaks")
        self._store(n, probs.shape[1], eu, ev, probs, counts, vertex_names)

    def __repr__(self):
        return f"TopicGraph(n={self.n}, edges={self.num_edges}, k_topics={self.k_topics})"


class Partition(_Record):
    """A two-way vertex partition: a red set and its green complement."""

    n: int
    red_ids: np.ndarray

    def __post_init__(self):
        red = _sorted_unique(np.asarray(self.red_ids, dtype=np.int64))
        if red.size and (red[0] < 0 or red[-1] >= self.n):
            raise InputError("red_ids out of range")
        object.__setattr__(self, "red_ids", red)

    @property
    def num_red(self) -> int:
        return int(self.red_ids.size)

    def red_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.red_ids] = True
        return mask

    def truth_labels(self) -> np.ndarray:
        labels = np.full(self.n, GREEN, dtype=np.int8)
        labels[self.red_ids] = RED
        return labels


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened, as numpy's unique gives
    them; numpy 2's unique loads numpy.ma (~1.2 MB, ~17 ms) on its first call,
    which no vnom run need pay."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _subset_array(n, vs) -> np.ndarray:
    vs = _sorted_unique(np.asarray(vs if isinstance(vs, np.ndarray) else list(vs), np.int64))
    if vs.size and (vs[0] < 0 or vs[-1] >= n):
        bad = vs[(vs < 0) | (vs >= n)][0]
        raise InputError(f"unknown vertex id {bad}")
    return vs


def candidate_set(g: AttributedGraph) -> np.ndarray:
    """All vertices whose observed attribute is occluded."""
    return np.flatnonzero(g.observed == OCCLUDED)
