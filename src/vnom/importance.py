"""Partition screening on topic graphs and nomination trials on the survivors.

The pipeline draws uniform red/green vertex partitions, keeps those whose red
side is both denser (delta_rho) and topically distinct (delta_p, an L1 gap
between edge-topic profiles), maps each topic to red or green by the sign of
its profile difference, then repeatedly instantiates edge attributes from the
per-edge topic distributions and runs nomination.  Results aggregate into
(delta_rho, delta_p) bins.

Each step (side masks, density gap, topic profiles, topic draw, candidate
scores, edge rates) has one kernel, shared by the public single-partition
functions and the batched screening and trial loops.  Screening alone works
from each draw's red vertex pairs, looked up in one table of every vertex
pair's edge slot: it counts red-internal edges as the pairs that are edges,
and totals the red side's topic weights over those edges; the public
delta_rho and delta_p work from side masks instead, an independent check.
Screening's working memory is bounded by a cell budget, not by the block:
each block draws its keys a chunk of rows at a time, keeps only the ids and
gaps of the draws passing the density bar, and profiles those a chunk of
rows per kernel call.  Their topic gaps are first estimated from all-edge
and per-vertex totals, with a bound on the distance to the exact gap: only
the rows the bound leaves undecided, and the accepted rows a screen keeps,
take the exact profile pass over their green edges.  Trials run in blocks
of partitions whose replicates map their uniforms to topics, and are scored
and ranked, as one stack; they return columns too, one metric table stacked
over partitions and their rates.
"""

from __future__ import annotations

from math import comb, floor, isfinite, isnan

import numpy as np

from .errors import EmptyProfileError, InputError, UndefinedDensityError
from .graph import (GREEN, OCCLUDED, RED, AttributedGraph, Partition, TopicGraph, _Record,
                    _subset_array)
from .experiments import _check_replicates, evaluate_grid, parallel_map
from .kidney_egg import _pair_offsets, _pairs
from .metrics import CRITERIA, MetricTable
from .nomination import score_counts, validate_gamma_grid
from .seeding import child_generators, child_seed, generator

_SCREEN_BLOCK = 4096  # draws per derived seed; fixed so results never depend on scheduling
# partitions per trial task: bounds a task's size and its working memory
# (every instance draws from its own streams, so results do not depend on it)
_TRIAL_BLOCK = 32
# (rows x vertices), (rows x edges) or (rows x red pairs) cells per screening kernel call
_ROW_CELLS = 2**18
MIN_PARTITIONS = 20  # a trial bin backed by fewer partitions is flagged insufficient


class ScreeningThresholds(_Record):
    """Acceptance bars for the density gap and the topic-profile gap.

    Either bar may be infinite; NaN is rejected, since no gap passes it.
    """

    tau_rho: float = 0.1
    tau_p: float = 0.2

    def __post_init__(self):
        if isnan(self.tau_rho) or isnan(self.tau_p):
            raise InputError(f"screening thresholds must not be NaN, got "
                             f"tau_rho={self.tau_rho}, tau_p={self.tau_p}")


class TopicMap(_Record):
    """Total map from topic index (0-based) to RED or GREEN."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)  # checked before narrowing, so none wraps
        if labels.ndim != 1 or labels.size < 2:
            raise InputError("topic map needs one label per topic (>= 2 topics)")
        if not ((labels == RED) | (labels == GREEN)).all():
            raise InputError("topic labels must be RED or GREEN")
        object.__setattr__(self, "labels", labels.astype(np.int8, copy=False))

    @property
    def k_topics(self) -> int:
        return int(self.labels.size)


class ScreeningResult(_Record):
    """A screen's accepted draws as columns, one row a draw in draw order:
    ascending red ids (rows x m), int8 RED/GREEN topic labels, gaps, draw index.

    ``accepted`` counts every accepted draw of the screen, which holds rows
    for the first ones alone when it kept fewer (``screen_partitions(keep=)``);
    it defaults to the row count.
    """

    red_ids: np.ndarray
    topic_labels: np.ndarray
    delta_rho: np.ndarray
    delta_p: np.ndarray
    draw_index: np.ndarray
    attempts: int
    accepted: int | None = None

    def __post_init__(self):
        shapes = [np.shape(getattr(self, f)) for f in self._fields[:-2]]
        if [len(s) for s in shapes] != [2, 2, 1, 1, 1] or len({s[0] for s in shapes}) != 1:
            raise InputError(f"screened columns need one row per red set, got shapes {shapes}")
        if not (np.isfinite(self.delta_rho).all() and np.isfinite(self.delta_p).all()):
            raise InputError("screened gaps must be finite")
        if self.accepted is None:
            object.__setattr__(self, "accepted", self.n_rows)
        elif self.accepted < self.n_rows:
            raise InputError(f"{self.accepted} accepted draws cannot hold {self.n_rows} rows")

    def take(self, rows) -> ScreeningResult:
        """The accepted rows picked by a slice, a boolean mask or an index
        array, as a screen that accepted those alone."""
        return ScreeningResult(*(getattr(self, f)[rows] for f in self._fields[:-2]), self.attempts)

    @property
    def n_rows(self) -> int:
        return len(self.draw_index)

    @property
    def n_accepted(self) -> int:
        return self.accepted

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.attempts if self.attempts else 0.0


class EstimatedRates(_Record):
    """Edge-rate estimates from one attributed graph and partition."""

    p1: float
    p2: float
    s1: float
    s2: float


def _edge_weights(g: TopicGraph, weighted: bool) -> np.ndarray:
    if weighted:
        return g.topic_probs * g.message_count[:, None].astype(np.float64)
    return g.topic_probs


def _side_sizes(g, part: Partition) -> tuple:
    """(m, n - m); a density needs two vertices on each side."""
    _check_partition(g, part)
    if not 2 <= part.num_red <= g.n - 2:
        raise UndefinedDensityError("both partition sides need at least two vertices")
    return part.num_red, g.n - part.num_red


def _sides(g, red_mask: np.ndarray) -> tuple:
    """(red_in, green_in) edge masks of one (n,) red mask or of a stack of them."""
    ru, rv = red_mask[..., g.edge_u], red_mask[..., g.edge_v]
    return ru & rv, ~ru & ~rv


def _screen_tables(g, m: int, weighted: bool) -> tuple:
    """What every block of one screen reads: (edge weights after a zero row,
    the pair-slot table, its offsets, the degree vector, the red pairs
    (first, second) of :func:`kidney_egg._pairs` (m), each vertex's
    (vertices x topics) incident-edge topic totals and the all-edge ones).
    The table holds the slot of every vertex pair u < v at ``offsets[u] + v``,
    in lexicographic pair order: e + 1 for edge e, 0 (the zero weight row)
    for no edge, in the narrowest unsigned type that holds the edge count."""
    edge_weights = _edge_weights(g, weighted)
    weights = np.concatenate([np.zeros((1, g.k_topics)), edge_weights])
    # the lookups are most of the work: 32-bit positions wherever they fit
    offsets = _pair_offsets(g.n).astype(np.int32 if comb(g.n, 2) <= 2**31 else np.int64)
    table = np.zeros(comb(g.n, 2), dtype=np.min_scalar_type(g.num_edges))
    table[offsets[g.edge_u] + g.edge_v] = np.arange(1, g.num_edges + 1)
    ends = np.concatenate([g.edge_u, g.edge_v])
    degree = np.bincount(ends, minlength=g.n)
    incident = np.stack([np.bincount(ends, np.concatenate([column, column]), g.n)
                         for column in edge_weights.T], axis=1)
    return (weights, table, offsets, degree, _pairs(m), incident,
            edge_weights.sum(axis=0))


def _red_slots(table: np.ndarray, offsets: np.ndarray, chosen: np.ndarray,
               pairs: tuple) -> np.ndarray:
    """(rows x red pairs) slots of each row's red pairs, in pair order, which
    is edge order; ``chosen`` holds the rows' ascending red ids (rows x m),
    at most ``_chunk_rows(red pairs)`` rows, and the rest is of
    :func:`_screen_tables`.  The work is O(rows x m**2) whatever the degrees."""
    first, second = pairs
    ids = chosen.astype(offsets.dtype)
    at = offsets[ids][:, first]
    at += ids[:, second]
    return table[at]


def _red_totals(weights: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(rows x topics) topic weight totals of each row's red-internal edges,
    from its red pairs' ``slots`` (of :func:`_red_slots`; sorted in place).

    Sorted, a row's misses (slot 0, the zero weight row) come first and its
    edges follow in edge order, and column s adds every row's s-th slot: a
    row adds +0.0 until its first edge, then its edges one at a time in edge
    order, as the einsum of :func:`_topic_totals` over its red side mask
    does.  The two are equal bit for bit."""
    slots.sort(axis=1)
    totals = np.zeros((len(slots), weights.shape[1]))
    for slot in slots.T[slots.any(axis=0)]:  # the columns of misses alone add nothing
        totals += weights[slot]
    return totals


def _density_gap(red_edges, green_edges, m: int, n_green: int):
    return red_edges / comb(m, 2) - green_edges / comb(n_green, 2)


def _chunk_rows(width: int) -> int:
    """Rows per screening kernel call over ``width`` cells a row: vertices
    for a block's keys (2 MB of float64), red pairs for :func:`_red_slots`
    (1 MB of int32 positions), the largest of vertices, red pairs and
    topics for :func:`_gap_estimate` and its lookups (a few float64
    (rows x topics) arrays, no more rows than a key chunk), and the larger
    of edges and red pairs for :func:`_profile_gap` (2 MB of float mask)
    and its lookups."""
    return max(1, _ROW_CELLS // max(width, 1))


def _topic_totals(weights: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """(rows x topics) topic weight totals of each row's selected edges,
    ``sel`` being (rows x edges).

    The einsum adds a row's edges one at a time in edge order, as the axis-0
    sum of ``weights[sel_row]`` does, and x * 1.0 and + 0.0 are exact, so
    each row matches that sum bit for bit; ``optimize=True`` could hand the
    product to BLAS, which adds in another order.
    """
    return np.einsum("ek,er->rk", weights, sel.T.astype(np.float64), optimize=False)


def _normalized(total: np.ndarray) -> np.ndarray:
    """Each row of ``total`` over its sum; a row without weight is zeros."""
    mass = total.sum(axis=1, keepdims=True)
    return np.divide(total, mass, out=np.zeros_like(total), where=mass > 0.0)


def _profiles(weights: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """(rows x topics) normalized topic weight of each row's selected edges."""
    return _normalized(_topic_totals(weights, sel))


def _profile_gap(weights: np.ndarray, red_total, green_in) -> tuple:
    """(delta_p, red profiles, green profiles) of each row, from the red
    side's (rows x topics) topic totals and the green side's (rows x edges)
    mask; delta_p is 0 where a side has no weight."""
    pr, pg = _normalized(red_total), _profiles(weights, green_in)
    gap = np.abs(pr - pg).sum(axis=1)
    return np.where(pr.any(axis=1) & pg.any(axis=1), gap, 0.0), pr, pg


def _gap_estimate(incident: np.ndarray, total: np.ndarray, chosen: np.ndarray,
                  red_total: np.ndarray, terms: int) -> tuple:
    """(estimate, bound) of delta_p for each row of red ids ``chosen``, from
    its red-internal topic totals ``red_total`` and the screen's incident and
    all-edge totals (of :func:`_screen_tables`), with no green edge mask: the
    exact pass's delta_p (:func:`_profile_gap`) lies within ``bound`` of the
    estimate.  ``terms`` is at least the edge count plus m plus the topic count.

    The green totals are every edge's, less the red vertices' incident ones,
    plus the red-internal ones, which those subtract twice.  With u the unit
    roundoff and g = terms u / (1 - terms u), every sum of at most ``terms``
    non-negative weights is within g of its own value (Higham 2002, ch. 4),
    so each topic's estimate lies within 8 g times its all-edge total of the
    real green total, and the exact pass's within g of it: the two differ by
    at most D = 10 g T + 2 g G in all, T and G the all-edge and estimated
    green masses.  Clipped at zero, the estimate's profile then lies within
    2 D / G of the exact one in L1, and each side's rounding of the
    normalization and the gap adds at most 4 g.  The bound is that, plus 4u,
    so its own rounding and the compare's cannot cross the bar.  A row gets
    a finite bound only when G - D > 0 certifies a green mass, so that the
    exact pass's green profile is not the zero vector; a row whose red
    profile is zero has delta_p 0 exactly and a zero bound."""
    red_profile = _normalized(red_total)
    first, *rest = chosen.T
    green = total - incident[first]
    for column in rest:
        green -= incident[column]
    green += red_total
    np.maximum(green, 0.0, out=green)
    mass = green.sum(axis=1)
    u = np.finfo(np.float64).eps / 2
    g = terms * u / (1 - terms * u)
    slack = 10 * g * total.sum() + 2 * g * mass
    sure = mass - slack > 0
    estimate = np.abs(red_profile - _normalized(green)).sum(axis=1)
    bound = np.full(len(chosen), np.inf)
    bound[sure] = 2 * slack[sure] / mass[sure] + 8 * g + 4 * u
    empty = ~red_profile.any(axis=1)
    estimate[empty], bound[empty] = 0.0, 0.0
    return estimate, bound


def _cumulative_topics(g: TopicGraph) -> np.ndarray:
    """(topics x edges) cumulative topic probabilities of every edge."""
    return np.ascontiguousarray(np.cumsum(g.topic_probs, axis=1).T)


def _topics(cum_topics: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The topic of each edge under uniforms ``u`` (... x edges): the number
    of its first k - 1 cumulative probabilities at or below its uniform.
    Cumulative sums of non-negative probabilities never decrease, so that is
    the count over all k capped at k - 1: a uint8 holds it for k <= 256, a
    uint16 for any k <= ``graph.MAX_TOPICS``.  ``cum_topics`` is the
    (topics x edges) table of :func:`_cumulative_topics`.  Each threshold's
    compare fills one reused bool buffer, which is added through its uint8
    view (a bool is one byte of 0 or 1), so a uint8 count adds it with no
    cast."""
    topics = np.zeros(u.shape, dtype=np.uint8 if len(cum_topics) <= 256 else np.uint16)
    above = np.empty(u.shape, dtype=bool)
    ones = above.view(np.uint8)
    for threshold in cum_topics[:-1]:
        np.greater_equal(u, threshold, out=above)
        topics += ones
    return topics


def _rates(attr, red_in, green_in, red_pairs, green_pairs) -> np.ndarray:
    """(..., 4) rates (p1, p2, s1, s2): red and green edges per green-side,
    then red-side, pair, for edge attributes and side masks over the last
    axis.  Every edge of the side masks must be RED or GREEN: a side's green
    edges are its edges less its red ones."""
    red_edge = attr == RED
    rates = []
    for side, pairs in ((green_in, green_pairs), (red_in, red_pairs)):
        red = np.count_nonzero(side & red_edge, axis=-1)
        rates += [red / pairs, (np.count_nonzero(side, axis=-1) - red) / pairs]
    return np.stack(rates, axis=-1)


def topic_profile(g: TopicGraph, vs, *, weighted: bool = True) -> np.ndarray:
    """Empirical topic distribution of the subgraph induced by ``vs``.

    The mean of the per-edge topic distributions, weighted by message count
    (so the profile is the empirical distribution over messages); pass
    ``weighted=False`` to weight every edge equally.
    """
    mask = np.zeros(g.n, dtype=bool)
    mask[_subset_array(g.n, vs)] = True
    sel, _ = _sides(g, mask)
    if not sel.any():
        raise EmptyProfileError("induced subgraph has no edges to profile")
    return _profiles(_edge_weights(g, weighted), sel[None])[0]


def delta_rho(g: TopicGraph, part: Partition) -> float:
    """Relative-density difference between the red-induced and green-induced
    subgraphs."""
    m, n_green = _side_sizes(g, part)
    red_in, green_in = _sides(g, part.red_mask())
    return float(_density_gap(np.count_nonzero(red_in), np.count_nonzero(green_in),
                              m, n_green))


def delta_p(g: TopicGraph, part: Partition, *, weighted: bool = True) -> float:
    """L1 distance between the red-side and green-side topic profiles."""
    _check_partition(g, part)
    red_in, green_in = _sides(g, part.red_mask()[None])
    if not (red_in.any() and green_in.any()):
        raise EmptyProfileError("induced subgraph has no edges to profile")
    weights = _edge_weights(g, weighted)
    return float(_profile_gap(weights, _topic_totals(weights, red_in), green_in)[0][0])


def _check_partition(g, part: Partition):
    if part.n != g.n:
        raise InputError(f"partition is over {part.n} vertices, graph has {g.n}")


def _topic_labels(profile_red, profile_green) -> np.ndarray:
    """Topic labels of each row of the side profiles: a topic goes red iff
    its red-side share strictly exceeds its green-side share; ties go green."""
    return np.where(np.asarray(profile_red) - np.asarray(profile_green) > 0, RED, GREEN)


def screen_partitions(g: TopicGraph, m: int, thresholds: ScreeningThresholds,
                      max_attempts: int, seed, *, weighted: bool = True,
                      keep: int | None = None) -> ScreeningResult:
    """Draw uniform m-subsets as red sets; keep those passing both gaps.

    A draw is accepted iff delta_rho > tau_rho AND delta_p > tau_p (strict).
    A side that induces no edge weight has no observable topic differential:
    its profile is taken as the zero vector and the draw's delta_p as 0, so
    such draws never pass a positive tau_p.  Draw i is a pure function of
    (seed, i): draws are generated in fixed-size blocks with one derived seed
    per block, so the accepted list (ordered by draw index) is reproducible
    under any parallel schedule.  Zero acceptances is a valid outcome, not an
    error.  With ``keep``, the result holds rows for the first ``keep``
    accepted draws alone, the same rows as the uncapped screen's first, and
    still counts every accepted draw.
    """
    if not 2 <= m <= g.n - 2:
        raise InputError(f"m must lie in 2..{g.n - 2}, got {m}")
    if max_attempts < 1:
        raise InputError("max_attempts must be >= 1")
    if keep is not None and keep < 0:
        raise InputError(f"keep must be >= 0, got {keep}")
    tables = _screen_tables(g, m, weighted)
    base = child_seed(seed)
    blocks, accepted = [], 0
    for start in range(0, max_attempts, _SCREEN_BLOCK):
        columns, count = _screen_block(
            g, m, thresholds, tables, generator(child_seed(base, start // _SCREEN_BLOCK)),
            start, min(_SCREEN_BLOCK, max_attempts - start),
            None if keep is None else max(keep - accepted, 0))
        blocks.append(columns)
        accepted += count
    return ScreeningResult(*map(np.concatenate, zip(*blocks)), max_attempts, accepted)


def _smallest_keys_mask(keys: np.ndarray, m: int) -> np.ndarray:
    """(rows x n) mask of each row's m smallest keys: the set
    ``np.argpartition(keys, m - 1, axis=1)[:, :m]`` picks.

    The keys must be non-negative floats, never NaN and never -0.0, in
    contiguous rows, as ``Generator.random`` draws them: such doubles order
    as their int64 bit patterns, so their 32-bit high words (sign, exponent
    and the top 20 mantissa bits) never order two keys the wrong way round;
    they only tie keys that differ in the low word.  Each row's m-th
    smallest high word comes from ``np.partition`` over the int32 high
    words, which numpy partitions faster than int64 bits or floats, and the
    row marks every entry whose high word is at or below it: the entries
    whose bits are at or below that high word over an all-ones low word, a
    compare of contiguous int64s, which numpy does faster than one of the
    strided high words.  If exactly m entries are marked, every other
    entry's high word, and so its key, is larger: they are the m smallest
    keys.  ``np.partition`` copies what it is given: it takes a quarter of
    the rows at a time, so the copy stays small beside the keys.  A row
    whose high words tie at the m-th place, keys equal or not, marks more
    than m entries; those rows alone take argpartition's pick of the float
    keys.  Every row marks at least m, so one total over the mask finds
    whether any row ties before a count per row looks for which.
    """
    bits = keys.view(np.int64)
    high = keys.view(np.int32)[..., int(np.little_endian)::2]
    mask = np.empty(keys.shape, dtype=bool)
    step = -(-len(keys) // 4)
    for lo in range(0, len(keys), step):
        top = np.partition(high[lo:lo + step], m - 1, axis=1)[:, m - 1:m].astype(np.int64)
        top <<= 32
        top |= 0xFFFFFFFF
        np.less_equal(bits[lo:lo + step], top, out=mask[lo:lo + step])
    if np.count_nonzero(mask) == len(keys) * m:
        return mask
    tied = (np.count_nonzero(mask, axis=1) != m).nonzero()[0]
    mask[tied] = False
    mask[tied[:, None], np.argpartition(keys[tied], m - 1, axis=1)[:, :m]] = True
    return mask


def _screen_block(g: TopicGraph, m: int, thresholds: ScreeningThresholds, tables: tuple,
                  rng, start: int, draws: int, keep: int | None = None) -> tuple:
    """(The :class:`ScreeningResult` columns of the first ``keep`` (or all)
    accepted draws of start..start+draws-1, the count of every accepted
    draw), with the screen's ``tables`` (of :func:`_screen_tables`).

    The block's keys are drawn a chunk of rows at a time; consecutive
    ``rng.random((rows, n))`` calls read the stream one (draws x n) call
    would, so no draw depends on the chunk size.  For each chunk, density
    gaps come from edge counts, red-internal ones the red pairs' non-zero
    slots (:func:`_red_slots`), and only the ids, gaps and indices of the
    draws passing tau_rho are kept.  Those get their red side's topic totals
    from their own edges, looked up again (:func:`_red_totals`), and a
    delta_p estimate with a bound (:func:`_gap_estimate`), a chunk of rows
    at a time.  A row the bound puts at or below tau_p is rejected, and one
    it puts above is accepted; the exact pass (the red totals looked up once
    more, the green side's from its edge mask, :func:`_profile_gap`) then
    runs for the rows left undecided and for the accepted ones that can be
    among the first ``keep``, a chunk of rows per kernel call.  Each row's
    exact values do not depend on which rows share its call, so the
    estimate only chooses which rows take the pass.
    """
    weights, table, offsets, degree, pairs, incident, total = tables
    step, lookup = _chunk_rows(g.n), _chunk_rows(len(pairs[0]))
    passing = []
    for lo in range(0, draws, step):
        rows = min(step, draws - lo)
        # each row's red ids, ascending
        chosen = (np.flatnonzero(_smallest_keys_mask(rng.random((rows, g.n)), m)).reshape(rows, m)
                  - (np.arange(rows) * g.n)[:, None])
        red = np.concatenate([
            np.count_nonzero(_red_slots(table, offsets, chosen[i:i + lookup], pairs), axis=1)
            for i in range(0, rows, lookup)])
        # edges without a red end: the degree sum counts red-internal edges twice
        green = g.num_edges - (degree[chosen].sum(axis=1) - red)
        d_rho = _density_gap(red, green, m, g.n - m)
        passed = np.flatnonzero(d_rho > thresholds.tau_rho)
        passing.append((chosen[passed], d_rho[passed], lo + passed))
    chosen, d_rho, rows = (np.concatenate(part) for part in zip(*passing))
    del passing
    # d_p holds each row's estimate until the exact pass overwrites it
    d_p, bound = np.empty(len(rows)), np.empty(len(rows))
    step = _chunk_rows(max(g.n, len(pairs[0]), g.k_topics))
    terms = g.num_edges + m + g.k_topics
    for lo in range(0, len(rows), step):
        ids = chosen[lo:lo + step]
        d_p[lo:lo + step], bound[lo:lo + step] = _gap_estimate(
            incident, total, ids, _red_totals(weights, _red_slots(table, offsets, ids, pairs)),
            terms)
    sure = np.isfinite(bound)
    accept = sure & (d_p - bound > thresholds.tau_p)
    undecided = ~accept & ~(sure & (d_p + bound <= thresholds.tau_p))
    # the certain accepts among the first keep ones hold every kept one
    exact = np.flatnonzero(undecided | (accept if keep is None else
                                        accept & (np.cumsum(accept) <= keep)))
    labels = np.empty((len(exact), g.k_topics), dtype=np.int8)
    step = _chunk_rows(max(g.num_edges, len(pairs[0])))
    for lo in range(0, len(exact), step):
        ids = chosen[exact[lo:lo + step]]
        red_mask = np.zeros((len(ids), g.n), dtype=bool)
        np.put_along_axis(red_mask, ids, True, axis=1)
        green_in = ~(red_mask[:, g.edge_u] | red_mask[:, g.edge_v])
        d_p[exact[lo:lo + step]], pr, pg = _profile_gap(
            weights[1:], _red_totals(weights, _red_slots(table, offsets, ids, pairs)), green_in)
        labels[lo:lo + step] = _topic_labels(pr, pg)
    accepted = np.flatnonzero(accept | (undecided & (d_p > thresholds.tau_p)))
    kept = accepted[:keep]
    return ((chosen[kept], labels[np.searchsorted(exact, kept)], d_rho[kept], d_p[kept],
             start + rows[kept]), len(accepted))


def instantiate_edges(g: TopicGraph, topic_map: TopicMap, part: Partition,
                      seed) -> AttributedGraph:
    """Attribute every edge by drawing its topic and mapping it to red/green.

    Topology is unchanged; vertex truth comes from the partition; the
    observed layer is fully occluded (identify vertices downstream).  The
    graph is valid by construction, so it is stored unchecked
    (``AttributedGraph._from_canonical``): the topic graph's edges are
    canonical, the labels come from a checked topic map and partition, and
    no vertex is identified.
    """
    if topic_map.k_topics != g.k_topics:
        raise InputError("topic map does not cover the graph's topics")
    _check_partition(g, part)
    # one uniform per edge, in stored (sorted-pair) order
    topics = _topics(_cumulative_topics(g), generator(seed).random(g.num_edges))
    attrs = topic_map.labels[topics].astype(np.int64)
    observed = np.full(g.n, OCCLUDED, dtype=np.int8)
    # topic-graph edges are stored canonically already
    return AttributedGraph._from_canonical(g.n, g.edge_u, g.edge_v, attrs,
                                           part.truth_labels(), observed, k_edge_attrs=2)


def estimate_rates(g: AttributedGraph, part: Partition) -> EstimatedRates:
    """Proportion of within-side vertex pairs carrying each attribute.

    Red-edge and green-edge rates over the green-internal pairs give the
    background estimates; the same counts over red-internal pairs give the
    block estimates.  Cross-side edges count toward neither.
    """
    m, n_green = _side_sizes(g, part)
    red_in, green_in = _sides(g, part.red_mask())
    # an attribute past GREEN (k_edge_attrs > 2) counts toward neither rate
    coloured = (g.edge_attr == RED) | (g.edge_attr == GREEN)
    return EstimatedRates(*map(float, _rates(g.edge_attr, red_in & coloured, green_in & coloured,
                                             comb(m, 2), comb(n_green, 2))))


class BinReport(_Record):
    """Aggregate over every (partition, replicate) report falling in one bin."""

    rho_lo: float
    rho_hi: float
    p_lo: float
    p_hi: float
    n_partitions: int
    insufficient: bool
    table: MetricTable  # its replicates are the bin's (partition, replicate) reports
    fusion_advantage_mrr: float | None


class TrialsResult(_Record):
    """Gap bins, and per-partition columns beside the screened rows the trials
    ran on: ``table`` (partitions x gammas x columns, over each partition's
    replicates) and ``rates`` (partitions x 4, mean p1, p2, s1, s2 estimates)."""

    bins: dict  # (rho_bin, p_bin) -> BinReport
    partitions: ScreeningResult
    table: MetricTable
    rates: np.ndarray


def bin_index(value: float, width: float) -> int:
    """Index of the half-open bin [i*width, (i+1)*width) containing value."""
    return int(floor(round(value / width, 9)))


def _draw_instances(g: TopicGraph, block: ScreeningResult, first: int, m_prime: int,
                    replicates: int, base_seed, cum_topics: np.ndarray) -> tuple:
    """(edge labels, identified masks, tie-break keys), one row per (partition,
    replicate) of the screened rows ``block``, whose first has ordinal ``first``.

    Replicate r of the partition with ordinal o draws its edge uniforms, its
    m_prime identified red vertices and its tie-break permutation from the
    streams of child_seed(base_seed, o, r, 0..2), as if it ran alone; the
    block's streams are derived in one batch.  Uniforms are drawn straight
    into their row, and a permutation is a range shuffled in place, which is
    numpy's ``Generator.permutation``, draw for draw.  The uniforms of all
    instances then map to topics together, and each partition's topics to its
    labels, read from the block's flat label table.
    """
    n_inst, n_cand = block.n_rows * replicates, g.n - m_prime
    u = np.empty((n_inst, g.num_edges))
    identified = np.zeros((n_inst, g.n), dtype=bool)
    tiebreak = np.empty((n_inst, n_cand), dtype=np.int64)
    tiebreak[:] = np.arange(n_cand)
    rngs = child_generators(base_seed, [(first + j, rep, stream) for j in range(block.n_rows)
                                        for rep in range(replicates) for stream in range(3)])
    for i, (edge_rng, ident_rng, tie_rng) in enumerate(zip(rngs, rngs, rngs)):
        edge_rng.random(out=u[i])
        red_ids = block.red_ids[i // replicates]
        identified[i, ident_rng.choice(red_ids, size=m_prime, replace=False)] = True
        tie_rng.shuffle(tiebreak[i])
    topics = _topics(cum_topics, u)
    del u
    row_starts = np.arange(n_inst) // replicates * g.k_topics
    attr = block.topic_labels.ravel()[topics + row_starts[:, None]]
    return attr, identified, tiebreak


def _trial_block(g: TopicGraph, block: ScreeningResult, first: int, m_prime: int,
                 gamma_grid, replicates: int, base_seed, cum_topics: np.ndarray) -> tuple:
    """(metric values (partitions x gammas x metrics x replicates), mean rates
    (partitions x 4)) of the screened rows ``block``; all (partition,
    replicate) instances are scored, ranked and evaluated as one stack."""
    attr, identified, tiebreak = _draw_instances(g, block, first, m_prime, replicates,
                                                 base_seed, cum_topics)
    n_inst, n_cand = tiebreak.shape
    # the instances as one graph of n_inst disjoint copies, vertex v of copy i
    # at i*n + v; 32-bit vertex ids wherever they fit
    ids = np.int32 if n_inst * g.n < 2**31 else np.int64
    shift = (np.arange(n_inst, dtype=ids) * g.n)[:, None]
    t0, t1 = score_counts(n_inst * g.n, (g.edge_u.astype(ids) + shift).ravel(),
                          (g.edge_v.astype(ids) + shift).ravel(),
                          (attr == RED).ravel(), identified.ravel())
    cand = ~identified.ravel()
    red_masks = np.zeros((block.n_rows, g.n), dtype=bool)
    np.put_along_axis(red_masks, block.red_ids, True, axis=1)
    red = np.repeat(red_masks, replicates, axis=0).ravel()[cand].reshape(n_inst, n_cand)
    t0, t1 = t0[cand].reshape(n_inst, n_cand), t1[cand].reshape(n_inst, n_cand)
    values = evaluate_grid(t0, t1, red, tiebreak, gamma_grid)
    values = np.moveaxis(values.reshape(block.n_rows, replicates, *values.shape[1:]), 1, -1)

    m = block.red_ids.shape[1]
    red_in, green_in = _sides(g, red_masks[:, None, :])
    rates = _rates(attr.reshape(block.n_rows, replicates, -1), red_in, green_in,
                   comb(m, 2), comb(g.n - m, 2))
    rate_sum = np.zeros((block.n_rows, rates.shape[-1]))
    for rep in range(replicates):  # summed in replicate order, as one partition alone would
        rate_sum += rates[:, rep]
    return values, rate_sum / replicates


def check_trial_arguments(m: int, m_prime: int, gamma_grid, replicates: int,
                          bin_width: float) -> tuple:
    """The validated gamma grid, after checking the other trial arguments for
    red sets of size m; cheap enough to run before screening."""
    if m < 2:
        raise InputError(f"m={m} must be >= 2: a density needs two red vertices")
    grid = validate_gamma_grid(gamma_grid)
    if not 1 <= m_prime < m:
        raise InputError(f"m_prime={m_prime} must lie in 1..{m - 1} (red set of {m})")
    _check_replicates(replicates, "replicates_per_partition")
    # gaps lie in [-1, 2]: a smaller width overflows gap / width to infinity
    if not (isfinite(bin_width) and bin_width > 0 and isfinite(2 / bin_width)):
        raise InputError(f"bin width must be finite and > 0, with finitely many bins "
                         f"over the gap range [-1, 2], got {bin_width}")
    return grid


def run_importance_trials(g: TopicGraph, screening: ScreeningResult, m_prime: int, gamma_grid,
                          replicates_per_partition: int, seed, *,
                          bin_width: float = 0.1,
                          n_workers: int = 1) -> TrialsResult:
    """Nomination trials over a screening's accepted partitions, in gap bins.

    For every accepted partition and replicate: instantiate edge attributes,
    identify a uniform m_prime-subset of the red set, occlude the rest, rank
    across the gamma grid, and evaluate.  Reports pool into half-open
    (delta_rho, delta_p) bins of the given width; bins backed by fewer than
    MIN_PARTITIONS partitions are flagged insufficient.  When the grid
    contains {0, 0.5, 1}, each bin also carries the fusion-advantage surface
    value min(MRR(0), MRR(1)) - MRR(0.5).  No accepted rows give no bins and
    zero-row columns.
    """
    red, m = screening.red_ids, screening.red_ids.shape[1]
    if not 2 <= m <= g.n - 2 or ((red < 0) | (red >= g.n)).any() or (np.diff(red) <= 0).any():
        raise InputError(f"screened red sets must be 2..{g.n - 2} ascending ids below {g.n}")
    if screening.topic_labels.shape[1] != g.k_topics:
        raise InputError("screened topic labels do not cover the graph's topics")
    grid = check_trial_arguments(m, m_prime, gamma_grid, replicates_per_partition, bin_width)
    base = child_seed(seed)
    cum_topics = _cumulative_topics(g)
    blocks = parallel_map(_trial_block,
                          [(g, screening.take(slice(first, first + _TRIAL_BLOCK)), first,
                            m_prime, grid, replicates_per_partition, base, cum_topics)
                           for first in range(0, screening.n_rows, _TRIAL_BLOCK)],
                          n_workers)

    # an empty screening runs no block: each column starts from zero rows
    values = np.concatenate([np.empty((0, len(grid), len(CRITERIA), replicates_per_partition)),
                             *(block_values for block_values, _ in blocks)])
    rates = np.concatenate([np.empty((0, 4)), *(block_rates for _, block_rates in blocks)])
    bin_rows: dict = {}
    for i, (rho, p) in enumerate(zip(screening.delta_rho.tolist(), screening.delta_p.tolist())):
        bin_rows.setdefault((bin_index(rho, bin_width), bin_index(p, bin_width)), []).append(i)

    has_triple = all(any(x == want for x in grid) for want in (0.0, 0.5, 1.0))
    bins = {}
    for key in sorted(bin_rows):
        # the bin's (partition, replicate) values, partition by partition
        table = MetricTable.fold(grid, np.concatenate(values[bin_rows[key]], axis=-1))
        advantage = None
        if has_triple:
            advantage = (min(table.value("mrr", 0.0), table.value("mrr", 1.0))
                         - table.value("mrr", 0.5))
        n_parts = len(bin_rows[key])
        bins[key] = BinReport(
            rho_lo=key[0] * bin_width, rho_hi=(key[0] + 1) * bin_width,
            p_lo=key[1] * bin_width, p_hi=(key[1] + 1) * bin_width,
            n_partitions=n_parts,
            insufficient=n_parts < MIN_PARTITIONS,
            table=table,
            fusion_advantage_mrr=advantage,
        )
    return TrialsResult(bins, screening, MetricTable.fold(grid, values), rates)
