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
rows per kernel call.  Trials run in blocks of partitions whose replicates
map their uniforms to topics, and are scored and ranked, as one stack.
"""

from __future__ import annotations

from math import comb, floor, isfinite, isnan

import numpy as np

from .errors import EmptyProfileError, InputError, UndefinedDensityError
from .graph import (GREEN, OCCLUDED, RED, AttributedGraph, Partition, TopicGraph, _Record,
                    _sorted_unique, _subset_array)
from .experiments import evaluate_grid, parallel_map
from .kidney_egg import _pair_offsets, _pairs
from .metrics import MetricTable, mean_se
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


class ScreenedPartition(_Record):
    """An accepted partition with its gaps and derived topic map."""

    partition: Partition
    topic_map: TopicMap
    delta_rho: float
    delta_p: float
    draw_index: int


class ScreeningResult(_Record):
    accepted: tuple
    attempts: int

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

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
    the pair-slot table, its offsets, the degree vector, and the red pairs
    (first, second) of :func:`kidney_egg._pairs` (m)).  The table holds the
    slot of every vertex pair u < v at ``offsets[u] + v``, in lexicographic
    pair order: e + 1 for edge e, 0 (the zero weight row) for no edge, in the
    narrowest unsigned type that holds the edge count."""
    weights = np.concatenate([np.zeros((1, g.k_topics)), _edge_weights(g, weighted)])
    # the lookups are most of the work: 32-bit positions wherever they fit
    offsets = _pair_offsets(g.n).astype(np.int32 if comb(g.n, 2) <= 2**31 else np.int64)
    table = np.zeros(comb(g.n, 2), dtype=np.min_scalar_type(g.num_edges))
    table[offsets[g.edge_u] + g.edge_v] = np.arange(1, g.num_edges + 1)
    degree = np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=g.n)
    return weights, table, offsets, degree, _pairs(m)


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
    (1 MB of int32 positions), and the larger of edges and red pairs for
    :func:`_profile_gap` (2 MB of float mask) and its lookups."""
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


def _cumulative_topics(g: TopicGraph) -> np.ndarray:
    """(topics x edges) cumulative topic probabilities of every edge."""
    return np.ascontiguousarray(np.cumsum(g.topic_probs, axis=1).T)


def _topics(cum_topics: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The topic of each edge under uniforms ``u`` (... x edges): the number
    of its first k - 1 cumulative probabilities at or below its uniform.
    Cumulative sums of non-negative probabilities never decrease, so that is
    the count over all k capped at k - 1: a uint8 holds it for k <= 256, a
    uint16 for any k <= ``graph.MAX_TOPICS``.  ``cum_topics`` is the
    (topics x edges) table of :func:`_cumulative_topics`."""
    topics = np.zeros(u.shape, dtype=np.uint8 if len(cum_topics) <= 256 else np.uint16)
    for threshold in cum_topics[:-1]:
        topics += u >= threshold
    return topics


def _rates(attr, red_in, green_in, red_pairs, green_pairs) -> np.ndarray:
    """(..., 4) rates (p1, p2, s1, s2): red and green edges per green-side,
    then red-side, pair, for edge attributes and side masks over the last axis."""
    red_edge, green_edge = attr == RED, attr == GREEN
    return np.stack([np.count_nonzero(side & edge, axis=-1) / pairs
                     for side, pairs in ((green_in, green_pairs), (red_in, red_pairs))
                     for edge in (red_edge, green_edge)], axis=-1)


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
                      max_attempts: int, seed, *, weighted: bool = True) -> ScreeningResult:
    """Draw uniform m-subsets as red sets; keep those passing both gaps.

    A draw is accepted iff delta_rho > tau_rho AND delta_p > tau_p (strict).
    A side that induces no edge weight has no observable topic differential:
    its profile is taken as the zero vector and the draw's delta_p as 0, so
    such draws never pass a positive tau_p.  Draw i is a pure function of
    (seed, i): draws are generated in fixed-size blocks with one derived seed
    per block, so the accepted list (ordered by draw index) is reproducible
    under any parallel schedule.  Zero acceptances is a valid outcome, not an
    error.
    """
    if not 2 <= m <= g.n - 2:
        raise InputError(f"m must lie in 2..{g.n - 2}, got {m}")
    if max_attempts < 1:
        raise InputError("max_attempts must be >= 1")
    tables = _screen_tables(g, m, weighted)
    base = child_seed(seed)
    accepted = []
    for start in range(0, max_attempts, _SCREEN_BLOCK):
        rng = generator(child_seed(base, start // _SCREEN_BLOCK))
        accepted += _screen_block(g, m, thresholds, tables, rng, start,
                                  min(_SCREEN_BLOCK, max_attempts - start))
    return ScreeningResult(tuple(accepted), max_attempts)


def _smallest_keys_mask(keys: np.ndarray, m: int) -> np.ndarray:
    """(rows x n) mask of each row's m smallest keys: the set
    ``np.argpartition(keys, m - 1, axis=1)[:, :m]`` picks.

    Each row's m-th smallest key comes from ``np.partition``, which copies
    what it is given: it takes a quarter of the rows at a time, so the copy
    stays small beside the keys.  A row whose keys tie at the m-th place
    marks more than m entries; those rows alone take argpartition's pick.
    """
    mask = np.empty(keys.shape, dtype=bool)
    step = -(-len(keys) // 4)
    for lo in range(0, len(keys), step):
        chunk = keys[lo:lo + step]
        np.less_equal(chunk, np.partition(chunk, m - 1, axis=1)[:, m - 1:m],
                      out=mask[lo:lo + step])
    tied = (np.count_nonzero(mask, axis=1) != m).nonzero()[0]
    mask[tied] = False
    mask[tied[:, None], np.argpartition(keys[tied], m - 1, axis=1)[:, :m]] = True
    return mask


def _screen_block(g: TopicGraph, m: int, thresholds: ScreeningThresholds, tables: tuple,
                  rng, start: int, draws: int) -> list:
    """Accepted draws start..start+draws-1, with the screen's ``tables`` (of
    :func:`_screen_tables`).

    The block's keys are drawn a chunk of rows at a time; consecutive
    ``rng.random((rows, n))`` calls read the stream one (draws x n) call
    would, so no draw depends on the chunk size.  For each chunk, density
    gaps come from edge counts, red-internal ones the red pairs' non-zero
    slots (:func:`_red_slots`), and only the ids, gaps and indices of the
    draws passing tau_rho are kept.  Those are then profiled a chunk of rows
    per kernel call: the red side's topic totals from its own edges, looked
    up again (:func:`_red_totals`), the green side's from its edge mask.
    """
    weights, table, offsets, degree, pairs = tables
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
        keep = np.flatnonzero(d_rho > thresholds.tau_rho)
        passing.append((chosen[keep], d_rho[keep], lo + keep))
    chosen, d_rho, rows = (np.concatenate(part) for part in zip(*passing))
    step = _chunk_rows(max(g.num_edges, len(pairs[0])))
    accepted = []
    for lo in range(0, len(rows), step):
        ids = chosen[lo:lo + step]
        red_mask = np.zeros((len(ids), g.n), dtype=bool)
        np.put_along_axis(red_mask, ids, True, axis=1)
        green_in = ~(red_mask[:, g.edge_u] | red_mask[:, g.edge_v])
        d_p, pr, pg = _profile_gap(weights[1:],
                                   _red_totals(weights, _red_slots(table, offsets, ids, pairs)),
                                   green_in)
        labels = _topic_labels(pr, pg)
        for i in np.flatnonzero(d_p > thresholds.tau_p):
            accepted.append(ScreenedPartition(Partition(g.n, ids[i]), TopicMap(labels[i]),
                                              float(d_rho[lo + i]), float(d_p[i]),
                                              start + int(rows[lo + i])))
    return accepted


def instantiate_edges(g: TopicGraph, topic_map: TopicMap, part: Partition,
                      seed) -> AttributedGraph:
    """Attribute every edge by drawing its topic and mapping it to red/green.

    Topology is unchanged; vertex truth comes from the partition; the
    observed layer is fully occluded (identify vertices downstream).
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
    return EstimatedRates(*map(float, _rates(g.edge_attr, red_in, green_in,
                                             comb(m, 2), comb(n_green, 2))))


class PartitionTrial(_Record):
    """Per-partition trial summary: metrics over its replicates."""

    index: int
    delta_rho: float
    delta_p: float
    table: MetricTable
    rates: EstimatedRates


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
    bins: dict  # (rho_bin, p_bin) -> BinReport
    partitions: tuple
    gamma_grid: tuple


def bin_index(value: float, width: float) -> int:
    """Index of the half-open bin [i*width, (i+1)*width) containing value."""
    return int(floor(round(value / width, 9)))


def _draw_instances(g: TopicGraph, block, first: int, m_prime: int, replicates: int,
                    base_seed, cum_topics: np.ndarray) -> tuple:
    """(edge labels, identified masks, tie-break keys), one row per (partition,
    replicate) of ``block``, whose first partition has ordinal ``first``.

    Replicate r of the partition with ordinal o draws its edge uniforms, its
    m_prime identified red vertices and its tie-break permutation from the
    streams of child_seed(base_seed, o, r, 0..2), as if it ran alone; the
    block's streams are derived in one batch.  The uniforms of all instances
    then map to topics together, and each partition's topics to its labels.
    """
    n_inst, n_cand = len(block) * replicates, g.n - m_prime
    u = np.empty((n_inst, g.num_edges))
    identified = np.zeros((n_inst, g.n), dtype=bool)
    tiebreak = np.empty((n_inst, n_cand), dtype=np.int64)
    rngs = child_generators(base_seed, [(first + j, rep, stream) for j in range(len(block))
                                        for rep in range(replicates) for stream in range(3)])
    for i, (edge_rng, ident_rng, tie_rng) in enumerate(zip(rngs, rngs, rngs)):
        u[i] = edge_rng.random(g.num_edges)
        red_ids = block[i // replicates].partition.red_ids
        identified[i, ident_rng.choice(red_ids, size=m_prime, replace=False)] = True
        tiebreak[i] = tie_rng.permutation(n_cand)
    topics = _topics(cum_topics, u)
    del u
    attr = np.empty(topics.shape, dtype=np.int8)
    for j, sp in enumerate(block):
        rows = slice(j * replicates, (j + 1) * replicates)
        attr[rows] = sp.topic_map.labels[topics[rows]]
    return attr, identified, tiebreak


def _trial_block(g: TopicGraph, block, first: int, m_prime: int, gamma_grid,
                 replicates: int, base_seed, cum_topics: np.ndarray) -> list:
    """(metric values (partitions x gammas x metrics x replicates), mean rates
    (partitions x 4)) of the partitions in ``block``; all (partition,
    replicate) instances are scored, ranked and evaluated as one stack."""
    m, n_green = np.array([_side_sizes(g, sp.partition) for sp in block]).T
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
    red_masks = np.stack([sp.partition.red_mask() for sp in block])
    red = np.repeat(red_masks, replicates, axis=0).ravel()[cand].reshape(n_inst, n_cand)
    t0, t1 = t0[cand].reshape(n_inst, n_cand), t1[cand].reshape(n_inst, n_cand)
    m_inst = np.repeat(m, replicates)
    values = None
    for size in _sorted_unique(m_inst):  # a metric stack needs one red count per row
        rows = m_inst == size
        got = evaluate_grid(t0[rows], t1[rows], red[rows], tiebreak[rows], gamma_grid)
        if values is None:
            values = np.empty((n_inst, *got.shape[1:]))
        values[rows] = got
    values = np.moveaxis(values.reshape(len(block), replicates, *values.shape[1:]), 1, -1)

    red_in, green_in = _sides(g, red_masks[:, None, :])
    rates = _rates(attr.reshape(len(block), replicates, -1), red_in, green_in,
                   (m * (m - 1) // 2)[:, None], (n_green * (n_green - 1) // 2)[:, None])
    rate_sum = np.zeros((len(block), rates.shape[-1]))
    for rep in range(replicates):  # summed in replicate order, as one partition alone would
        rate_sum += rates[:, rep]
    return values, rate_sum / replicates


def check_trial_arguments(m: int, m_prime: int, gamma_grid, replicates: int,
                          bin_width: float) -> tuple:
    """The validated gamma grid, after checking the other trial arguments for
    red sets of size m; cheap enough to run before screening."""
    grid = validate_gamma_grid(gamma_grid)
    if not 1 <= m_prime < m:
        raise InputError(f"m_prime={m_prime} must lie in 1..{m - 1} (red set of {m})")
    if replicates < 1:
        raise InputError("replicates_per_partition must be >= 1")
    # gaps lie in [-1, 2]: a smaller width overflows gap / width to infinity
    if not (isfinite(bin_width) and bin_width > 0 and isfinite(2 / bin_width)):
        raise InputError(f"bin width must be finite and > 0, with finitely many bins "
                         f"over the gap range [-1, 2], got {bin_width}")
    return grid


def run_importance_trials(g: TopicGraph, accepted, m_prime: int, gamma_grid,
                          replicates_per_partition: int, seed, *,
                          bin_width: float = 0.1,
                          n_workers: int = 1) -> TrialsResult:
    """Nomination trials over accepted partitions, aggregated into gap bins.

    For every accepted partition and replicate: instantiate edge attributes,
    identify a uniform m_prime-subset of the red set, occlude the rest, rank
    across the gamma grid, and evaluate.  Reports pool into half-open
    (delta_rho, delta_p) bins of the given width; bins backed by fewer than
    MIN_PARTITIONS partitions are flagged insufficient.  When the grid
    contains {0, 0.5, 1}, each bin also carries the fusion-advantage surface
    value min(MRR(0), MRR(1)) - MRR(0.5).
    """
    accepted = list(accepted)
    if not accepted:
        raise InputError("no accepted partitions to run trials on")
    grid = check_trial_arguments(min(sp.partition.num_red for sp in accepted), m_prime,
                                 gamma_grid, replicates_per_partition, bin_width)
    base = child_seed(seed)
    cum_topics = _cumulative_topics(g)
    blocks = parallel_map(_trial_block,
                          [(g, accepted[first:first + _TRIAL_BLOCK], first, m_prime, grid,
                            replicates_per_partition, base, cum_topics)
                           for first in range(0, len(accepted), _TRIAL_BLOCK)],
                          n_workers)

    values = np.concatenate([block_values for block_values, _ in blocks])
    rates = np.concatenate([block_rates for _, block_rates in blocks])
    means, ses = mean_se(values)  # each partition's table, folded in one call
    partitions = []
    bin_rows: dict = {}
    for i, sp in enumerate(accepted):
        table = MetricTable(grid, (), means[i], ses[i], replicates_per_partition)
        partitions.append(PartitionTrial(sp.draw_index, sp.delta_rho, sp.delta_p, table,
                                         EstimatedRates(*map(float, rates[i]))))
        key = (bin_index(sp.delta_rho, bin_width), bin_index(sp.delta_p, bin_width))
        bin_rows.setdefault(key, []).append(i)

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
    return TrialsResult(bins, tuple(partitions), grid)
