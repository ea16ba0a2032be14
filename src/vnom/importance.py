"""Partition screening on topic graphs and nomination trials on the survivors.

The pipeline draws uniform red/green vertex partitions, keeps those whose red
side is both denser (delta_rho) and topically distinct (delta_p, an L1 gap
between edge-topic profiles), maps each topic to red or green by the sign of
its profile difference, then repeatedly instantiates edge attributes from the
per-edge topic distributions and runs nomination.  Results aggregate into
(delta_rho, delta_p) bins.

Each step (red-internal edge counts, side masks, density gap, topic
profiles, topic draw, candidate scores, edge rates) has one kernel, shared by
the public single-partition functions and the batched screening and trial
loops.  Screening counts edges from neighbour lists, then builds edge masks
and topic profiles only for the draws that pass the density bar, a chunk of
rows per kernel call; trials run in fixed blocks of partitions whose
replicates map their uniforms to topics, and are scored and ranked, as one
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, floor, isfinite, isnan

import numpy as np

from .errors import EmptyProfileError, InputError, UndefinedDensityError
from .graph import (GREEN, OCCLUDED, RED, AttributedGraph, Partition, TopicGraph,
                    _build_adjacency, _subset_array)
from .experiments import _take_rows, evaluate_grid, parallel_map
from .metrics import MetricTable, mean_se
from .nomination import score_counts, validate_gamma_grid
from .seeding import child_seed, generator

_SCREEN_BLOCK = 4096  # draws per derived seed; fixed so results never depend on scheduling
_TRIAL_BLOCK = 64  # partitions per trial task; fixed for the same reason
_PARTITION_ROWS = 512  # key rows per np.partition call: bounds its copy of the keys
_PROFILE_CELLS = 2**18  # (rows x edges) cells per profile kernel call: 2 MB of float mask
_TOPIC_CELLS = 2**20  # (rows x topics x edges) comparisons per topic-mapping pass
MIN_PARTITIONS = 20  # a trial bin backed by fewer partitions is flagged insufficient


@dataclass(frozen=True)
class ScreeningThresholds:
    """Acceptance bars for the density gap and the topic-profile gap.

    Either bar may be infinite; NaN is rejected, since no gap passes it.
    """

    tau_rho: float = 0.1
    tau_p: float = 0.2

    def __post_init__(self):
        if isnan(self.tau_rho) or isnan(self.tau_p):
            raise InputError(f"screening thresholds must not be NaN, got "
                             f"tau_rho={self.tau_rho}, tau_p={self.tau_p}")


@dataclass(frozen=True)
class TopicMap:
    """Total map from topic index (0-based) to RED or GREEN."""

    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int8)
        if labels.ndim != 1 or labels.size < 2:
            raise InputError("topic map needs one label per topic (>= 2 topics)")
        if not ((labels == RED) | (labels == GREEN)).all():
            raise InputError("topic labels must be RED or GREEN")
        object.__setattr__(self, "labels", labels)

    @property
    def k_topics(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class ScreenedPartition:
    """An accepted partition with its gaps, profiles, and derived topic map."""

    partition: Partition
    topic_map: TopicMap
    delta_rho: float
    delta_p: float
    profile_red: np.ndarray = field(repr=False)
    profile_green: np.ndarray = field(repr=False)
    draw_index: int


@dataclass(frozen=True)
class ScreeningResult:
    accepted: tuple
    attempts: int

    @property
    def n_accepted(self) -> int:
        return len(self.accepted)

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.attempts if self.attempts else 0.0


@dataclass(frozen=True)
class EstimatedRates:
    """Edge-rate estimates from one attributed graph and partition."""

    p1: float
    p2: float
    s1: float
    s2: float


def _edge_weights(g: TopicGraph, weighted: bool) -> np.ndarray:
    if weighted:
        return g.topic_probs * g.message_count[:, None].astype(np.float64)
    return g.topic_probs.copy()


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


def _neighbour_lists(g) -> tuple:
    """(offsets, neighbours): the CSR adjacency of g, neighbours of v at
    neighbours[offsets[v]:offsets[v + 1]]."""
    offsets, neighbours, _ = _build_adjacency(g.n, g.edge_u, g.edge_v, np.arange(g.num_edges))
    return offsets, neighbours


def _side_edge_counts(g, adjacency: tuple, chosen: np.ndarray, red_mask: np.ndarray) -> tuple:
    """(red_internal, green_internal) edge counts of each row's red set.

    ``chosen`` holds each row's red ids (rows x m) and ``red_mask`` the same
    sets as (rows x n) masks.  Each red vertex's neighbour list is looked up
    in its row's mask, so the work and memory are O(rows x degree sum).
    """
    offsets, neighbours = adjacency
    degree = np.diff(offsets)[chosen]
    touched = degree.sum(axis=1)  # edges with a red end, red-internal ones twice
    lengths = degree.ravel()
    ends = np.cumsum(lengths)
    # the lookups are most of screening's work: 32-bit indices wherever they fit
    index = np.int32 if max(red_mask.size, neighbours.size, ends[-1]) < 2**31 else np.int64
    # CSR position of every looked-up neighbour, one segment per red vertex
    pos = np.repeat((offsets[chosen.ravel()] - (ends - lengths)).astype(index), lengths)
    pos += np.arange(ends[-1], dtype=index)
    # ... and its place in the flattened (rows x n) mask
    flat = neighbours.astype(index)[pos]
    flat += np.repeat(np.arange(0, red_mask.size, red_mask.shape[1], dtype=index), touched)
    hits_before = np.zeros(flat.size + 1, dtype=index)
    np.cumsum(red_mask.ravel()[flat], out=hits_before[1:])
    row_end = np.cumsum(touched)
    red = (hits_before[row_end] - hits_before[row_end - touched]).astype(np.int64) // 2
    return red, g.num_edges - (touched - red)


def _density_gap(red_edges, green_edges, m: int, n_green: int):
    return red_edges / comb(m, 2) - green_edges / comb(n_green, 2)


def _profile_rows(num_edges: int) -> int:
    """Side-mask rows per call of :func:`_profile_gap` in screening."""
    return max(1, _PROFILE_CELLS // max(num_edges, 1))


def _profiles(weights: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """(rows x topics) normalized topic weight of each row's selected edges,
    ``sel`` being (rows x edges); a row without weight is zeros.

    The einsum adds a row's edges one at a time in edge order, as the axis-0
    sum of ``weights[sel_row]`` does, and x * 1.0 and + 0.0 are exact, so
    each row matches that sum bit for bit; ``optimize=True`` could hand the
    product to BLAS, which adds in another order.
    """
    total = np.einsum("ek,er->rk", weights, sel.T.astype(np.float64), optimize=False)
    mass = total.sum(axis=1, keepdims=True)
    return np.divide(total, mass, out=np.zeros_like(total), where=mass > 0.0)


def _profile_gap(weights: np.ndarray, red_in, green_in) -> tuple:
    """(delta_p, red profiles, green profiles) of each row of the (rows x edges)
    side masks; delta_p is 0 where a side has no weight."""
    pr, pg = _profiles(weights, red_in), _profiles(weights, green_in)
    gap = np.abs(pr - pg).sum(axis=1)
    return np.where(pr.any(axis=1) & pg.any(axis=1), gap, 0.0), pr, pg


def _cumulative_topics(g: TopicGraph) -> np.ndarray:
    """(topics x edges) cumulative topic probabilities of every edge."""
    return np.ascontiguousarray(np.cumsum(g.topic_probs, axis=1).T)


def _topics(cum_topics: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The topic of each edge under uniforms ``u`` (... x edges): the number
    of cumulative probabilities at or below its uniform, at most k - 1.
    ``cum_topics`` is the (topics x edges) table of :func:`_cumulative_topics`."""
    counts = (u[..., None, :] >= cum_topics).sum(axis=-2, dtype=np.int32)
    return np.minimum(counts, cum_topics.shape[0] - 1)


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
    counts = _side_edge_counts(g, _neighbour_lists(g), part.red_ids[None, :],
                               part.red_mask()[None, :])
    return float(_density_gap(*counts, m, n_green)[0])


def delta_p(g: TopicGraph, part: Partition, *, weighted: bool = True) -> float:
    """L1 distance between the red-side and green-side topic profiles."""
    _check_partition(g, part)
    red_in, green_in = _sides(g, part.red_mask()[None])
    if not (red_in.any() and green_in.any()):
        raise EmptyProfileError("induced subgraph has no edges to profile")
    return float(_profile_gap(_edge_weights(g, weighted), red_in, green_in)[0][0])


def _check_partition(g, part: Partition):
    if part.n != g.n:
        raise InputError(f"partition is over {part.n} vertices, graph has {g.n}")


def _topic_labels(profile_red, profile_green) -> np.ndarray:
    """Topic labels of :func:`topic_map_from_profiles`, row by row for stacks."""
    return np.where(np.asarray(profile_red) - np.asarray(profile_green) > 0, RED, GREEN)


def topic_map_from_profiles(profile_red, profile_green) -> TopicMap:
    """Topic goes red iff its red-side share strictly exceeds its green-side
    share; ties go green."""
    return TopicMap(_topic_labels(profile_red, profile_green))


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
    weights = _edge_weights(g, weighted)
    adjacency = _neighbour_lists(g)
    base = child_seed(seed)
    accepted = []
    for start in range(0, max_attempts, _SCREEN_BLOCK):
        rng = generator(child_seed(base, start // _SCREEN_BLOCK))
        accepted += _screen_block(g, m, thresholds, weights, adjacency, rng, start,
                                  min(_SCREEN_BLOCK, max_attempts - start))
    return ScreeningResult(tuple(accepted), max_attempts)


def _smallest_keys_mask(keys: np.ndarray, m: int) -> np.ndarray:
    """(rows x n) mask of each row's m smallest keys: the set
    ``np.argpartition(keys, m - 1, axis=1)[:, :m]`` picks.

    Each row's m-th smallest key comes from ``np.partition`` over chunks of
    rows, so no (rows x n) copy of the keys is made.  A row whose keys tie
    at the m-th place marks more than m entries; those rows alone take
    argpartition's pick.
    """
    mask = np.empty(keys.shape, dtype=bool)
    for lo in range(0, len(keys), _PARTITION_ROWS):
        chunk = keys[lo:lo + _PARTITION_ROWS]
        np.less_equal(chunk, np.partition(chunk, m - 1, axis=1)[:, m - 1:m],
                      out=mask[lo:lo + _PARTITION_ROWS])
    tied = (np.count_nonzero(mask, axis=1) != m).nonzero()[0]
    mask[tied] = False
    mask[tied[:, None], np.argpartition(keys[tied], m - 1, axis=1)[:, :m]] = True
    return mask


def _screen_block(g: TopicGraph, m: int, thresholds: ScreeningThresholds,
                  weights: np.ndarray, adjacency: tuple, rng, start: int, draws: int) -> list:
    """Accepted draws start..start+draws-1.  Density gaps come from edge
    counts; edge masks and topic profiles are built only for the draws
    passing tau_rho, a chunk of rows at a time."""
    red_mask = _smallest_keys_mask(rng.random((_SCREEN_BLOCK, g.n))[:draws], m)
    # each row's red ids, ascending
    chosen = np.flatnonzero(red_mask).reshape(draws, m) - (np.arange(draws) * g.n)[:, None]
    d_rho = _density_gap(*_side_edge_counts(g, adjacency, chosen, red_mask), m, g.n - m)
    passing = np.flatnonzero(d_rho > thresholds.tau_rho)
    step = _profile_rows(g.num_edges)
    accepted = []
    for lo in range(0, passing.size, step):
        rows = passing[lo:lo + step]
        d_p, pr, pg = _profile_gap(weights, *_sides(g, red_mask[rows]))
        labels = _topic_labels(pr, pg)
        for i in np.flatnonzero(d_p > thresholds.tau_p):
            row = rows[i]
            accepted.append(ScreenedPartition(
                partition=Partition(g.n, chosen[row]),
                topic_map=TopicMap(labels[i]),
                delta_rho=float(d_rho[row]),
                delta_p=float(d_p[i]),
                profile_red=pr[i].copy(),  # a view would keep the chunk's rows alive
                profile_green=pg[i].copy(),
                draw_index=start + int(row),
            ))
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


@dataclass(frozen=True)
class PartitionTrial:
    """Per-partition trial summary: metrics over its replicates."""

    index: int
    delta_rho: float
    delta_p: float
    table: MetricTable
    rates: EstimatedRates


@dataclass(frozen=True)
class BinReport:
    """Aggregate over every (partition, replicate) report falling in one bin."""

    rho_lo: float
    rho_hi: float
    p_lo: float
    p_hi: float
    n_partitions: int
    insufficient: bool
    table: MetricTable  # its replicates are the bin's (partition, replicate) reports
    fusion_advantage_mrr: float | None


@dataclass(frozen=True)
class TrialsResult:
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
    m_prime identified red vertices and its tie-break permutation from
    child_seed(base_seed, o, r, 0..2), as if it ran alone; the uniforms of
    all instances then map to topics and labels a chunk of rows at a time.
    """
    n_inst, n_cand = len(block) * replicates, g.n - m_prime
    u = np.empty((n_inst, g.num_edges))
    identified = np.zeros((n_inst, g.n), dtype=bool)
    tiebreak = np.empty((n_inst, n_cand), dtype=np.int64)
    for j, sp in enumerate(block):
        for rep in range(replicates):
            i = j * replicates + rep
            edge_seed, ident_seed, tie_seed = (child_seed(base_seed, first + j, rep, k)
                                               for k in range(3))
            u[i] = generator(edge_seed).random(g.num_edges)
            identified[i, generator(ident_seed).choice(sp.partition.red_ids, size=m_prime,
                                                       replace=False)] = True
            tiebreak[i] = generator(tie_seed).permutation(n_cand)
    labels = np.repeat(np.stack([sp.topic_map.labels for sp in block]), replicates, axis=0)
    attr = np.empty((n_inst, g.num_edges), dtype=np.int8)
    step = max(1, _TOPIC_CELLS // max(cum_topics.size, 1))
    for lo in range(0, n_inst, step):
        attr[lo:lo + step] = _take_rows(labels[lo:lo + step], _topics(cum_topics, u[lo:lo + step]))
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
    # the instances as one graph of n_inst disjoint copies, vertex v of copy i at i*n + v
    shift = (np.arange(n_inst) * g.n)[:, None]
    t0, t1 = score_counts(n_inst * g.n, (g.edge_u + shift).ravel(), (g.edge_v + shift).ravel(),
                          (attr == RED).ravel(), identified.ravel())
    cand = ~identified.ravel()
    red_masks = np.stack([sp.partition.red_mask() for sp in block])
    red = np.repeat(red_masks, replicates, axis=0).ravel()[cand].reshape(n_inst, n_cand)
    t0, t1 = t0[cand].reshape(n_inst, n_cand), t1[cand].reshape(n_inst, n_cand)
    m_inst = np.repeat(m, replicates)
    values = None
    for size in np.unique(m_inst):  # a metric stack needs one red count per row
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
