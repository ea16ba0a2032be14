"""Partition screening on topic graphs and nomination trials on the survivors.

The pipeline draws uniform red/green vertex partitions, keeps those whose red
side is both denser (delta_rho) and topically distinct (delta_p, an L1 gap
between edge-topic profiles), maps each topic to red or green by the sign of
its profile difference, then repeatedly instantiates edge attributes from the
per-edge topic distributions and runs nomination.  Results aggregate into
(delta_rho, delta_p) bins.

Each step (side masks, density gap, topic profiles, topic draw, candidate
scores, edge rates) has one kernel, shared by the public single-partition
functions and the batched screening and trial loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, floor, isfinite, isnan

import numpy as np

from .errors import EmptyProfileError, InputError, UndefinedDensityError
from .graph import (GREEN, OCCLUDED, RED, AttributedGraph, Partition, TopicGraph,
                    _subset_array)
from .experiments import evaluate_grid, parallel_map
from .metrics import MetricTable
from .nomination import score_counts, validate_gamma_grid
from .seeding import child_seed, generator

_SCREEN_BLOCK = 4096  # draws per derived seed; fixed so results never depend on scheduling
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
        if not np.isin(labels, (RED, GREEN)).all():
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
    draw_index: int = 0


@dataclass(frozen=True)
class ScreeningResult:
    accepted: tuple
    attempts: int
    thresholds: ScreeningThresholds

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
    """(red_in, green_in) edge masks of one (n,) red mask or a (draws, n) stack."""
    ru, rv = red_mask[..., g.edge_u], red_mask[..., g.edge_v]
    return ru & rv, ~ru & ~rv


def _density_gap(red_in, green_in, m: int, n_green: int):
    return red_in.sum(axis=-1) / comb(m, 2) - green_in.sum(axis=-1) / comb(n_green, 2)


def _profile(weights: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Normalized topic weight of the selected edges; zeros if they have none."""
    total = weights[sel].sum(axis=0)
    mass = total.sum()
    return total / mass if mass > 0.0 else np.zeros_like(total)


def _profile_gap(weights: np.ndarray, red_in, green_in) -> tuple:
    """(delta_p, red profile, green profile); delta_p is 0 if a side has no weight."""
    pr, pg = _profile(weights, red_in), _profile(weights, green_in)
    return (float(np.abs(pr - pg).sum()) if pr.any() and pg.any() else 0.0), pr, pg


def _draw_topics(cum_topics: np.ndarray, rng) -> np.ndarray:
    """One topic per edge, in stored (sorted-pair) order, one uniform each."""
    u = rng.random(cum_topics.shape[0])
    return np.minimum((u[:, None] >= cum_topics).sum(axis=1), cum_topics.shape[1] - 1)


def _rates(attr, red_in, green_in, m: int, n_green: int) -> tuple:
    """(p1, p2, s1, s2): red and green edges per green-side, then red-side, pair."""
    red_edge, green_edge = attr == RED, attr == GREEN
    return tuple(np.count_nonzero(side & edge) / comb(size, 2)
                 for side, size in ((green_in, n_green), (red_in, m))
                 for edge in (red_edge, green_edge))


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
    return _profile(_edge_weights(g, weighted), sel)


def delta_rho(g: TopicGraph, part: Partition) -> float:
    """Relative-density difference between the red-induced and green-induced
    subgraphs."""
    m, n_green = _side_sizes(g, part)
    return float(_density_gap(*_sides(g, part.red_mask()), m, n_green))


def delta_p(g: TopicGraph, part: Partition, *, weighted: bool = True) -> float:
    """L1 distance between the red-side and green-side topic profiles."""
    _check_partition(g, part)
    red_in, green_in = _sides(g, part.red_mask())
    if not (red_in.any() and green_in.any()):
        raise EmptyProfileError("induced subgraph has no edges to profile")
    return _profile_gap(_edge_weights(g, weighted), red_in, green_in)[0]


def _check_partition(g, part: Partition):
    if part.n != g.n:
        raise InputError(f"partition is over {part.n} vertices, graph has {g.n}")


def topic_map_from_profiles(profile_red, profile_green) -> TopicMap:
    """Topic goes red iff its red-side share strictly exceeds its green-side
    share; ties go green."""
    diff = np.asarray(profile_red) - np.asarray(profile_green)
    return TopicMap(np.where(diff > 0, RED, GREEN))


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
    base = child_seed(seed)
    accepted = []
    for start in range(0, max_attempts, _SCREEN_BLOCK):
        rng = generator(child_seed(base, start // _SCREEN_BLOCK))
        accepted += _screen_block(g, m, thresholds, weights, rng, start,
                                  min(_SCREEN_BLOCK, max_attempts - start))
    return ScreeningResult(tuple(accepted), max_attempts, thresholds)


def _screen_block(g: TopicGraph, m: int, thresholds: ScreeningThresholds,
                  weights: np.ndarray, rng, start: int, draws: int) -> list:
    """Accepted draws start..start+draws-1; the block's (draws x edges) masks
    live only in this call, so screening never holds two blocks' at once."""
    keys = rng.random((_SCREEN_BLOCK, g.n))[:draws]
    chosen = np.argpartition(keys, m - 1, axis=1)[:, :m]
    red_mask = np.zeros((draws, g.n), dtype=bool)
    red_mask[np.arange(draws)[:, None], chosen] = True
    red_in, green_in = _sides(g, red_mask)
    d_rho = _density_gap(red_in, green_in, m, g.n - m)
    accepted = []
    for row in np.flatnonzero(d_rho > thresholds.tau_rho):
        d_p, pr, pg = _profile_gap(weights, red_in[row], green_in[row])
        if d_p > thresholds.tau_p:
            accepted.append(ScreenedPartition(
                partition=Partition(g.n, np.sort(chosen[row])),
                topic_map=topic_map_from_profiles(pr, pg),
                delta_rho=float(d_rho[row]),
                delta_p=d_p,
                profile_red=pr,
                profile_green=pg,
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
    topics = _draw_topics(np.cumsum(g.topic_probs, axis=1), generator(seed))
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
    return EstimatedRates(*_rates(g.edge_attr, red_in, green_in, m, n_green))


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


def _trial_partition(g: TopicGraph, sp: ScreenedPartition, ordinal: int, m_prime: int,
                     gamma_grid, replicates: int, base_seed, cum_topics: np.ndarray):
    """Raw metric values (gammas x 3 x reps) and mean rates for one partition;
    each replicate instantiates, identifies, ranks, evaluates and estimates."""
    part = sp.partition
    m, n_green = _side_sizes(g, part)
    red_mask = part.red_mask()
    red_in, green_in = _sides(g, red_mask)
    values = []
    rate_sum = np.zeros(4)
    for rep in range(replicates):
        edge_seed, ident_seed, tie_seed = (child_seed(base_seed, ordinal, rep, i)
                                           for i in range(3))
        attr = sp.topic_map.labels[_draw_topics(cum_topics, generator(edge_seed))]
        identified = np.zeros(g.n, dtype=bool)
        identified[generator(ident_seed).choice(part.red_ids, size=m_prime,
                                                replace=False)] = True
        t0, t1 = score_counts(g.n, g.edge_u, g.edge_v, attr == RED, identified)
        cand = np.flatnonzero(~identified)
        tiebreak = generator(tie_seed).permutation(cand.size)
        values.append(evaluate_grid(t0[cand], t1[cand], red_mask[cand], tiebreak, gamma_grid))
        rate_sum += _rates(attr, red_in, green_in, m, n_green)
    return np.stack(values, axis=-1), EstimatedRates(*map(float, rate_sum / replicates))


def check_trial_arguments(m: int, m_prime: int, gamma_grid, replicates: int,
                          bin_width: float) -> tuple:
    """The validated gamma grid, after checking the other trial arguments for
    red sets of size m; cheap enough to run before screening."""
    grid = validate_gamma_grid(gamma_grid)
    if not 1 <= m_prime < m:
        raise InputError(f"m_prime={m_prime} must lie in 1..{m - 1} (red set of {m})")
    if replicates < 1:
        raise InputError("replicates_per_partition must be >= 1")
    if not (isfinite(bin_width) and bin_width > 0):
        raise InputError(f"bin width must be finite and > 0, got {bin_width}")
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
    cum_topics = np.cumsum(g.topic_probs, axis=1)
    raw = parallel_map(_trial_partition,
                       [(g, sp, ordinal, m_prime, grid, replicates_per_partition, base,
                         cum_topics) for ordinal, sp in enumerate(accepted)],
                       n_workers)

    partitions = []
    bin_values: dict = {}
    bin_partitions: dict = {}
    for sp, (values, rates) in zip(accepted, raw):
        partitions.append(PartitionTrial(sp.draw_index, sp.delta_rho, sp.delta_p,
                                         MetricTable.fold(grid, values), rates))
        key = (bin_index(sp.delta_rho, bin_width), bin_index(sp.delta_p, bin_width))
        bin_values.setdefault(key, []).append(values)
        bin_partitions[key] = bin_partitions.get(key, 0) + 1

    has_triple = all(any(x == want for x in grid) for want in (0.0, 0.5, 1.0))
    bins = {}
    for key in sorted(bin_values):
        table = MetricTable.fold(grid, np.concatenate(bin_values[key], axis=-1))
        advantage = None
        if has_triple:
            advantage = (min(table.value("mrr", 0.0), table.value("mrr", 1.0))
                         - table.value("mrr", 0.5))
        n_parts = bin_partitions[key]
        bins[key] = BinReport(
            rho_lo=key[0] * bin_width, rho_hi=(key[0] + 1) * bin_width,
            p_lo=key[1] * bin_width, p_hi=(key[1] + 1) * bin_width,
            n_partitions=n_parts,
            insufficient=n_parts < MIN_PARTITIONS,
            table=table,
            fusion_advantage_mrr=advantage,
        )
    return TrialsResult(bins, tuple(partitions), grid)
