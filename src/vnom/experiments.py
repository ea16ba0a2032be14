"""Monte Carlo harness: replicate evaluation, parameter sweeps, gamma surfaces,
and the MAP-maximizing gamma.

Every loop ranks each sampled (or instantiated) graph at every gamma with one
ranking routine and scores the rankings with :func:`vnom.metrics.mask_metrics`
into a (gammas x metrics) array per graph; replicates stack on a last axis that
:class:`vnom.metrics.MetricTable` folds into means and standard errors.
:func:`evaluate_grid` serves one candidate set or a stack of them (importance
trials).  Kidney-egg replicates (:func:`_replicate_values`) narrow their
scores and compute their metrics once per chunk of graphs, but tie-order and
rank each graph on its own, one :func:`vnom.nomination.fused_order` call per
gamma: the benchmark pins that call count, so a whole chunk cannot yet be
ranked as one stack.

Determinism contract: every replicate's seed is derived from the master seed
and the replicate's coordinates (cell m, m_prime, replicate index), never from
execution order, so results are bit-identical across worker counts.  Within a
replicate the same sampled graph and the same tie-break stream are reused
across every gamma (paired comparison).
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from .errors import InputError
from .graph import RED, _Record
from .kidney_egg import _SAMPLE_CHUNK, KidneyEggParams, Simplex3, sample_kidney_egg
from .metrics import CRITERIA, MetricTable, mask_metrics
from .nomination import (GAMMA_GRID_DEFAULT, candidate_statistics, fused_order,
                         prepare_ranking, tiebreak_order, validate_gamma_grid)
from .seeding import KEY_VALUES, child_generators


class SweepSpec(_Record):
    """A sweep over m (and derived m_prime) for fixed n, p, s.

    ``m_prime_ratio`` applies round-half-up to ratio*m and clamps into
    [1, m-1]; alternatively give ``m_prime_values`` aligned with ``m_values``.
    Infeasible (n, m, m_prime) combinations are skipped and reported.
    """

    n: int
    p: Simplex3
    s: Simplex3
    m_values: tuple
    gamma_grid: tuple
    replicates: int
    master_seed: int
    m_prime_ratio: float | None = None
    m_prime_values: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", Simplex3.of(self.p))
        object.__setattr__(self, "s", Simplex3.of(self.s))
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "gamma_grid", validate_gamma_grid(self.gamma_grid))
        if self.m_prime_values is not None:
            object.__setattr__(self, "m_prime_values",
                               tuple(int(v) for v in self.m_prime_values))
        if not self.m_values:
            raise InputError("m_values must be non-empty")
        _check_replicates(self.replicates)
        has_ratio = self.m_prime_ratio is not None
        has_list = self.m_prime_values is not None
        if has_ratio == has_list:
            raise InputError("give exactly one of m_prime_ratio or m_prime_values")
        if has_ratio and not 0.0 < self.m_prime_ratio < 1.0:
            raise InputError("m_prime_ratio must lie in (0, 1)")
        if has_list and len(self.m_prime_values) != len(self.m_values):
            raise InputError("m_prime_values must align with m_values")
        cells = [(m, mp) for m, mp, _ in self.cells()]
        for i, cell in enumerate(cells):  # a repeat would run, and write, a cell twice
            if cell in cells[:i]:
                raise InputError(f"sweep repeats the cell (m, m_prime) = {cell}")

    def cells(self):
        """(m, m_prime, skip_reason) for every requested cell."""
        out = []
        for i, m in enumerate(self.m_values):
            if self.m_prime_ratio is not None:
                mp = int(np.floor(self.m_prime_ratio * m + 0.5))  # round half up
                mp = max(1, min(mp, m - 1))
            else:
                mp = self.m_prime_values[i]
            reason = None
            if not self.n > m:
                reason = f"m={m} must be smaller than n={self.n}"
            elif not m > mp >= 1:
                reason = f"need m > m_prime >= 1, got m={m}, m_prime={mp}"
            out.append((m, mp, reason))
        return out


def _check_replicates(replicates: int, name: str = "replicates"):
    """Replicate r is seeded by a key word r, so a count lies in 1..2**32;
    checked before any key is made."""
    if not 1 <= replicates <= KEY_VALUES:
        raise InputError(f"{name} must lie in 1..2**32 (replicate keys stop at "
                         f"2**32 - 1), got {replicates}")


class CellResult(_Record):
    """Aggregated metrics of one (m, m_prime) cell."""

    m: int
    m_prime: int
    table: MetricTable
    gamma_star: dict  # criterion -> gamma


class SweepResult(_Record):
    spec: SweepSpec
    cells: tuple
    skipped: tuple  # (m, m_prime, reason)


def pool_size(n_workers: int, n_tasks: int) -> int:
    """Processes to start: n_workers (>= 1) capped at the tasks and the CPUs,
    since a process pool starts every worker at its first submit."""
    if n_workers < 1:
        raise InputError(f"n_workers must be >= 1, got {n_workers}")
    return max(1, min(n_workers, n_tasks, os.cpu_count() or 1))


def parallel_map(fn, tasks, n_workers: int) -> list:
    """``[fn(*task) for task in tasks]``, on :func:`pool_size` processes.

    Tasks go to the workers in contiguous chunks, one per worker, and results
    come back in task order, so the output never depends on scheduling.
    Workers are spawned, not forked, so no lock held by another thread of
    this process is copied into them.  The pool's modules (``multiprocessing``,
    ``concurrent.futures`` and what they pull in) are imported only when more
    than one process is started, so a one-worker run never loads them.
    """
    tasks = list(tasks)
    workers = pool_size(n_workers, len(tasks))
    if workers == 1:
        return [fn(*task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=-(-len(tasks) // workers)))


def _take_rows(a, index) -> np.ndarray:
    """``a[index]`` for one row ``a``; for a stack, row i of ``a`` at the index
    rows lined up with it, by flat indexing (cheaper than take_along_axis)."""
    if a.ndim == 1:
        return a[index]
    return a.ravel()[index + (np.arange(len(a)) * a.shape[1])[:, None]]


def _ranked_masks(scores, red, grid) -> np.ndarray:
    """``red`` in each gamma's :func:`vnom.nomination.fused_order` of the
    tie-ordered score stack ``scores``: (gammas x candidates) for one
    candidate row, (gammas x instances x candidates) for a stack of rows,
    with one product and one sort per gamma either way."""
    orders = np.empty((len(grid), *red.shape), dtype=np.intp)
    for i, gamma in enumerate(grid):
        orders[i] = fused_order(scores, gamma)
    return _take_rows(red, orders)


def evaluate_grid(t0, t1, red, tiebreak, gamma_grid, y_values=()) -> np.ndarray:
    """Rank one candidate set at every gamma and score each ranking.

    ``t0``/``t1`` are the candidates' context and content scores, ``red``
    their truth mask and ``tiebreak`` the keys ordering tied candidates
    (ascending, then by position).  Integer keys in [0, 2**16), as any
    permutation of fewer than 65 536 candidates is, are sorted as uint16
    keys (:func:`vnom.nomination.tiebreak_order`), by numpy's radix sort.
    The candidates go into tie-break order once, and their scores into one
    ``(2 x candidates)`` stack in that order, range-checked and narrowed once
    (:func:`vnom.nomination.prepare_ranking`); each gamma then stably sorts
    one product of its weight vector with the stack
    (:func:`vnom.nomination.fused_order`), so ties keep the tie-break order,
    and one :func:`vnom.metrics.mask_metrics` call scores every ranking.
    Returns a (gammas x metrics) array with the columns of
    :func:`vnom.metrics.mask_metrics`.  The four arrays may instead be
    (instances x candidates) stacks with one red count per stack; the score
    stack is then (instances x 2 x candidates), each row is ranked on its
    own, with one product and one sort per gamma for the whole stack, and the
    result is (instances x gammas x metrics).  Kidney-egg replicates go
    through :func:`_replicate_values` instead, which ranks graph by graph
    with the same step but prepares and scores a chunk of graphs at a time.
    """
    first = tiebreak_order(tiebreak)  # kept by stable fused sorts
    scores = prepare_ranking(_take_rows(t0, first), _take_rows(t1, first))  # once, not per gamma
    grid = tuple(gamma_grid)
    masks = _ranked_masks(scores, _take_rows(red, first), grid)
    values = mask_metrics(masks.reshape(-1, masks.shape[-1]), y_values)
    if red.ndim == 1:
        return values
    return np.moveaxis(values.reshape(len(grid), len(red), -1), 0, 1)  # instances first


# Bound on (gammas x candidates x replicates) ranked-mask cells per chunk of
# _replicate_values: a sweep cell's 40 replicates at 3 gammas fit in one, a
# 101-gamma surface at n = 184 takes 4 replicates per chunk.
_CHUNK_CELLS = 1 << 16


def _replicate_values(params: KidneyEggParams, gamma_grid, seed, prefix: tuple,
                      replicates: int, y_values=()):
    """(gammas x metrics x replicates) array, one replicate per key
    ``(*prefix, rep)``, rep in 0..replicates-1.

    The replicate keyed ``key`` samples one graph from the stream of
    ``child_seed(seed, *key, 0)`` and ranks it at every gamma with the
    tie-break keys that the stream of ``child_seed(seed, *key, 1)`` draws:
    a range 0..candidates-1 shuffled in place, which is numpy's
    ``Generator.permutation(candidates)``, draw for draw.

    Replicates are sampled and ranked in chunks of at most ``_CHUNK_CELLS``
    ranked cells, and their keys built and seed states derived
    (:func:`vnom.seeding.child_generators`) ``kidney_egg._SAMPLE_CHUNK`` keys
    at a time, so the keys, graphs, scores, masks and seed states in flight
    do not grow with the replicate count.  What does grow with it: the
    (gammas x metrics x replicates) values returned.  Every graph has the
    n - m_prime candidates of its cell, so a chunk's scores, red masks and
    tie-break keys fill (replicates x candidates) arrays, which one
    :func:`vnom.nomination.prepare_ranking` call narrows and one
    :func:`vnom.metrics.mask_metrics` call scores after ranking.  Each graph
    is still tie-ordered and ranked on its own, one
    :func:`vnom.nomination.fused_order` call per gamma, as the benchmark pins
    the count of those calls; a chunk's keys may take a wider tier than one
    graph's would, which gives the same permutations.
    """
    grid = tuple(gamma_grid)
    size = params.n - params.m_prime  # candidates: every vertex but the identified ones
    per_chunk = max(1, _CHUNK_CELLS // (len(grid) * size))
    # each chunk of keys derives its streams when the first of them is needed
    rngs = chain.from_iterable(
        child_generators(seed, [(*prefix, rep, stream)
                                for rep in range(lo, min(lo + _SAMPLE_CHUNK, replicates))
                                for stream in (0, 1)])
        for lo in range(0, replicates, _SAMPLE_CHUNK))
    pairs = zip(rngs, rngs)  # consecutive pairs of the one iterator
    values = np.empty((len(grid), len(CRITERIA) + len(y_values), replicates))
    for start in range(0, replicates, per_chunk):
        reps = min(per_chunk, replicates - start)
        t0 = np.empty((reps, size), dtype=np.int64)
        t1 = np.empty_like(t0)
        tiebreak = np.empty_like(t0)
        tiebreak[:] = np.arange(size)  # each row shuffled in place: permutation(size)'s draws
        red = np.empty((reps, size), dtype=bool)
        for r, (sample_rng, tie_rng) in zip(range(reps), pairs):  # range first: no pair lost
            g = sample_kidney_egg(params, sample_rng)
            cand, t0[r], t1[r] = candidate_statistics(g)
            tie_rng.shuffle(tiebreak[r])
            red[r] = g.truth[cand] == RED  # every candidate is occluded, so red <=> red candidate
            del g  # freed before the next is sampled; holding it made sweeps ~7% slower
        scores = prepare_ranking(t0, t1)  # once per chunk, not per graph
        masks = np.empty((reps, len(grid), size), dtype=bool)
        for r in range(reps):
            first = tiebreak_order(tiebreak[r])  # kept by stable fused sorts
            masks[r] = _ranked_masks(scores[r][:, first], red[r][first], grid)
        chunk = mask_metrics(masks.reshape(-1, size), y_values)
        values[..., start:start + reps] = chunk.reshape(reps, len(grid), -1).transpose(1, 2, 0)
    return values


def _best_gamma(gamma_grid, scores) -> float:
    """Grid point with the largest score, ties toward the smallest gamma."""
    best = max(scores)
    return min(gamma for gamma, v in zip(gamma_grid, scores) if v == best)


def _run_cell(spec: SweepSpec, m: int, m_prime: int) -> CellResult:
    params = KidneyEggParams(spec.n, m, m_prime, spec.p, spec.s)
    values = _replicate_values(params, spec.gamma_grid, spec.master_seed, (m, m_prime),
                               spec.replicates)
    table = MetricTable.fold(spec.gamma_grid, values)
    best = {criterion: _best_gamma(spec.gamma_grid, table.column(criterion))
            for criterion in CRITERIA}
    return CellResult(m, m_prime, table, best)


def run_sweep(spec: SweepSpec, n_workers: int = 1) -> SweepResult:
    """Evaluate every feasible cell of the sweep.

    Cells run in parallel on up to ``n_workers`` processes (capped by
    :func:`pool_size`); output is keyed by cell and independent of
    scheduling.
    """
    feasible = []
    skipped = []
    for m, mp, reason in spec.cells():
        if reason is None:
            feasible.append((m, mp))
        else:
            skipped.append((m, mp, reason))
    cells = parallel_map(_run_cell, [(spec, m, mp) for m, mp in feasible], n_workers)
    return SweepResult(spec, tuple(cells), tuple(skipped))


def gamma_surface(params: KidneyEggParams, gamma_grid, y_max: int,
                  replicates: int, seed) -> MetricTable:
    """Metric table with truncated average precision for y in 1..y_max.

    The AP^1 column equals the MRR column identically: the precision at the
    first red candidate's rank is its reciprocal rank.
    """
    grid = validate_gamma_grid(gamma_grid)
    _check_replicates(replicates)
    n_red_candidates = params.m - params.m_prime
    if not 1 <= y_max <= n_red_candidates:
        raise InputError(
            f"y_max must lie in 1..{n_red_candidates} (red candidates), got {y_max}")
    y_values = tuple(range(1, y_max + 1))
    values = _replicate_values(params, grid, seed, (), replicates, y_values)
    return MetricTable.fold(grid, values, y_values)


def gamma_star(params: KidneyEggParams, gamma_grid=GAMMA_GRID_DEFAULT,
               criterion: str = "map", *, replicates: int, seed) -> float:
    """Grid point maximizing the Monte Carlo mean of the criterion.

    The means are those of :func:`gamma_surface` on the same seed, so every
    grid point is compared on the same graphs and tie-break streams.  Ties in
    the estimate go to the smallest gamma.
    """
    if criterion not in CRITERIA:
        raise InputError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    table = gamma_surface(params, gamma_grid, 1, replicates, seed)
    return _best_gamma(table.gammas, table.column(criterion))
