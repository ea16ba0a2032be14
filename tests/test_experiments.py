"""Monte Carlo harness: replicates, sweeps, surfaces, determinism."""

import os

import numpy as np
import pytest

import vnom.experiments
from vnom import (GAMMA_GRID_DEFAULT, InputError, KidneyEggParams, Simplex3, SweepSpec,
                  candidate_statistics, evaluate_ranking, gamma_star, gamma_surface,
                  rank_candidates, run_sweep, sample_kidney_egg)
from vnom.experiments import _replicate_values, evaluate_grid, parallel_map, pool_size
from vnom.graph import RED
from vnom.nomination import validate_gamma_grid
from vnom.seeding import child_generators, child_seed

PAPER_P = Simplex3(0.6, 0.2, 0.2)
PAPER_S = Simplex3(0.4, 0.4, 0.2)


def small_params(n=30, m=10, mp=4):
    return KidneyEggParams(n, m, mp, PAPER_P, PAPER_S)


class TestRunReplicate:
    """One replicate through the harness's replicate loop."""

    def test_single_gamma_matches_direct_pipeline(self):
        # the harness must agree with calling the public ops by hand
        params = small_params()
        seed = 4242
        row = _replicate_values(params, [0.5], seed, (), 1)[0, :, 0]

        sample_seed, tie_seed = child_seed(seed, 0).spawn(2)
        g = sample_kidney_egg(params, sample_seed)
        ranking = rank_candidates(g, 0.5, tie_seed)
        direct = evaluate_ranking(ranking, g.red_candidates())
        assert list(row) == [direct.s_at_1, direct.rr, direct.ap]

    def test_same_seed_same_values(self):
        params = small_params()
        a = _replicate_values(params, [0.0, 1.0], 7, (), 2)
        b = _replicate_values(params, [0.0, 1.0], 7, (), 2)
        assert a.shape == (2, 3, 2)
        assert a.tobytes() == b.tobytes()

    def test_no_red_edges_makes_content_a_full_tie(self):
        # p1 = s1 = 0: every content score is zero, so gamma=1 is one big tie
        params = KidneyEggParams(20, 6, 2, (0.6, 0.0, 0.4), (0.4, 0.0, 0.6))
        seed = 11
        sample_seed, tie_seed = child_seed(seed, 0).spawn(2)
        g = sample_kidney_egg(params, sample_seed)
        ranking = rank_candidates(g, 1.0, tie_seed)
        assert ranking.tie_groups == ((0, len(ranking)),)
        values = _replicate_values(params, [0.0, 1.0], seed, (), 1)
        direct = evaluate_ranking(ranking, g.red_candidates())
        assert list(values[1, :, 0]) == [direct.s_at_1, direct.rr, direct.ap]

    def test_y_values_forwarded(self):
        params = small_params()
        row = _replicate_values(params, [0.5], 3, (), 1, y_values=(1, 2))[0, :, 0]
        assert row.shape == (5,)
        assert row[3] == row[1]  # AP^1 is the reciprocal rank


class TestEvaluateGrid:
    @pytest.mark.parametrize("p,s", [
        ((0.6, 0.2, 0.2), (0.4, 0.4, 0.2)),
        ((0.6, 0.0, 0.4), (0.4, 0.0, 0.6)),  # p1 = s1 = 0: content is one full tie
    ])
    def test_rows_equal_single_rankings(self, p, s):
        # 0.1 + 0.2 is no small rational, so it is keyed at its exact binary value
        grid = (0.0, 0.25, 0.1 + 0.2, 0.5, 1 / 3, 1.0)
        y_values = (1, 2, 3)
        params = KidneyEggParams(24, 8, 3, p, s)
        for seed in range(4):
            g = sample_kidney_egg(params, child_seed(seed, 0))
            cand, t0, t1 = candidate_statistics(g)
            tie_seed = child_seed(seed, 1)
            tiebreak = np.random.default_rng(tie_seed).permutation(cand.size)
            values = evaluate_grid(t0, t1, g.truth[cand] == RED, tiebreak, grid, y_values)
            assert values.shape == (len(grid), 3 + len(y_values))
            for gamma, row in zip(grid, values):
                report = evaluate_ranking(rank_candidates(g, gamma, tie_seed),
                                          g.red_candidates(), y_values)
                assert (row[0], row[1], row[2]) == (report.s_at_1, report.rr, report.ap)
                assert list(row[3:]) == [report.ap_y[y] for y in y_values]


    def test_stack_rows_equal_single_calls(self):
        # heavy ties: scores from {0, 1, 2}; 0.3333333217048645 needs object keys
        grid = (0.0, 1 / 3, 0.1 + 0.2, 0.3333333217048645, 1.0)
        rng = np.random.default_rng(5)
        stacks, n_cand = 40, 30
        t0 = rng.integers(0, 3, size=(stacks, n_cand))
        t1 = rng.integers(0, 3, size=(stacks, n_cand))
        red = np.zeros((stacks, n_cand), dtype=bool)
        for row in red:
            row[rng.choice(n_cand, size=4, replace=False)] = True
        tiebreak = np.stack([rng.permutation(n_cand) for _ in range(stacks)])
        stacked = evaluate_grid(t0, t1, red, tiebreak, grid, (1, 2))
        single = np.stack([evaluate_grid(*row, grid, (1, 2))
                           for row in zip(t0, t1, red, tiebreak)])
        assert stacked.shape == single.shape == (stacks, len(grid), 5)
        assert stacked.dtype == single.dtype
        assert stacked.tobytes() == single.tobytes()


def graph_by_graph_values(params, grid, seed, rep_keys, y_values):
    """_replicate_values as one evaluate_grid call per sampled graph, over the
    same generator streams: the replicate loop before chunking."""
    rngs = child_generators(seed, [(*key, stream) for key in rep_keys for stream in (0, 1)])
    values = []
    for sample_rng, tie_rng in zip(rngs, rngs):
        g = sample_kidney_egg(params, sample_rng)
        cand, t0, t1 = candidate_statistics(g)
        values.append(evaluate_grid(t0, t1, g.truth[cand] == RED,
                                    tie_rng.permutation(cand.size), grid, y_values))
    return np.stack(values, axis=-1)


# content-led graphs at n = 260 whose top scores, at seed 4, are 256, 254 and
# 257: in chunks of 2 the 254 graph shares a chunk with a score of 2**8 or more
WIDE = KidneyEggParams(260, 10, 4, (0.03, 0.95, 0.02), PAPER_S)
CHUNK_GRID = (0.0, 0.25, 0.1 + 0.2, 0.5, 1.0)  # 0.1 + 0.2 takes object keys


class TestReplicateChunks:
    @pytest.mark.parametrize("per_chunk", [1, 2])
    @pytest.mark.parametrize("params,seed,replicates", [(small_params(), 7, 5), (WIDE, 4, 3)],
                             ids=["n=30", "n=260"])
    def test_chunks_equal_graph_by_graph_evaluation(self, monkeypatch, per_chunk, params,
                                                    seed, replicates):
        # odd replicate counts leave a ragged last chunk of 2; streams are
        # derived 3 keys at a time, across the ranked chunks' bounds
        keys = [(rep,) for rep in range(replicates)]
        want = graph_by_graph_values(params, CHUNK_GRID, seed, keys, (1, 2))
        cells = per_chunk * len(CHUNK_GRID) * (params.n - params.m_prime)
        monkeypatch.setattr(vnom.experiments, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(vnom.experiments, "_SAMPLE_CHUNK", 3)
        got = _replicate_values(params, CHUNK_GRID, seed, (), replicates, (1, 2))
        assert got.shape == want.shape == (len(CHUNK_GRID), 5, replicates)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_a_chunk_ranks_on_its_widest_graph_tier(self, monkeypatch):
        # the n=260 case above is only worth its cost if the chunk's stack is
        # wider than one of its graphs' stacks would be alone
        seen = []
        prepare_ranking = vnom.experiments.prepare_ranking

        def spied(t0, t1):
            scores = prepare_ranking(t0, t1)
            seen.append(scores.dtype)
            return scores

        monkeypatch.setattr(vnom.experiments, "prepare_ranking", spied)
        keys = [(rep,) for rep in range(3)]
        graph_by_graph_values(WIDE, CHUNK_GRID, 4, keys, ())
        assert seen == [np.dtype(np.int32), np.dtype(np.int16), np.dtype(np.int32)]
        seen.clear()
        monkeypatch.setattr(vnom.experiments, "_CHUNK_CELLS",
                            2 * len(CHUNK_GRID) * (WIDE.n - WIDE.m_prime))
        _replicate_values(WIDE, CHUNK_GRID, 4, (), 3)
        assert seen == [np.dtype(np.int32), np.dtype(np.int32)]


class TestPoolSize:
    def test_rejects_fewer_than_one_worker(self):
        for n_workers in (0, -1, -100_000):
            with pytest.raises(InputError):
                pool_size(n_workers, 5)

    def test_capped_by_tasks_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert pool_size(1, 10) == 1
        assert pool_size(100_000, 3) == min(3, cpus)
        assert pool_size(100_000, 10 ** 9) == cpus
        assert pool_size(4, 0) == 1

    def test_parallel_map_keeps_task_order(self):
        tasks = [(base, 3) for base in range(7)]
        expected = [base ** 3 for base in range(7)]
        assert parallel_map(pow, tasks, 1) == parallel_map(pow, tasks, 2) == expected
        assert parallel_map(pow, [], 2) == []

    def test_library_entry_points_reject_zero_workers(self):
        spec = SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(8,), gamma_grid=(0.5,),
                         replicates=1, master_seed=0, m_prime_ratio=0.25)
        with pytest.raises(InputError):
            run_sweep(spec, n_workers=0)


class TestSweepSpec:
    def test_ratio_rule_rounds_half_up_and_clamps(self):
        spec = SweepSpec(n=184, p=PAPER_P, s=PAPER_S, m_values=(2, 4, 6, 40),
                         gamma_grid=(0.5,), replicates=1, master_seed=0,
                         m_prime_ratio=0.25)
        cells = spec.cells()
        # m=2: clamp(round(0.5), 1, 1) = 1
        assert cells[0][:2] == (2, 1) and cells[0][2] is None
        assert cells[1][:2] == (4, 1)
        # m=6: round(1.5) rounds half up to 2
        assert cells[2][:2] == (6, 2)
        assert cells[3][:2] == (40, 10)

    def test_infeasible_cells_reported(self):
        spec = SweepSpec(n=10, p=PAPER_P, s=PAPER_S, m_values=(4, 10, 12),
                         gamma_grid=(0.5,), replicates=1, master_seed=0,
                         m_prime_ratio=0.5)
        result = run_sweep(spec)
        assert [c.m for c in result.cells] == [4]
        assert len(result.skipped) == 2
        assert all(reason for _, _, reason in result.skipped)

    def test_explicit_m_prime_list(self):
        spec = SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(6, 8),
                         gamma_grid=(0.5,), replicates=1, master_seed=0,
                         m_prime_values=(2, 5))
        assert [(m, mp) for m, mp, _ in spec.cells()] == [(6, 2), (8, 5)]

    def test_repeated_cell_rejected(self):
        # a repeated cell would run twice from the same replicate keys
        with pytest.raises(InputError, match=r"\(8, 2\)"):
            SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(8, 8), gamma_grid=(0.5,),
                      replicates=1, master_seed=0, m_prime_ratio=0.25)
        spec = SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(8, 8), gamma_grid=(0.5,),
                         replicates=1, master_seed=0, m_prime_values=(2, 3))
        assert [(m, mp) for m, mp, _ in spec.cells()] == [(8, 2), (8, 3)]

    def test_rule_exclusivity(self):
        with pytest.raises(InputError):
            SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(6,), gamma_grid=(0.5,),
                      replicates=1, master_seed=0)
        with pytest.raises(InputError):
            SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(6,), gamma_grid=(0.5,),
                      replicates=1, master_seed=0, m_prime_ratio=0.5,
                      m_prime_values=(2,))


class TestRunSweep:
    def test_single_cell_matches_replicate_aggregation(self):
        from vnom.metrics import aggregate_reports
        spec = SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(8,),
                         gamma_grid=(0.0, 1.0), replicates=5, master_seed=99,
                         m_prime_ratio=0.25)
        result = run_sweep(spec)
        cell = result.cells[0]
        params = KidneyEggParams(20, 8, 2, PAPER_P, PAPER_S)
        reports = {0.0: [], 1.0: []}
        for rep in range(5):
            rep_seed = np.random.SeedSequence(entropy=99, spawn_key=(8, 2, rep))
            g = sample_kidney_egg(params, child_seed(rep_seed, 0))
            for gamma in reports:
                ranking = rank_candidates(g, gamma, child_seed(rep_seed, 1))
                reports[gamma].append(evaluate_ranking(ranking, g.red_candidates()))
        assert cell.table == aggregate_reports(reports)

    def test_deterministic_across_workers(self):
        spec = SweepSpec(n=30, p=PAPER_P, s=PAPER_S, m_values=(6, 10, 14),
                         gamma_grid=(0.0, 0.5, 1.0), replicates=10, master_seed=1,
                         m_prime_ratio=0.5)
        serial = run_sweep(spec, n_workers=1)
        parallel = run_sweep(spec, n_workers=3)
        assert serial == parallel

    def test_single_replicate_results_compare_equal(self):
        # one replicate leaves every standard error NaN; equal runs stay equal
        spec = SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(6, 8),
                         gamma_grid=(0.0, 1.0), replicates=1, master_seed=1,
                         m_prime_ratio=0.5)
        serial = run_sweep(spec)
        assert np.isnan(serial.cells[0].table.se).all()
        assert serial == run_sweep(spec)
        assert serial == run_sweep(spec, n_workers=2)

    def test_gamma_star_ties_go_to_smallest(self):
        spec = SweepSpec(n=20, p=PAPER_P, s=PAPER_S, m_values=(8,),
                         gamma_grid=(0.25, 0.75), replicates=2, master_seed=5,
                         m_prime_ratio=0.25)
        cell = run_sweep(spec).cells[0]
        for criterion, best in cell.gamma_star.items():
            means = list(cell.table.column(criterion))
            top = max(means)
            assert best == min(g for g, v in zip(spec.gamma_grid, means) if v == top)


class TestGammaSurface:
    def test_y1_row_equals_mrr_row_exactly(self):
        surf = gamma_surface(small_params(), (0.0, 0.5, 1.0), y_max=2,
                             replicates=30, seed=8)
        assert np.array_equal(surf.column("ap_y", 1), surf.column("mrr"))

    def test_shapes(self):
        surf = gamma_surface(small_params(), (0.0, 0.25, 0.5, 0.75, 1.0), y_max=3,
                             replicates=5, seed=8)
        assert np.array([surf.column("ap_y", y) for y in surf.y_values]).shape == (3, 5)
        assert surf.column("map").shape == (5,)

    def test_y_max_bounds(self):
        with pytest.raises(InputError):
            gamma_surface(small_params(m=10, mp=4), (0.5,), y_max=7,
                          replicates=1, seed=0)


# gamma_star(model, grid, criterion, replicates=r, seed=seed), recorded when it
# summed each criterion over replicates in its own loop: (model, grid points,
# seed) -> one (s_at_1, mrr, map) triple per replicate count in GAMMA_STAR_REPLICATES.
# The "tie" model has p1 = s1 = 0, so every gamma below 1 ranks alike.
GAMMA_STAR_MODELS = {"paper": small_params(),
                     "tie": KidneyEggParams(20, 6, 2, (0.6, 0.0, 0.4), (0.4, 0.0, 0.6))}
GAMMA_STAR_GRIDS = {3: (0.0, 0.5, 1.0), 5: (0.0, 0.25, 0.5, 0.75, 1.0),
                    21: tuple(k / 20 for k in range(21))}
GAMMA_STAR_REPLICATES = (1, 2, 7, 20)
GAMMA_STAR_TABLE = {
    ("paper", 3, 0): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 0.5)],
    ("paper", 3, 1): [(0.0, 0.0, 0.5), (0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (1.0, 1.0, 0.5)],
    ("paper", 3, 17): [(0.0, 0.0, 1.0), (0.0, 0.0, 0.5), (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)],
    ("paper", 3, 2024): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("paper", 5, 0): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.75, 0.75, 0.5)],
    ("paper", 5, 1): [(0.0, 0.0, 0.5), (0.25, 0.25, 0.5), (0.25, 0.25, 0.5), (0.75, 0.75, 0.5)],
    ("paper", 5, 17): [(0.0, 0.0, 1.0), (0.0, 0.0, 0.75), (0.25, 0.25, 0.25), (0.25, 0.25, 0.5)],
    ("paper", 5, 2024): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.25, 0.25)],
    ("paper", 21, 0): [(0.0, 0.0, 0.05), (0.0, 0.0, 0.0), (0.35, 0.35, 0.35), (0.55, 0.55, 0.55)],
    ("paper", 21, 1): [(0.0, 0.0, 0.35), (0.05, 0.05, 0.45), (0.25, 0.25, 0.55), (0.55, 0.55, 0.55)],
    ("paper", 21, 17): [(0.0, 0.0, 1.0), (0.0, 0.0, 0.45), (0.15, 0.15, 0.2), (0.15, 0.25, 0.35)],
    ("paper", 21, 2024): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.05, 0.05), (0.0, 0.05, 0.05)],
    ("tie", 3, 0): [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 3, 1): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 3, 17): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 3, 2024): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 5, 0): [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 5, 1): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 5, 17): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 5, 2024): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 21, 0): [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 21, 1): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 21, 17): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
    ("tie", 21, 2024): [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
}


class TestGammaStar:
    def test_lives_beside_the_other_loops(self):
        import vnom.experiments
        assert gamma_star is vnom.experiments.gamma_star

    def test_matches_surface_argmax(self):
        # gamma_star and gamma_surface draw the same graphs and tie streams
        params = small_params()
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        surf = gamma_surface(params, grid, y_max=1, replicates=20, seed=6)
        best = grid[int(np.argmax(surf.column("map")))]
        assert gamma_star(params, grid, "map", replicates=20, seed=6) == best

    def test_reproduces_recorded_table(self):
        got = {(model, points, seed): [tuple(gamma_star(params, grid, criterion,
                                                        replicates=replicates, seed=seed)
                                             for criterion in ("s_at_1", "mrr", "map"))
                                       for replicates in GAMMA_STAR_REPLICATES]
               for model, params in GAMMA_STAR_MODELS.items()
               for points, grid in GAMMA_STAR_GRIDS.items()
               for seed in (0, 1, 17, 2024)}
        assert got == GAMMA_STAR_TABLE


BAD_GRIDS = [(), (0.0, 1.5), (-0.1,), (float("nan"),), (float("inf"),), (0.0, 0.5, 0.5),
             (0.0, -0.0)]


class TestGammaGridValidation:
    def test_valid_grid_becomes_float_tuple(self):
        assert validate_gamma_grid([0, 0.5, 1]) == (0.0, 0.5, 1.0)
        assert validate_gamma_grid(GAMMA_GRID_DEFAULT) == GAMMA_GRID_DEFAULT

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_every_entry_point_rejects(self, grid):
        params = small_params()
        calls = [
            lambda: validate_gamma_grid(grid),
            lambda: SweepSpec(30, PAPER_P, PAPER_S, (10,), grid, 2, 1, m_prime_ratio=0.25),
            lambda: gamma_surface(params, grid, 1, 2, 1),
            lambda: gamma_star(params, grid, replicates=2, seed=1),
        ]
        for call in calls:
            with pytest.raises(InputError):
                call()

    def test_negative_master_seed_rejected(self):
        spec = SweepSpec(30, PAPER_P, PAPER_S, (10,), (0.5,), 2, -5, m_prime_ratio=0.25)
        with pytest.raises(InputError):
            run_sweep(spec)
