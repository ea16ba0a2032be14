"""Repository contracts: pure seed derivation, a numpy-only dependency set, the
benchmark's trace hooks, call counts and recorded output digests."""

import ast
import collections
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vnom
import vnom.cli
import vnom.experiments
import vnom.graph
import vnom.importance
import vnom.io
import vnom.nomination
from vnom import (GAMMA_GRID_DEFAULT, KidneyEggParams, ScreeningThresholds, candidate_statistics,
                  gamma_surface, generate_surrogate, read_topic_graph, run_importance_trials,
                  sample_kidney_egg, screen_partitions)
from vnom.experiments import evaluate_grid
from vnom.graph import RED
from vnom.io import data_section
from vnom.seeding import child_seed

from conftest import build_topic

ROOT = Path(__file__).resolve().parent.parent


def load_bench_worker():
    """bench/worker.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "bench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_seed_sequence_spawn_in_sources():
    # SeedSequence.spawn mutates its parent; child_seed derives children purely
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted((ROOT / "src" / "vnom").glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if ".spawn(" in line]
    assert offenders == []


def test_seed_sequences_built_only_in_seeding():
    # every derived stream goes through seeding.child_seed, which also rejects bad seeds
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted((ROOT / "src" / "vnom").glob("*.py"))
                 if path.name != "seeding.py"
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if "SeedSequence(" in line]
    assert offenders == []


def test_no_scipy_in_sources_or_dependencies():
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted((ROOT / "src" / "vnom").glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if "scipy" in line]
    assert offenders == []
    assert "scipy" not in (ROOT / "pyproject.toml").read_text()


def test_no_numpy_unique_in_sources():
    # numpy 2's np.unique loads numpy.ma (~1.2 MB) on its first call;
    # graph._sorted_unique gives the same values without it
    offenders = [f"{path.name}:{lineno}"
                 for path in sorted((ROOT / "src" / "vnom").glob("*.py"))
                 for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                 if "np.unique(" in line]
    assert offenders == []


def test_no_unused_imports_in_sources():
    # no linter is a dependency: a module-level import that its module never
    # reads is dead, and __init__ imports only to re-export
    offenders = []
    for path in sorted((ROOT / "src" / "vnom").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                offenders += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                              for alias in node.names
                              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert offenders == []


def test_one_timestamp_in_sources():
    # every result document takes its 'created' stamp from io._meta
    counts = {path.name: path.read_text().count("datetime.now(")
              for path in sorted((ROOT / "src" / "vnom").glob("*.py"))}
    assert {name: count for name, count in counts.items() if count} == {"io.py": 1}


def test_metric_columns_known_only_to_metrics():
    # one table type carries every metric from the evaluator to the writers
    sources = {path.name: path.read_text() for path in sorted((ROOT / "src" / "vnom").glob("*.py"))}
    for gone in ("AggregateReport", "aggregate_values", "SurfaceResult"):
        assert not [name for name, text in sources.items() if gone in text], gone
    column = re.compile(r"CRITERIA\.index\(|\[(:|\.\.\.), *-?\d"
                        r"|\b(mean|means|se|ses|row|values|stacked|totals)\[-?\d")
    offenders = [f"{name}:{lineno}" for name, text in sources.items() if name != "metrics.py"
                 for lineno, line in enumerate(text.splitlines(), start=1)
                 if column.search(line)]
    assert offenders == []


def test_one_kidney_egg_replicate_driver():
    # every Monte Carlo caller ranks sampled graphs through
    # experiments._replicate_values; only simulate and the score PMFs sample alone
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "vnom").glob("*.py"))}
    for gone in ("run_replicate", "ReplicateResult", "from_row"):
        assert not [name for name, text in sources.items() if gone in text], gone
    callers = []
    for module, text in sources.items():
        tree = ast.parse(text)
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "sample_kidney_egg":
                scope = parents[node]
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                callers.append(f"{module}.{getattr(scope, 'name', '<module>')}")
    assert sorted(callers) == ["cli._cmd_simulate", "experiments._replicate_values",
                               "kidney_egg.empirical_score_pmfs"]


def test_one_score_counter():
    # nomination.score_counts counts every vertex's scores at once; no
    # per-vertex scorer or neighbour accessor sits beside it
    sources = {path.name: path.read_text() for path in sorted((ROOT / "src" / "vnom").glob("*.py"))}
    for gone in ("context_score(", "content_score(", ".neighbors(", ".incident_attrs(",
                 "_incident(", "_require_candidate"):
        assert not [name for name, text in sources.items() if gone in text], gone


def modules_loaded_by_import(package, then="", imports="vnom, vnom.cli"):
    """Modules of ``package`` loaded by importing ``imports`` (vnom and
    vnom.cli) in a fresh interpreter, so that no other test's imports are
    counted, and then running the statements ``then``."""
    src = str(Path(vnom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import sys, {imports}\n{then}\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_import_loads_no_scipy():
    assert modules_loaded_by_import("scipy") == "[]"


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random on first use; vnom defers it to its first draw,
    # out of the import time the benchmark counts as set-up
    assert modules_loaded_by_import("numpy.random") == "[]"


@pytest.mark.parametrize("package", ["multiprocessing", "concurrent.futures", "secrets"])
def test_import_loads_no_pool_or_seed_entropy(package):
    # the process pool loads only for more than one worker and a generated
    # seed reads os.urandom, so neither counts in every run's set-up
    assert modules_loaded_by_import(package) == "[]"


def test_import_loads_no_array_module():
    # only reading a graph file needs array; mapping its shared library at
    # import raised the peak RSS of runs that read no file by ~0.15 MB
    assert (modules_loaded_by_import("array")
            == modules_loaded_by_import("array", imports="numpy"))


def test_no_dataclasses_in_vnom():
    # every record subclasses graph._Record, which generates no code at import
    # (each dataclass execs its generated methods, ~1 ms a class); numpy 1.24
    # may load dataclasses itself, so the import is compared with numpy's own
    records = [f"{name}.{cls.__name__}"
               for name in sorted(m.name for m in pkgutil.iter_modules(vnom.__path__))
               for cls in vars(importlib.import_module(f"vnom.{name}")).values()
               if dataclasses.is_dataclass(cls)]
    assert records == []
    assert (modules_loaded_by_import("dataclasses")
            == modules_loaded_by_import("dataclasses", imports="numpy"))


def test_screening_and_trials_load_no_masked_arrays():
    # numpy 2 loads numpy.ma (~1.2 MB) on the first np.unique call; numpy 1
    # loads it with numpy itself, and then this test has nothing to check.
    # The public profile, gap, ranking and evaluation calls and `vnom
    # simulate` run too.
    run = ("from vnom import *; import contextlib, io\n"
           "g = generate_surrogate(40, 4, 0.2, group_size=10, seed=1)\n"
           "s = screen_partitions(g, 5, ScreeningThresholds(-1, -1), 20, 1)\n"
           "run_importance_trials(g, s, 2, (0.0, 0.5, 1.0), 2, 1)\n"
           "topic_profile(g, [0, 1, 2, 3]); delta_p(g, Partition(g.n, s.red_ids[0]))\n"
           "a = sample_kidney_egg(KidneyEggParams(30, 8, 3, (0.8, 0.1, 0.1), (0.4, 0.3, 0.3)), 1)\n"
           "ordered, scores = rank_candidates(a, 0.5, 1)\n"
           "mask_metrics(a.truth[ordered] == RED, (2,))\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    vnom.cli.main(['simulate', '--n', '30', '--m', '8', '--m-prime', '3', "
           "'--seed', '7'])")
    assert modules_loaded_by_import("numpy.ma", run) == modules_loaded_by_import("numpy.ma")


def test_seed_sequences_per_call_do_not_grow_with_instances(monkeypatch):
    # the replicate and trial loops derive all their streams in one batch
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    def count(call):
        built.clear()
        call()
        return len(built)

    params = KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    rng = np.random.default_rng(5)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.4]
    g = build_topic(20, [(u, v, 1, p) for (u, v), p in
                         zip(pairs, rng.dirichlet(np.full(4, 0.4), len(pairs)))], 4)
    block = screen_partitions(g, 5, ScreeningThresholds(-np.inf, -np.inf), 8, 2)
    cum = vnom.importance._cumulative_topics(g)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    replicates = [count(lambda: vnom.experiments._replicate_values(
        params, [0.5], 3, (), reps)) for reps in (1, 9)]
    instances = [count(lambda: vnom.importance._draw_instances(
        g, block.take(slice(parts)), 0, 2, reps, 3, cum)) for parts, reps in ((1, 1), (8, 3))]
    assert replicates[0] == replicates[1] <= 1
    assert instances[0] == instances[1] <= 1


def test_every_traced_span_resolves():
    worker = load_bench_worker()
    for _, module, functions in worker.SPANS:
        for name in functions:
            assert callable(getattr(importlib.import_module(f"vnom.{module}"), name)), \
                f"{module}.{name}"


def trace_spans(monkeypatch, spans):
    """A bench Tracer whose named spans wrap their functions wherever a vnom
    module looks them up, as Tracer.install does, undone after the test."""
    worker = load_bench_worker()
    tracer = worker.Tracer()
    found = set()
    for span, module, functions in worker.SPANS:
        if span not in spans:
            continue
        found.add(span)
        for fn_name in functions:
            original = getattr(importlib.import_module(f"vnom.{module}"), fn_name)
            wrapped = tracer.wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if name == "vnom" or name.startswith("vnom."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, wrapped)
    assert found == set(spans)
    return tracer


def test_fused_order_runs_once_per_graph_and_gamma(monkeypatch):
    tracer = trace_spans(monkeypatch, ["nomination.fused_order"])
    params = KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    gamma_surface(params, (0.0, 0.1 + 0.2, 0.5, 1.0), y_max=2, replicates=3, seed=4)
    assert tracer.take()["nomination.fused_order"]["calls"] == 3 * 4


def test_small_rational_gammas_never_take_the_object_key_path(monkeypatch):
    # value tests cannot see a silent fall-back from int64 keys to Python-int
    # keys, so count the entries: only a gamma that is no small rational may take it
    entries = []
    exact_keys = vnom.nomination._exact_keys

    def counted(*args):
        entries.append(args)
        return exact_keys(*args)

    monkeypatch.setattr(vnom.nomination, "_exact_keys", counted)
    g = sample_kidney_egg(KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2)), 9)
    cand, t0, t1 = candidate_statistics(g)
    red, tiebreak = g.truth[cand] == RED, np.random.default_rng(9).permutation(cand.size)
    evaluate_grid(t0, t1, red, tiebreak, GAMMA_GRID_DEFAULT, (1, 2, 3))
    assert len(entries) == 0
    evaluate_grid(t0, t1, red, tiebreak, GAMMA_GRID_DEFAULT + (0.3333333217048645,), (1, 2, 3))
    assert len(entries) == 1


def test_bench_surface_shape_sorts_only_16_bit_keys(monkeypatch):
    # value tests cannot see which key dtype a sort was given, so record it at
    # the one function every ranking sort goes through
    seen = []
    stable_order = vnom.nomination._stable_order

    def spied(keys):
        seen.append(keys.dtype)
        return stable_order(keys)

    monkeypatch.setattr(vnom.nomination, "_stable_order", spied)
    params = KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    grid = len(GAMMA_GRID_DEFAULT)
    gamma_surface(params, GAMMA_GRID_DEFAULT, y_max=3, replicates=3, seed=3)
    assert seen == 3 * ([np.dtype(np.uint16)] + [np.dtype(np.int16)] * grid)
    g = sample_kidney_egg(params, 9)
    cand, t0, t1 = candidate_statistics(g)
    red, tiebreak = g.truth[cand] == RED, np.random.default_rng(9).permutation(cand.size)
    t1[0] = 256  # one score past uint8 moves every gamma to int64 keys
    seen.clear()
    evaluate_grid(t0, t1, red, tiebreak, GAMMA_GRID_DEFAULT, (1, 2, 3))
    assert seen == [np.dtype(np.uint16)] + [np.dtype(np.int64)] * grid


def test_bench_shape_products_cast_no_stack(monkeypatch):
    # a product whose stack is not in the weights' dtype casts the stack at
    # every gamma, which value tests cannot see: at the bench surface and
    # importance shapes every stack must reach _fused_keys as int16 and give
    # int16 keys, so the weights it picked were int16 too
    seen = []
    fused_keys = vnom.nomination._fused_keys

    def spied(scores, gamma):
        keys, den = fused_keys(scores, gamma)
        seen.append((scores.shape, scores.dtype, keys.dtype))
        return keys, den

    monkeypatch.setattr(vnom.nomination, "_fused_keys", spied)
    params = KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    gamma_surface(params, GAMMA_GRID_DEFAULT, y_max=3, replicates=3, seed=3)
    int16 = np.dtype(np.int16)
    assert seen == [((2, 154), int16, int16)] * (3 * len(GAMMA_GRID_DEFAULT))
    # one trial block of the importance workload: 32 partitions x 3 replicates
    g = generate_surrogate(184, 32, seed=3)
    screening = screen_partitions(g, 10, ScreeningThresholds(), 4096, child_seed(3, 1))
    assert screening.n_accepted >= vnom.importance._TRIAL_BLOCK
    seen.clear()
    run_importance_trials(g, screening.take(slice(vnom.importance._TRIAL_BLOCK)), 5,
                          (0.0, 0.5, 1.0), 3, child_seed(3, 2))
    assert seen == [((32 * 3, 2, 184 - 5), int16, int16)] * 3


def test_scores_are_checked_once_per_candidate_set(monkeypatch):
    # more candidates than a uint16 key can number, so a range check that
    # fell back to running per gamma would show here
    calls = []
    prepare_ranking = vnom.nomination.prepare_ranking

    def counted(*args):
        calls.append(args)
        return prepare_ranking(*args)

    for module in (vnom.nomination, vnom.experiments):
        monkeypatch.setattr(module, "prepare_ranking", counted)
    rng = np.random.default_rng(70)
    n = 70_000
    t0, t1 = rng.integers(0, 40, n), rng.integers(0, 40, n)
    red, tiebreak = rng.permutation(n) < 30, rng.permutation(n)
    evaluate_grid(t0, t1, red, tiebreak, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert len(calls) == 1


def count_experiments_calls(monkeypatch, names):
    """A Counter of the calls experiments makes to each named function."""
    counts = collections.Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(vnom.experiments, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(vnom.experiments, name, counted)
    return counts


def test_replicates_prepared_and_scored_once_per_chunk(monkeypatch):
    # each graph is sampled and ranked on its own, but its scores are narrowed
    # and its rankings scored with the other graphs of its chunk
    counts = count_experiments_calls(
        monkeypatch, ("prepare_ranking", "mask_metrics", "sample_kidney_egg"))
    bench_sweep = KidneyEggParams(184, 40, 10, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    bench_surface = KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    small = KidneyEggParams(30, 10, 4, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    sweep_grid = (0.0, 0.5, 1.0)
    # (params, grid, replicates, chunks): a sweep cell is one chunk, a surface
    # takes 4 replicates per chunk
    cases = [(bench_sweep, sweep_grid, 40, 1), (bench_surface, GAMMA_GRID_DEFAULT, 9, 3),
             (small, sweep_grid, 1, 1)]
    for params, grid, replicates, chunks in cases:
        counts.clear()
        vnom.experiments._replicate_values(params, grid, 2, (), replicates)
        assert counts == {"prepare_ranking": chunks, "mask_metrics": chunks,
                          "sample_kidney_egg": replicates}
    monkeypatch.setattr(vnom.experiments, "_CHUNK_CELLS", 3 * len(sweep_grid) * 26)
    for replicates, chunks in ((3, 1), (7, 3)):
        counts.clear()
        vnom.experiments._replicate_values(small, sweep_grid, 2, (), replicates)
        assert counts == {"prepare_ranking": chunks, "mask_metrics": chunks,
                          "sample_kidney_egg": replicates}


# per-replicate memory _replicate_values may keep beyond its result: the
# derived seed table holds a few dozen bytes per replicate (the traced excess
# over the result grew by ~11 kB from 8 to 64 replicates at the bench surface
# shape, and by ~2.3 MB with all replicates in one chunk)
REPLICATE_GROWTH_BYTES = 512


def test_replicate_memory_does_not_grow_with_replicates():
    params = KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))

    def excess(replicates):
        """Traced peak of one call less the bytes of its result."""
        tracemalloc.start()
        try:
            values = vnom.experiments._replicate_values(
                params, GAMMA_GRID_DEFAULT, 3, (), replicates, (1, 2, 3))
            return tracemalloc.get_traced_memory()[1] - values.nbytes
        finally:
            tracemalloc.stop()

    excess(1)  # warm caches, so neither measured call pays for them
    few, many = excess(8), excess(64)
    assert many - few <= (64 - 8) * REPLICATE_GROWTH_BYTES, (few, many)


# traced bytes the set-up of a 10**5-replicate surface may hold beyond its
# values array before the first graph: one _SAMPLE_CHUNK of keys and their
# derived seed states; 2.75 MB measured in a fresh interpreter (1.9 MB once
# numpy.random is loaded), 10.6 MB when every replicate's key was built up
# front and 30.4 MB when every replicate's seed states were derived up front
SETUP_EXCESS_BYTES = 3_600_000


def test_replicate_set_up_derives_one_chunk_of_streams(monkeypatch):
    class FirstGraph(Exception):
        pass

    def stop(*args):
        raise FirstGraph

    monkeypatch.setattr(vnom.experiments, "sample_kidney_egg", stop)
    params = KidneyEggParams(184, 40, 10, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    grid, replicates = (0.0, 0.5, 1.0), 10**5
    tracemalloc.start()
    try:
        with pytest.raises(FirstGraph):
            gamma_surface(params, grid, 1, replicates, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values_bytes = len(grid) * 4 * replicates * 8  # (gammas x S@1, RR, AP, AP^1 x replicates)
    assert peak - values_bytes <= SETUP_EXCESS_BYTES, peak


def test_graphs_are_validated_when_read_and_never_when_sampled(monkeypatch, tmp_path):
    # the validating constructor serves outside data alone: sampled graphs
    # are stored as built, and a graph read from a file is checked once
    checked = []
    init = vnom.graph.AttributedGraph.__init__

    def counted(self, *args, **kwargs):
        checked.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(vnom.graph.AttributedGraph, "__init__", counted)
    params = KidneyEggParams(184, 40, 30, (0.6, 0.2, 0.2), (0.4, 0.4, 0.2))
    gamma_surface(params, GAMMA_GRID_DEFAULT, 3, 5, 1)
    assert checked == []
    sampled = sample_kidney_egg(params, 1)
    vnom.io.write_attributed_graph(sampled, tmp_path / "sampled.graph")
    assert checked == []
    assert vnom.io.read_attributed_graph(tmp_path / "sampled.graph") == sampled
    assert checked == ["AttributedGraph"]


def load_bench_run(monkeypatch):
    """bench/run.py as a module whose vnom runs happen in this process."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    def vnom_run(argv, out):
        return None, [] if vnom.cli.main(argv) == 0 else [f"vnom {argv[0]} failed"]

    monkeypatch.setattr(run, "vnom_run", vnom_run)
    return run


def data_digest(path) -> str:
    return hashlib.sha256(data_section(path.read_text()).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", ["surface", "sweep", "importance"])
def test_cli_output_matches_recorded_benchmark_digest(monkeypatch, tmp_path, workload):
    # bench/run.py's own argv, corpus preparation and call counts, run in this process
    run = load_bench_run(monkeypatch)
    run.prepare(workload, 1, tmp_path)
    expected = run.WORKLOADS[workload]["calls"]
    tracer = trace_spans(monkeypatch, expected)
    out = tmp_path / f"{workload}.csv"
    assert vnom.cli.main(run.WORKLOADS[workload]["argv"](1, str(out), tmp_path)) == 0
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())["sha256"]
    assert data_digest(out) == recorded[workload]["1"]
    spans = tracer.take()
    assert {span: spans.get(span, {}).get("calls", 0) for span in expected} == expected
    assert expected == {"surface": {"nomination.fused_order": 5050},
                        "sweep": {"kidney_egg.sample_kidney_egg": 400},
                        "importance": {"kidney_egg.sample_kidney_egg": 0}}[workload]


# data-section sha256 of the importance workload's side outputs at seed 1, as
# written before the partition kernels were shared between the public
# functions and the screening and trial loops
IMPORTANCE_SIDE_DIGESTS = {
    "--partitions-out": "b42267e7712af4d397dbc4ffb3a8dcb3aa085b8ce83e53d6e225434ddeadc80f",
    "--rates-out": "62b253a1f122f2dc9c76ddb989505f3815145f655505b4c63cbb89897711cd27",
}


def test_importance_side_outputs_match_recorded_digests(monkeypatch, tmp_path):
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 1, tmp_path)
    argv = run.WORKLOADS["importance"]["argv"](1, str(tmp_path / "importance.csv"), tmp_path)
    outputs = {flag: tmp_path / f"{flag[2:]}.csv" for flag in IMPORTANCE_SIDE_DIGESTS}
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert vnom.cli.main(argv) == 0
    assert {flag: data_digest(path) for flag, path in outputs.items()} == IMPORTANCE_SIDE_DIGESTS


def test_screening_builds_one_record(monkeypatch, tmp_path):
    # the accepted draws travel as the columns of one ScreeningResult: no
    # record per draw (a partition, a topic map and a row record, as once)
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 1, tmp_path)
    g = read_topic_graph(tmp_path / "corpus.topics")
    thresholds = ScreeningThresholds()  # the default bars, as the workload's
    built = []
    init = vnom.graph._Record.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(vnom.graph._Record, "__init__", counted)
    # the importance workload's screen at seed 1
    result = screen_partitions(g, 10, thresholds, run.IMPORTANCE_ATTEMPTS, child_seed(1, 1))
    assert result.n_accepted > 0
    assert built == ["ScreeningResult"]


def test_trials_build_records_per_bin_and_block_only(monkeypatch, tmp_path):
    # per-partition results travel as the columns of one stacked table and one
    # rates array: no record per partition (a trial, a table and a rates
    # record, as once), only one screening slice per trial block
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 3, tmp_path)
    g = read_topic_graph(tmp_path / "corpus.topics")
    screening = screen_partitions(g, 10, ScreeningThresholds(), run.IMPORTANCE_ATTEMPTS,
                                  child_seed(3, 1))
    assert screening.n_accepted >= run.IMPORTANCE_PARTITIONS
    built = collections.Counter()
    init = vnom.graph._Record.__init__

    def counted(self, *args, **kwargs):
        built[type(self).__name__] += 1
        init(self, *args, **kwargs)

    sizes = (1, 33, run.IMPORTANCE_PARTITIONS)
    slices = [screening.take(slice(size)) for size in sizes]
    monkeypatch.setattr(vnom.graph._Record, "__init__", counted)
    for size, accepted in zip(sizes, slices):
        built.clear()
        # the importance workload's trials at seed 3
        trials = run_importance_trials(g, accepted, 5, (0.0, 0.5, 1.0),
                                       run.IMPORTANCE_REPLICATES, child_seed(3, 2))
        blocks = -(-size // vnom.importance._TRIAL_BLOCK)
        assert built == {"ScreeningResult": blocks, "BinReport": len(trials.bins),
                         "MetricTable": len(trials.bins) + 1, "TrialsResult": 1}


# tracemalloc peak of one 4096-draw screening call on the importance bench
# corpus (seed 3): 29.3-30.5 MB at seeds 1, 3 and 7919 when every draw built
# its (draws x edges) side masks, 12.6 MB once red-internal edges were counted
# from neighbour lists and masks built only for draws passing tau_rho, 8.6 MB
# with the red pairs looked up in a dense adjacency and the block's keys drawn
# at once; 4.10 MB in a fresh interpreter (3.36 MB on a second call) with the
# keys drawn a chunk of rows at a time.  The bound is that plus 12%.
SCREEN_BLOCK_PEAK_BYTES = 4_600_000


def test_one_screening_block_stays_below_recorded_peak(monkeypatch, tmp_path):
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 3, tmp_path)
    g = read_topic_graph(tmp_path / "corpus.topics")
    tracemalloc.start()
    try:
        result = screen_partitions(g, 10, ScreeningThresholds(), 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.attempts == 4096 and result.n_accepted > 0
    assert peak < SCREEN_BLOCK_PEAK_BYTES


# tracemalloc peak of one 4096-draw screening call at m = 60 (1770 red pairs a
# draw, more than the corpus's 824 edges) on the importance bench corpus, every
# draw passing tau_rho: 14.3 MB with a dense adjacency for the edge counts and
# a sorted edge-key array for the red totals; with one pair-slot table, 39.5 MB
# when a whole key chunk's slots were kept for its passing rows, 22.2 MB when
# a whole key chunk was looked up at once, and 7.1 MB with each lookup within
# the cell budget and the passing rows looked up again.  The bound is the last
# plus ~12%.
LARGE_RED_SET_SCREEN_PEAK_BYTES = 8_000_000


def test_screening_memory_at_a_large_red_set(monkeypatch, tmp_path):
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 3, tmp_path)
    g = read_topic_graph(tmp_path / "corpus.topics")
    thresholds = ScreeningThresholds(-np.inf, 0.2)
    tracemalloc.start()
    try:
        result = screen_partitions(g, 60, thresholds, 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.attempts == 4096 and result.n_accepted == 297
    assert peak < LARGE_RED_SET_SCREEN_PEAK_BYTES


# tracemalloc peak of one 4096-draw screening call on a surrogate corpus of
# 1000 vertices (25 080 edges, 8 topics), 298 draws passing tau_rho: 43.6 MB
# with the block's (4096 x 1000) keys drawn at once, 5.8 MB with a chunk of
# rows at a time.  The bound is the latter plus ~30%; the full block's keys
# alone are 32.8 MB.
LARGE_GRAPH_SCREEN_PEAK_BYTES = 7_500_000


def test_screening_memory_does_not_grow_with_the_block_at_a_thousand_vertices():
    g = generate_surrogate(1000, 8, seed=1)
    thresholds = ScreeningThresholds(0.05, -np.inf)
    screen_partitions(g, 10, thresholds, 1, 1)  # warm numpy's lazy imports, not counted
    tracemalloc.start()
    try:
        result = screen_partitions(g, 10, thresholds, 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.attempts == 4096 and result.n_accepted == 298
    assert peak < LARGE_GRAPH_SCREEN_PEAK_BYTES


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc's heap trimming")
def test_repeated_importance_runs_keep_their_heap():
    # glibc returns the top of its heap to the system once the free space
    # there passes twice the largest block it has unmapped; a kernel whose
    # working set passes that then faults its pages back on every call.  At
    # the bench shape, a screen holding a whole copy of each chunk of keys
    # beside them faulted ~10k pages a call, and 64-partition trial blocks
    # ~3k, and importance wall_rel read ~10% above the parent's.
    src = str(Path(vnom.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        import resource
        from vnom import *
        from vnom.seeding import child_seed
        g = generate_surrogate(184, 32, seed=3)
        def run():
            s = screen_partitions(g, 10, ScreeningThresholds(), 20480, child_seed(3, 1))
            run_importance_trials(g, s.take(slice(250)), 5, (0.0, 0.5, 1.0), 3, child_seed(3, 2))
        run(); run()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(); run()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert int(result.stdout) < 400


# tracemalloc peak of the same call with every draw accepted, when each draw
# passing tau_rho had its own profile sums and all side masks of the block
# were built at once; 8.2 MB with neighbour lists, 7.9 MB with the pair lookups,
# 6.4 MB with the keys drawn a chunk of rows at a time (most of it the 4096
# accepted partitions)
ALL_PASS_BLOCK_PEAK_BYTES = 19_333_556


def test_all_pass_screening_block_stays_at_or_below_recorded_peak(monkeypatch, tmp_path):
    # every draw reaches the profile kernel: the chunked rows must not cost
    # more memory than the per-draw profiles did
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 3, tmp_path)
    g = read_topic_graph(tmp_path / "corpus.topics")
    tracemalloc.start()
    try:
        result = screen_partitions(g, 10, ScreeningThresholds(-np.inf, -np.inf), 4096, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_accepted == result.attempts == 4096
    assert peak <= ALL_PASS_BLOCK_PEAK_BYTES


@pytest.mark.parametrize("thresholds", [ScreeningThresholds(),
                                        ScreeningThresholds(-np.inf, -np.inf)])
def test_screening_profiles_a_chunk_of_rows_per_kernel_call(monkeypatch, tmp_path, thresholds):
    # equal outputs cannot show a slide back to one profile call per draw, so
    # count the calls against the rows passing tau_rho
    rows = []
    profile_gap = vnom.importance._profile_gap

    def counted(weights, red_in, green_in):
        rows.append(len(red_in))
        return profile_gap(weights, red_in, green_in)

    monkeypatch.setattr(vnom.importance, "_profile_gap", counted)
    run = load_bench_run(monkeypatch)
    run.prepare("importance", 3, tmp_path)
    g = read_topic_graph(tmp_path / "corpus.topics")
    result = screen_partitions(g, 10, thresholds, 4096, 1)
    chunk = vnom.importance._chunk_rows(g.num_edges)
    assert chunk > 1 and result.n_accepted <= sum(rows)
    assert 0 < len(rows) <= -(-sum(rows) // chunk)
    if thresholds.tau_rho == -np.inf:
        assert sum(rows) == 4096

