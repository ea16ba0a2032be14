"""vnom benchmark: three CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload surface --seed 1 --seconds 30 --trace 0

Workloads (single process, ``--workers 1``):

- ``surface``: ``vnom surface`` at n=184, m=40, m'=30 over the 101-point
  gamma grid with y <= 3.  Each sampled graph is ranked 101 times, so ranking
  and evaluation dominate.
- ``sweep``: ``vnom sweep`` with its defaults (m=4..40, m'=round(m/4), gammas
  0, 0.5, 1).  Three rankings per graph, so graph sampling dominates.
- ``importance``: ``vnom surrogate`` makes a corpus from the seed (untimed),
  then ``vnom importance --m 10 --m-prime 5`` screens partitions and runs
  trials on a capped number of them.  The only workload reading an input file.

A benchmark run starts fresh interpreters (``bench/worker.py``) one after
another until ``--seconds`` are used up.  Each imports vnom, which is one
measurement of set-up time, and then repeats the same fixed-size CLI run for
a sixth of the time, timing ``reference_kernel`` (fixed code that shares
nothing with vnom) just before each CLI run.

End-to-end metrics (``--trace 0``):

- ``wall_rel``: median over CLI runs of the run's wall time (first replicate
  to output written) divided by the reference time next to it.  The speed of
  a shared machine drifts by a fifth or more within minutes; the ratio
  cancels the drift, raw seconds do not.
- ``rankings_per_ref``: (graph, gamma) rankings scored per reference time,
  total rankings over the total of the runs' ``wall_rel``.
- ``setup_s``: median over interpreters of the time to import vnom and load
  the input graph, divided by the reference time measured right after it and
  given in seconds of a machine on which the reference takes 0.1 s
  (``REFERENCE_S``, about a quiet 2-core Intel Xeon VM with numpy 2.4).
- ``peak_rss_mb``: median over interpreters of the peak resident memory.

The raw ``wall_s``, ``rankings_per_s``, ``reference_s`` and ``setup_raw_s``
and the share of failed runs, ``failed_frac``, are printed with them but not
gated.

Every output is checked: its data-section digest against
``bench/digests.json`` when the seed is recorded there and against the other
runs of the same invocation, plus the checks in ``bench/checks.py`` that
share no code with vnom.  Once per invocation, untimed, a reduced sweep must
give byte-identical data with one and two worker processes.

``--trace 1`` alternates traced and untraced interpreters and reports the
per-layer metrics: calls and self time per span (medians over traced CLI
runs), screening counters, output size, import time and the tracing overhead
(traced over untraced ``wall_rel``, minus one).  Exact call counts are
checked against each workload's formula and between traced runs, self times
must be non-negative and sum to at most the traced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and record the environment.

``python3 bench/run.py --record-digests 1,2,3`` rewrites the digests of the
given seeds in ``bench/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import worker

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
RUN_TIMEOUT_S = 120

# One CLI run takes well under a second on a 2-core Xeon VM, so a 30 s run holds
# about thirty of them: medians over many short runs are steadier than over a
# few long ones on a machine whose speed changes from second to second.
GRID_POINTS = 101
SURFACE_REPLICATES = 50
SURFACE_Y_MAX = 3
SWEEP_REPLICATES = 40
SWEEP_M = (4, 8, 12, 16, 20, 24, 28, 32, 36, 40)  # the CLI default
SWEEP_RATIO = 0.25
IMPORTANCE_ATTEMPTS = 20_480  # five screening blocks
IMPORTANCE_PARTITIONS = 250
IMPORTANCE_REPLICATES = 3
GAMMAS = 3  # 0, 0.5, 1


def surface_argv(seed, out, work):
    return ["surface", "--n", "184", "--m", "40", "--m-prime", "30",
            "--y-max", str(SURFACE_Y_MAX), "--gammas", "grid",
            "--replicates", str(SURFACE_REPLICATES), "--seed", str(seed), "--out", out]


def sweep_argv(seed, out, work):
    return ["sweep", "--replicates", str(SWEEP_REPLICATES), "--workers", "1",
            "--seed", str(seed), "--out", out]


def importance_argv(seed, out, work):
    return ["importance", "--graph", str(work / "corpus.topics"), "--m", "10",
            "--m-prime", "5", "--attempts", str(IMPORTANCE_ATTEMPTS),
            "--gammas", "0,0.5,1", "--replicates", str(IMPORTANCE_REPLICATES),
            "--max-partitions", str(IMPORTANCE_PARTITIONS), "--workers", "1",
            "--seed", str(seed), "--out", out]


WORKLOADS = {
    "surface": {
        "argv": surface_argv,
        "check": lambda out: checks.check_surface(out, SURFACE_REPLICATES, GRID_POINTS,
                                                  SURFACE_Y_MAX),
        "rankings": lambda out: SURFACE_REPLICATES * GRID_POINTS,
        "calls": {"nomination.fused_order": SURFACE_REPLICATES * GRID_POINTS},
    },
    "sweep": {
        "argv": sweep_argv,
        "check": lambda out: checks.check_sweep(out, SWEEP_REPLICATES, SWEEP_M,
                                                SWEEP_RATIO, GAMMAS),
        "rankings": lambda out: len(SWEEP_M) * SWEEP_REPLICATES * GAMMAS,
        "calls": {"kidney_egg.sample_kidney_egg": len(SWEEP_M) * SWEEP_REPLICATES},
    },
    "importance": {
        "argv": importance_argv,
        "check": lambda out: checks.check_importance(out, IMPORTANCE_ATTEMPTS,
                                                     IMPORTANCE_PARTITIONS,
                                                     IMPORTANCE_REPLICATES, GAMMAS),
        "rankings": lambda out: (checks.trial_partitions(out) * IMPORTANCE_REPLICATES
                                 * GAMMAS),
        "calls": {"kidney_egg.sample_kidney_egg": 0},
    },
}


# Raw times, printed next to the gated metrics; on a shared machine they
# drift with its load, so BENCHMARK.json gates their ratios to reference_s.
UNGATED_UNITS = {"wall_s": "s", "rankings_per_s": "1/s", "reference_s": "s",
                 "setup_raw_s": "s"}
# setup_s is reported in seconds on a machine where reference_kernel takes this long
REFERENCE_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child(cmd, timeout=RUN_TIMEOUT_S):
    """Run a child in its own session; kill the session on timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {stderr.strip()[-500:]}"
    return stdout, stderr


def vnom_run(argv, out):
    """One untimed CLI run in a fresh interpreter; (its digest, problems)."""
    stdout, err = _child([sys.executable, str(BENCH / "worker.py"), "--out", str(out),
                          "--", *argv])
    if stdout is None:
        return None, [f"vnom {argv[0]}: {err}"]
    call = json.loads(stdout.strip().splitlines()[-1])["calls"][0]
    if call["exit_code"] != 0 or call["sha256"] is None:
        return None, [f"vnom {argv[0]} exited with {call['exit_code']}"]
    return call["sha256"], []


def prepare(workload, seed, work):
    """Untimed: generate the importance corpus from the workload seed."""
    if workload == "importance":
        corpus = work / "corpus.topics"
        _, problems = vnom_run(["surrogate", "--n", "184", "--k", "32", "--seed", str(seed),
                                "--out", str(corpus)], corpus)
        if problems:
            raise BenchError(f"corpus generation failed: {problems}")


def determinism_problems(seed, work):
    """Untimed: a reduced sweep must be byte-identical at one and two workers."""
    workers = min(2, len(os.sched_getaffinity(0)))
    digests = []
    for n_workers in sorted({1, workers}):
        out = work / f"determinism-{n_workers}.csv"
        digest, problems = vnom_run(["sweep", "--m-list", "4,12,20,28", "--replicates", "20",
                                     "--workers", str(n_workers), "--seed", str(seed),
                                     "--out", str(out)], out)
        if problems:
            return problems
        digests.append(digest)
    if len(set(digests)) != 1:
        return [f"sweep data differ between 1 and {workers} workers"]
    return []


def worker_run(workload, seed, work, trace, seconds, recorded):
    """One fresh interpreter repeating the workload's CLI run; a checked record."""
    spec = WORKLOADS[workload]
    out = work / f"{workload}.csv"
    stdout, err = _child([sys.executable, str(BENCH / "worker.py"), "--trace", str(trace),
                          "--seconds", str(seconds), "--out", str(out), "--",
                          *spec["argv"](seed, str(out), work)])
    record = {"trace": trace, "problems": [], "result": None, "calls": []}
    if stdout is None:
        record["problems"].append(f"worker: {err}")
        return record
    result = record["result"] = json.loads(stdout.strip().splitlines()[-1])
    if not Path(result["vnom_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported vnom from {result['vnom_file']}, not from {SRC}")
    # every call wrote the same data; the last output stands for all of them
    file_problems = spec["check"](out) if out.is_file() else ["no output written"]
    for call in result["calls"]:
        problems = list(file_problems)
        if call["exit_code"] != 0:
            problems.append(f"vnom exited with {call['exit_code']}")
        if recorded is not None and call["sha256"] != recorded:
            problems.append(f"data digest {call['sha256']} differs from the recorded {recorded}")
        if trace and not problems:
            problems += trace_problems(workload, call)
        call["problems"] = problems
        record["calls"].append(call)
    if not file_problems:
        record["rankings"] = spec["rankings"](out)
        if workload == "importance":
            record["draws"], record["accepted"] = checks.screening_counts(out)
            record["partitions"] = checks.trial_partitions(out)
        else:
            record["draws"] = record["accepted"] = record["partitions"] = 0
    return record


def trace_problems(workload, call):
    spans = call["spans"]
    problems = []
    for span, expected in WORKLOADS[workload]["calls"].items():
        calls = spans.get(span, {}).get("calls", 0)
        if calls != expected:
            problems.append(f"{span} ran {calls} times, expected {expected}")
    if any(s["self_s"] < 0 for s in spans.values()):
        problems.append("negative self time")
    total = sum(s["self_s"] for name, s in spans.items() if name != worker.LOAD_SPAN)
    if total > call["wall_s"] + 1e-9:
        problems.append(f"self times sum to {total} s, more than the traced wall "
                        f"{call['wall_s']} s")
    return problems


def measure(workload, seed, seconds, trace, work, recorded):
    """Fresh interpreters until the time is used up; traced ones alternate with untraced."""
    per_worker = max(0.3, seconds / 6)
    records = []
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        n_traced = sum(r["trace"] for r in records)
        n_plain = len(records) - n_traced
        enough = (n_traced >= 2 and n_plain >= 1) if trace else n_plain >= 3
        if enough and time.perf_counter() + longest > deadline:
            break
        started = time.perf_counter()
        records.append(worker_run(workload, seed, work, int(bool(trace) and n_traced <= n_plain),
                                  per_worker, recorded))
        longest = max(longest, time.perf_counter() - started)
    # every run of one invocation used the same seed: data and call counts must agree
    good = [c for r in records for c in r["calls"] if not c["problems"]]
    for call in good[1:]:
        if call["sha256"] != good[0]["sha256"]:
            call["problems"].append("data digest differs from the first run")
    traced = [c for c in good if "spans" in c]
    first = {k: v["calls"] for k, v in traced[0]["spans"].items()} if traced else {}
    for call in traced[1:]:
        if {k: v["calls"] for k, v in call["spans"].items()} != first:
            call["problems"].append("call counts differ between traced runs")
    return records


def _median(values):
    return statistics.median(values) if values else 0.0


def _passed(records, trace=None):
    """Records and calls that passed every check, optionally only (un)traced ones."""
    chosen = [r for r in records if trace is None or r["trace"] == trace]
    calls = [(r, c) for r in chosen for c in r["calls"] if not c["problems"]]
    return [r for r in chosen if r["result"] and r["calls"] and not any(
        c["problems"] for c in r["calls"])], calls


def _setup(record):
    """Seconds to import vnom and load the input, before the first replicate."""
    return record["result"]["import_s"] + record["calls"][0]["load_s"]


def end_to_end(records):
    """Medians per CLI run, except the throughput: total work over total time."""
    workers, calls = _passed(records)
    return {
        "wall_s": _median([c["wall_s"] for _, c in calls]),
        "rankings_per_s": sum(r["rankings"] for r, _ in calls) / sum(c["wall_s"] for _, c in calls),
        "reference_s": _median([c["reference_s"] for _, c in calls]),
        "wall_rel": _median([c["wall_s"] / c["reference_s"] for _, c in calls]),
        "rankings_per_ref": (sum(r["rankings"] for r, _ in calls)
                             / sum(c["wall_s"] / c["reference_s"] for _, c in calls)),
        "setup_raw_s": _median([_setup(r) for r in workers]),
        "setup_s": _median([_setup(r) * REFERENCE_S / r["calls"][0]["reference_s"]
                            for r in workers]),
        "peak_rss_mb": _median([r["result"]["peak_rss_mb"] for r in workers]),
    }


def per_layer(records):
    traced_workers, traced = _passed(records, trace=1)
    _, untraced = _passed(records, trace=0)
    if not traced or not untraced:
        raise BenchError("no passing traced and untraced runs to compare")
    values = {}
    for span, _, _ in worker.SPANS:
        stats = [c["spans"].get(span, {"calls": 0, "self_s": 0.0}) for _, c in traced]
        values[f"{span}.calls"] = stats[0]["calls"]
        values[f"{span}.self_s"] = _median([s["self_s"] for s in stats])
    first, call = traced[0]
    values["importance.screen_partitions.draws"] = first["draws"]
    values["importance.screen_partitions.accepted"] = first["accepted"]
    values["importance.accept_ratio"] = (first["accepted"] / first["draws"]
                                         if first["draws"] else 0.0)
    values["importance.run_importance_trials.partitions"] = first["partitions"]
    values["io.output_bytes"] = call["output_bytes"]
    values["setup.import_s"] = _median([r["result"]["import_s"] for r in traced_workers])
    traced_wall = _median([c["wall_s"] for _, c in traced])
    values["trace.wall_s"] = traced_wall
    values["trace.reference_s"] = _median([c["reference_s"] for _, c in traced])
    # compare wall_rel, so a change in machine speed between the runs cancels
    values["trace.overhead_frac"] = (_median([c["wall_s"] / c["reference_s"] for _, c in traced])
                                     / _median([c["wall_s"] / c["reference_s"]
                                                for _, c in untraced]) - 1)
    return values


def environment(records, seconds, measured_s):
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
           "python": sys.version.split()[0], "run_seconds": seconds,
           "measured_seconds": round(measured_s, 3), "interpreters": len(records),
           "cli_runs": sum(len(r["calls"]) for r in records)}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    versions = next((r["result"]["versions"] for r in records if r["result"]), {})
    env.update(versions)
    try:
        env["git_commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                           capture_output=True, text=True,
                                           check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_commit"] = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "vnom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def benchmark(args, work):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    recorded = load_digests()["sha256"].get(args.workload, {}).get(str(args.seed))
    prepare(args.workload, args.seed, work)
    determinism = determinism_problems(args.seed, work)
    started = time.perf_counter()
    records = measure(args.workload, args.seed, args.seconds, args.trace, work, recorded)
    measured_s = time.perf_counter() - started
    problems = determinism + [p for r in records for p in r["problems"]]
    problems += [p for r in records for c in r["calls"] for p in c["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not _passed(records)[1]:
        raise BenchError("no run passed its checks")
    values = per_layer(records) if args.trace else end_to_end(records)
    # a worker that died counts as one failed run
    attempted = 1 + sum(len(r["calls"]) or 1 for r in records)
    failed = bool(determinism) + sum(1 for r in records if not r["calls"]) + sum(
        1 for r in records for c in r["calls"] if c["problems"])

    env = environment(records, args.seconds, measured_s)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: medians over {env['cli_runs']} CLI runs "
          f"in {env['interpreters']} interpreters")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    for name, unit in UNGATED_UNITS.items():
        if name in values:
            print(f"  {name:<48} {values[name]:>14.6g} {unit} (printed only)")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} share of {attempted} runs")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_digests(seeds, work):
    data = load_digests()
    for workload in WORKLOADS:
        for seed in seeds:
            prepare(workload, seed, work)
            record = worker_run(workload, seed, work, 0, 0.0, None)
            problems = record["problems"] + [p for c in record["calls"] for p in c["problems"]]
            if problems:
                raise BenchError(f"{workload} seed {seed}: {problems}")
            digest = record["calls"][0]["sha256"]
            data["sha256"].setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest} accepted={record['accepted']}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", default=None, metavar="SEEDS",
                        help="comma-separated seeds whose digests to record")
    args = parser.parse_args()
    if args.record_digests is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if not (SRC / "vnom" / "cli.py").is_file():
            raise BenchError(f"no vnom sources under {SRC}")
        (BENCH / ".work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
        try:
            stdout, err = _child([sys.executable, "-m", "compileall", "-q", str(SRC / "vnom")])
            if stdout is None:
                raise BenchError(f"compiling the sources failed: {err}")
            if args.record_digests is not None:
                return record_digests([int(s) for s in args.record_digests.split(",")], work)
            return benchmark(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
