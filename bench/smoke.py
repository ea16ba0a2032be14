"""Smoke test of the benchmark itself (about a minute; not part of the test suite).

    python3 bench/smoke.py

Runs every workload briefly with tracing off and on, and checks that each
metric of ``BENCHMARK.json`` is printed by name with its unit, in the summary
lines and in the final JSON line, along with ``failed_frac``.  Then checks
that the benchmark fails without printing a result in a directory that holds
only ``BENCHMARK.json`` and ``bench/``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", trace)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{where}: metrics {sorted(result['metrics'])}")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}")
                if not any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                           for line in lines[:-1]):
                    problems.append(f"{where}: no summary line for {m['name']} in {m['unit']}")
            if not any(line.split()[:1] == ["failed_frac"] for line in lines[:-1]):
                problems.append(f"{where}: no failed_frac line")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")

    (ROOT / "bench" / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / "bench" / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, "--workload", "surface", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, output {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
