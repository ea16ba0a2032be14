"""vnom CLI runs in one fresh interpreter, timed from the inside.

    python3 bench/worker.py --trace 0|1 --seconds S --out PATH -- <vnom cli arguments>

``bench/run.py`` starts this script several times per benchmark run, with
``src`` on ``PYTHONPATH``.  It imports vnom, then calls ``vnom.cli.main``
with the given arguments again and again until ``--seconds`` have passed
(at least once), and prints one JSON object as its last line of output:

- ``import_s``: time to import vnom;
- ``peak_rss_mb`` of this process, and the numpy and scipy versions;
- ``calls``: one entry per CLI run, with ``load_s``, the time spent reading
  the input graph (zero for workloads without one); ``wall_s``, the duration
  of ``main`` minus ``load_s``, i.e. from the first replicate until the output
  is written; ``reference_s``, the time of ``reference_kernel`` run just
  before; ``exit_code``; ``output_bytes``; ``sha256``, the digest of
  ``vnom.io.data_section`` of the file named by ``--out``; and with
  ``--trace 1``, ``spans``: calls and self time per wrapped function.

Spans wrap each public function where its callers look it up, so a function
imported by name into several modules is wrapped in all of them.  A span's
self time is its duration minus the durations of the spans opened inside it;
times are integer nanoseconds, so self times are exact and non-negative.
Without ``--trace`` only ``io.read_topic_graph`` is wrapped: its duration
separates loading the input from the measured run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import time

# (span name, module under vnom, function names); io.write covers every
# workload's serializer.
SPANS = (
    ("kidney_egg.sample_kidney_egg", "kidney_egg", ("sample_kidney_egg",)),
    ("nomination.candidate_statistics", "nomination", ("candidate_statistics",)),
    ("nomination.fused_order", "nomination", ("fused_order",)),
    ("metrics.report_from_mask", "metrics", ("report_from_mask",)),
    ("metrics.aggregate_reports", "metrics", ("aggregate_reports",)),
    ("experiments.gamma_surface", "experiments", ("gamma_surface",)),
    ("experiments.run_sweep", "experiments", ("run_sweep",)),
    ("importance.screen_partitions", "importance", ("screen_partitions",)),
    ("importance.run_importance_trials", "importance", ("run_importance_trials",)),
    ("io.read_topic_graph", "io", ("read_topic_graph",)),
    ("io.write", "io", ("sweep_to_csv", "surface_to_csv", "trials_to_csv")),
    ("cli.main", "cli", ("main",)),
)
LOAD_SPAN = "io.read_topic_graph"
REFERENCE_ROUNDS = 2000  # about 0.1 s on a 2-core Xeon VM


def reference_kernel(np):
    """A fixed computation that shares no code with vnom.

    It mixes interpreter work, small-array sorts like a ranking and a larger
    partition like a screening block.  Timed next to every CLI run, it
    measures how fast the machine is at that moment.  numpy comes in as an
    argument so that this module does not import it before vnom is timed.
    """
    rng = np.random.default_rng(2012)
    a, b = rng.integers(0, 40, (2, 180))
    tiebreak = rng.permutation(180)
    total = 0.0
    for i in range(REFERENCE_ROUNDS):
        key = (i % 9 + 1) * a + b
        order = np.lexsort((tiebreak, -key))
        total += float(np.cumsum(key[order] > 200)[-1]) + sum(j * j for j in range(30))
        if i % 50 == 0:
            keys = rng.random((512, 184))
            total += float(np.argpartition(keys, 9, axis=1)[:, :10].sum())
    return total


class Tracer:
    """Per-span call counts and self times, kept in memory."""

    def __init__(self):
        self._open = []  # child time (ns) accumulated by each open span
        self.calls = {}
        self.self_ns = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                children = self._open.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + duration - children
                if self._open:
                    self._open[-1] += duration
        return traced

    def take(self):
        """Calls and self times (s) per span since the last take."""
        spans = {name: {"calls": self.calls[name], "self_s": self.self_ns[name] / 1e9}
                 for name in self.calls}
        self.calls, self.self_ns = {}, {}
        return spans

    def install(self, spans):
        """Replace every reference to each function inside the vnom package."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "vnom" or name.startswith("vnom.")]
        for span, module, functions in spans:
            for fn_name in functions:
                original = getattr(sys.modules[f"vnom.{module}"], fn_name)
                wrapped = self.wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat the CLI run until this much time has passed")
    parser.add_argument("--out", required=True, help="the output file the CLI writes")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter_ns()
    import vnom.cli
    import vnom.io
    import_ns = time.perf_counter_ns() - t0
    import numpy
    import scipy

    tracer = Tracer()
    tracer.install(SPANS if args.trace else [s for s in SPANS if s[0] == LOAD_SPAN])
    calls = []
    deadline = time.perf_counter() + args.seconds
    while not calls or time.perf_counter() < deadline:
        if os.path.exists(args.out):
            os.remove(args.out)
        t1 = time.perf_counter_ns()
        reference_kernel(numpy)
        reference_ns = time.perf_counter_ns() - t1
        t1 = time.perf_counter_ns()
        exit_code = vnom.cli.main(cli_args)
        main_ns = time.perf_counter_ns() - t1
        load_ns = tracer.self_ns.get(LOAD_SPAN, 0)
        spans = tracer.take()
        call = {"exit_code": exit_code, "load_s": load_ns / 1e9,
                "wall_s": (main_ns - load_ns) / 1e9, "reference_s": reference_ns / 1e9,
                "output_bytes": 0, "sha256": None}
        if os.path.isfile(args.out):
            with open(args.out, "rb") as fh:
                raw = fh.read()
            call["output_bytes"] = len(raw)
            data = vnom.io.data_section(raw.decode("utf-8"))
            call["sha256"] = hashlib.sha256(data.encode("utf-8")).hexdigest()
        if args.trace:
            call["spans"] = spans
        calls.append(call)

    print(json.dumps({
        "vnom_file": vnom.__file__,
        "import_s": import_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "calls": calls,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
