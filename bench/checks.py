"""Output checks that share no code with vnom.

Each check reads a CLI output file with the standard library only and
returns a list of problems (empty when the output is sound).  The digest
check against ``bench/digests.json`` lives in ``run.py``.
"""

from __future__ import annotations

import csv
import math
import re


def _read(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return meta, rows


def _unit_interval(rows, problems, keep=lambda row: True):
    for row in rows:
        if keep(row):
            mean = float(row["mean"])
            if not 0.0 <= mean <= 1.0:
                problems.append(f"mean {row['mean']} outside [0, 1] in row {row}")
                return


def check_surface(path, replicates, n_gammas, y_max):
    """Row counts, the ap_y y=1 row equal to the mrr row, means in [0, 1]."""
    _, rows = _read(path)
    problems = []
    if len(rows) != n_gammas * (y_max + 2):
        problems.append(f"{len(rows)} rows, expected {n_gammas * (y_max + 2)}")
    for criterion, y in [("ap_y", str(k)) for k in range(1, y_max + 1)] + [("mrr", ""), ("map", "")]:
        count = sum(1 for r in rows if r["criterion"] == criterion and r["y"] == y)
        if count != n_gammas:
            problems.append(f"{count} {criterion} rows for y={y!r}, expected {n_gammas}")
    ap_1 = [(r["gamma"], r["mean"], r["stderr"]) for r in rows
            if r["criterion"] == "ap_y" and r["y"] == "1"]
    mrr = [(r["gamma"], r["mean"], r["stderr"]) for r in rows if r["criterion"] == "mrr"]
    if ap_1 != mrr:
        problems.append("the ap_y y=1 row differs from the mrr row")
    if any(r["replicates"] != str(replicates) for r in rows):
        problems.append(f"a row does not report {replicates} replicates")
    _unit_interval(rows, problems)
    return problems


def check_sweep(path, replicates, m_values, m_prime_ratio, n_gammas):
    """One row per (cell, gamma, criterion), m' = round-half-up(ratio*m), means in [0, 1]."""
    _, rows = _read(path)
    problems = []
    expected = len(m_values) * n_gammas * 3
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    cells = {(int(r["m"]), int(r["m_prime"])) for r in rows}
    want = {(m, max(1, min(m - 1, math.floor(m_prime_ratio * m + 0.5)))) for m in m_values}
    if cells != want:
        problems.append(f"cells {sorted(cells)}, expected {sorted(want)}")
    if any(r["replicates"] != str(replicates) for r in rows):
        problems.append(f"a row does not report {replicates} replicates")
    _unit_interval(rows, problems)
    return problems


_SCREENING = re.compile(r"^# screening: attempts=(\d+) accepted=(\d+) ")


def screening_counts(path):
    """(attempts, accepted) from the screening line, or None if it is missing."""
    meta, _ = _read(path)
    for line in meta:
        match = _SCREENING.match(line)
        if match:
            return int(match.group(1)), int(match.group(2))
    return None


def trial_partitions(path):
    """Partitions that ran trials: the sum of n_partitions over the bins."""
    _, rows = _read(path)
    per_bin = {}
    for r in rows:
        per_bin[(r["bin_rho_lo"], r["bin_p_lo"])] = int(r["n_partitions"])
    return sum(per_bin.values())


def check_importance(path, attempts, max_partitions, replicates, n_gammas):
    """Screening line, rows per bin, partition and report totals, mean ranges."""
    _, rows = _read(path)
    problems = []
    counts = screening_counts(path)
    if counts is None:
        return ["no screening line"]
    if counts[0] != attempts:
        problems.append(f"screening reports {counts[0]} attempts, requested {attempts}")
    bins = {}
    for r in rows:
        bins.setdefault((r["bin_rho_lo"], r["bin_p_lo"]), []).append(r)
    for key, bin_rows in bins.items():
        metric_rows = [r for r in bin_rows if r["criterion"] != "fusion_advantage_mrr"]
        if len(metric_rows) != n_gammas * 3 or len(bin_rows) != len(metric_rows) + 1:
            problems.append(f"bin {key} has {len(bin_rows)} rows, expected {n_gammas * 3 + 1}")
        n_parts, n_reports = int(bin_rows[0]["n_partitions"]), int(bin_rows[0]["n_reports"])
        if n_reports != n_parts * replicates:
            problems.append(f"bin {key}: {n_reports} reports for {n_parts} partitions")
    partitions = trial_partitions(path)
    if partitions != min(counts[1], max_partitions) or partitions < 1:
        problems.append(f"{partitions} partitions ran trials; {counts[1]} were accepted, "
                        f"cap {max_partitions}")
    _unit_interval(rows, problems, keep=lambda r: r["criterion"] != "fusion_advantage_mrr")
    for r in rows:
        if r["criterion"] == "fusion_advantage_mrr" and not -1.0 <= float(r["mean"]) <= 1.0:
            problems.append(f"fusion advantage {r['mean']} outside [-1, 1]")
    return problems
