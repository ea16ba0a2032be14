"""File formats, synthetic corpus generation, and result serialization.

Topic-graph files are UTF-8 text: header lines ``#n=<int>`` (at most
``graph.MAX_VERTICES``) and ``#k=<int>`` (2 to ``graph.MAX_TOPICS``),
optional ``#vertex <id> <name>`` symbol-table lines, then one edge per line,
``e <u> <v> <count> <t1> ... <tK>``.  Any other ``#``-prefixed line is
metadata and is ignored by the reader.  Serialization is canonical (edges
sorted by pair, probabilities at 12 significant digits) so equal graphs
produce byte-equal files.

Attributed-graph files are analogous: ``#n=``/``#ke=`` headers, one
``v <id> <truth> <observed>`` line per vertex, and ``a <u> <v> <attr>`` edge
lines.  Both readers share one scanner, which checks the syntax in file order
and keeps only numbers; the graph constructors check the records, and the
reader names the line of the first one they reject.

Every result file embeds the resolved configuration and seed as metadata
(comment lines in CSV, a ``meta`` object in JSON); timestamps live only
there, so the data sections are byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

from .errors import GraphFormatError, InputError, RecordError
from .experiments import SweepResult
from .graph import MAX_TOPICS, MAX_VERTICES, AttributedGraph, TopicGraph, _check_topic_count
from .importance import ScreeningResult, TrialsResult, bin_index
from .metrics import CRITERIA, MetricTable
from .seeding import generator

_FORMAT_TAG_TOPIC = "# vnom topic-graph v1"
_FORMAT_TAG_ATTR = "# vnom attributed-graph v1"


# ---------------------------------------------------------------------------
# topic-graph files
# ---------------------------------------------------------------------------

def _write_graph(path, tag: str, metadata: dict | None, lines) -> None:
    """A graph file: the format tag, the metadata as sorted '# key: value'
    lines, then the header and record lines."""
    meta = [f"# {key}: {metadata[key]}" for key in sorted(metadata or ())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([tag, *meta, *lines]) + "\n")


def write_topic_graph(g: TopicGraph, path, metadata: dict | None = None) -> None:
    lines = [f"#n={g.n}", f"#k={g.k_topics}"]
    # an unnamed graph stays unnamed
    lines += [f"#vertex {i} {name}" for i, name in enumerate(g.vertex_names or ())]
    lines += [f"e {u} {v} {count} {' '.join(f'{x:.12g}' for x in probs)}"
              for u, v, count, probs in zip(g.edge_u, g.edge_v, g.message_count, g.topic_probs)]
    _write_graph(path, _FORMAT_TAG_TOPIC, metadata, lines)


def read_topic_graph(path) -> TopicGraph:
    n, k, names, (eu, ev, counts), probs, lines = _scan(path, topic=True)
    probs = probs.reshape(-1, k)
    # a row may drift from summing to 1 by up to 1e-6, divided out past 1e-12;
    # the constructor rejects any other row (both infinities make a NaN sum)
    with np.errstate(invalid="ignore", over="ignore"):
        total = probs.sum(axis=1, keepdims=True)
    drift = np.abs(total - 1.0)
    np.divide(probs, total, out=probs, where=(drift > 1e-12) & (drift <= 1e-6))
    return _construct(TopicGraph, lines, n, eu, ev, probs, counts,
                      tuple(names[i] for i in range(n)) if names else None)


def _scan(path, topic: bool):
    """Read a topic-graph or attributed-graph file's grammar line by line,
    turning each record into numbers as it goes, so no line's tokens are kept.
    Returns n, the #k=/#ke= count, {id: name or (truth, observed)}, the int64
    columns u, v and count/attribute, the flat topic probabilities, and each
    record's line as {"vertex": {id: line}, "edge": [line of each edge]}."""
    from array import array  # here: a run that reads no file maps no array library
    count_tag, count_header, vertex_tag, edge_tag, third = (
        ("#k=", ("topic count", 2, MAX_TOPICS), "#vertex ", "e ", "message count") if topic
        else ("#ke=", ("attribute count", 1), "v ", "a ", "edge attribute"))
    n = count = None
    vertices, vertex_lines = {}, {}
    numbers, probs, edge_lines = array("q"), array("d"), array("q")
    for lineno, line in _lines(path):
        if line.startswith("#n="):
            n = _header_int(n, line[3:], lineno, "vertex count", 1, MAX_VERTICES)
        elif line.startswith(count_tag):
            count = _header_int(count, line[len(count_tag):], lineno, *count_header)
        elif line.startswith(vertex_tag):
            fields = line.split(maxsplit=2) if topic else line.split()
            if len(fields) != (3 if topic else 4):
                raise GraphFormatError("malformed #vertex line" if topic
                                       else "malformed vertex line", lineno)
            if n is None:
                raise GraphFormatError("vertex line before the #n= header", lineno)
            vid = _parse_int(fields[1], lineno, "vertex id")
            if not 0 <= vid < n:
                raise GraphFormatError(f"vertex id {vid} outside 0..{n - 1}", lineno)
            if vid in vertices:
                raise GraphFormatError(f"repeated vertex id {vid}", lineno)
            vertices[vid] = fields[2] if topic else (
                _parse_int(fields[2], lineno, "truth label"),
                _parse_int(fields[3], lineno, "observed label"))
            vertex_lines[vid] = lineno
        elif line.startswith("#"):
            continue  # metadata
        elif line.startswith(edge_tag):
            if n is None or count is None:
                raise GraphFormatError(f"edge before #n=/{count_tag} headers", lineno)
            fields = line.split()
            if len(fields) != (4 + count if topic else 4):
                raise GraphFormatError(f"expected 'e u v count' plus {count} topic probabilities"
                                       if topic else "malformed edge line", lineno)
            for text, what in zip(fields[1:4], ("endpoint", "endpoint", third)):
                numbers.append(_parse_int(text, lineno, what))
            try:
                probs.extend(map(float, fields[4:]))
            except ValueError:
                raise GraphFormatError("malformed topic probability", lineno) from None
            edge_lines.append(lineno)
        else:
            raise GraphFormatError(f"unrecognized line {line[:40]!r}", lineno)
    if n is None or count is None:
        raise GraphFormatError(f"missing #n= or {count_tag} header")
    # every vertex has labels, and names come for all or none; ids are unique
    # and in range, so if there are fewer than n some id is missing
    if len(vertices) < n and (vertices or not topic):
        missing = next(i for i in range(n) if i not in vertices)
        raise GraphFormatError(f"symbol table misses vertex {missing}" if topic
                               else f"missing vertex line for id {missing}")
    return (n, count, vertices, np.frombuffer(numbers, np.int64).reshape(-1, 3).T,
            np.frombuffer(probs), {"vertex": vertex_lines, "edge": edge_lines})


def _lines(path):
    """(line number, stripped text) of each non-blank line of a UTF-8 file.
    Text mode decodes in chunks, so its error names no line; bytes that are not
    UTF-8 decode instead to lone surrogates, which fail to encode per line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise GraphFormatError("line is not valid UTF-8", lineno) from None
            line = raw.strip()
            if line:
                yield lineno, line


def _parse_int(text: str, lineno: int, what: str) -> int:
    """An integer field that fits int64, as every array of a graph holds it."""
    try:
        value = int(text)
    except ValueError:
        raise GraphFormatError(f"malformed {what} {text!r}", lineno) from None
    if not -2 ** 63 <= value < 2 ** 63:
        raise GraphFormatError(f"{what} {text!r} outside the int64 range", lineno)
    return value


def _header_int(current, text: str, lineno: int, what: str, minimum: int,
                maximum: int | None = None) -> int:
    """A count header's value: given once, an integer, at least ``minimum``
    and at most ``maximum``."""
    if current is not None:
        raise GraphFormatError(f"repeated {what} header", lineno)
    value = _parse_int(text, lineno, what)
    if value < minimum:
        raise GraphFormatError(f"{what} must be >= {minimum}, got {value}", lineno)
    if maximum is not None and value > maximum:
        raise GraphFormatError(f"{what} must be <= {maximum}, got {value}", lineno)
    return value


# ---------------------------------------------------------------------------
# attributed-graph files
# ---------------------------------------------------------------------------

def write_attributed_graph(g: AttributedGraph, path, metadata: dict | None = None) -> None:
    lines = [f"#n={g.n}", f"#ke={g.k_edge_attrs}"]
    lines += [f"v {i} {truth} {observed}"
              for i, (truth, observed) in enumerate(zip(g.truth, g.observed))]
    lines += [f"a {u} {v} {attr}" for u, v, attr in zip(g.edge_u, g.edge_v, g.edge_attr)]
    _write_graph(path, _FORMAT_TAG_ATTR, metadata, lines)


def read_attributed_graph(path) -> AttributedGraph:
    n, ke, labels, edges, _, lines = _scan(path, topic=False)
    truth, observed = np.array([labels[i] for i in range(n)], dtype=np.int64).T
    return _construct(AttributedGraph, lines, n, *edges, truth, observed, ke)


def _construct(kind, lines, *args):
    """``kind(*args)``, naming a rejected record by its line: lines[kind][index]."""
    try:
        return kind(*args)
    except RecordError as err:
        raise GraphFormatError(err.reason, int(lines[err.kind][err.index])) from None


# ---------------------------------------------------------------------------
# synthetic corpus surrogate
# ---------------------------------------------------------------------------

def generate_surrogate(n: int = 184, k_topics: int = 32, density: float = 0.05, *,
                       group_size: int = 44, group_density: float = 0.62,
                       tilt: float = 0.5, concentration: float = 150.0,
                       mean_extra_messages: float = 1.0, seed) -> TopicGraph:
    """Random topic graph with a latent dense, topically-skewed group.

    Vertices 0..group_size-1 form a latent block: pairs inside it connect
    with probability ``group_density`` and their edges draw topic
    distributions tilted toward the first quarter of the topics; every other
    pair connects at the background rate chosen so the expected overall
    density equals ``density``.  ``tilt`` in [0, 1) moves within-block topic
    mass onto the hot topics; ``concentration`` controls how tightly each
    edge's distribution clusters around its group mean.  Message counts are
    1 + Poisson(mean_extra_messages).
    """
    if n < 4:
        raise InputError("n must be >= 4")
    _check_topic_count(k_topics)
    if not 0.0 < density < 1.0:
        raise InputError("density must lie in (0, 1)")
    if not 2 <= group_size < n:
        raise InputError("group_size must lie in 2..n-1")
    if not 0.0 <= tilt < 1.0:
        raise InputError("tilt must lie in [0, 1)")
    if not 0.0 < concentration < math.inf:
        raise InputError("concentration must be positive and finite")
    rng = generator(seed)
    try:  # numpy refuses a NaN, negative or too large (past ~2**63) Poisson mean;
        rng.poisson(mean_extra_messages, size=0)  # an empty draw reads no stream
    except ValueError:
        raise InputError(f"mean_extra_messages must be >= 0 and within numpy's Poisson "
                         f"bound, got {mean_extra_messages}") from None
    total_pairs = math.comb(n, 2)
    block_pairs = math.comb(group_size, 2)
    background = (density * total_pairs - group_density * block_pairs) / (total_pairs - block_pairs)
    if not 0.0 < background < 1.0:
        raise InputError(
            "density/group_size/group_density are inconsistent "
            f"(implied background rate {background:.4f})")

    iu, iv = np.triu_indices(n, k=1)
    in_block = (iu < group_size) & (iv < group_size)
    p_edge = np.where(in_block, group_density, background)
    present = rng.random(iu.size) < p_edge
    eu, ev, edge_in_block = iu[present], iv[present], in_block[present]

    n_hot = max(1, k_topics // 4)
    uniform = np.full(k_topics, 1.0 / k_topics)
    hot = np.zeros(k_topics)
    hot[:n_hot] = 1.0 / n_hot
    tilted = (1.0 - tilt) * uniform + tilt * hot
    alphas = np.where(edge_in_block[:, None], tilted, uniform) * concentration
    raw = rng.standard_gamma(alphas)
    mass = raw.sum(axis=1, keepdims=True)
    if not mass.all():
        raise InputError(f"concentration={concentration} underflows an edge's gamma draws to 0")
    probs = raw / mass
    counts = 1 + rng.poisson(mean_extra_messages, size=eu.size)
    names = tuple(f"actor{i:03d}" for i in range(n))
    return TopicGraph(n, eu, ev, probs, counts, names)


# ---------------------------------------------------------------------------
# result documents: one metadata envelope, rendered as '#' lines in CSV and as
# the 'meta' object in JSON
# ---------------------------------------------------------------------------

RATE_BIN_WIDTH = 0.02  # estimated-rate bin width of rate_bins_csv


def _meta(kind: str, config: dict) -> dict:
    """The metadata envelope of every result document, with its only timestamp."""
    return {"kind": kind,
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config": config}


def _finite(obj):
    """``obj`` with every non-finite float (a one-replicate standard error, an
    infinite threshold) replaced by None, which strict JSON can hold."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _strict_json(obj, **options) -> str:
    """Standard JSON with sorted keys; non-finite floats are written as null."""
    return json.dumps(_finite(obj), sort_keys=True, allow_nan=False, **options)


def _csv(kind: str, config: dict, header: str, rows, notes=()) -> str:
    """A CSV document: the envelope and the writer's notes as '#' lines, then
    the header and one line per row."""
    meta = _meta(kind, config)
    lines = [f"# vnom {meta['kind']}",
             f"# created: {meta['created']}",
             f"# config: {_strict_json(meta['config'], default=str)}",
             *(f"# {note}" for note in notes),
             header, *rows]
    return "\n".join(lines) + "\n"


def _json(kind: str, config: dict, data: dict) -> str:
    """A JSON document: the envelope under 'meta', the results under 'data'."""
    return _strict_json({"meta": _meta(kind, config), "data": data}, indent=2)


def _fnum(x) -> str:
    return repr(float(x))


def _aggregate_rows(prefix: str, table: MetricTable, suffix: str = ""):
    """CSV rows '<prefix>,gamma,criterion,mean,stderr<suffix>' of a table's
    S@1/MRR/MAP, in grid order."""
    for gamma in table.gammas:
        for criterion in CRITERIA:
            yield (f"{prefix},{_fnum(gamma)},{criterion},"
                   f"{_fnum(table.value(criterion, gamma))},"
                   f"{_fnum(table.value(criterion, gamma, se=True))}{suffix}")


def _aggregate_json(table: MetricTable) -> dict:
    """A table's S@1/MRR/MAP as {gamma: {criterion: {"mean", "stderr"}}}."""
    return {_fnum(gamma): {c: {"mean": table.value(c, gamma),
                               "stderr": table.value(c, gamma, se=True)} for c in CRITERIA}
            for gamma in table.gammas}


def sweep_config(result: SweepResult) -> dict:
    spec = result.spec
    return {
        "n": spec.n,
        "p": [spec.p.q0, spec.p.q1, spec.p.q2],
        "s": [spec.s.q0, spec.s.q1, spec.s.q2],
        "m_values": list(spec.m_values),
        "m_prime_ratio": spec.m_prime_ratio,
        "m_prime_values": list(spec.m_prime_values) if spec.m_prime_values else None,
        "gamma_grid": list(spec.gamma_grid),
        "replicates": spec.replicates,
        "master_seed": spec.master_seed,
    }


def sweep_to_csv(result: SweepResult) -> str:
    spec = result.spec
    notes = [f"gamma_star: m={cell.m} m_prime={cell.m_prime} "
             f"criterion={criterion} value={_fnum(gamma)}"
             for cell in result.cells for criterion, gamma in sorted(cell.gamma_star.items())]
    notes += [f"skipped: m={m} m_prime={mp} reason={reason}" for m, mp, reason in result.skipped]
    rates = ",".join(_fnum(x) for x in (spec.p.q0, spec.p.q1, spec.p.q2,
                                        spec.s.q0, spec.s.q1, spec.s.q2))
    rows = []
    for cell in result.cells:
        rows += _aggregate_rows(f"{spec.n},{cell.m},{cell.m_prime},{rates}", cell.table,
                                f",{cell.table.replicates}")
    return _csv("sweep", sweep_config(result),
                "n,m,m_prime,p0,p1,p2,s0,s1,s2,gamma,criterion,mean,stderr,replicates",
                rows, notes)


def sweep_to_json(result: SweepResult) -> str:
    cells = []
    for cell in result.cells:
        cells.append({
            "m": cell.m,
            "m_prime": cell.m_prime,
            "replicates": cell.table.replicates,
            "gamma_star": {k: v for k, v in sorted(cell.gamma_star.items())},
            "reports": _aggregate_json(cell.table),
        })
    data = {"cells": cells,
            "skipped": [{"m": m, "m_prime": mp, "reason": r} for m, mp, r in result.skipped]}
    return _json("sweep", sweep_config(result), data)


def surface_to_csv(table: MetricTable, config: dict) -> str:
    rows = []
    for criterion, y in [("ap_y", y) for y in table.y_values] + [("mrr", None), ("map", None)]:
        means, ses = table.column(criterion, y), table.column(criterion, y, se=True)
        for gamma, mean, se in zip(table.gammas, means, ses):
            rows.append(f"{criterion},{'' if y is None else y},{_fnum(gamma)},{_fnum(mean)},"
                        f"{_fnum(se)},{table.replicates}")
    return _csv("surface", config, "criterion,y,gamma,mean,stderr,replicates", rows)


def surface_to_json(table: MetricTable, config: dict) -> str:
    data = {
        "gamma_grid": list(table.gammas),
        "y_values": list(table.y_values),
        "ap_y_mean": [table.column("ap_y", y).tolist() for y in table.y_values],
        "ap_y_stderr": [table.column("ap_y", y, se=True).tolist() for y in table.y_values],
        "replicates": table.replicates,
    }
    for criterion in ("mrr", "map"):
        data[f"{criterion}_mean"] = table.column(criterion).tolist()
        data[f"{criterion}_stderr"] = table.column(criterion, se=True).tolist()
    return _json("surface", config, data)


def trials_to_csv(screening: ScreeningResult, trials: TrialsResult, config: dict) -> str:
    note = (f"screening: attempts={screening.attempts} accepted={screening.n_accepted} "
            f"acceptance_rate={_fnum(screening.acceptance_rate)}")
    rows = []
    for key in sorted(trials.bins):
        b = trials.bins[key]
        prefix = (f"{_fnum(b.rho_lo)},{_fnum(b.rho_hi)},{_fnum(b.p_lo)},{_fnum(b.p_hi)},"
                  f"{b.n_partitions},{b.table.replicates},{int(b.insufficient)}")
        rows += _aggregate_rows(prefix, b.table)
        if b.fusion_advantage_mrr is not None:
            rows.append(f"{prefix},,fusion_advantage_mrr,{_fnum(b.fusion_advantage_mrr)},")
    return _csv("importance", config,
                "bin_rho_lo,bin_rho_hi,bin_p_lo,bin_p_hi,n_partitions,n_reports,"
                "insufficient,gamma,criterion,mean,stderr", rows, [note])


def _partition_rows(trials: TrialsResult):
    """Per partition, as Python numbers: draw index, delta_rho, delta_p,
    rates [p1, p2, s1, s2], and its S@1, MRR and MAP means over the gammas."""
    parts = trials.partitions
    means = zip(*(trials.table.column(criterion).tolist() for criterion in CRITERIA))
    return zip(parts.draw_index.tolist(), parts.delta_rho.tolist(), parts.delta_p.tolist(),
               trials.rates.tolist(), means)


def partitions_to_csv(trials: TrialsResult, config: dict) -> str:
    """Raw per-partition table (gap coordinates, rate estimates, metric means)."""
    rows = []
    for index, rho, p, rates, means in _partition_rows(trials):
        prefix = f"{index},{_fnum(rho)},{_fnum(p)},{','.join(map(_fnum, rates))}"
        for j, gamma in enumerate(trials.table.gammas):
            for criterion, column in zip(CRITERIA, means):
                rows.append(f"{prefix},{_fnum(gamma)},{criterion},{_fnum(column[j])}")
    return _csv("importance-partitions", config,
                "partition,delta_rho,delta_p,p1_hat,p2_hat,s1_hat,s2_hat,gamma,criterion,mean",
                rows)


def rate_bins_csv(trials: TrialsResult, config: dict) -> str:
    """Mean MRR per gamma, binned by each estimated edge-rate component.

    Partitions pool into half-open bins of width RATE_BIN_WIDTH on each of
    their mean p1/p2/s1/s2 estimates; one row per (component, bin, gamma).
    A bin's mean adds its partitions' MRR left to right in screening order.
    """
    groups: dict = {}
    for i, rates in enumerate(trials.rates.tolist()):
        for comp, rate in zip(("p1", "p2", "s1", "s2"), rates):
            groups.setdefault((comp, bin_index(rate, RATE_BIN_WIDTH)), []).append(i)
    mrr = trials.table.column("mrr").tolist()
    rows = []
    for comp, idx in sorted(groups):
        members = groups[(comp, idx)]
        for j, gamma in enumerate(trials.table.gammas):
            mean = sum(mrr[i][j] for i in members) / len(members)
            rows.append(f"{comp},{_fnum(idx * RATE_BIN_WIDTH)},"
                        f"{_fnum((idx + 1) * RATE_BIN_WIDTH)},{len(members)},{_fnum(gamma)},"
                        f"{_fnum(mean)}")
    return _csv("importance-rate-bins", {**config, "rate_bin_width": RATE_BIN_WIDTH},
                "component,bin_lo,bin_hi,n_partitions,gamma,mean_mrr", rows)


def trials_to_json(screening: ScreeningResult, trials: TrialsResult, config: dict) -> str:
    bins = []
    for key in sorted(trials.bins):
        b = trials.bins[key]
        bins.append({
            "rho_lo": b.rho_lo, "rho_hi": b.rho_hi,
            "p_lo": b.p_lo, "p_hi": b.p_hi,
            "n_partitions": b.n_partitions,
            "n_reports": b.table.replicates,
            "insufficient": b.insufficient,
            "fusion_advantage_mrr": b.fusion_advantage_mrr,
            "reports": _aggregate_json(b.table),
        })
    gammas = [_fnum(gamma) for gamma in trials.table.gammas]
    partitions = [{"partition": index, "delta_rho": rho, "delta_p": p,
                   "rates": dict(zip(("p1", "p2", "s1", "s2"), rates)),
                   **{key: dict(zip(gammas, column))
                      for key, column in zip(("mean_s_at_1", "mean_rr", "mean_ap"), means)}}
                  for index, rho, p, rates, means in _partition_rows(trials)]
    data = {
        "screening": {"attempts": screening.attempts,
                      "accepted": screening.n_accepted,
                      "acceptance_rate": screening.acceptance_rate},
        "bins": bins,
        "partitions": partitions,
    }
    return _json("importance", config, data)


def pmf_table_csv(tables: dict, tv_rows: list, config: dict) -> str:
    """Analytic PMF tables (and optional MC-vs-analytic TV rows).

    ``tables`` maps (statistic, vertex_class) -> PMF; ``tv_rows`` holds
    (statistic, vertex_class, tv_distance) triples.
    """
    rows = [f"pmf,{stat},{cls},{k},{_fnum(prob)}"
            for (stat, cls), pmf in tables.items()
            for k, prob in zip(pmf.support, pmf.probs)]
    rows += [f"tv,{stat},{cls},,{_fnum(tv)}" for stat, cls, tv in tv_rows]
    return _csv("analytic", config, "record,statistic,vertex_class,k,value", rows)


def pmf_table_json(tables: dict, tv_rows: list, config: dict) -> str:
    """The JSON form of :func:`pmf_table_csv`: PMFs keyed 'statistic/class'."""
    data = {"pmfs": {f"{stat}/{cls}": pmf.probs.tolist() for (stat, cls), pmf in tables.items()},
            "tv": [{"statistic": s, "vertex_class": c, "value": v} for s, c, v in tv_rows]}
    return _json("analytic", config, data)


def data_section(text: str) -> str:
    """The non-metadata part of a CSV document (everything but '#' lines)."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


def json_data_section(text: str) -> str:
    """Canonical serialization of a JSON document's data subtree."""
    return json.dumps(json.loads(text)["data"], sort_keys=True)
