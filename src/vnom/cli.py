"""Command-line surface.

Subcommands: simulate, sweep, surface, importance, estimate, analytic,
surrogate, baseline.  Exit codes: 0 success, 1 validation error or out of
memory, 2 io error.
Randomized subcommands take --seed; when omitted a seed is generated and
printed to stderr so the run can be reproduced.

A run builds only the parser of the command its first argument names.  With
no such command (no arguments, ``--help``, an option first, an unknown name)
it builds all of them, so every help, usage and error text is the one the
full parser gives.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import InputError, VnomError
from .experiments import SweepSpec, gamma_surface, run_sweep
from .graph import GREEN, RED, Partition
from .importance import (ScreeningThresholds, check_trial_arguments, estimate_rates,
                         run_importance_trials, screen_partitions)
from .kidney_egg import (KidneyEggParams, Simplex3, content_pmf_from_conditionals,
                         content_score_pmf, context_score_pmf, empirical_score_pmfs,
                         sample_kidney_egg, tv_distance)
from .metrics import BASELINE_CRITERIA, chance_baseline, report_from_mask
from .nomination import GAMMA_GRID_DEFAULT, rank_candidates, validate_gamma_grid
from .seeding import child_seed
from . import io as vio

# ``vnom --help`` prints the docstring up to its last paragraph, which is about parsing
_DESCRIPTION = (__doc__ or "").rsplit("\n\n", 1)[0]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (validation) instead of 2 on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed; generated and printed to stderr when omitted")


def _resolve_seed(args) -> int:
    if args.seed is None:
        # 48 bits from os.urandom, as secrets.randbits(48) reads them, without
        # importing secrets (and hmac, hashlib and OpenSSL) into every run
        args.seed = int.from_bytes(os.urandom(6), "big")
        print(f"seed: {args.seed}", file=sys.stderr)
    return args.seed


def _workers(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _parse_gammas(text: str):
    if text == "grid":
        return GAMMA_GRID_DEFAULT
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"malformed gamma list {text!r}") from None


def _parse_int_list(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"malformed integer list {text!r}") from None


def _write_or_print(text: str, out):
    """Write a result document to the file ``out``, or to stdout when None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_document(args, to_csv, to_json, *data):
    """Write the ``--format`` form of a result document to ``--out``, or to stdout."""
    _write_or_print((to_csv if args.format == "csv" else to_json)(*data), args.out)


def build_parser(command=None) -> _Parser:
    """The ``vnom`` parser, with only ``command``'s subparser when that names
    a command and with all of them otherwise."""
    parser = _Parser(prog="vnom", description=_DESCRIPTION)
    if command in _COMMANDS:
        # the usage line still lists every command, as the full parser's does;
        # that one sets no metavar, so its missing-command error names "command"
        names, metavar = [command], "{%s}" % ",".join(_COMMANDS)
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_flags, _ = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def _model_flags(parser):
    parser.add_argument("--n", type=int, default=184)
    parser.add_argument("--m", type=int, default=40)
    parser.add_argument("--m-prime", type=int, default=10)
    parser.add_argument("--p0", type=float, default=0.6)
    parser.add_argument("--p1", type=float, default=0.2)
    parser.add_argument("--p2", type=float, default=0.2)
    parser.add_argument("--s0", type=float, default=0.4)
    parser.add_argument("--s1", type=float, default=0.4)
    parser.add_argument("--s2", type=float, default=0.2)


def _params_from(args) -> KidneyEggParams:
    return KidneyEggParams(args.n, args.m, args.m_prime,
                           Simplex3(args.p0, args.p1, args.p2),
                           Simplex3(args.s0, args.s1, args.s2))


def _model_config(params: KidneyEggParams, **extra) -> dict:
    """The model parameters as recorded in a result's config, plus ``extra``."""
    return {"n": params.n, "m": params.m, "m_prime": params.m_prime,
            "p": list(params.p.as_array()), "s": list(params.s.as_array()), **extra}


def _simulate_flags(sim):
    _model_flags(sim)
    sim.add_argument("--gamma", type=float, default=0.5)
    sim.add_argument("--top", type=int, default=10, help="ranked prefix length to print")
    sim.add_argument("--save-graph", default=None, help="write the sampled graph here")
    _add_seed(sim)


def _cmd_simulate(args) -> int:
    if args.top < 0:
        raise InputError(f"--top must be >= 0, got {args.top}")
    (gamma,) = validate_gamma_grid((args.gamma,))
    seed = _resolve_seed(args)
    params = _params_from(args)
    sample_seed, tie_seed = child_seed(seed, 0), child_seed(seed, 1)
    g = sample_kidney_egg(params, sample_seed)
    ordered, scores = rank_candidates(g, gamma, tie_seed)
    red = g.truth[ordered] == RED
    report = report_from_mask(red)
    doc = {
        "seed": seed,
        "params": _model_config(params),
        "gamma": gamma,
        "edges": g.num_edges,
        "top": [{"vertex": int(v), "score": float(s), "truth_red": bool(r)}
                for v, s, r in zip(ordered[:args.top], scores[:args.top], red[:args.top])],
        "report": {"s_at_1": report.s_at_1, "rr": report.rr, "ap": report.ap},
    }
    if args.save_graph:
        vio.write_attributed_graph(g, args.save_graph, {"seed": seed})
        doc["graph_file"] = args.save_graph
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _sweep_flags(sw):
    sw.add_argument("--n", type=int, default=184)
    sw.add_argument("--p0", type=float, default=0.6)
    sw.add_argument("--p1", type=float, default=0.2)
    sw.add_argument("--p2", type=float, default=0.2)
    sw.add_argument("--s1", type=float, default=0.4,
                    help="red-edge rate inside the block; s2 is pinned to p2")
    sw.add_argument("--m-list", default="4,8,12,16,20,24,28,32,36,40")
    sw.add_argument("--m-prime-ratio", type=float, default=0.25)
    sw.add_argument("--m-prime-list", default=None,
                    help="explicit m' per m, overrides --m-prime-ratio")
    sw.add_argument("--gammas", default="0,0.5,1")
    sw.add_argument("--replicates", type=int, default=1000)
    sw.add_argument("--workers", type=_workers, default=1)
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_seed(sw)


def _cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    p = Simplex3(args.p0, args.p1, args.p2)
    # the sweep design pins the green-content rate across the graph
    s = Simplex3(1.0 - args.s1 - p.q2, args.s1, p.q2)
    spec = SweepSpec(
        n=args.n, p=p, s=s,
        m_values=_parse_int_list(args.m_list),
        gamma_grid=_parse_gammas(args.gammas),
        replicates=args.replicates,
        master_seed=seed,
        m_prime_ratio=None if args.m_prime_list else args.m_prime_ratio,
        m_prime_values=_parse_int_list(args.m_prime_list) if args.m_prime_list else None,
    )
    result = run_sweep(spec, n_workers=args.workers)
    _write_document(args, vio.sweep_to_csv, vio.sweep_to_json, result)
    return 0


def _surface_flags(su):
    _model_flags(su)
    su.add_argument("--y-max", type=int, default=3)
    su.add_argument("--gammas", default="grid")
    su.add_argument("--replicates", type=int, default=1000)
    su.add_argument("--out", default=None)
    su.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_seed(su)


def _cmd_surface(args) -> int:
    seed = _resolve_seed(args)
    params = _params_from(args)
    table = gamma_surface(params, _parse_gammas(args.gammas), args.y_max,
                          args.replicates, seed)
    config = _model_config(params, y_max=args.y_max, replicates=args.replicates, seed=seed)
    _write_document(args, vio.surface_to_csv, vio.surface_to_json, table, config)
    return 0


def _importance_flags(imp):
    imp.add_argument("--graph", required=True, help="topic-graph file")
    imp.add_argument("--m", type=int, default=10)
    imp.add_argument("--m-prime", type=int, default=5)
    imp.add_argument("--tau-rho", type=float, default=0.1,
                     help="density-gap bar (default 0.1); write a negative infinity "
                          "as --tau-rho=-inf")
    imp.add_argument("--tau-p", type=float, default=0.2,
                     help="topic-gap bar (default 0.2); write a negative infinity "
                          "as --tau-p=-inf")
    imp.add_argument("--attempts", type=int, default=100_000)
    imp.add_argument("--bins", type=float, default=0.1, help="bin width on both axes")
    imp.add_argument("--gammas", default="0,0.5,1")
    imp.add_argument("--replicates", type=int, default=10,
                     help="instantiations per accepted partition")
    imp.add_argument("--max-partitions", type=int, default=None,
                     help="run trials on at most this many accepted partitions")
    imp.add_argument("--unweighted-profiles", action="store_true",
                     help="weight every edge equally in topic profiles")
    imp.add_argument("--workers", type=_workers, default=1)
    imp.add_argument("--out", default=None)
    imp.add_argument("--partitions-out", default=None,
                     help="also write the raw per-partition table here (csv)")
    imp.add_argument("--rates-out", default=None,
                     help="also write MRR binned by estimated edge rates (csv)")
    imp.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_seed(imp)


def _cmd_importance(args) -> int:
    if args.max_partitions is not None and args.max_partitions < 1:
        raise InputError(f"--max-partitions must be >= 1, got {args.max_partitions}")
    if args.attempts < 1:
        raise InputError(f"--attempts must be >= 1, got {args.attempts}")
    thresholds = ScreeningThresholds(args.tau_rho, args.tau_p)
    # screened red sets have args.m vertices: check trial arguments before screening
    gammas = check_trial_arguments(args.m, args.m_prime, _parse_gammas(args.gammas),
                                   args.replicates, args.bins)
    seed = _resolve_seed(args)
    screen_seed, trial_seed = child_seed(seed, 1), child_seed(seed, 2)
    g = vio.read_topic_graph(args.graph)
    weighted = not args.unweighted_profiles
    screening = screen_partitions(g, args.m, thresholds, args.attempts, screen_seed,
                                  weighted=weighted, keep=args.max_partitions)
    config = {"graph": args.graph, "m": args.m, "m_prime": args.m_prime,
              "tau_rho": args.tau_rho, "tau_p": args.tau_p,
              "attempts": args.attempts, "bin_width": args.bins,
              "gammas": args.gammas, "replicates": args.replicates,
              "weighted_profiles": weighted, "seed": seed,
              "max_partitions": args.max_partitions}
    trials = run_importance_trials(g, screening, args.m_prime, gammas, args.replicates,
                                   trial_seed, bin_width=args.bins, n_workers=args.workers)
    _write_document(args, vio.trials_to_csv, vio.trials_to_json, screening, trials, config)
    if args.partitions_out:
        _write_or_print(vio.partitions_to_csv(trials, config), args.partitions_out)
    if args.rates_out:
        _write_or_print(vio.rate_bins_csv(trials, config), args.rates_out)
    return 0


def _estimate_flags(est):
    est.add_argument("--graph", required=True, help="attributed-graph file")
    est.add_argument("--red", default=None,
                     help="comma-separated red vertex ids (default: the graph's truth)")


def _cmd_estimate(args) -> int:
    g = vio.read_attributed_graph(args.graph)
    if args.red is not None:
        red_ids = _parse_int_list(args.red)
        if len(set(red_ids)) != len(red_ids):  # Partition would drop the repeat
            raise InputError(f"--red repeats a vertex id: {args.red!r}")
    else:
        red_ids = g.red_set()
    part = Partition(g.n, np.asarray(red_ids))
    est = estimate_rates(g, part)
    print(json.dumps({"p1_hat": est.p1, "p2_hat": est.p2,
                      "s1_hat": est.s1, "s2_hat": est.s2,
                      "m": part.num_red, "n": g.n}, indent=2, sort_keys=True))
    return 0


def _analytic_flags(an):
    _model_flags(an)
    an.add_argument("--samples", type=int, default=0,
                    help="empirical samples for TV distances (0 = analytic only)")
    an.add_argument("--out", default=None)
    an.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_seed(an)


def _cmd_analytic(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    params = _params_from(args)
    tables = {
        ("context", "green"): context_score_pmf(params, GREEN),
        ("context", "red"): context_score_pmf(params, RED),
        ("content", "green"): content_score_pmf(params, GREEN),
        ("content", "red"): content_score_pmf(params, RED),
        ("content_mixture", "green"): content_pmf_from_conditionals(params, GREEN),
        ("content_mixture", "red"): content_pmf_from_conditionals(params, RED),
    }
    config = _model_config(params, samples=args.samples)
    tv_rows = []
    if args.samples > 0:
        seed = _resolve_seed(args)
        config["seed"] = seed
        empirical = empirical_score_pmfs(params, args.samples, seed)
        for cls in ("green", "red"):
            for kind in ("context", "content"):
                tv = tv_distance(empirical[cls][kind], tables[(kind, cls)])
                tv_rows.append((kind, cls, tv))
    _write_document(args, vio.pmf_table_csv, vio.pmf_table_json, tables, tv_rows, config)
    return 0


def _surrogate_flags(sur):
    sur.add_argument("--n", type=int, default=184)
    sur.add_argument("--k", type=int, default=32)
    sur.add_argument("--density", type=float, default=0.05)
    sur.add_argument("--group-size", type=int, default=44)
    sur.add_argument("--group-density", type=float, default=0.62)
    sur.add_argument("--tilt", type=float, default=0.5)
    sur.add_argument("--concentration", type=float, default=150.0)
    sur.add_argument("--mean-extra-messages", type=float, default=1.0)
    sur.add_argument("--out", required=True)
    _add_seed(sur)


def _cmd_surrogate(args) -> int:
    seed = _resolve_seed(args)
    knobs = {name: getattr(args, name) for name in (
        "density", "group_size", "group_density", "tilt", "concentration",
        "mean_extra_messages")}
    g = vio.generate_surrogate(args.n, args.k, seed=seed, **knobs)
    meta = {"seed": seed, "n": args.n, "k": args.k, **knobs}
    vio.write_topic_graph(g, args.out, {"config": json.dumps(meta, sort_keys=True)})
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges} topics={g.k_topics}")
    return 0


def _baseline_flags(base):
    base.add_argument("--candidates", type=int, required=True)
    base.add_argument("--reds", type=int, required=True)
    base.add_argument("--criterion", choices=BASELINE_CRITERIA, required=True)
    base.add_argument("--y", type=int, default=None)


def _cmd_baseline(args) -> int:
    value = chance_baseline(args.candidates, args.reds, args.criterion, args.y)
    print(json.dumps({"criterion": args.criterion, "candidates": args.candidates,
                      "reds": args.reds, "y": args.y, "value": value},
                     indent=2, sort_keys=True))
    return 0


# name: (help line, flag-adding function, handler), in the order help lists them
_COMMANDS = {
    "simulate": ("one model sample plus a nomination report", _simulate_flags, _cmd_simulate),
    "sweep": ("Monte Carlo sweep over m with derived m'", _sweep_flags, _cmd_sweep),
    "surface": ("truncated-AP surface over (y, gamma)", _surface_flags, _cmd_surface),
    "importance": ("screen partitions of a topic graph and run trials",
                   _importance_flags, _cmd_importance),
    "estimate": ("edge-rate estimates from a graph + partition",
                 _estimate_flags, _cmd_estimate),
    "analytic": ("exact score PMFs and MC-vs-analytic distances",
                 _analytic_flags, _cmd_analytic),
    "surrogate": ("generate a synthetic topic-graph corpus", _surrogate_flags, _cmd_surrogate),
    "baseline": ("chance value of a metric", _baseline_flags, _cmd_baseline),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except VnomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a requested size too large to allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
