"""Command-line pipeline: generate -> sample -> observe -> estimate,
plus exact ground truth and the evaluation sweep.

Each stage reads and writes plain files so any step can be scripted or
swapped out. Runs with identical flags and seed produce byte-identical
outputs. On failure, also where the machine refuses an allocation, the
process exits nonzero after printing a single "error: <Type>: <message>"
line to stderr.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .errors import (CategraphError, InvalidParameter, InvalidWeight,
                     check_count, weights_ok)
from .estimate import (MODES, PROPORTIONAL, SIZE_ESTIMATORS, WEIGHT_ESTIMATORS,
                       bootstrap_variance, estimate_category_graph)
from .evaluate import CSV_COLUMNS, run_experiment
from .generate import SyntheticParams, synthetic_graph
from .observe import INDUCED, observe_induced, observe_star
from .sampling import SAMPLERS, draw_traces
# bench/spans.py wraps the samplers under these names
from .sampling import (  # noqa: F401
    sample_mhrw,
    sample_rw,
    sample_uis,
    sample_wis,
    sample_wrw,
)


def _parse_sizes(text: str) -> tuple[int, ...]:
    sizes = []
    for tok in text.split(","):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise InvalidParameter(
                f"--sizes: {tok!r} is not an integer") from None
    return tuple(sizes)


def _cmd_generate(args) -> int:
    params = SyntheticParams(category_sizes=_parse_sizes(args.sizes),
                             k=args.k,
                             inter_edge_count=args.inter,
                             alpha=args.alpha,
                             seed=args.seed)
    g, part = synthetic_graph(params)
    fileio.save_graph(g, part, args.out_edges, args.out_categories)
    print(f"wrote N={g.node_count} E={g.edge_count} "
          f"C={part.num_categories}")
    return 0


def _cmd_exact(args) -> int:
    from .graph import exact_category_graph
    g, part = fileio.load_graph(args.edges, args.categories)
    cg = exact_category_graph(g, part)
    fileio.export_category_graph(cg, args.format, args.out, names=part.names)
    return 0


def _parse_category_weights(text: str, part):
    weights = np.ones(part.num_categories)
    if text == "equal":
        return weights
    named, tokens = set(), []
    for tok in text.split(","):   # a name may hold ",": it joins the next token
        if tokens and "=" not in tokens[-1]:
            tokens[-1] += "," + tok
        else:
            tokens.append(tok)
    for tok in tokens:
        name, _, value = tok.rpartition("=")   # a number holds no "="
        try:
            weights[part.names.index(name)] = weight = float(value)
        except ValueError:
            raise CategraphError(f"--wrw-weights: {tok!r} is not <name>=<number> "
                                 "for a category of the graph") from None
        if name in named:
            raise CategraphError(f"--wrw-weights: {tok!r} weighs {name!r} again")
        if not weights_ok(weight):
            raise InvalidWeight(f"--wrw-weights: {tok!r}: category weights must "
                                "be positive and finite, with a finite inverse")
        named.add(name)
    return weights


def _cmd_sample(args) -> int:
    g, part = fileio.load_graph(args.edges, args.categories)
    cw = (_parse_category_weights(args.wrw_weights, part)
          if args.sampler == "wrw" else None)
    one = args.walks == 1
    seeds = [args.seed if one else [args.seed, i] for i in range(args.walks)]
    paths = [args.out if one else f"{args.out}.{i}" for i in range(args.walks)]
    traces = draw_traces(args.sampler, g, args.n, seeds,
                         thin_interval=args.thin, start=args.start,
                         burn_in=args.burn_in, part=part, category_weights=cw)
    for trace, path in zip(traces, paths):
        fileio.save_trace(trace, path)
    return 0


def _cmd_observe(args) -> int:
    g, part = fileio.load_graph(args.edges, args.categories)
    trace = fileio.load_trace(args.trace)
    log = (observe_induced(g, part, trace) if args.mode == INDUCED
           else observe_star(g, part, trace))
    fileio.save_log(log, args.out)
    return 0


def _parse_population(text: str):
    if text == "proportional":
        return PROPORTIONAL
    if text == "auto":
        return None
    try:
        population = int(text[6:]) if text.startswith("exact:") else 0
    except ValueError:
        population = 0
    if population < 1:
        raise CategraphError("--population must be exact:<N> with N >= 1, "
                             f"proportional, or auto; got {text!r}")
    return population


def _cmd_estimate(args) -> int:
    population = _parse_population(args.population)
    log = fileio.load_log(args.log)
    options = dict(population=population, size_estimator=args.size_est,
                   weight_estimator=args.weight_est,
                   assume_homogeneous_degree=args.homogeneous_degree)
    est = estimate_category_graph(log, **options)
    if args.bootstrap:
        size_var, weight_var = bootstrap_variance(
            log, args.bootstrap, seed=args.seed, **options)
        from dataclasses import replace
        est = replace(est, size_variances=size_var,
                      weight_variances=weight_var)
    fileio.save_estimate(est, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    report = run_experiment(fileio.load_config(args.config))
    if args.csv:
        report.write_csv(args.csv)
    if args.json:
        report.write_json(args.json)
    if not args.csv and not args.json:
        for row in (cell.row for cell in report.cells):
            print(*(row[k] for k in CSV_COLUMNS if k not in ("p25", "p75")),
                  sep="\t")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="categraph",
        description="Estimate the category graph of a partitioned graph "
                    "from probability samples of nodes.")
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)   # the graph file flags
    for flag in ("--edges", "--categories"):
        graph.add_argument(flag, required=True)

    p = sub.add_parser("generate", help="write a synthetic benchmark graph")
    p.add_argument("--sizes", required=True,
                   help="comma-separated category sizes, e.g. 100,200,700")
    p.add_argument("--k", type=int, required=True,
                   help="intra-category regular degree")
    p.add_argument("--inter", type=int, default=None,
                   help="inter-category edge count (default N*k/10)")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="fraction of labels to permute")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-categories", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("exact", help="exact category graph from full files",
                       parents=[graph])
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("sample", help="draw a sample trace", parents=[graph])
    p.add_argument("--sampler", choices=tuple(SAMPLERS), required=True)
    p.add_argument("--n", type=int, required=True,
                   help="retained draws per trace")
    p.add_argument("--walks", type=int, default=1,
                   help="number of independent traces (derived seeds), "
                        "drawn together")
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--start", type=int, default=None,
                   help="walk start node (default: uniform random)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wrw-weights", default="equal",
                   help='"equal" or name=value,... category weights')
    p.add_argument("--out", required=True,
                   help="trace path (suffix .<i> added when --walks > 1)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("observe", help="replay a trace through an observer",
                       parents=[graph])
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser("estimate", help="estimate the category graph "
                                        "from an observation log")
    p.add_argument("--log", required=True)
    p.add_argument("--size-est", choices=SIZE_ESTIMATORS, default=INDUCED)
    p.add_argument("--weight-est", choices=WEIGHT_ESTIMATORS, default=None)
    p.add_argument("--population", default="auto",
                   help="exact:<N>, proportional, or auto (log hint)")
    p.add_argument("--homogeneous-degree", action="store_true",
                   help="assume equal mean degree across categories in "
                        "the star size estimator")
    p.add_argument("--bootstrap", type=int, default=0,
                   help="bootstrap replicates for variance estimates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="run an NRMSE evaluation sweep")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_evaluate)

    return parser


# the count row of each count flag of the commands that read files
# (generate's SyntheticParams checks its own before anything is
# written); --bootstrap 0 stands for no bootstrap
_COUNT_FLAGS = {
    "sample": {"n": "n", "walks": "walks", "burn_in": "burn_in",
               "thin": "thin_interval", "seed": "seed"},
    "estimate": {"bootstrap": "B", "seed": "seed"},
}


def _check_count_flags(args) -> None:
    """Refuse a count flag out of its bounds, before any file is read."""
    for dest, row in _COUNT_FLAGS.get(args.command, {}).items():
        value = getattr(args, dest)
        if dest == "bootstrap" and value == 0:
            continue
        check_count(value, row, f"--{dest.replace('_', '-')}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_count_flags(args)
        return args.func(args)
    except (CategraphError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
