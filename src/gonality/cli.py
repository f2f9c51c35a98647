"""Command-line entry point.

Subcommands: gonality, rank, reduce, bounds, sample, experiment, verify.
Exit codes: 0 success, 1 domain error or bad usage, 2 budget exhausted or
otherwise inconclusive.  All output is plain text or CSV; ``--porcelain``
additionally silences advisory notes on stderr so scripts see only the
documented line formats.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__
from .bounds import (
    frieze_alpha_estimate,
    maximum_independent_set,
    serialize_tree_decomposition,
    treewidth_exact,
    treewidth_lower_bound,
)
from .divisors import parse_divisor, q_reduce, rank, serialize_divisor
from .errors import BudgetExceededError, GonalityError
from .experiments import MODES, ExperimentConfig, convergence_report, run_experiment
from .graphs import GnpParams, _checked_int, min_degree, parse_graph, sample_gnp, serialize_graph
from .search import gonality, parse_certificate, serialize_certificate, verify_certificate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are domain errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise GonalityError(f"cannot read graph file {path}: {exc}") from exc


def _note(args, message: str) -> None:
    if not args.porcelain:
        print(message, file=sys.stderr)


def _cmd_gonality(args) -> int:
    graph = _load_graph(args.graph)
    result = gonality(graph, args.budget, with_certificate=args.certificate)
    print(result.value)
    if args.certificate:
        if result.certificate is None:
            _note(args, "note: no certificate for disconnected or single-vertex graphs")
        else:
            text = serialize_certificate(result.certificate)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                print(text, end="")
    return EXIT_OK


def _cmd_rank(args) -> int:
    graph = _load_graph(args.graph)
    div = parse_divisor(args.divisor, graph.n)
    print(rank(graph, div))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    graph = _load_graph(args.graph)
    div = parse_divisor(args.divisor, graph.n)
    print(serialize_divisor(q_reduce(graph, div, args.base)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    tw_limit = _checked_int(args.tw_limit, "bounds", "--tw-limit", 0)
    graph = _load_graph(args.graph)
    print(f"min_degree {min_degree(graph)}")
    print(f"tw_lb {treewidth_lower_bound(graph)}")
    td = None
    if graph.n <= tw_limit:
        tw, td = treewidth_exact(graph, tw_limit)
        print(f"tw_exact {tw}")
    else:
        print(f"tw_exact skipped: n > {tw_limit}")
    mis = maximum_independent_set(graph, args.budget)
    status = "exact" if mis.exact else "lower_bound_only"
    print(f"alpha {mis.alpha} {status}")
    print(f"upper_bound {graph.n - mis.alpha}")
    if args.n is not None and args.c is not None:
        print(f"frieze_alpha {frieze_alpha_estimate(args.n, args.c)!r}")
    if args.td_out and td is not None:
        with open(args.td_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_tree_decomposition(td))
    return EXIT_OK if mis.exact else EXIT_BUDGET


def _cmd_sample(args) -> int:
    if (args.c is None) == (args.p is None):
        raise GonalityError("give exactly one of --c or --p")
    if args.c is not None:
        params = GnpParams(n=args.n, c=args.c, seed=args.seed)
    else:
        params = GnpParams.from_p(args.n, args.p, args.seed)
    text = serialize_graph(sample_gnp(params))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        n_list = tuple(int(tok) for tok in args.n.split(","))
    except ValueError as exc:
        raise GonalityError(f"--n must be a comma list of integers, got {args.n!r}") from exc
    config = ExperimentConfig(
        n_list=n_list,
        c_spec=args.c,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        budget=args.budget,
        record_timings=args.timings,
        workers=args.threads,
    )
    summary, _ = run_experiment(config, args.out)
    if args.out:
        _note(args, f"wrote {summary.total_trials} rows to {args.out}")
    if len(summary.rows) >= 2:
        print(convergence_report(summary), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = parse_certificate(fh.read(), graph.n)
    except OSError as exc:
        raise GonalityError(f"cannot read certificate {args.certificate}: {exc}") from exc
    if verify_certificate(graph, cert):
        print(f"ok degree {cert.divisor.degree}")
        return EXIT_OK
    print("invalid")
    return EXIT_DOMAIN


def build_parser() -> _Parser:
    parser = _Parser(prog="gonality", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--porcelain",
        action="store_true",
        help="machine mode: only the documented stable output, no advisory notes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gonality", help="exact gonality of a graph, with optional certificate")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None, help="max candidates per degree")
    p.add_argument("--certificate", action="store_true", help="print or write the witness certificate")
    p.add_argument("--out", default=None, help="write the certificate to a file")
    p.set_defaults(func=_cmd_gonality)

    p = sub.add_parser("rank", help="Baker-Norine rank of a divisor")
    p.add_argument("graph")
    p.add_argument("--divisor", required=True, help='chips, e.g. "1 0 2"')
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("reduce", help="q-reduced form of a divisor")
    p.add_argument("graph")
    p.add_argument("--divisor", required=True)
    p.add_argument("--base", type=int, default=0, help="base vertex q (default 0)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bounds", help="lower/upper bound toolkit for one graph")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None, help="node budget for the alpha search")
    p.add_argument("--tw-limit", type=int, default=16, help="size limit for exact treewidth")
    p.add_argument("--td-out", default=None, help="write the witness tree decomposition here")
    p.add_argument("--n", type=int, default=None, help="n for the independence estimate")
    p.add_argument("--c", type=float, default=None, help="mean degree for the independence estimate")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sample", help="sample a G(n, p) graph reproducibly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, default=None, help="mean degree; p = c/n")
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("experiment", help="Monte Carlo run over G(n, p) with CSV output")
    p.add_argument("--n", required=True, help="comma list of vertex counts, e.g. 6,8,10,12")
    p.add_argument("--c", required=True,
                   help="mean-degree family: sqrt, log, p:<x> (fixed edge probability), or a constant")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--budget", type=int, default=None, help="per-phase search budgets")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock columns (breaks byte-for-byte reruns)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="re-check a positive-rank certificate file")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GonalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
