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
from contextlib import nullcontext
from typing import Optional

from . import __version__
from .bounds import (
    _check_tw_size,
    frieze_alpha_estimate,
    maximum_independent_set,
    serialize_tree_decomposition,
    treewidth_exact,
    treewidth_lower_bound,
)
from .divisors import parse_divisor, q_reduce, rank, serialize_divisor
from .errors import BudgetExceededError, GonalityError
from .experiments import MODES, ExperimentConfig, convergence_report, records_csv_text, run_experiment
from .graphs import GnpParams, _checked_int, _int_tokens, min_degree, parse_graph, sample_gnp, serialize_graph
from .search import gonality, parse_certificate, serialize_certificate, verify_certificate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are domain errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def _read_text(path: str, what: str) -> str:
    """The file's text; one that cannot be read or decoded as UTF-8 is a domain error."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GonalityError(f"cannot read {what} {path}: {exc}") from exc


def _int_option(text: str) -> int:
    """An integer option, read by the token rule of the text formats, so
    that ``+6``, ``06``, ``1_0`` and non-ASCII digits are bad usage."""
    return _int_tokens(text, argparse.ArgumentTypeError, "an integer", 1)[0]


def _load_graph(path: str):
    return parse_graph(_read_text(path, "graph file"))


def _output(path: Optional[str]):
    """The file at ``path`` (``None`` if no path), opened for writing before
    the work that fills it, so that a path that cannot be written costs none."""
    try:
        return nullcontext() if path is None else open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise GonalityError(f"cannot write {path}: {exc}") from exc


def _note(args, message: str) -> None:
    if not args.porcelain:
        print(message, file=sys.stderr)


def _cmd_gonality(args) -> int:
    if args.out is not None and not args.certificate:
        raise GonalityError("--out writes the certificate, so it needs --certificate")
    graph = _load_graph(args.graph)
    with _output(args.out) as out:
        result = gonality(graph, args.budget, with_certificate=args.certificate)
        print(result.value)
        if args.certificate:
            if result.certificate is None:
                _note(args, "note: no certificate for disconnected or single-vertex graphs")
            else:
                print(serialize_certificate(result.certificate), end="", file=out)
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
    exact = graph.n <= tw_limit
    if exact:  # a graph above the ceiling is refused before any output
        _check_tw_size(graph.n, tw_limit)
    elif args.td_out is not None:
        raise GonalityError(f"--td-out needs the exact width, so n <= --tw-limit {tw_limit}, got n = {graph.n}")
    frieze = None if args.c is None else frieze_alpha_estimate(graph.n, args.c)
    with _output(args.td_out) as td_out:
        print(f"min_degree {min_degree(graph)}")
        print(f"tw_lb {treewidth_lower_bound(graph)}")
        if exact:
            tw, td = treewidth_exact(graph, tw_limit, with_decomposition=td_out is not None)
            print(f"tw_exact {tw}")
        else:
            print(f"tw_exact skipped: n > {tw_limit}")
        mis = maximum_independent_set(graph, args.budget)
        print(f"alpha {mis.alpha} {'exact' if mis.exact else 'lower_bound_only'}")
        print(f"upper_bound {graph.n - mis.alpha}")
        if frieze is not None:
            print(f"frieze_alpha {frieze!r}")
        if td_out is not None:
            td_out.write(serialize_tree_decomposition(td))
    return EXIT_OK if mis.exact else EXIT_BUDGET


def _cmd_sample(args) -> int:
    if (args.c is None) == (args.p is None):
        raise GonalityError("give exactly one of --c or --p")
    params = (GnpParams(args.n, args.c, args.seed) if args.p is None
              else GnpParams.from_p(args.n, args.p, args.seed))
    with _output(args.out) as out:
        print(serialize_graph(sample_gnp(params)), end="", file=out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        n_list=_int_tokens(args.n, GonalityError, "--n as a comma list", sep=","),
        c_spec=args.c,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        budget=args.budget,
        record_timings=args.timings,
        workers=args.threads,
    )
    with _output(args.out) as out:
        summary, records = run_experiment(config)
        if out is not None:
            out.write(records_csv_text(records))
            _note(args, f"wrote {summary.total_trials} rows to {args.out}")
    if len(summary.rows) >= 2:
        print(convergence_report(summary), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    cert = parse_certificate(_read_text(args.certificate, "certificate"), graph.n)
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
    p.add_argument("--budget", type=_int_option, default=None, help="max candidates per degree")
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
    p.add_argument("--base", type=_int_option, default=0, help="base vertex q (default 0)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bounds", help="lower/upper bound toolkit for one graph")
    p.add_argument("graph")
    p.add_argument("--budget", type=_int_option, default=None, help="node budget for the alpha search")
    p.add_argument("--tw-limit", type=_int_option, default=16, help="size limit for exact treewidth")
    p.add_argument("--td-out", default=None, help="write the witness tree decomposition here")
    p.add_argument("--c", type=float, default=None, help="mean degree for the independence estimate at the graph's n")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sample", help="sample a G(n, p) graph reproducibly")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--c", type=float, default=None, help="mean degree; p = c/n")
    p.add_argument("--p", type=float, default=None, help="edge probability")
    p.add_argument("--seed", type=_int_option, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("experiment", help="Monte Carlo run over G(n, p) with CSV output")
    p.add_argument("--n", required=True, help="comma list of vertex counts, e.g. 6,8,10,12")
    p.add_argument("--c", required=True,
                   help="mean-degree family: sqrt, log, p:<x> (fixed edge probability), or a constant")
    p.add_argument("--trials", type=_int_option, required=True)
    p.add_argument("--seed", type=_int_option, required=True)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--budget", type=_int_option, default=None, help="per-phase search budgets")
    p.add_argument("--threads", type=_int_option, default=1, help="worker processes")
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
