"""Monte Carlo harness over G(n, p): per-trial measurements, CSV output,
and convergence reporting for the gonality-over-n trend.

Reproducibility contract: a trial is a pure function of
``(n, p, per-trial seed, mode, budget)``, and the per-trial seed is a pure
mix of the master seed with ``(n, trial index)``.  Runs with identical
configuration therefore produce byte-identical CSV files, independent of
worker count or scheduling.  Wall-clock columns are left empty unless
``record_timings`` is set, since real timings would break that guarantee.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .bounds import _frieze_bracket, maximum_independent_set, treewidth_exact, treewidth_lower_bound
from .errors import BudgetExceededError, GonalityError, SizeLimitError
from .graphs import _PARSE_MAX_N, GnpParams, _checked_int, genus, sample_gnp
from .search import gonality

_MASK64 = (1 << 64) - 1

EXACT_GONALITY_LIMIT = 12  # largest n whose gonality exact mode computes
MODES = ("exact", "sandwich")


def _splitmix64(z: int) -> int:
    """One step of the SplitMix64 finalizer (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_trial_seed(master: int, n: int, trial: int) -> int:
    """Per-trial seed: chained SplitMix64 over master, n, and trial index.

    Order-independent across trials, so parallel execution cannot change
    which graph any trial sees.
    """
    s = _splitmix64(master & _MASK64)
    s = _splitmix64(s ^ (n & _MASK64))
    return _splitmix64(s ^ (trial & _MASK64))


def c_of(c_spec: str, n: int) -> float:
    """Mean-degree family: ``sqrt`` is sqrt(n), ``log`` is ln(n), ``p:x``
    pins the edge probability at x (so c = x*n, for dense control series),
    and anything else must parse as a positive finite constant."""
    if c_spec == "sqrt":
        return math.sqrt(n)
    if c_spec == "log":
        return math.log(n)
    fixed_p = c_spec.startswith("p:")
    try:
        x = float(c_spec[2:] if fixed_p else c_spec)
    except ValueError as exc:
        raise GonalityError(f"c spec must be 'sqrt', 'log', 'p:x', or a number, got {c_spec!r}") from exc
    if fixed_p and not 0.0 <= x <= 1.0:
        raise GonalityError(f"fixed probability must be in [0, 1], got {x}")
    if not fixed_p and not 0 < x < math.inf:
        raise GonalityError(f"constant c must be positive and finite, got {x}")
    return x * n if fixed_p else x


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a run; equal configs give byte-equal CSVs.
    ``budget`` caps both MIS nodes and candidates per gonality degree."""

    n_list: tuple[int, ...]
    c_spec: str
    trials: int
    seed: int
    mode: str = "exact"
    budget: Optional[int] = None
    record_timings: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        n_list = tuple(_checked_int(n, "ExperimentConfig", "vertex count", 1, _PARSE_MAX_N) for n in self.n_list)
        object.__setattr__(self, "n_list", n_list)
        if not self.n_list:
            raise GonalityError("n_list must not be empty")
        for name, least in (("trials", 0), ("seed", None), ("workers", 1)):
            value = _checked_int(getattr(self, name), "ExperimentConfig", name, least)
            object.__setattr__(self, name, value)
        if self.budget is not None:
            object.__setattr__(self, "budget", _checked_int(self.budget, "ExperimentConfig", "budget", 0))
        if self.mode not in MODES:
            raise GonalityError(f"mode must be 'exact' or 'sandwich', got {self.mode!r}")
        for n in self.n_list:
            c = c_of(self.c_spec, n)
            if not (0.0 <= c / n <= 1.0):
                raise GonalityError(f"c spec {self.c_spec!r} gives p outside [0,1] at n={n}")
        if self.mode == "exact" and max(self.n_list) > EXACT_GONALITY_LIMIT:
            raise GonalityError(
                f"exact mode allows n up to {EXACT_GONALITY_LIMIT}, "
                f"got n={max(self.n_list)}; use mode='sandwich'"
            )


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One row of the experiment CSV.

    ``gon_lb`` is the best certified lower bound available for the row
    (exact treewidth when computed, degeneracy otherwise); ``gon_ub`` is
    ``n - alpha``, valid even when alpha is only a flagged lower bound.
    ``None`` in an optional field serializes as an empty CSV cell.
    """

    n: int
    c: float
    p: float
    trial: int
    seed: int
    connected: bool
    genus: int
    alpha: int
    alpha_exact: bool
    tw_lb: int
    tw_exact: Optional[int]
    gon_lb: int
    gon_ub: int
    gon_exact: Optional[int]
    mode: str
    ms_alpha: Optional[float] = None
    ms_tw: Optional[float] = None
    ms_gon: Optional[float] = None


def _one_of(cell: str, allowed: tuple[str, ...]) -> str:
    """The entry of ``allowed`` equal to ``cell``, so that every row read
    shares it rather than holding its own copy."""
    if cell not in allowed:
        raise ValueError(f"{cell!r} is not one of {', '.join(allowed)}")
    return allowed[allowed.index(cell)]


def _optional(write, read):
    """Writer and reader of an optional column: ``None`` is the empty cell."""
    return (lambda x: "" if x is None else write(x)), (lambda s: read(s) if s else None)


def _int_cell(cell: str) -> int:
    """An integer cell exactly as ``str(int)`` writes it."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", cell):
        raise ValueError(f"{cell!r} is not an integer cell")
    return int(cell)


def _real_cell(cell: str) -> float:
    """A finite float cell with no whitespace or digit separators."""
    x = float(cell)
    if re.search(r"[\s_]", cell) or not math.isfinite(x):
        raise ValueError(f"{cell!r} is not a finite real cell")
    return x


_INT = (str, _int_cell)
_REAL = (repr, _real_cell)
_FLAG = (lambda b: "1" if b else "0", lambda s: _one_of(s, ("0", "1")) == "1")
_MS = _optional("{:.3f}".format, _real_cell)

# The experiment CSV: one (field, write_cell, read_cell) entry per column, in
# column order.  The header, the row writer and the reader all derive from it.
_COLUMNS = (
    ("n", *_INT),
    ("c", *_REAL),
    ("p", *_REAL),
    ("trial", *_INT),
    ("seed", *_INT),
    ("connected", *_FLAG),
    ("genus", *_INT),
    ("alpha", *_INT),
    ("alpha_exact", *_FLAG),
    ("tw_lb", *_INT),
    ("tw_exact", *_optional(*_INT)),
    ("gon_lb", *_INT),
    ("gon_ub", *_INT),
    ("gon_exact", *_optional(*_INT)),
    ("mode", str, lambda s: _one_of(s, MODES)),
    ("ms_alpha", *_MS),
    ("ms_tw", *_MS),
    ("ms_gon", *_MS),
)
CSV_HEADER = ",".join(field for field, _, _ in _COLUMNS)


@dataclass(frozen=True)
class SummaryRow:
    n: int
    c: float
    trials: int
    mean_gon_ratio: Optional[float]
    std_gon_ratio: Optional[float]
    mean_tw_lb_ratio: float
    mean_ub_ratio: float
    frieze_ub_ratio: Optional[float]


@dataclass(frozen=True)
class ExperimentSummary:
    rows: tuple[SummaryRow, ...]
    total_trials: int


def run_trial(
    n: int,
    p: float,
    seed: int,
    mode: str,
    *,
    c: Optional[float] = None,
    trial: int = 0,
    budget: Optional[int] = None,
    record_timings: bool = False,
) -> TrialRecord:
    """Sample one graph and measure every column for its row.  Exact
    treewidth, the width alone, stops at ``treewidth_exact``'s own size
    limit."""
    params = GnpParams.from_p(n, p, seed)
    graph = sample_gnp(params)
    connected = graph.is_connected()
    gns = genus(graph)

    t0 = time.perf_counter()
    mis = maximum_independent_set(graph, budget)
    ms_alpha = (time.perf_counter() - t0) * 1000.0
    alpha = mis.alpha
    gon_ub = n - alpha

    t0 = time.perf_counter()
    tw_lb = treewidth_lower_bound(graph)
    try:
        tw_ex: Optional[int] = treewidth_exact(graph, with_decomposition=False)[0]
    except SizeLimitError:
        tw_ex = None
    ms_tw = (time.perf_counter() - t0) * 1000.0

    gon_lb = max(tw_lb, tw_ex) if tw_ex is not None else tw_lb
    gon_exact: Optional[int] = None
    t0 = time.perf_counter()
    if mode == "exact" and n <= EXACT_GONALITY_LIMIT:
        try:
            # a disconnected graph gets its component sum before either
            # bound is read
            gon_exact = gonality(
                graph,
                budget,
                with_certificate=False,
                lower_bound=gon_lb,
                independent_set=mis.independent.vertices,
            ).value
        except BudgetExceededError:
            gon_exact = None  # row kept; empty cell flags the exhaustion
    ms_gon = (time.perf_counter() - t0) * 1000.0

    if gon_exact is not None and not (gon_lb <= gon_exact <= gon_ub):
        raise GonalityError(
            f"sandwich violated at n={n} seed={seed}: "
            f"{gon_lb} <= {gon_exact} <= {gon_ub} fails; this is a bug"
        )
    return TrialRecord(
        n=n,
        c=c if c is not None else p * n,
        p=params.p,
        trial=trial,
        seed=seed,
        connected=connected,
        genus=gns,
        alpha=alpha,
        alpha_exact=mis.exact,
        tw_lb=tw_lb,
        tw_exact=tw_ex,
        gon_lb=gon_lb,
        gon_ub=gon_ub,
        gon_exact=gon_exact,
        mode=mode,
        ms_alpha=ms_alpha if record_timings else None,
        ms_tw=ms_tw if record_timings else None,
        ms_gon=ms_gon if record_timings else None,
    )


def _trial_from_task(task: tuple) -> TrialRecord:
    config, n, trial = task
    c = c_of(config.c_spec, n)
    p = c / n
    seed = mix_trial_seed(config.seed, n, trial)
    return run_trial(
        n,
        p,
        seed,
        config.mode,
        c=c,
        trial=trial,
        budget=config.budget,
        record_timings=config.record_timings,
    )


def run_experiment(
    config: ExperimentConfig, csv_path: Optional[str] = None
) -> tuple[ExperimentSummary, list[TrialRecord]]:
    """Run all trials (optionally in parallel), sorted deterministically.

    Writes the CSV artifact when ``csv_path`` is given and returns the
    summary along with the records it was computed from.
    """
    tasks = [
        (config, n, trial)
        for n in sorted(config.n_list)
        for trial in range(config.trials)
    ]
    # a forking pool starts every worker up front, used or not
    workers = min(config.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial_from_task, tasks, chunksize=4))
    else:
        records = [_trial_from_task(t) for t in tasks]
    records.sort(key=lambda r: (r.n, r.trial))
    if csv_path is not None:
        write_records_csv(records, csv_path)
    return summarize(records), records


def record_to_csv_row(r: TrialRecord) -> str:
    return ",".join(write(getattr(r, field)) for field, write, _ in _COLUMNS)


def records_csv_text(records: list[TrialRecord]) -> str:
    return "".join(f"{line}\n" for line in [CSV_HEADER, *map(record_to_csv_row, records)])


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_csv_text(records))


def read_records_csv(path: str) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise GonalityError(f"unexpected CSV header in {path}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise GonalityError(f"{path}, line {lineno}: {len(cells)} fields, expected {len(_COLUMNS)}")
        try:
            values = {field: read(cell) for (field, _, read), cell in zip(_COLUMNS, cells)}
        except ValueError as exc:
            raise GonalityError(f"{path}, line {lineno}: {exc}") from exc
        records.append(TrialRecord(**values))
    return records


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def _sample_std(xs: list[float]) -> Optional[float]:
    if len(xs) < 2:
        return None
    mu = _mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / (len(xs) - 1))


def summarize(records: list[TrialRecord]) -> ExperimentSummary:
    """Per-n aggregates, recomputable exactly from the CSV records."""
    by_n: dict[int, list[TrialRecord]] = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r)
    rows = []
    for n in sorted(by_n):
        group = sorted(by_n[n], key=lambda r: r.trial)
        c = group[0].c
        gon = [r.gon_exact / n for r in group if r.gon_exact is not None]
        twlb = [r.tw_lb / n for r in group]
        ub = [r.gon_ub / n for r in group]
        frieze_ratio: Optional[float] = None
        if c > math.e:
            frieze_ratio = 1.0 - (2.0 / c) * _frieze_bracket(c)
        rows.append(
            SummaryRow(
                n=n,
                c=c,
                trials=len(group),
                mean_gon_ratio=_mean(gon) if gon else None,
                std_gon_ratio=_sample_std(gon),
                mean_tw_lb_ratio=_mean(twlb),
                mean_ub_ratio=_mean(ub),
                frieze_ub_ratio=frieze_ratio,
            )
        )
    return ExperimentSummary(tuple(rows), len(records))


def convergence_report(summary: ExperimentSummary) -> str:
    """Per-n ratio table for the expected-gonality trend.

    One CSV-style line per n: the empirical mean of gon/n (or the certified
    envelope when exact gonality was not computed), the theoretical
    upper-bound ratio from the independence-number estimate, and whether
    the empirical envelope is consistent (lower <= upper).
    """
    if len(summary.rows) < 2:
        raise GonalityError("convergence report needs at least two values of n")
    out = [
        "n,c,trials,gon_over_n_mean,gon_over_n_std,tw_lb_over_n_mean,"
        "ub_over_n_mean,frieze_ub_ratio,consistent"
    ]
    opt = _optional(*_REAL)[0]
    for row in summary.rows:
        lo = row.mean_tw_lb_ratio
        hi = row.mean_ub_ratio
        mid = row.mean_gon_ratio
        consistent = lo <= hi and (mid is None or lo <= mid <= hi)
        out.append(
            ",".join(
                (
                    str(row.n),
                    repr(row.c),
                    str(row.trials),
                    opt(row.mean_gon_ratio),
                    opt(row.std_gon_ratio),
                    repr(lo),
                    repr(hi),
                    opt(row.frieze_ub_ratio),
                    "1" if consistent else "0",
                )
            )
        )
    return "\n".join(out) + "\n"
