"""The benchmark's four workloads.

Each workload makes its inputs from a seed (set-up), runs them untraced
through the library's public API with a latency per item (a pass), checks
every output, and replays the same inputs through the public functions of
each layer with a span around every call (the traced run).  See README.md
for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional
from weakref import WeakKeyDictionary

from gonality import (
    Divisor,
    ExperimentConfig,
    FiringScript,
    GnpParams,
    Graph,
    apply_firing,
    c_of,
    canonical_divisor,
    connected_components,
    genus,
    gonality as gonality_of,
    linearly_equivalent,
    maximum_independent_set,
    mix_trial_seed,
    q_reduce,
    rank,
    read_records_csv,
    run_experiment,
    run_trial,
    sample_gnp,
    treewidth_exact,
    treewidth_lower_bound,
    verify_certificate,
    write_records_csv,
)

from speed import Speedometer
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN: dict[str, dict[str, str]] = json.load(_fh)

_TIMING_COLUMNS = 3  # ms_alpha, ms_tw, ms_gon end every CSV row


# -- cold caches ---------------------------------------------------------------

def _library_caches() -> list:
    """Memo tables the library keeps at module level: weak dictionaries,
    and dictionaries whose name says CACHE.  Found by shape, so renaming
    a table does not let it escape the check."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "gonality" and not name.startswith("gonality."):
            continue
        for attr, obj in vars(module).items():
            if isinstance(obj, WeakKeyDictionary) or (isinstance(obj, dict) and "CACHE" in attr.upper()):
                found.append(obj)
    return found


_CACHES = _library_caches()  # the library is fully imported by now


def make_cold() -> None:
    for cache in _CACHES:
        cache.clear()


def assert_cold(*graphs: Graph) -> None:
    """Raise unless every library cache is empty and no graph holds
    computed state (cached properties live in the instance dict)."""
    for cache in _CACHES:
        if cache:
            raise RuntimeError(f"library cache not cold before timing: {len(cache)} entries")
    for g in graphs:
        extra = set(vars(g)) - {"n", "edges"}
        if extra:
            raise RuntimeError(f"graph carries cached state before timing: {sorted(extra)}")


# -- shared helpers ------------------------------------------------------------

@dataclass
class Pass:
    """One untraced pass over a workload's fixed input set."""

    outputs: list          # one entry per item; None where the item raised
    item_ms: list[float]   # as measured; times ``scale`` gives reference time
    wall_s: float
    scale: float           # Speedometer.scale() over the pass
    csv_text: Optional[str] = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _blank_timings(csv_text: str) -> str:
    """The CSV as written without ``record_timings``: timing cells empty."""
    lines = csv_text.split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        if line:
            fields = line.split(",")
            fields[-_TIMING_COLUMNS:] = [""] * _TIMING_COLUMNS
            line = ",".join(fields)
        out.append(line)
    return "\n".join(out)


def _report_exception(what: str) -> None:
    print(f"item failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _connected_gnp(n: int, p: float, rng: random.Random, want_genus: Optional[int] = None) -> Graph:
    while True:
        g = sample_gnp(GnpParams.from_p(n, p, rng.getrandbits(64)))
        if g.is_connected() and (want_genus is None or genus(g) == want_genus):
            return g


# -- G(n, p) trial workloads ---------------------------------------------------

@dataclass(frozen=True)
class Trial:
    n: int
    trial: int
    seed: int
    p: float
    c: float


def _trial(c_spec: str, master: int, n: int, trial: int) -> Trial:
    # the same derivation run_experiment uses for each task
    c = c_of(c_spec, n)
    return Trial(n, trial, mix_trial_seed(master, n, trial), c / n, c)


def _record_key(r) -> tuple:
    return (r.n, r.trial, r.connected, r.genus, r.alpha, r.tw_lb, r.tw_exact, r.gon_exact)


def _record_problem(r, mode: str) -> Optional[str]:
    """Structural check of one CSV row; applies to any seed."""
    if r.gon_ub != r.n - r.alpha:
        return "gon_ub != n - alpha"
    if not r.alpha_exact:
        return "alpha is only a lower bound (MIS budget hit)"
    if r.tw_exact is not None and not (r.tw_lb <= r.tw_exact == r.gon_lb):
        return "treewidth bounds inconsistent"
    if mode == "sandwich":
        if r.gon_exact is not None or r.tw_exact is not None:
            return "sandwich row carries exact values"
        if r.gon_lb != r.tw_lb or r.gon_lb > r.gon_ub:
            return "sandwich bounds inconsistent"
        return None
    if r.gon_exact is None or r.tw_exact is None:
        return "exact row is missing gon_exact or tw_exact (budget hit)"
    if not (r.gon_lb <= r.gon_exact <= r.gon_ub):
        return "tw <= gon <= n - alpha violated"
    return None


class TrialWorkload:
    """Trials of one G(n, p) series driven one at a time through run_trial,
    in run_experiment's order."""

    name = ""
    c_spec = ""
    mode = "exact"
    pooled = False  # True where a process pool hides each item's latency
    n_list: tuple[int, ...] = ()
    trials = 0

    def generate(self, seed: int) -> list[Trial]:
        return [_trial(self.c_spec, seed, n, t) for n in self.n_list for t in range(self.trials)]

    def run_pass(self, tasks: list[Trial], out_dir: str) -> Pass:
        records, item_ms = [], []
        meter = Speedometer()
        start = time.perf_counter()
        for t in tasks:
            meter.tick()
            make_cold()
            assert_cold()
            t0 = time.perf_counter()
            try:
                rec = run_trial(t.n, t.p, t.seed, self.mode, c=t.c, trial=t.trial)
            except Exception:
                _report_exception(f"{self.name} n={t.n} trial={t.trial}")
                rec = None
            item_ms.append((time.perf_counter() - t0) * 1000.0)
            records.append(rec)
        wall = time.perf_counter() - start
        path = os.path.join(out_dir, f"{self.name}.csv")
        write_records_csv([r for r in records if r is not None], path)
        return Pass(records, item_ms, wall, meter.scale(), _read(path))

    def check(self, tasks: list[Trial], p: Pass) -> set[int]:
        if len(p.outputs) != len(tasks):
            print(f"check failed: {self.name}: {len(p.outputs)} rows for {len(tasks)} trials", file=sys.stderr)
            return set(range(len(tasks)))
        bad = set()
        for i, (t, r) in enumerate(zip(tasks, p.outputs)):
            if r is None:
                bad.add(i)
                continue
            problem = _record_problem(r, self.mode)
            if problem is None and (r.n, r.trial, r.seed) != (t.n, t.trial, t.seed):
                problem = "row does not match its task"
            if problem is not None:
                print(f"check failed: {self.name} n={t.n} trial={t.trial}: {problem}", file=sys.stderr)
                bad.add(i)
        return bad

    def replay(self, tasks: list[Trial], tracer: Tracer, meter: Speedometer) -> list[tuple]:
        """run_trial's call sequence, one span per public call."""
        keys = []
        for i, t in enumerate(tasks):
            meter.tick()
            make_cold()
            assert_cold()
            with tracer.span("experiments.trial", item=i):
                keys.append(_replay_trial(t, self.mode, tracer))
        return keys

    def fidelity(self, p: Pass, keys: list[tuple]) -> list[int]:
        untraced = [_record_key(r) if r is not None else None for r in p.outputs]
        return [i for i, (a, b) in enumerate(zip(untraced, keys)) if a != b]

    def latency_items(self, tasks: list[Trial]) -> Optional[list[int]]:
        """Indices of the items behind item_ms_p50 and item_ms_tail; None for all."""
        return None

    def write_csv_traced(self, p: Pass, tracer: Tracer, out_dir: str) -> None:
        records = [r for r in p.outputs if r is not None]
        with tracer.span("experiments.csv"):
            write_records_csv(records, os.path.join(out_dir, f"{self.name}-replay.csv"))


def _replay_trial(t: Trial, mode: str, tr: Tracer) -> tuple:
    # mirrors run_trial with its default limits: exact gonality up to n=12,
    # exact treewidth up to n=16, no budgets
    with tr.span("graphs.sample_gnp"):
        g = sample_gnp(GnpParams.from_p(t.n, t.p, t.seed))
    tr.counts["graphs.pairs_drawn"] += t.n * (t.n - 1) // 2
    with tr.span("graphs.components"):
        connected = g.is_connected()
        gns = genus(g)
    with tr.span("bounds.mis"):
        mis = maximum_independent_set(g)
    tr.counts["bounds.mis_nodes"] += mis.nodes_explored
    with tr.span("bounds.degeneracy"):
        tw_lb = treewidth_lower_bound(g)
    tw_ex = None
    if t.n <= 16:
        with tr.span("bounds.tw_exact"):
            tw_ex = treewidth_exact(g, 16)[0]
        tr.counts["bounds.tw_states"] += 1 << t.n
    gon = None
    if mode == "exact" and t.n <= 12:
        with tr.span("search.scan"):
            if connected:
                res = gonality_of(
                    g,
                    None,
                    with_certificate=False,
                    lower_bound=tw_ex if tw_ex is not None else 1,
                    independent_set=mis.independent.vertices,
                )
            else:
                res = gonality_of(g, None, with_certificate=False)
        gon = res.value
        # the n - alpha construction closes the search without scanning
        # degree n - alpha, which is the last degree listed when it fires
        cap_closed = connected and res.value == t.n - mis.alpha
        successes = 0 if cap_closed else sum(1 for c in connected_components(g) if len(c) > 1)
        scanned = len(res.degrees_searched) - int(cap_closed)
        tr.counts["search.cap_closed"] += int(cap_closed)
        tr.counts["search.degrees_scanned"] += scanned
        tr.counts["search.degrees_refuted"] += scanned - successes
    return (t.n, t.trial, connected, gns, mis.alpha, tw_lb, tw_ex, gon)


class DenseExact(TrialWorkload):
    """Dense control series, only trials whose sandwich leaves a gap.

    A trial with ``tw == n - alpha`` is settled by the bounds and never
    scans; it costs about 3 ms against about 160 ms for a scanning trial.
    Keeping the first ``trials`` scanning trials of the series in order
    fixes how many scans a run does, so the spread between seeds measures
    the scan, not a coin count of how many trials needed one.
    """

    name = "gnp_dense_exact"
    c_spec = "p:0.9"
    n_list = (10,)
    trials = 70

    def generate(self, seed: int) -> list[Trial]:
        picked = []
        for n in self.n_list:
            index = 0
            kept = 0
            while kept < self.trials:
                t = _trial(self.c_spec, seed, n, index)
                index += 1
                g = sample_gnp(GnpParams.from_p(t.n, t.p, t.seed))
                if treewidth_exact(g)[0] < n - maximum_independent_set(g).alpha:
                    picked.append(t)
                    kept += 1
        return picked

    def check(self, tasks: list[Trial], p: Pass) -> set[int]:
        bad = super().check(tasks, p)
        for i, r in enumerate(p.outputs):
            if r is not None and i not in bad and r.tw_exact >= r.gon_ub:
                print(f"check failed: {self.name} trial={r.trial}: no gap, scan skipped", file=sys.stderr)
                bad.add(i)
        return bad


class SandwichMIS(TrialWorkload):
    """Sandwich mode at mean degree 20: the MIS branch and bound only."""

    name = "gnp_sandwich_mis"
    c_spec = "20"
    mode = "sandwich"
    n_list = (55, 60, 65)
    trials = 40


class SqrtPool(TrialWorkload):
    """The headline sqrt(n) series through run_experiment and its pool.

    Runs with ``record_timings`` so the CSV carries each trial's time inside
    its worker (the item latency); the digest is taken with those cells
    blanked, which is byte for byte the CSV of an untimed run.
    """

    name = "gnp_sqrt_pool"
    c_spec = "sqrt"
    n_list = (6, 8, 10, 12)
    trials = 400
    pooled = True

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def generate(self, seed: int):
        config = ExperimentConfig(
            n_list=self.n_list,
            c_spec=self.c_spec,
            trials=self.trials,
            seed=seed,
            mode="exact",
            workers=self.workers,
            record_timings=True,
        )
        return config, super().generate(seed)

    def run_pass(self, inputs, out_dir: str) -> Pass:
        config, _ = inputs
        path = os.path.join(out_dir, f"{self.name}.csv")
        meter = Speedometer()
        make_cold()
        assert_cold()
        with meter.beside():
            t0 = time.perf_counter()
            run_experiment(config, path)
            wall = time.perf_counter() - t0
        records = read_records_csv(path)
        item_ms = [r.ms_alpha + r.ms_tw + r.ms_gon for r in records]
        return Pass(records, item_ms, wall, meter.scale(), _blank_timings(_read(path)))

    def check(self, inputs, p: Pass) -> set[int]:
        return super().check(inputs[1], p)

    def replay(self, inputs, tracer: Tracer, meter: Speedometer) -> list[tuple]:
        return super().replay(inputs[1], tracer, meter)

    def latency_items(self, inputs) -> list[int]:
        # Over all sizes the median falls where the n <= 8 half of the
        # items meets the n >= 10 half, and reads the edge of one of them:
        # its spread between seeds was twice that of the median over the
        # largest size, which holds most of the work.
        largest = max(self.n_list)
        return [i for i, t in enumerate(inputs[1]) if t.n == largest]


def csv_digest_problem(workload, csv_text: str, seed: int) -> Optional[str]:
    expected = GOLDEN.get(workload.name, {}).get(str(seed))
    if expected is None:
        return None
    actual = sha256(csv_text)
    if actual != expected:
        return f"CSV sha256 {actual} differs from the recorded {expected}"
    return None


# -- divisor queries -----------------------------------------------------------

@dataclass(frozen=True)
class Query:
    kind: str                     # rr, reduce, equiv or certify
    n: int
    edges: tuple
    chips: tuple = ()
    other: tuple = ()             # rr: K - D; reduce/equiv: D after a random firing
    rr_rhs: int = 0               # rr: deg(D) + 1 - g


class DivisorQueries:
    """Single-graph queries as the CLI serves them, each on a cold cache.

    Riemann-Roch pairs ``rank(D)``, ``rank(K - D)`` on n=7 genus-5 graphs
    with ``deg(D) = g + 1`` and some debt, reduction and equivalence of
    divisors with debt on sparse n=100 graphs, and certified gonality plus
    certificate verification on n=9 graphs.  Graph size, genus and degree
    are fixed per kind because rank cost grows exponentially with degree:
    a random degree would make a run's time a count of its few costly
    draws.
    """

    name = "divisor_queries"
    pooled = False
    rr_pairs, rr_n, rr_genus = 1200, 7, 5
    reduce_graphs, reduce_n, reduce_c = 60, 100, 6.0
    certify_queries, certify_n = 240, 9

    def generate(self, seed: int) -> list[Query]:
        rng = random.Random(seed)
        out: list[Query] = []
        for _ in range(self.rr_pairs):
            g = _connected_gnp(self.rr_n, 0.5, rng, self.rr_genus)
            chips = [0] * g.n
            for _ in range(self.rr_genus + 1):
                chips[rng.randrange(g.n)] += 1
            for _ in range(2):  # move chips to leave debt
                chips[rng.randrange(g.n)] -= 1
                chips[rng.randrange(g.n)] += 1
            d = Divisor(tuple(chips))
            out.append(Query("rr", g.n, g.edges, d.chips, (canonical_divisor(g) - d).chips,
                             d.degree + 1 - self.rr_genus))
        for _ in range(self.reduce_graphs):
            g = _connected_gnp(self.reduce_n, self.reduce_c / self.reduce_n, rng)
            d = Divisor(tuple(rng.randint(-3, 3) for _ in range(g.n)))
            script = FiringScript(tuple(rng.randint(-2, 2) for _ in range(g.n)))
            fired = apply_firing(g, d, script).chips
            out.append(Query("reduce", g.n, g.edges, d.chips, fired))
            out.append(Query("equiv", g.n, g.edges, d.chips, fired))
        for _ in range(self.certify_queries):
            g = _connected_gnp(self.certify_n, 0.5, rng)
            out.append(Query("certify", g.n, g.edges))
        # kinds interleaved, so that each kind meets the machine's speed of
        # the whole pass, as the pass's kernel timings measure it
        rng.shuffle(out)
        return out

    def _answer(self, q: Query, g: Graph, tr: Optional[Tracer] = None):
        """Serve one query; with a tracer, a span around each library call."""
        def call(span: str, fn, *args):
            if tr is None:
                return fn(*args)
            tr.counts[span + "_calls"] += 1
            with tr.span(span):
                return fn(*args)

        if q.kind == "rr":
            return (call("divisors.rank", rank, g, Divisor(q.chips)),
                    call("divisors.rank", rank, g, Divisor(q.other)))
        if q.kind == "reduce":
            return call("divisors.reduce", q_reduce, g, Divisor(q.chips)).chips
        if q.kind == "equiv":
            return call("divisors.equiv", linearly_equivalent, g, Divisor(q.chips), Divisor(q.other))
        res = call("search.certify", gonality_of, g)
        return res.value, res.certificate, call("search.verify", verify_certificate, g, res.certificate)

    def run_pass(self, queries: list[Query], out_dir: str) -> Pass:
        outputs, item_ms = [], []
        meter = Speedometer()
        start = time.perf_counter()
        for i, q in enumerate(queries):
            meter.tick()
            g = Graph(q.n, q.edges)
            make_cold()
            assert_cold(g)
            t0 = time.perf_counter()
            try:
                out = self._answer(q, g)
            except Exception:
                _report_exception(f"{self.name} item {i} ({q.kind})")
                out = None
            item_ms.append((time.perf_counter() - t0) * 1000.0)
            outputs.append(out)
        return Pass(outputs, item_ms, time.perf_counter() - start, meter.scale())

    def check(self, queries: list[Query], p: Pass) -> set[int]:
        bad = set()
        for i, (q, out) in enumerate(zip(queries, p.outputs)):
            problem = None if out is not None else "raised"
            if problem is None:
                problem = self._query_problem(q, out)
            if problem is not None:
                print(f"check failed: {self.name} item {i} ({q.kind}): {problem}", file=sys.stderr)
                bad.add(i)
        return bad

    def _query_problem(self, q: Query, out) -> Optional[str]:
        g = Graph(q.n, q.edges)
        if q.kind == "rr":
            if out[0] - out[1] != q.rr_rhs:
                return "Riemann-Roch fails: r(D) - r(K-D) != deg(D) + 1 - g"
            return None
        if q.kind == "reduce":
            if sum(out) != sum(q.chips) or min(out[1:]) < 0:
                return "not a reduced divisor of the same degree"
            if q_reduce(g, Divisor(out)).chips != out:
                return "q_reduce is not idempotent"
            if q_reduce(g, Divisor(q.other)).chips != out:
                return "q_reduce changed under a firing script"
            return None
        if q.kind == "equiv":
            return None if out is True else "a fired divisor was not found equivalent"
        value, cert, ok = out
        if not ok or cert is None or sum(cert.divisor.chips) != value:
            return "certificate missing, of the wrong degree, or not verified"
        if not (treewidth_exact(g)[0] <= value <= g.n - maximum_independent_set(g).alpha):
            return "tw <= gon <= n - alpha violated"
        return None

    def replay(self, queries: list[Query], tracer: Tracer, meter: Speedometer) -> list:
        outputs = []
        for i, q in enumerate(queries):
            meter.tick()
            g = Graph(q.n, q.edges)
            make_cold()
            assert_cold(g)
            with tracer.span("query", item=i):
                outputs.append(self._answer(q, g, tracer))
        return outputs

    def fidelity(self, p: Pass, outputs: list) -> list[int]:
        return [i for i, (a, b) in enumerate(zip(p.outputs, outputs)) if a != b]

    def latency_items(self, queries: list[Query]) -> Optional[list[int]]:
        return None

    def write_csv_traced(self, p: Pass, tracer: Tracer, out_dir: str) -> None:
        return None


def build(name: str, workers: int):
    table = {
        "gnp_dense_exact": DenseExact,
        "gnp_sqrt_pool": lambda: SqrtPool(workers),
        "gnp_sandwich_mis": SandwichMIS,
        "divisor_queries": DivisorQueries,
    }
    return table[name]()

