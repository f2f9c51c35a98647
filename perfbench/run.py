#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gnp_dense_exact --seed 1 --seconds 25 --trace 0

Run from the repository root (the library is imported from ``src/``).
With ``--trace 0`` it repeats untraced passes over the workload's fixed
input set while they fit in ``--seconds`` and prints the end-to-end
metrics; with ``--trace 1`` it makes one untraced pass, replays the same
inputs with a span around every library call, checks the replay against
the pass, and prints the per-layer metrics.  The last line of stdout is
the JSON result; the lines before it give every metric by name and unit,
the tail percentile and the run stamp.  Every time is reported at
reference speed, scaled by a fixed kernel timed beside it (speed.py).
Traces and CSVs go to ``perfbench/out/``.  README.md documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import REF_MS, Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 42
SETUP_PROBES = 5  # extra fresh processes, each importing and generating once
SETUP_SPEED_SAMPLES = 30  # kernel timings that scale each set-up time
MAX_WORKERS = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _setup(name: str, seed: int):
    """Import the library and make the workload's inputs, timed, and the
    time scaled to reference speed by kernel timings taken right after."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    try:
        wl = workloads.build(name, min(MAX_WORKERS, _nproc()))
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}") from None
    inputs = wl.generate(seed)
    took = time.perf_counter() - t0
    meter = Speedometer()
    meter.sample(SETUP_SPEED_SAMPLES)
    return workloads, wl, inputs, took * meter.scale()


def _probe_setup(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children holds the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tail(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile of TAIL_LADDER with at least ten
    items beyond it (nearest rank), and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        permille = round(pct * 10)  # integer ranks: no float rounding at the cut
        if (1000 - permille) * n >= 10_000:
            return ordered[-(-permille * n // 1000) - 1], pct
    return ordered[-1], 100.0


def _failures(workloads, wl, inputs, p, seed: int, first_csv) -> set[int]:
    bad = wl.check(inputs, p)
    if p.csv_text is not None:
        problem = workloads.csv_digest_problem(wl, p.csv_text, seed)
        if problem is None and first_csv is not None and p.csv_text != first_csv:
            problem = "CSV differs between passes over the same inputs"
        if problem is not None:
            print(f"check failed: {wl.name}: {problem}", file=sys.stderr)
            bad = set(range(len(p.item_ms)))
    return bad


def _print_metrics(metrics: dict, shares_of: float = 0.0) -> None:
    for name, m in metrics.items():
        line = f"  {name:<28} {m['value']:>14.6g} {m['unit']}"
        if shares_of and m["unit"] == "s" and name != "setup_s":
            line += f"   ({100.0 * m['value'] / shares_of:.1f}% of traced time)"
        print(line)


def _end_to_end(workloads, wl, inputs, seed: int, seconds: float, setup_own: float):
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        p = wl.run_pass(inputs, OUT_DIR)
        failed += len(_failures(workloads, wl, inputs, p, seed,
                                passes[0].csv_text if passes else None))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(x.wall_s for x in passes) > seconds:
            break
    rss = _peak_rss_mb()
    setup = statistics.median([setup_own] + [_probe_setup(wl.name, seed) for _ in range(SETUP_PROBES)])
    # every time is scaled to reference speed with its own pass's kernel
    # timings, then each item takes its median over the passes
    per_item = [statistics.median(col) for col in
                zip(*([ms * x.scale for ms in x.item_ms] for x in passes))]
    keep = wl.latency_items(inputs)
    latencies = per_item if keep is None else [per_item[i] for i in keep]
    tail, pct = _tail(latencies)
    attempted = sum(len(x.item_ms) for x in passes)
    # a pool's items overlap, so there the pass's own wall time counts
    wall = (statistics.median(x.wall_s * x.scale for x in passes) if wl.pooled
            else sum(per_item) / 1000.0)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "item_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
        "item_ms_tail": {"value": tail, "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }
    walls = ", ".join(f"{x.wall_s:.3f}" for x in passes)
    kernels = ", ".join(f"{REF_MS / x.scale:.3f}" for x in passes)
    print(f"{wl.name} seed={seed} items={len(per_item)} passes={len(passes)} "
          f"(measured wall s: {walls}; kernel ms: {kernels})")
    print(f"  times below are at reference speed, where one kernel takes {REF_MS:g} ms")
    _print_metrics(metrics)
    print(f"  {'failed_ratio':<28} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    print(f"  item_ms_p50 and item_ms_tail (p{pct:g}) are over {len(latencies)} of the {len(per_item)} items, "
          f"each the median of its {len(passes)} passes")
    if passes[0].csv_text is not None:
        print(f"  csv sha256 {workloads.sha256(passes[0].csv_text)}")
    return metrics, attempted, failed


def _per_layer(workloads, wl, inputs, seed: int):
    from tracing import Tracer

    p = wl.run_pass(inputs, OUT_DIR)
    failed = _failures(workloads, wl, inputs, p, seed, None)
    tracer = Tracer()
    meter = Speedometer()
    t0 = time.perf_counter()
    replayed = wl.replay(inputs, tracer, meter)
    traced_s = time.perf_counter() - t0
    scale = meter.scale()
    traced_ref = traced_s * scale  # ratios compare times at reference speed
    wl.write_csv_traced(p, tracer, OUT_DIR)
    mismatches = wl.fidelity(p, replayed)
    for i in mismatches:
        print(f"fidelity failed: {wl.name}: traced replay differs from the pass at item {i}", file=sys.stderr)
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json"))

    self_s = tracer.self_times()
    counts = tracer.counts
    pool = wl.pooled
    # the pool hides per-trial time, so overhead compares against the
    # workers' own per-trial timings instead of the pool's wall time
    untraced_s = sum(p.item_ms) / 1000.0 if pool else p.wall_s

    def sec(span: str) -> dict:
        return {"value": self_s.get(span, 0.0) * scale, "unit": "s"}

    def cnt(key: str) -> dict:
        return {"value": counts.get(key, 0), "unit": "count"}

    metrics = {
        "search.scan_s": sec("search.scan"),
        "search.degrees_scanned": cnt("search.degrees_scanned"),
        "search.degrees_refuted": cnt("search.degrees_refuted"),
        "search.cap_closed": cnt("search.cap_closed"),
        "bounds.mis_s": sec("bounds.mis"),
        "bounds.mis_nodes": cnt("bounds.mis_nodes"),
        "bounds.tw_exact_s": sec("bounds.tw_exact"),
        "bounds.tw_states": cnt("bounds.tw_states"),
        "bounds.degeneracy_s": sec("bounds.degeneracy"),
        "divisors.rank_s": sec("divisors.rank"),
        "divisors.rank_calls": cnt("divisors.rank_calls"),
        "divisors.reduce_s": sec("divisors.reduce"),
        "divisors.reduce_calls": cnt("divisors.reduce_calls"),
        "divisors.equiv_s": sec("divisors.equiv"),
        "search.certify_s": sec("search.certify"),
        "search.verify_s": sec("search.verify"),
        "search.certificates": cnt("search.certify_calls"),
        "experiments.pool_speedup": {"value": traced_ref / (p.wall_s * p.scale) if pool else 0.0, "unit": "ratio"},
        "experiments.csv_s": sec("experiments.csv"),
        "graphs.sample_gnp_s": sec("graphs.sample_gnp"),
        "graphs.pairs_drawn": cnt("graphs.pairs_drawn"),
        "graphs.components_s": sec("graphs.components"),
        "trace.overhead_ratio": {"value": traced_ref / (untraced_s * p.scale), "unit": "ratio"},
    }
    attempted = len(p.item_ms)
    print(f"{wl.name} seed={seed} traced replay of {attempted} items: {traced_s:.3f} s "
          f"(untraced pass {p.wall_s:.3f} s), {len(tracer.spans)} spans")
    print(f"  layer times are at reference speed (kernel {REF_MS / scale:.3f} ms during the replay)")
    _print_metrics(metrics, shares_of=traced_ref)
    print(f"  fidelity: {len(mismatches)} of {len(replayed)} replayed items differ from the pass")
    return metrics, attempted, len(failed | set(mismatches))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2**63)")

    load = os.getloadavg()
    workloads, wl, inputs, setup_own = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_own)
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        metrics, attempted, failed = _per_layer(workloads, wl, inputs, args.seed)
    else:
        metrics, attempted, failed = _end_to_end(
            workloads, wl, inputs, args.seed, args.seconds, setup_own)
    import numpy

    stamp = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _nproc(),
        "workers": min(MAX_WORKERS, _nproc()),
        "loadavg_at_start": load,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
