"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints a ``[criterion N] PASS`` line (visible with ``pytest -s``)
and enforces its stated time budget.  The whole module is the heavyweight
end of the test suite; expect minutes, not seconds.
"""

import math
import random
import time
from itertools import product

import pytest

from gonality import (
    ExperimentConfig,
    GnpParams,
    apply_firing,
    canonical_divisor,
    certify_independence_bound,
    complete_graph,
    connected_components,
    frieze_alpha_estimate,
    genus,
    gonality,
    maximum_independent_set,
    min_degree,
    mix_trial_seed,
    q_reduce,
    rank,
    run_experiment,
    sample_gnp,
    treewidth_exact,
    verify_certificate,
)
from gonality import Divisor, FiringScript

from oracles import (
    all_labeled_connected_graphs,
    class_key,
    connected_atlas,
    random_connected_graph,
    reference_rank,
    reference_reduce,
)


def _pass(num, name, t0, detail=""):
    elapsed = time.time() - t0
    suffix = f", {detail}" if detail else ""
    print(f"[criterion {num:2d}] PASS {name} ({elapsed:.1f}s{suffix})")


# -- shared corpora -----------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    """300 random connected graphs, n in 5..9, p in {0.3, 0.5, 0.8},
    with exact treewidth, exact gonality, and a maximum independent set."""
    t0 = time.time()
    entries = []
    for n in (5, 6, 7, 8, 9):
        for p in (0.3, 0.5, 0.8):
            master = 1000 * n + int(10 * p)
            collected = 0
            attempt = 0
            while collected < 20:
                seed = mix_trial_seed(master, n, attempt)
                attempt += 1
                graph = sample_gnp(GnpParams.from_p(n, p, seed))
                if not graph.is_connected():
                    continue
                collected += 1
                entries.append(
                    {
                        "graph": graph,
                        "gonality": gonality(graph),
                        "tw": treewidth_exact(graph)[0],
                        "mis": maximum_independent_set(graph),
                    }
                )
    return {"entries": entries, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def sqrt_experiment(tmp_path_factory):
    """Criterion 10's main series, run exactly once and kept as bytes."""
    config = ExperimentConfig(
        n_list=(6, 8, 10, 12), c_spec="sqrt", trials=100, seed=42,
        mode="exact", workers=2,
    )
    path = tmp_path_factory.mktemp("acc") / "sqrt_run.csv"
    t0 = time.time()
    summary, _ = run_experiment(config, str(path))
    return {
        "config": config,
        "summary": summary,
        "csv_bytes": path.read_bytes(),
        "elapsed": time.time() - t0,
    }


# -- criteria -----------------------------------------------------------------

def test_criterion_01_complete_graph_sharpness():
    t0 = time.time()
    for n in range(3, 9):
        result = gonality(complete_graph(n))
        assert result.value == n - 1, f"K_{n}"
        assert verify_certificate(complete_graph(n), result.certificate)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(1, "gon(K_n) = n-1 for n=3..8", t0)


def test_criterion_02_uniqueness_of_extremal_graphs():
    t0 = time.time()
    checked = 0
    for n in (4, 5):
        complete_edge_count = n * (n - 1) // 2
        for graph in all_labeled_connected_graphs(n):
            value = gonality(graph, with_certificate=False).value
            if graph.m == complete_edge_count:
                assert value == n - 1
            else:
                assert value < n - 1, f"non-complete graph {graph.edges} hit n-1"
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _pass(2, "only K_n reaches gonality n-1 (n=4,5 exhaustive)", t0, f"{checked} graphs")


def test_criterion_03_sandwich(corpus):
    t0 = time.time()
    for e in corpus["entries"]:
        n = e["graph"].n
        assert e["tw"] <= e["gonality"].value <= n - e["mis"].alpha
    total = corpus["elapsed"] + (time.time() - t0)
    assert total < 600.0
    _pass(3, "tw <= gon <= n - alpha on the random corpus", t0,
          f"{len(corpus['entries'])} graphs, corpus built in {corpus['elapsed']:.1f}s")


def test_criterion_04_valence_bound(corpus):
    t0 = time.time()
    for e in corpus["entries"]:
        assert e["gonality"].value >= min_degree(e["graph"])
    _pass(4, "gon >= min degree on the random corpus", t0)


def test_criterion_05_constructive_certificates(corpus):
    t0 = time.time()
    for e in corpus["entries"]:
        graph = e["graph"]
        cert = certify_independence_bound(graph, e["mis"].independent.vertices)
        assert verify_certificate(graph, cert)
        for v in range(graph.n):
            fired = apply_firing(graph, cert.divisor.minus_vertex(v), cert.witnesses[v])
            assert fired.is_effective()
    _pass(5, "independence-bound certificates all verify", t0)


def test_criterion_06_riemann_roch_exhaustive():
    # rank() takes the dual above degree g - 1, so the identity is checked
    # on reference_rank, which assumes no part of Riemann-Roch, once per
    # class; rank() is checked against it on every divisor, whose class
    # class_key finds by exact linear algebra
    t0 = time.time()
    graphs = connected_atlas(6)
    count = len(graphs)
    pairs = classes = 0
    while graphs:
        graph = graphs.pop(0)  # each graph owns its rank memo: drop it after use
        g = genus(graph)
        kan = canonical_divisor(graph).chips
        memo, ranks = {}, {}
        for chips in product(range(-2, 3), repeat=graph.n):
            key = class_key(graph, chips)
            if key not in ranks:
                red = reference_reduce(graph, chips, 0)[0]
                ranks[key] = reference_rank(graph, red, memo)
                dual = tuple(k - c for k, c in zip(kan, red))
                assert ranks[key] - reference_rank(graph, dual, memo) == sum(red) - g + 1
            assert rank(graph, Divisor(chips)) == ranks[key]
            pairs += 1
        classes += len(ranks)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _pass(6, "Riemann-Roch identity on reference ranks, all graphs n<=6, chips in [-2,2]", t0,
          f"{count} graphs, {pairs} divisors, {classes} classes")


def test_criterion_07_reduction_laws():
    t0 = time.time()
    rnd = random.Random(7042)
    for _ in range(1000):
        n = rnd.randint(2, 8)
        graph = random_connected_graph(rnd, n, rnd.uniform(0.3, 0.9))
        div = Divisor(tuple(rnd.randint(-4, 4) for _ in range(n)))
        script = FiringScript(tuple(rnd.randint(-3, 3) for _ in range(n)))
        red = q_reduce(graph, div)
        assert q_reduce(graph, red) == red
        assert q_reduce(graph, apply_firing(graph, div, script)) == red
    _pass(7, "q-reduction idempotent and firing-invariant", t0, "1000 instances")


def test_criterion_08_genus_asymptotic():
    t0 = time.time()
    n, c, trials = 100, 5.0, 200
    total_genus = total_comps = total_edges = 0
    for trial in range(trials):
        graph = sample_gnp(GnpParams.from_p(n, c / n, mix_trial_seed(8042, n, trial)))
        total_genus += genus(graph)
        total_comps += len(connected_components(graph))
        total_edges += graph.m
    mean_edges = total_edges / trials
    corrected_genus = (total_genus + n * trials - total_comps) / trials
    assert corrected_genus == mean_edges  # genus + (n - components) = edges
    assert abs(mean_edges - 247.5) <= 0.03 * 247.5
    assert abs(corrected_genus - 250.0) <= 0.05 * 250.0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(8, "mean genus ~ c n / 2 at n=100, c=5", t0,
          f"corrected mean {corrected_genus:.2f} vs 250")


def test_criterion_09_frieze_smoke():
    t0 = time.time()
    n, c, trials = 100, 20.0, 30
    estimate = frieze_alpha_estimate(n, c)
    total_alpha = 0
    for trial in range(trials):
        graph = sample_gnp(GnpParams.from_p(n, c / n, mix_trial_seed(9042, n, trial)))
        result = maximum_independent_set(graph)
        assert result.exact
        total_alpha += result.alpha
    mean_alpha = total_alpha / trials
    tolerance = 0.75 * (n / c)
    assert abs(mean_alpha - estimate) <= tolerance
    elapsed = time.time() - t0
    assert elapsed < 900.0
    _pass(9, "mean exact alpha near the sparse-graph estimate", t0,
          f"mean {mean_alpha:.2f} vs estimate {estimate:.2f}, tol {tolerance:.2f}")


def test_criterion_10_desk_scale_trend(sqrt_experiment):
    t0 = time.time()
    rows = sqrt_experiment["summary"].rows
    assert [row.n for row in rows] == [6, 8, 10, 12]
    assert all(row.trials == 100 for row in rows)

    # (a) weakly increasing mean gon/n, allowing one inversion within one
    # standard error of the difference of means
    inversions = []
    for a, b in zip(rows, rows[1:]):
        if b.mean_gon_ratio < a.mean_gon_ratio:
            gap = a.mean_gon_ratio - b.mean_gon_ratio
            se = math.sqrt(
                a.std_gon_ratio**2 / a.trials + b.std_gon_ratio**2 / b.trials
            )
            inversions.append((a.n, b.n, gap, se))
    assert len(inversions) <= 1, inversions
    for _, _, gap, se in inversions:
        assert gap <= se, inversions

    # (b) dense control series: high ratio already at n = 12
    control = ExperimentConfig(
        n_list=(6, 8, 10, 12), c_spec="p:0.9", trials=100, seed=42,
        mode="exact", workers=2,
    )
    control_summary, _ = run_experiment(control)
    at_12 = [row for row in control_summary.rows if row.n == 12][0]
    assert at_12.mean_gon_ratio >= 0.7

    elapsed = sqrt_experiment["elapsed"] + (time.time() - t0)
    assert elapsed < 1800.0
    ratios = ", ".join(f"{row.mean_gon_ratio:.3f}" for row in rows)
    _pass(10, "mean gon/n trend at c = sqrt(n)", t0,
          f"ratios [{ratios}], control at n=12: {at_12.mean_gon_ratio:.3f}")


def test_criterion_11_byte_determinism(sqrt_experiment, tmp_path):
    t0 = time.time()
    rerun_path = tmp_path / "rerun.csv"
    run_experiment(sqrt_experiment["config"], str(rerun_path))
    assert rerun_path.read_bytes() == sqrt_experiment["csv_bytes"]
    _pass(11, "identical config reproduces the CSV byte-for-byte", t0,
          f"{len(sqrt_experiment['csv_bytes'])} bytes")
