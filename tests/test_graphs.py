import random
import tracemalloc

import numpy as np
import pytest

from gonality import (
    BudgetExceededError,
    DuplicateEdgeError,
    EdgeCountError,
    ExperimentConfig,
    GnpParams,
    GonalityError,
    Graph,
    MalformedHeaderError,
    SelfLoopError,
    SizeLimitError,
    VertexRangeError,
    build_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    degeneracy,
    genus,
    gonality,
    induced_subgraph,
    maximum_independent_set,
    min_degree,
    parse_graph,
    path_graph,
    run_experiment,
    sample_gnp,
    serialize_graph,
    treewidth_exact,
)
from gonality import graphs

from oracles import random_graph, reference_sample_gnp


class TestBuildGraph:
    def test_smallest_connected_graph(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(0, 0)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_graph(3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            build_graph(3, [(-1, 2)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), (), (0, 1.7), ("0", "1"), 5, None])
    def test_rejects_an_edge_that_is_not_two_integers(self, edge):
        with pytest.raises(EdgeCountError):
            build_graph(3, [edge])

    def test_accepts_numpy_integer_endpoints(self):
        g = build_graph(3, [np.array([2, 0])])
        assert g.edges == ((0, 2),) and type(g.edges[0][0]) is int

    def test_edges_normalized_sorted(self):
        g = build_graph(4, [(3, 1), (2, 0)])
        assert g.edges == ((0, 2), (1, 3))


# every public entry point that takes a vertex count
_TAKE_N = {
    "build_graph": lambda n: build_graph(n, []),
    "GnpParams": lambda n: GnpParams(n=n, c=1.0, seed=1),
    "complete_graph": complete_graph,
    "cycle_graph": cycle_graph,
    "path_graph": path_graph,
}


def _config(**overrides):
    base = dict(n_list=(6,), c_spec="2", trials=1, seed=1)
    return ExperimentConfig(**{**base, **overrides})


# every public integer parameter outside the vertex counts, and whether
# None is its default "no limit"
_TAKE_INT = {
    "gonality budget": (lambda x: gonality(path_graph(4), budget=x), True),
    "gonality lower_bound": (lambda x: gonality(path_graph(4), lower_bound=x), False),
    "mis budget": (lambda x: maximum_independent_set(path_graph(4), budget=x), True),
    "treewidth size_limit": (lambda x: treewidth_exact(path_graph(4), x), False),
    "GnpParams seed": (lambda x: GnpParams(10, 3.0, x), False),
    "config trials": (lambda x: run_experiment(_config(trials=x)), False),
    "config seed": (lambda x: run_experiment(_config(seed=x)), False),
    "config budget": (lambda x: run_experiment(_config(budget=x)), True),
    "config workers": (lambda x: run_experiment(_config(workers=x)), False),
    "config n_list": (lambda x: run_experiment(_config(n_list=(x,))), False),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, optional) in _TAKE_INT.items()
    for value in (2.5, "3", None)
    if value is not None or not optional
])
def test_non_integer_parameter_is_a_domain_error(entry, value):
    with pytest.raises(GonalityError, match="needs an integer"):
        _TAKE_INT[entry][0](value)


@pytest.mark.parametrize("entry", ["gonality budget", "mis budget", "treewidth size_limit", "config budget"])
def test_negative_budget_is_a_domain_error(entry):
    with pytest.raises(GonalityError, match=r"needs .* >= 0, got -1"):
        _TAKE_INT[entry][0](-1)


def test_zero_budget_runs_out_instead():
    with pytest.raises(BudgetExceededError):
        gonality(cycle_graph(5), budget=0)
    assert not maximum_independent_set(cycle_graph(5), budget=0).exact
    with pytest.raises(SizeLimitError):
        treewidth_exact(path_graph(4), 0)
    assert _config(budget=0).budget == 0


def test_numpy_integer_parameters_are_stored_as_int():
    assert type(GnpParams(10, 3.0, np.uint64(5)).seed) is int
    config = _config(trials=np.int64(2), seed=np.int32(4), budget=np.int64(9),
                     workers=np.int8(1), n_list=(np.int16(6),))
    assert all(type(v) is int for v in (config.trials, config.seed, config.budget,
                                       config.workers, *config.n_list))
    assert gonality(path_graph(4), budget=np.int64(50), lower_bound=np.int64(1)).value == 1
    assert maximum_independent_set(path_graph(4), budget=np.int64(50)).alpha == 2
    assert treewidth_exact(path_graph(4), np.int64(4))[0] == 1


class TestConstructors:
    def test_complete(self):
        g = complete_graph(4)
        assert g.m == 6
        assert all(d == 3 for d in g.degrees)

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert all(d == 2 for d in g.degrees)

    def test_path_degenerate(self):
        g = path_graph(1)
        assert g.n == 1 and g.m == 0

    def test_cycle_too_small(self):
        with pytest.raises(GonalityError):
            cycle_graph(2)

    @pytest.mark.parametrize("make", _TAKE_N.values(), ids=_TAKE_N.keys())
    @pytest.mark.parametrize("n", [2.5, 4.0, "4", None])
    def test_non_integer_vertex_count(self, make, n):
        with pytest.raises(GonalityError, match="integer vertex count"):
            make(n)

    @pytest.mark.parametrize("make", _TAKE_N.values(), ids=_TAKE_N.keys())
    def test_numpy_vertex_count_is_stored_as_int(self, make):
        assert type(make(np.int64(4)).n) is int

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_edge_counts(self, n):
        assert complete_graph(n).m == n * (n - 1) // 2
        assert path_graph(n).m == n - 1
        if n >= 3:
            assert cycle_graph(n).m == n


class TestGnp:
    def test_p_zero_empty(self):
        g = sample_gnp(GnpParams.from_p(10, 0.0, 1))
        assert g.m == 0

    def test_p_one_complete(self):
        g = sample_gnp(GnpParams.from_p(10, 1.0, 1))
        assert g == complete_graph(10)

    def test_deterministic_in_seed(self):
        a = sample_gnp(GnpParams(50, 5.0, 99))
        b = sample_gnp(GnpParams(50, 5.0, 99))
        c = sample_gnp(GnpParams(50, 5.0, 100))
        assert a == b
        assert a != c

    def test_p_is_exactly_c_over_n(self):
        params = GnpParams(30, 4.2, 0)
        assert params.p == 4.2 / 30

    def test_invalid_params(self):
        with pytest.raises(GonalityError):
            GnpParams(10, 20.0, 1)  # p > 1
        with pytest.raises(GonalityError):
            GnpParams(10, -1.0, 1)
        with pytest.raises(GonalityError):
            GnpParams(10, 1.0, -5)
        with pytest.raises(GonalityError):
            GnpParams(10, 1.0, 1 << 64)

    @pytest.mark.parametrize("n", [2, 7, 9, 60, 362, 363, 400, 1000])
    def test_blocks_draw_the_one_shot_stream(self, n):
        # from n = 363 the pairs span more than one block of draws
        for c in (0.5, min(3.0, n / 2), 0.9 * n):
            for seed in (0, 2**64 - 1):
                params = GnpParams(n, c, seed)
                assert sample_gnp(params) == reference_sample_gnp(params)

    def test_memory_stays_flat_in_n(self):
        params = GnpParams(3000, 3.0, 1)
        tracemalloc.start()
        try:
            sample_gnp(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_mean_edge_count_matches_binomial(self):
        # binomial mean p * n(n-1)/2 = 0.05 * 4950 = 247.5
        total = 0
        for seed in range(1000):
            total += sample_gnp(GnpParams.from_p(100, 0.05, seed)).m
        mean = total / 1000
        assert abs(mean - 247.5) <= 0.03 * 247.5


class TestStatistics:
    def test_genus_examples(self):
        assert genus(cycle_graph(5)) == 1
        assert genus(complete_graph(4)) == 3

    def test_degeneracy_tree(self):
        g = path_graph(6)
        assert degeneracy(g) == 1
        assert min_degree(g) == 1

    def test_degree_chain_on_random_graphs(self):
        rnd = random.Random(7)
        for _ in range(50):
            n = rnd.randint(1, 10)
            g = random_graph(rnd, n, rnd.random())
            assert 0 <= min_degree(g) <= degeneracy(g) <= n - 1 or n == 1

    def test_genus_nonnegative_and_additive(self):
        rnd = random.Random(8)
        for _ in range(50):
            g = random_graph(rnd, rnd.randint(1, 10), 0.3)
            parts = connected_components(g)
            total = 0
            for comp in parts:
                sub, _ = induced_subgraph(g, comp)
                assert genus(sub) >= 0
                total += genus(sub)
            assert genus(g) == total

    def test_components_partition(self):
        g = build_graph(5, [(0, 1), (3, 4)])
        assert connected_components(g) == ((0, 1), (2,), (3, 4))

    def test_induced_subgraph_relabels(self):
        g = build_graph(5, [(1, 3), (3, 4)])
        sub, back = induced_subgraph(g, [1, 3, 4])
        assert back == (1, 3, 4)
        assert sub.edges == ((0, 1), (1, 2))


class TestSerialization:
    def test_parse_example(self):
        assert parse_graph("3 2\n0 1\n1 2") == path_graph(3)

    def test_parse_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            parse_graph("2 1\n0 0")

    def test_serialize_example(self):
        assert serialize_graph(complete_graph(3)) == "3 3\n0 1\n0 2\n1 2\n"

    def test_roundtrip_random(self):
        rnd = random.Random(5)
        for _ in range(100):
            g = random_graph(rnd, rnd.randint(0, 12), rnd.random())
            assert parse_graph(serialize_graph(g)) == g

    def test_parser_accepts_any_order(self):
        assert parse_graph("3 2\n1 2\n1 0") == path_graph(3)

    def test_malformed_header(self):
        with pytest.raises(MalformedHeaderError):
            parse_graph("")
        with pytest.raises(MalformedHeaderError):
            parse_graph("3\n0 1")
        with pytest.raises(MalformedHeaderError):
            parse_graph("a b\n0 1")

    @pytest.mark.parametrize("n", [10_001, 1_000_000_000])
    def test_header_above_the_ceiling_builds_nothing(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("build_graph ran")

        monkeypatch.setattr(graphs, "build_graph", refuse)
        with pytest.raises(MalformedHeaderError, match=f"promises {n} vertices"):
            parse_graph(f"{n} 0")

    def test_header_at_the_ceiling_is_accepted(self):
        assert parse_graph("10000 0") == Graph(10_000, ())

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeCountError):
            parse_graph("3 2\n0 1")
        with pytest.raises(EdgeCountError):
            parse_graph("3 1\n0 1\n1 2")


def test_graphs_hashable_and_immutable():
    g = complete_graph(4)
    assert hash(g) == hash(complete_graph(4))
    with pytest.raises(Exception):
        g.n = 5  # frozen dataclass


def test_numpy_pcg64_stream_is_lexicographic():
    # pair (u, v) uses draw number u*n - u(u+1)/2 + (v - u - 1); spot-check
    # that edge decisions match manual draws from the same generator
    params = GnpParams.from_p(6, 0.5, 1234)
    g = sample_gnp(params)
    rng = np.random.Generator(np.random.PCG64(1234))
    draws = rng.random(15)
    k = 0
    expected = []
    for u in range(6):
        for v in range(u + 1, 6):
            if draws[k] < params.p:
                expected.append((u, v))
            k += 1
    assert g.edges == tuple(expected)
