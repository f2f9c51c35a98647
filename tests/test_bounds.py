import math
import random

import pytest

from gonality import (
    EdgeCountError,
    ExperimentConfig,
    GonalityError,
    MalformedHeaderError,
    SizeLimitError,
    TreeDecomposition,
    build_graph,
    complete_graph,
    cycle_graph,
    degeneracy,
    frieze_alpha_estimate,
    maximum_independent_set,
    min_degree,
    parse_tree_decomposition,
    path_graph,
    run_experiment,
    serialize_tree_decomposition,
    treewidth_exact,
    treewidth_lower_bound,
    validate_tree_decomposition,
)
from gonality.bounds import _frieze_bracket

from oracles import brute_alpha, brute_max_clique_complement, brute_treewidth, random_graph


def grid_graph(rows, cols):
    def idx(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return build_graph(rows * cols, edges)


class TestValidator:
    def test_single_bag_is_valid(self):
        g = cycle_graph(5)
        td = TreeDecomposition((frozenset(range(5)),), ())
        report = validate_tree_decomposition(g, td)
        assert report and report.width == 4

    def test_path_decomposition(self):
        g = path_graph(4)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
            ((0, 1), (1, 2)),
        )
        report = validate_tree_decomposition(g, td)
        assert report and report.width == 1

    def test_uncovered_edge_names_property_3(self):
        g = path_graph(4)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({2}), frozenset({2, 3})),
            ((0, 1), (1, 2)),
        )
        report = validate_tree_decomposition(g, td)
        assert not report
        assert report.violation == "property 3"

    def test_missing_vertex_names_property_1(self):
        g = path_graph(3)
        td = TreeDecomposition((frozenset({0, 1}),), ())
        assert validate_tree_decomposition(g, td).violation == "property 1"

    def test_disconnected_trace_names_property_2(self):
        g = path_graph(3)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({2}), frozenset({1, 2})),
            ((0, 1), (1, 2)),
        )
        assert validate_tree_decomposition(g, td).violation == "property 2"

    def test_cyclic_tree_edges_rejected(self):
        g = path_graph(3)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({1})),
            ((0, 1), (1, 2), (2, 0)),
        )
        assert validate_tree_decomposition(g, td).violation == "tree structure"

    def test_forest_rejected(self):
        g = path_graph(3)
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ())
        assert validate_tree_decomposition(g, td).violation == "tree structure"


class TestTreewidthExact:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_paths(self, n):
        assert treewidth_exact(path_graph(n))[0] == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_graphs(self, n):
        assert treewidth_exact(complete_graph(n))[0] == n - 1

    def test_cycle_six(self):
        assert treewidth_exact(cycle_graph(6))[0] == 2

    def test_grids(self):
        assert treewidth_exact(grid_graph(2, 3))[0] == 2
        assert treewidth_exact(grid_graph(3, 3))[0] == 3

    def test_agrees_with_elimination_order_oracle(self):
        rnd = random.Random(40)
        for _ in range(25):
            g = random_graph(rnd, rnd.randint(1, 6), rnd.random())
            assert treewidth_exact(g)[0] == brute_treewidth(g)

    def test_witness_always_validates(self):
        rnd = random.Random(41)
        for _ in range(40):
            g = random_graph(rnd, rnd.randint(1, 9), rnd.random())
            width, td = treewidth_exact(g)
            report = validate_tree_decomposition(g, td)
            assert report, report.violation
            assert report.width == width

    def test_disconnected(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (4, 5)])
        width, td = treewidth_exact(g)
        assert width == 2
        assert validate_tree_decomposition(g, td)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            treewidth_exact(complete_graph(17))
        with pytest.raises(SizeLimitError):
            treewidth_exact(path_graph(10), size_limit=9)

    def test_single_vertex_and_empty(self):
        assert treewidth_exact(path_graph(1))[0] == 0
        g = build_graph(4, [])
        width, td = treewidth_exact(g)
        assert width == 0
        assert validate_tree_decomposition(g, td)


class TestTreewidthLowerBound:
    def test_complete(self):
        for n in range(2, 8):
            assert treewidth_lower_bound(complete_graph(n)) == n - 1

    def test_path(self):
        assert treewidth_lower_bound(path_graph(8)) == 1

    def test_bounded_by_exact_on_gnp_corpus(self):
        rnd = random.Random(42)
        for _ in range(100):
            g = random_graph(rnd, 12, 0.5)
            assert treewidth_lower_bound(g) <= treewidth_exact(g)[0]

    def test_chain_of_bounds(self):
        rnd = random.Random(43)
        for _ in range(60):
            n = rnd.randint(1, 12)
            g = random_graph(rnd, n, rnd.random())
            assert min_degree(g) <= treewidth_lower_bound(g) <= treewidth_exact(g)[0] <= max(n - 1, 0)

    def test_equals_degeneracy(self):
        g = grid_graph(3, 4)
        assert treewidth_lower_bound(g) == degeneracy(g) == 2


class TestMaximumIndependentSet:
    def test_complete(self):
        for n in range(1, 8):
            assert maximum_independent_set(complete_graph(n)).alpha == 1

    def test_empty_graph(self):
        g = build_graph(7, [])
        result = maximum_independent_set(g)
        assert result.alpha == 7 and result.exact

    def test_cycle_six_against_brute_force(self):
        g = cycle_graph(6)
        assert brute_alpha(g) == 3
        assert maximum_independent_set(g).alpha == 3

    def test_brute_force_agreement(self):
        rnd = random.Random(44)
        for _ in range(60):
            g = random_graph(rnd, rnd.randint(1, 10), rnd.random())
            result = maximum_independent_set(g)
            assert result.exact
            assert result.alpha == brute_alpha(g)

    def test_complement_clique_duality(self):
        rnd = random.Random(45)
        for _ in range(40):
            g = random_graph(rnd, rnd.randint(1, 10), 0.5)
            assert maximum_independent_set(g).alpha == brute_max_clique_complement(g)

    def test_result_is_independent(self):
        rnd = random.Random(46)
        for _ in range(40):
            g = random_graph(rnd, rnd.randint(2, 12), 0.4)
            vs = maximum_independent_set(g).independent.vertices
            assert all(not (u in vs and v in vs) for u, v in g.edges)

    def test_budget_truncation_flags_lower_bound(self):
        rnd = random.Random(47)
        g = random_graph(rnd, 30, 0.2)
        result = maximum_independent_set(g, budget=3)
        assert not result.exact
        vs = result.independent.vertices
        assert all(not (u in vs and v in vs) for u, v in g.edges)
        assert result.alpha <= maximum_independent_set(g).alpha


class TestFriezeEstimate:
    def test_hand_computed_value(self):
        assert frieze_alpha_estimate(100, 10) == pytest.approx(35.508, abs=5e-4)

    def test_components_of_the_formula(self):
        expected = 20 * (math.log(10) - math.log(math.log(10)) - math.log(2) + 1)
        assert frieze_alpha_estimate(100, 10) == expected

    def test_homogeneous_in_n(self):
        assert frieze_alpha_estimate(200, 10) == pytest.approx(2 * frieze_alpha_estimate(100, 10))

    def test_domain_errors(self):
        with pytest.raises(GonalityError):
            frieze_alpha_estimate(100, 2)
        with pytest.raises(GonalityError):
            frieze_alpha_estimate(100, math.e)
        with pytest.raises(GonalityError):
            frieze_alpha_estimate(0, 10)

    @pytest.mark.parametrize("c", [3.0, 4.0, 5.5, 10.0, math.sqrt(50)])
    def test_shared_bracket_is_bit_identical(self, c):
        old = math.log(c) - math.log(math.log(c)) - math.log(2.0) + 1.0
        assert _frieze_bracket(c) == old
        assert frieze_alpha_estimate(60, c) == (2.0 / (c / 60)) * old
        config = ExperimentConfig(n_list=(12,), c_spec=repr(c), trials=1, seed=3, mode="sandwich")
        summary, _ = run_experiment(config)
        assert summary.rows[0].frieze_ub_ratio == 1.0 - (2.0 / c) * old


class TestTreeDecompositionIO:
    def test_roundtrip(self):
        _, td = treewidth_exact(cycle_graph(6))
        text = serialize_tree_decomposition(td)
        back = parse_tree_decomposition(text)
        assert back.bags == td.bags and back.tree_edges == td.tree_edges

    def test_format_shape(self):
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
        assert serialize_tree_decomposition(td) == "2 1\n0 1\n1 2\n0 1\n"

    def test_empty_bag_roundtrip(self):
        _, td = treewidth_exact(build_graph(0, []))
        assert parse_tree_decomposition(serialize_tree_decomposition(td)) == td

    @pytest.mark.parametrize(
        "text, error",
        [
            ("x 1\n0\n", MalformedHeaderError),  # non-integer header
            ("-1 0\n", MalformedHeaderError),  # negative bag count
            ("2 3\n0 1\n1 2\n0 1\n", MalformedHeaderError),  # width the bags do not have
            ("1 0\na\n", EdgeCountError),  # non-integer bag
            ("2 1\n0 1\n1 2\n0 1 2\n", EdgeCountError),  # tree edge with three ends
            ("2 1\n0 1\n\n1 2\n0 1\n", EdgeCountError),  # stray blank line: one line too many
            ("2 1\n0 1\n1 2\n0 1\n1 0\n", EdgeCountError),  # trailing extra line
        ],
    )
    def test_malformed_input_raises_domain_error(self, text, error):
        with pytest.raises(error):
            parse_tree_decomposition(text)
