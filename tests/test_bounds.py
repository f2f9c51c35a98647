import inspect
import math
import random
import sys
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from gonality import (
    EdgeCountError,
    ExperimentConfig,
    GnpParams,
    Graph,
    GonalityError,
    IndependentSet,
    MISResult,
    MalformedHeaderError,
    SizeLimitError,
    TreeDecomposition,
    build_graph,
    complete_graph,
    cycle_graph,
    degeneracy,
    egg_cuts_reach,
    frieze_alpha_estimate,
    maximum_independent_set,
    min_degree,
    mix_trial_seed,
    parse_tree_decomposition,
    path_graph,
    run_experiment,
    sample_gnp,
    serialize_tree_decomposition,
    treewidth_exact,
    treewidth_lower_bound,
    validate_tree_decomposition,
)
from gonality import bounds
from gonality.bounds import _frieze_bracket

from oracles import (
    brute_alpha,
    brute_egg_cut,
    brute_max_clique_complement,
    brute_treewidth,
    connected_atlas,
    draw_connected_graph,
    random_graph,
)


def _reference_mis(graph: Graph, budget: Optional[int] = None) -> MISResult:
    """The recursive branch and bound on original labels, kept as an oracle
    for the relabelled, stack-based library search; ``pruned`` is the only
    addition."""
    n = graph.n
    adj = graph.adjacency_bits
    if n == 0:
        return MISResult(IndependentSet(frozenset()), True, 0)

    by_desc_degree = sorted(range(n), key=lambda v: (-graph.degree(v), v))

    # greedy incumbent: take vertices in ascending degree, skip conflicts
    chosen = 0
    blocked = 0
    for v in sorted(range(n), key=lambda u: (graph.degree(u), u)):
        b = 1 << v
        if not (blocked & b):
            chosen |= b
            blocked |= b | adj[v]
    best_mask = [chosen]
    best_size = [chosen.bit_count()]
    nodes = [0]
    pruned = [0]
    truncated = [False]

    def cover_bound(pool: int) -> int:
        rem = pool
        k = 0
        while rem:
            k += 1
            u = next(c for c in by_desc_degree if rem & (1 << c))
            clique = 1 << u
            inter = adj[u] & rem
            while inter:
                w = next(c for c in by_desc_degree if inter & (1 << c))
                clique |= 1 << w
                inter &= adj[w]
            rem &= ~clique
        return k

    def bb(pool: int, picked: int, size: int) -> None:
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            truncated[0] = True
            return
        if not pool:
            if size > best_size[0]:
                best_size[0] = size
                best_mask[0] = picked
            return
        if size + cover_bound(pool) <= best_size[0]:
            pruned[0] += 1
            return
        v, vdeg = -1, -1
        m = pool
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (adj[u] & pool).bit_count()
            if d > vdeg:
                vdeg = d
                v = u
            m ^= low
        b = 1 << v
        bb(pool & ~(adj[v] | b), picked | b, size + 1)
        if not truncated[0]:
            bb(pool & ~b, picked, size)

    bb((1 << n) - 1, 0, 0)
    vertices = frozenset(v for v in range(n) if best_mask[0] & (1 << v))
    return MISResult(IndependentSet(vertices), not truncated[0], nodes[0], pruned[0])


def _is_independent(graph: Graph, vertices) -> bool:
    return all(not (u in vertices and v in vertices) for u, v in graph.edges)


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

    @pytest.mark.parametrize("tree_edges", [
        ((0, 1), (1, 1)),   # self-loop
        ((0, 1), (1, 0)),   # reversed duplicate
        ((0, 1), (1, 3)),   # index k
        ((0, 1), (-1, 2)),  # index -1
        ((0, 1), (1, 2, 0)),  # three ends
        ((0, 1), (1,)),     # one end
    ])
    def test_malformed_tree_edges_name_tree_structure(self, tree_edges):
        g = path_graph(3)
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2}), frozenset({1})), tree_edges)
        report = validate_tree_decomposition(g, td)
        assert not report and report.violation == "tree structure"


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

    def test_ceiling_holds_whatever_the_limit(self):
        # refused before the 2^n tables are allocated
        with pytest.raises(SizeLimitError, match="n <= 24, got 64"):
            treewidth_exact(path_graph(64), size_limit=64)

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


class TestEggCuts:
    """``egg_cuts_reach`` against the subset-enumeration oracle."""

    @staticmethod
    def assert_matches_oracle(g):
        e = brute_egg_cut(g)
        for k in range(1, g.n + 2):
            assert egg_cuts_reach(g, k) == (e is None or e >= k), (g.edges, k, e)

    def test_atlas(self):
        for g in connected_atlas(6):
            self.assert_matches_oracle(g)

    def test_random_graphs(self):
        rnd = random.Random(47)
        for _ in range(150):
            n = rnd.randint(4, 10)
            self.assert_matches_oracle(random_graph(rnd, n, rnd.choice((0.3, 0.5, 0.8, 0.95))))

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        self.assert_matches_oracle(draw_connected_graph(data, 2, 8))

    def test_isolated_vertex_is_not_the_flow_source(self):
        # two K4s and an isolated vertex: the floors cannot see the empty cut
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = build_graph(9, edges + [(u + 4, v + 4) for u, v in edges])
        assert brute_egg_cut(g) == 0
        assert not egg_cuts_reach(g, 1)

    def test_no_two_disjoint_edges_means_no_cut(self):
        # a star and a triangle have no cut with an edge on each side
        for g in (build_graph(5, [(0, v) for v in range(1, 5)]), complete_graph(3)):
            assert egg_cuts_reach(g, 100)

    @pytest.fixture
    def no_flows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the flow stage ran")
        monkeypatch.setattr(bounds, "_disjoint_paths_reach", refuse)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_degree_floors_settle_complete_graphs_at_their_cut(self, n, no_flows):
        # the smallest cut of K_n with an edge on each side splits 2 | n - 2
        assert egg_cuts_reach(complete_graph(n), 2 * (n - 2))

    @pytest.mark.parametrize("g", [cycle_graph(6), path_graph(4), grid_graph(3, 3)], ids=["C6", "P4", "grid"])
    def test_one_edge_refutes_sparse_graphs(self, g, no_flows):
        # each of these has a smallest cut around the two ends of one edge;
        # in P4 a single edge is clear of them
        assert not egg_cuts_reach(g, brute_egg_cut(g) + 1)

    def test_flows_settle_what_the_floors_leave(self):
        # two K4s joined by a perfect matching: every edge has 4 other edges
        # at its ends, the floors stop at 3, and the matching is a cut of 4
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges] + [(v, v + 4) for v in range(4)]
        g = build_graph(8, edges)
        assert brute_egg_cut(g) == 4
        assert egg_cuts_reach(g, 4)
        assert not egg_cuts_reach(g, 5)


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

    def test_positional_construction_defaults_prunes_to_zero(self):
        result = MISResult(IndependentSet(frozenset({0})), True, 1)
        assert result.nodes_pruned == 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.data())
    def test_alpha_matches_brute_force_property(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
        result = maximum_independent_set(g)
        assert result.exact
        assert result.alpha == brute_alpha(g)
        assert _is_independent(g, result.independent.vertices)


class TestMISAgainstReference:
    """The relabelled, stack-based search visits the same nodes as the
    recursive original: same set, node count, prune count and flag."""

    @staticmethod
    def outcome(result: MISResult):
        return (result.alpha, result.independent.vertices, result.nodes_explored,
                result.exact, result.nodes_pruned)

    def test_random_graphs_every_budget(self):
        rnd = random.Random(48)
        for _ in range(200):
            g = random_graph(rnd, rnd.randint(1, 30), rnd.random())
            for budget in (None, 1, 3, 17):
                assert self.outcome(maximum_independent_set(g, budget)) == \
                    self.outcome(_reference_mis(g, budget))

    @pytest.mark.parametrize("n", [55, 60, 65])
    def test_sandwich_series(self, n):
        for trial in range(2):
            g = sample_gnp(GnpParams(n, 20.0, mix_trial_seed(0, n, trial)))
            result = maximum_independent_set(g)
            assert result.exact and result.nodes_pruned > 0
            assert self.outcome(result) == self.outcome(_reference_mis(g))

    def test_deep_sparse_search_needs_no_recursion(self):
        # the recursive search on 120 disjoint 5-cycles reaches depth 125
        # within 400 nodes; give it only 60 frames of headroom
        g = build_graph(600, [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(120) for j in range(5)])
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(len(inspect.stack()) + 60)
            with pytest.raises(RecursionError):
                _reference_mis(g, budget=400)
            result = maximum_independent_set(g, budget=400)
        finally:
            sys.setrecursionlimit(limit)
        assert not result.exact
        assert result.nodes_explored == 401
        assert _is_independent(g, result.independent.vertices)


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
