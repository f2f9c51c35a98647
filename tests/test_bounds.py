import hashlib
import inspect
import math
import random
import sys
import tracemalloc

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
    gonality,
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
    fill_in_width,
    grid_graph,
    random_graph,
    reference_treewidth,
    _reference_mis,
)


def _is_independent(graph: Graph, vertices) -> bool:
    return all(not (u in vertices and v in vertices) for u, v in graph.edges)


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


def _witness_corpus():
    """The connected atlas up to n = 7, then seeded G(n, p) graphs with
    n <= 12, the edgeless and disconnected ones included."""
    graphs = connected_atlas(7)
    rnd = random.Random(13)
    for n in range(13):
        for p in (0.0, 0.1, 0.3, 0.5, 0.9):
            for _ in range(2):
                graphs.append(random_graph(rnd, n, p))
    return graphs


_NAMED_GRAPHS = {
    **{f"path{n}": path_graph(n) for n in (1, 2, 7, 11)},
    **{f"cycle{n}": cycle_graph(n) for n in (3, 6, 11)},
    **{f"complete{n}": complete_graph(n) for n in (1, 2, 5, 9)},
    **{f"grid{r}x{c}": grid_graph(r, c) for r, c in ((2, 5), (3, 3), (3, 4))},
    **{f"edgeless{n}": build_graph(n, []) for n in (0, 1, 7)},
    "triangle_isolated_and_tailed_triangle": build_graph(
        9, [(0, 1), (0, 2), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6), (6, 5)]),
    "k4_square_and_isolated": build_graph(
        10, [*complete_graph(4).edges, (5, 6), (6, 7), (7, 8), (8, 5)]),
}


class TestTreewidthWitness:
    """The DP's table fixes the order read back from it and so the bags:
    the witnesses are pinned byte for byte, and checked against the
    per-(S, v) reference DP."""

    def test_witness_digest_is_pinned(self):
        digest = hashlib.sha256()
        for g in _witness_corpus():
            digest.update(serialize_tree_decomposition(treewidth_exact(g)[1]).encode())
        assert digest.hexdigest() == "b990b0ed1fd4157d0bee374044438517c516ffd7439d17f1e16520601c9e085d"

    @pytest.mark.parametrize("name", sorted(_NAMED_GRAPHS))
    def test_matches_reference_dp_on_named_graphs(self, name):
        graph = _NAMED_GRAPHS[name]
        width, bags, edges = reference_treewidth(graph)
        got_width, td = treewidth_exact(graph)
        assert got_width == width
        assert serialize_tree_decomposition(td) == serialize_tree_decomposition(
            TreeDecomposition(bags, edges))

    def test_matches_reference_dp_on_random_graphs(self):
        # one search per component must give the per-(S, v) table, bit for
        # bit, so the order read back and the bags are the reference's
        rnd = random.Random(61)
        for n in range(1, 12):
            for p in (0.1, 0.3, 0.5, 0.9):
                for _ in range(7):
                    g = random_graph(rnd, n, p)
                    width, bags, edges = reference_treewidth(g)
                    got_width, td = treewidth_exact(g)
                    assert got_width == width, g.edges
                    assert serialize_tree_decomposition(td) == serialize_tree_decomposition(
                        TreeDecomposition(bags, edges)), g.edges

    def test_dp_keeps_one_table(self):
        # a 2^14 bytearray of widths is 16 KiB; a list of 2^14 ints, or a
        # 2^14 table of neighbourhoods, would be 0.125 MiB or more
        g = path_graph(14)
        g.adjacency_bits
        tracemalloc.start()
        try:
            treewidth_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 2**20

    def test_any_order_gives_a_valid_decomposition(self):
        rnd = random.Random(53)
        for _ in range(150):
            g = random_graph(rnd, rnd.randint(1, 10), rnd.choice((0.1, 0.3, 0.5, 0.9)))
            order = list(range(g.n))
            rnd.shuffle(order)
            td = bounds._decomposition_from_order(g, order)
            report = validate_tree_decomposition(g, td)
            assert report, report.violation
            before = 0
            widths = []
            for v in order:
                widths.append(bounds._reach_through(g.adjacency_bits, before, v).bit_count())
                before |= 1 << v
            assert td.width == max(widths) == fill_in_width(g, order)


@pytest.fixture
def dp_sizes(monkeypatch):
    """The vertex counts of the graphs that ``_width_table`` runs on, in
    call order."""
    sizes = []
    kernel = bounds._width_table
    monkeypatch.setattr(bounds, "_width_table", lambda adj: sizes.append(len(adj)) or kernel(adj))
    return sizes


class TestTreewidthWidthPath:
    """``with_decomposition=False`` runs the DP per biconnected block, on
    what the simplicial and series rules leave of it, and returns the
    width alone; the per-(S, v) reference DP on the whole graph checks
    it."""

    @pytest.mark.parametrize("name", sorted(_NAMED_GRAPHS))
    def test_matches_reference_dp_on_named_graphs(self, name):
        graph = _NAMED_GRAPHS[name]
        assert treewidth_exact(graph, with_decomposition=False) == (reference_treewidth(graph)[0], None)

    def test_matches_reference_dp_on_witness_corpus(self):
        for g in _witness_corpus():
            assert treewidth_exact(g, with_decomposition=False)[0] == reference_treewidth(g)[0], g.edges

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.data())
    def test_gluing_at_a_vertex_or_by_a_bridge_keeps_the_larger_width(self, data):
        parts = [_draw_graph(data, 7) for _ in range(2)]
        a, b = (data.draw(st.integers(0, g.n - 1)) for g in parts)
        bridge = data.draw(st.booleans())
        # g2's vertices follow g1's; when glued, b becomes a and the rest close up
        n1 = parts[0].n
        label = [x if bridge or x < b else x - 1 for x in range(parts[1].n)]
        label = [n1 + x for x in label]
        if not bridge:
            label[b] = a
        edges = [*parts[0].edges, *((label[u], label[v]) for u, v in parts[1].edges)]
        if bridge:
            edges.append((a, label[b]))
        n = n1 + parts[1].n - (not bridge)
        shuffle = data.draw(st.permutations(range(n)))
        g = build_graph(n, [(shuffle[u], shuffle[v]) for u, v in edges])
        widths = [reference_treewidth(part)[0] for part in parts]
        assert treewidth_exact(g, with_decomposition=False)[0] == max(*widths, int(bridge))

    def test_empty_edgeless_and_forests(self):
        assert treewidth_exact(build_graph(0, []), with_decomposition=False) == (-1, None)
        for n in (1, 2, 9):
            assert treewidth_exact(build_graph(n, []), with_decomposition=False) == (0, None)
        assert treewidth_exact(complete_graph(2), with_decomposition=False) == (1, None)
        rnd = random.Random(71)
        for _ in range(30):
            n = rnd.randint(2, 16)
            # a random forest: each vertex joins an earlier one or starts a tree
            edges = [(rnd.randrange(v), v) for v in range(1, n) if rnd.random() < 0.8]
            g = build_graph(n, edges)
            assert treewidth_exact(g, with_decomposition=False) == (1 if edges else 0, None)

    def test_size_limits_hold_before_the_blocks(self):
        with pytest.raises(SizeLimitError, match="n <= 24, got 64"):
            treewidth_exact(path_graph(64), 64, with_decomposition=False)
        with pytest.raises(SizeLimitError):
            treewidth_exact(path_graph(17), with_decomposition=False)

    def test_path_of_twenty_four_splits_to_the_ceiling(self):
        # each of the 22 inner vertices is a cut vertex: the deepest split
        assert treewidth_exact(path_graph(24), 24, with_decomposition=False) == (1, None)

    def test_dp_runs_on_blocks_of_three_or_more(self, dp_sizes):
        # two 4-cycles sharing vertex 3, a bridge 6-7, and a triangle 7-8-9
        # hanging off it, then a pendant vertex 10 and an isolated 11: the
        # series rule takes the cycles and the simplicial rule the triangle
        g = build_graph(12, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3),
                             (6, 7), (7, 8), (8, 9), (9, 7), (9, 10)])
        assert treewidth_exact(g, with_decomposition=False) == (2, None)
        assert dp_sizes == []
        # the 3-cube has no simplicial or degree-2 vertex, so the DP sees it all
        assert treewidth_exact(_cube(), with_decomposition=False) == (3, None)
        assert dp_sizes == [8]

    def test_rules_leave_a_subdivided_cube_to_the_dp(self, dp_sizes):
        # every edge subdivided, four of them twice: one 24-vertex block
        # whose degree-2 vertices contract back to the cube
        g = _subdivided_cube()
        assert (g.n, g.m) == (24, 28)
        assert treewidth_exact(g, 24, with_decomposition=False) == (3, None)
        assert dp_sizes == [8]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_rules_match_the_reference_on_graphs_built_for_them(self, data):
        g = _draw_graph(data, 6)
        n, edges = g.n, list(g.edges)
        # subdivide some edges once or twice; a kept chord makes the last
        # contraction land on an existing edge
        for u, v in g.edges:
            k = data.draw(st.integers(0, 2))
            if k and n + k <= 12:
                path = [u, *range(n, n + k), v]
                n += k
                edges += zip(path, path[1:])
                if not data.draw(st.booleans()):
                    edges.remove((u, v))
        # pendant cliques: a new vertex joined to a clique made on old ones
        for _ in range(data.draw(st.integers(0, 2))):
            if n < 13:
                clique = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
                edges += [(u, v) for u in clique for v in clique if u < v]
                edges += [(u, n) for u in clique]
                n += 1
        shuffle = data.draw(st.permutations(range(n)))
        g = build_graph(n, sorted({tuple(sorted((shuffle[u], shuffle[v]))) for u, v in edges}))
        assert treewidth_exact(g, with_decomposition=False)[0] == reference_treewidth(g)[0], g.edges

    def test_matches_witness_path_on_connected_atlas(self):
        for g in connected_atlas(7):
            assert treewidth_exact(g, with_decomposition=False)[0] == treewidth_exact(g)[0], g.edges

    def test_twenty_four_vertices_in_small_blocks(self):
        # at the ceiling, the whole-graph DP would fill 2^24 subsets; the
        # blocks, a 2 x 6 grid (width 2) and a 3 x 4 grid (width 3) joined
        # by a bridge, need 2^12 each
        grid = [(12 + u, 12 + v) for u, v in grid_graph(3, 4).edges]
        g = build_graph(24, [*grid_graph(2, 6).edges, *grid, (11, 12)])
        assert treewidth_lower_bound(g) == 2
        assert treewidth_exact(g, 24, with_decomposition=False) == (3, None)


def _cube() -> Graph:
    return build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])


def _subdivided_cube() -> Graph:
    """The 3-cube with each edge subdivided, the first four twice."""
    n, edges = 8, []
    for i, (u, v) in enumerate(_cube().edges):
        path = [u, *range(n, n + 1 + (i < 4)), v]
        n = path[-2] + 1
        edges += zip(path, path[1:])
    return build_graph(n, edges)


def _draw_graph(data, max_n: int) -> Graph:
    """A graph on 1 to ``max_n`` vertices drawn through hypothesis's
    ``data``, connected or not."""
    n = data.draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


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

    def test_is_degeneracy(self):
        assert treewidth_lower_bound is degeneracy


class TestEggCuts:
    """``egg_cuts_reach`` is a sufficient test: where it says ``True``, the
    subset-enumeration oracle finds no cut below k.  The counts of pairs
    it still proves are pinned, so a test that never says ``True`` fails."""

    @staticmethod
    def proved(g):
        """The number of k in 1..n+1 that the test proves, each checked by
        the oracle; a proved k proves every smaller one."""
        e = brute_egg_cut(g)
        said = [egg_cuts_reach(g, k) for k in range(1, g.n + 2)]
        for k, ok in enumerate(said, 1):
            assert not ok or e is None or e >= k, (g.edges, k, e)
        assert said == sorted(said, reverse=True), (g.edges, said)
        return sum(said)

    def test_atlas(self):
        # the oracle holds on 428 of these pairs
        assert sum(self.proved(g) for g in connected_atlas(6)) == 202

    def test_random_graphs(self):
        # the oracle holds on 719 of these pairs
        rnd = random.Random(47)
        graphs = [random_graph(rnd, rnd.randint(4, 10), rnd.choice((0.3, 0.5, 0.8, 0.95))) for _ in range(150)]
        assert sum(self.proved(g) for g in graphs) == 515

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.data())
    def test_matches_oracle_property(self, data):
        self.proved(draw_connected_graph(data, 2, 8))

    def test_isolated_vertex_is_not_the_flow_source(self):
        # two K4s and an isolated vertex: the floors cannot see the empty cut
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = build_graph(9, edges + [(u + 4, v + 4) for u, v in edges])
        assert brute_egg_cut(g) == 0
        assert not egg_cuts_reach(g, 1)

    def test_no_two_disjoint_edges_means_no_cut(self):
        # a triangle has no cut with an edge on each side
        assert egg_cuts_reach(complete_graph(3), 100)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_degree_floors_settle_complete_graphs_at_their_cut(self, n):
        # the smallest cut of K_n with an edge on each side splits 2 | n - 2
        assert egg_cuts_reach(complete_graph(n), 2 * (n - 2))

    @pytest.mark.parametrize("g", [cycle_graph(6), path_graph(4), grid_graph(3, 3)], ids=["C6", "P4", "grid"])
    def test_one_edge_refutes_sparse_graphs(self, g):
        # each of these has a smallest cut around the two ends of one edge;
        # in P4 a single edge is clear of them
        assert not egg_cuts_reach(g, brute_egg_cut(g) + 1)

    def test_flows_settle_what_the_floors_leave(self):
        # two K4s joined by a perfect matching: every degree is 4, and the
        # floors reach the matching's cut of 4 and no further
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges] + [(v, v + 4) for v in range(4)]
        g = build_graph(8, edges)
        assert brute_egg_cut(g) == 4
        assert egg_cuts_reach(g, 4)
        assert not egg_cuts_reach(g, 5)
        # the known gap: a hub over the path 0-4-3-2 has no cut below
        # 3 = n - alpha, but its two degree-2 vertices hold the floors at 2
        g = build_graph(5, [(1, 0), (1, 2), (1, 3), (1, 4), (0, 4), (4, 3), (3, 2)])
        assert brute_egg_cut(g) == 3 == g.n - brute_alpha(g)
        assert not egg_cuts_reach(g, 3)
        # so the scan refutes degrees 1 and 2, and the independent set closes 3
        result = gonality(g, independent_set=maximum_independent_set(g).independent.vertices)
        assert (result.value, result.degrees_searched, result.closed_by) == (3, (1, 2, 3), "independence")
        assert result.value == gonality(g).value

    @pytest.mark.parametrize("k", ["3", 2.5, None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(GonalityError, match="egg_cuts_reach needs an integer k"):
            egg_cuts_reach(cycle_graph(5), k)


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
    """The colour-ordered search against the max-degree branch and bound it
    replaced: the same alpha wherever both finish, a flagged independent
    set wherever the budget runs out, and its own pinned node counts."""

    def test_random_graphs_every_budget(self):
        rnd = random.Random(48)
        for _ in range(200):
            g = random_graph(rnd, rnd.randint(1, 30), rnd.random())
            alpha = _reference_mis(g).alpha
            for budget in (None, 1, 3, 17):
                result = maximum_independent_set(g, budget)
                reference = _reference_mis(g, budget)
                assert _is_independent(g, result.independent.vertices)
                assert result.alpha <= alpha
                if budget is None:
                    assert result.exact and result.alpha == alpha
                else:
                    assert result.exact == (result.nodes_explored <= budget)
                    assert result.nodes_explored <= budget + 1
                if result.exact and reference.exact:
                    assert result.alpha == reference.alpha

    # (nodes explored, nodes pruned) on trials 0 and 1 at seed 0; the
    # reference explores 553, 439, 797, 857, 691 and 1079 nodes on them
    SANDWICH_COUNTS = {
        55: [(77, 38), (89, 50)],
        60: [(118, 70), (86, 42)],
        65: [(102, 68), (157, 81)],
    }

    @pytest.mark.parametrize("n", [55, 60, 65])
    def test_sandwich_series(self, n):
        for trial, counts in enumerate(self.SANDWICH_COUNTS[n]):
            g = sample_gnp(GnpParams(n, 20.0, mix_trial_seed(0, n, trial)))
            result = maximum_independent_set(g)
            assert result.exact
            assert result.alpha == _reference_mis(g).alpha
            assert _is_independent(g, result.independent.vertices)
            assert (result.nodes_explored, result.nodes_pruned) == counts

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

    def test_n_past_a_float_is_named(self):
        # c / n raised a bare OverflowError
        with pytest.raises(GonalityError, match=f"got {10**400}"):
            frieze_alpha_estimate(10**400, 5.0)
        assert frieze_alpha_estimate(10**300, 5.0) == pytest.approx(10**300 * frieze_alpha_estimate(1, 5.0))

    @pytest.mark.parametrize("n", ["3", 2.5, None])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(GonalityError, match="frieze_alpha_estimate needs an integer n"):
            frieze_alpha_estimate(n, 4.0)

    @pytest.mark.parametrize("c", ["4", None, 4 + 0j])
    def test_c_must_be_a_real_number(self, c):
        # each raised a bare TypeError from the comparison with e
        with pytest.raises(GonalityError, match="real, finite c > e"):
            frieze_alpha_estimate(100, c)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_c_is_a_domain_error(self, c):
        # a NaN passed the old c <= e check, and inf gave a NaN estimate
        with pytest.raises(GonalityError, match="finite c > e"):
            frieze_alpha_estimate(100, c)

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
