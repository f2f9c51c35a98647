import functools
import hashlib
import random
import tracemalloc
from types import SimpleNamespace
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gonality import (
    BudgetExceededError,
    CertificateError,
    Divisor,
    FiringScript,
    GonalityError,
    NotIndependentError,
    PositiveRankCertificate,
    apply_firing,
    build_graph,
    certify_independence_bound,
    complement_divisor,
    complete_graph,
    cycle_graph,
    degeneracy,
    egg_cuts_reach,
    gonality,
    has_positive_rank,
    induced_subgraph,
    maximum_independent_set,
    min_degree,
    path_graph,
    q_reduce,
    serialize_certificate,
    treewidth_exact,
    verify_certificate,
)
from gonality import search
from gonality.divisors import _positive_rank_scripts, _reduce_chips

from oracles import (
    brute_alpha,
    brute_egg_cut,
    brute_gonality,
    brute_positive_rank,
    connected_atlas,
    draw_connected_graph,
    is_q_reduced,
    random_connected_graph,
    random_graph,
)


def petersen():
    return build_graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)],
    )


class TestGonalityValues:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_complete_graphs(self, n):
        assert gonality(complete_graph(n)).value == n - 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_paths_are_gonality_one(self, n):
        assert gonality(path_graph(n)).value == 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles(self, n):
        assert gonality(cycle_graph(n)).value == 2

    def test_cycle_value_against_brute_force(self):
        for n in (3, 4, 5):
            assert brute_gonality(cycle_graph(n)) == 2

    def test_path_value_against_brute_force(self):
        assert brute_gonality(path_graph(4)) == 1

    def test_random_graphs_against_brute_force(self):
        rnd = random.Random(30)
        for _ in range(12):
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            assert gonality(g, with_certificate=False).value == brute_gonality(g)

    def test_complete_bipartite(self):
        k23 = build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert gonality(k23).value == 2

    def test_petersen(self):
        result = gonality(petersen())
        assert result.value == 4
        assert verify_certificate(petersen(), result.certificate)

    def test_single_vertex_convention(self):
        result = gonality(path_graph(1))
        assert result.value == 0 and result.certificate is None

    def test_disconnected_additive(self):
        # two triangles and an isolated vertex: 2 + 2 + 0
        g = build_graph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert gonality(g).value == 4

    def test_empty_graph_is_zero(self):
        g = build_graph(5, [])
        assert gonality(g).value == 0

    def test_trees_iff_gonality_one_up_to_six_vertices(self):
        for g in connected_atlas(6):
            if g.n < 2:
                continue
            is_tree = g.m == g.n - 1
            assert (gonality(g).value == 1) == is_tree


class TestGonalityResult:
    def test_certificate_degree_matches_value(self):
        rnd = random.Random(31)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.5)
            result = gonality(g)
            assert result.certificate.divisor.degree == result.value
            assert verify_certificate(g, result.certificate)

    def test_degrees_searched_audit(self):
        result = gonality(cycle_graph(5))
        assert result.degrees_searched == (1, 2)
        assert result.degrees_searched[0] == 1

    def test_witness_is_lex_smallest(self):
        rnd = random.Random(32)
        for _ in range(15):
            g = random_connected_graph(rnd, rnd.randint(3, 7), 0.5)
            result = gonality(g)
            winners = [
                chips
                for chips in _scalar_reduced_candidates(g, result.value)
                if has_positive_rank(g, Divisor(chips))
            ]
            assert result.certificate.divisor.chips == min(winners)

    def test_witnesses_are_zero_where_the_divisor_holds_a_chip(self):
        rnd = random.Random(35)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.5)
            cert = gonality(g).certificate
            for v, c in enumerate(cert.divisor.chips):
                if c > 0:
                    assert cert.witnesses[v].fires == (0,) * g.n

    def test_certificate_flag_does_not_change_the_search(self):
        rnd = random.Random(36)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.5)
            mis = maximum_independent_set(g).independent.vertices
            for kwargs in ({}, {"lower_bound": treewidth_exact(g)[0], "independent_set": mis}):
                bare = gonality(g, with_certificate=False, **kwargs)
                full = gonality(g, with_certificate=True, **kwargs)
                assert bare.certificate is None
                assert (bare.value, bare.degrees_searched) == (full.value, full.degrees_searched)

    def test_budget_exhaustion_is_distinct(self):
        g = complete_graph(6)
        with pytest.raises(BudgetExceededError) as info:
            gonality(g, budget=2)
        # degree 1 has a single candidate, so it was refuted before the
        # degree-2 scan blew the budget
        assert info.value.degrees_refuted == (1,)

    def test_bound_accelerators_do_not_change_value(self):
        rnd = random.Random(33)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(3, 8), 0.5)
            plain = gonality(g)
            tw = treewidth_exact(g)[0]
            mis = maximum_independent_set(g)
            fast = gonality(g, lower_bound=tw, independent_set=mis.independent.vertices)
            assert fast.value == plain.value
            if fast.certificate is not None:
                assert verify_certificate(g, fast.certificate)

    def test_sandwich_and_valence_bounds_on_atlas(self):
        for g in connected_atlas(6):
            if g.n < 2:
                continue
            value = gonality(g).value
            assert treewidth_exact(g)[0] <= value
            assert value <= g.n - maximum_independent_set(g).alpha
            assert value >= min_degree(g)


def octahedron():
    # K_{2,2,2}: every pair adjacent except the antipodes v, v + 3
    return build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3])


class TestScrambleClosure:
    """The edge-scramble bound closes the search at n - alpha before any scan."""

    def test_bound_and_closure_on_atlas(self):
        closed = 0
        for g in connected_atlas(6):
            if g.n < 2:
                continue
            value = brute_gonality(g)
            e = brute_egg_cut(g)
            bound = g.n - brute_alpha(g) if e is None else min(g.n - brute_alpha(g), e)
            assert bound <= value
            result = gonality(g, independent_set=maximum_independent_set(g).independent.vertices)
            assert result.value == value
            if result.closed_by == "scramble":
                closed += 1
                assert bound == value
                assert result.degrees_searched == (value,) == (result.degrees_searched[0],)
                assert verify_certificate(g, result.certificate)
        assert closed > 20

    def test_closed_values_equal_the_scan(self):
        rnd = random.Random(39)
        closed = 0
        for _ in range(120):
            g = random_connected_graph(rnd, rnd.randint(4, 10), rnd.choice((0.3, 0.5, 0.8, 0.95)))
            scan = gonality(g, with_certificate=False).value
            mis = maximum_independent_set(g).independent.vertices
            for lower_bound in (1, treewidth_exact(g)[0]):
                result = gonality(g, with_certificate=False, lower_bound=lower_bound, independent_set=mis)
                assert result.value == scan
                closed += result.closed_by == "scramble"
        assert closed > 40

    def test_octahedron_needs_a_maximum_set(self):
        # the cuts reach n - |{0}| = 5, but alpha is 2 and gon = tw = 4
        g = octahedron()
        assert egg_cuts_reach(g, 5)
        result = gonality(g, independent_set=frozenset({0}))
        assert result.value == 4 and result.closed_by == "scan"
        result = gonality(g, independent_set=frozenset({0, 3}))
        assert result.value == 4 and result.closed_by == "scramble"
        assert result.degrees_searched == (4,) and result.degrees_searched[0] == 4

    def test_closed_by_names_each_path(self):
        k4 = complete_graph(4)
        assert gonality(cycle_graph(5)).closed_by == "scan"
        assert gonality(k4, independent_set=frozenset({0})).closed_by == "scramble"
        assert gonality(k4, lower_bound=3, independent_set=frozenset({0})).closed_by == "independence"
        assert gonality(build_graph(4, [(0, 1), (2, 3)])).closed_by == "components"
        assert gonality(build_graph(1, [])).closed_by == "components"

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_every_emitted_certificate_verifies_and_agrees(self, data):
        g = draw_connected_graph(data, 2, 7)
        # an independent set, maximum or not: greedy over a drawn order
        order = data.draw(st.permutations(range(g.n)))
        chosen: set[int] = set()
        for v in order[:data.draw(st.integers(1, g.n))]:
            if not g.adjacency[v] & chosen:
                chosen.add(v)
        lower_bound = data.draw(st.sampled_from((1, treewidth_exact(g)[0])))
        values = set()
        for kwargs in ({}, {"lower_bound": lower_bound, "independent_set": frozenset(chosen)}):
            result = gonality(g, **kwargs)
            assert result.certificate.divisor.degree == result.value
            assert verify_certificate(g, result.certificate)
            values.add(result.value)
        assert len(values) == 1


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def p3_and_k5():
    return build_graph(8, [(0, 1), (1, 2)] + [(u, v) for u in range(3, 8) for v in range(u + 1, 8)])


def p3_and_grid():
    """P3 on 0..2 beside the 3x3 grid on 3..11 (degeneracy 2, gonality 3)."""
    grid = [(3 + 3 * i + j, 3 + 3 * i + j + 1) for i in range(3) for j in range(2)]
    grid += [(3 + 3 * i + j, 3 + 3 * (i + 1) + j) for i in range(2) for j in range(3)]
    return build_graph(12, sorted([(0, 1), (1, 2)] + grid))


def disjoint_union(parts, rnd: Optional[random.Random] = None):
    """The parts side by side, their labels shuffled by ``rnd`` so that the
    components interleave, and each part's vertices in the union."""
    n = sum(p.n for p in parts)
    label = list(range(n))
    if rnd is not None:
        rnd.shuffle(label)
    edges, comps, offset = [], [], 0
    for p in parts:
        edges += [tuple(sorted((label[offset + u], label[offset + v]))) for u, v in p.edges]
        comps.append(sorted(label[offset:offset + p.n]))
        offset += p.n
    return build_graph(n, sorted(edges)), comps


@functools.lru_cache(maxsize=256)
def _brute_gonality(g):
    return 0 if g.n == 1 else brute_gonality(g)


@st.composite
def component_unions(draw):
    """2 to 4 components of at most 6 vertices: K2, stars, paths, cliques
    and drawn connected graphs, shuffled together."""
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(("k2", "star", "path", "clique", "drawn", "vertex")))
        if kind == "k2":
            parts.append(complete_graph(2))
        elif kind == "star":
            parts.append(star_graph(draw(st.integers(2, 5))))
        elif kind == "path":
            parts.append(path_graph(draw(st.integers(3, 6))))
        elif kind == "clique":
            parts.append(complete_graph(draw(st.integers(3, 5))))
        elif kind == "drawn":
            parts.append(draw_connected_graph(SimpleNamespace(draw=draw), 2, 6))
        else:
            parts.append(path_graph(1))
    return disjoint_union(parts, random.Random(draw(st.integers(0, 2**32 - 1))))


def _accelerators(g, data):
    """The default call's keywords, or a drawn accelerated call's: I maximum
    or greedy over a drawn order, with or without the exact treewidth."""
    if data.draw(st.booleans()):
        independent = maximum_independent_set(g).independent.vertices
    else:
        independent = set()
        for v in data.draw(st.permutations(range(g.n))):
            if not g.adjacency[v] & independent:
                independent.add(v)
    tw = treewidth_exact(g, 24, with_decomposition=False)[0]
    return data.draw(st.sampled_from((
        {},
        {"independent_set": frozenset(independent)},
        {"lower_bound": max(1, tw)},
        {"lower_bound": max(1, tw), "independent_set": frozenset(independent)},
    )))


def _component_calls(g, comps, kwargs):
    """Each component's subgraph and the keywords of its own call: I ∩ C
    (empty in the default call) and the floor max(1, degeneracy(C))."""
    independent = kwargs.get("independent_set", frozenset())
    for comp in sorted(comps):
        sub = induced_subgraph(g, comp)[0]
        own = {"lower_bound": max(1, degeneracy(sub)),
               "independent_set": {i for i, v in enumerate(comp) if v in independent}}
        yield comp, sub, own


class TestComponentAccelerators:
    """Each component C is searched with the set I ∩ C and the floor
    max(1, degeneracy(C)), in the default call with I empty."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(component_unions(), st.data())
    def test_values_and_each_components_degrees(self, union, data):
        g, comps = union
        kwargs = _accelerators(g, data)
        result = gonality(g, **kwargs)
        assert result.certificate is None and result.closed_by == "components"
        assert result.value == gonality(g).value
        assert result.value == sum(_brute_gonality(induced_subgraph(g, c)[0]) for c in comps)
        searched = []
        for _, sub, own in _component_calls(g, comps, kwargs):
            part = gonality(sub, with_certificate=False, **own)
            assert all(d >= own["lower_bound"] for d in part.degrees_searched)
            searched += part.degrees_searched
        assert result.degrees_searched == tuple(searched)

    def test_default_call_starts_each_component_at_its_floor(self):
        # K5's floor is its degeneracy 4; the 3x3 grid's is 2, below its 3
        g = p3_and_k5()
        I = maximum_independent_set(g).independent.vertices
        assert gonality(g).degrees_searched == gonality(g, independent_set=I).degrees_searched == (1, 4)
        assert gonality(p3_and_grid()).degrees_searched == (1, 2, 3)

    def test_clique_beside_an_edge_is_closed_at_its_floor(self):
        # with I empty, K16's degree 15 would be scanned
        g, _ = disjoint_union([complete_graph(16), complete_graph(2)])
        result = gonality(g, independent_set=maximum_independent_set(g).independent.vertices)
        assert (result.value, result.degrees_searched) == (16, (15, 1))

    def test_edges_and_stars_build_no_scan(self, monkeypatch):
        g, _ = disjoint_union([complete_graph(2), star_graph(3), star_graph(5), path_graph(1)], random.Random(7))
        I = maximum_independent_set(g).independent.vertices
        monkeypatch.setattr(search, "_Scan", None)
        assert gonality(g, independent_set=I).value == 3
        with pytest.raises(TypeError):
            gonality(g)

    def test_budget_names_the_component_and_keeps_the_finished_degrees(self):
        # P3's closing degree 1, then the grid's refuted degree 2
        with pytest.raises(BudgetExceededError, match=r"vertices \[3, 4, 5, 6, 7, 8, 9, 10, 11\]") as info:
            gonality(p3_and_grid(), 9)
        assert info.value.degrees_refuted == (1, 2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(component_unions(), st.data())
    def test_refuted_degrees_prefix_the_unbudgeted_search(self, union, data):
        g, comps = union
        kwargs = _accelerators(g, data)
        searched = gonality(g, with_certificate=False, **kwargs).degrees_searched
        budget = data.draw(st.integers(0, 12))
        try:
            gonality(g, budget, with_certificate=False, **kwargs)
        except BudgetExceededError as exc:
            assert searched[:len(exc.degrees_refuted)] == exc.degrees_refuted
            # the finished components' degrees, then the failing one's
            done = []
            for comp, sub, own in _component_calls(g, comps, kwargs):
                try:
                    done += gonality(sub, budget, with_certificate=False, **own).degrees_searched
                except BudgetExceededError as part:
                    assert f"vertices {comp}" in str(exc)
                    assert exc.degrees_refuted == (*done, *part.degrees_refuted)
                    break
            else:
                pytest.fail("no component ran out of the budget alone")


@st.composite
def pendant_trees(draw):
    """A drawn connected graph of 1 to 5 vertices with 1 to 4 vertices hung
    on it as trees, each on an earlier vertex, its labels shuffled so that
    vertex 0 sometimes lands on a tree."""
    base = draw_connected_graph(SimpleNamespace(draw=draw), 1, 5)
    n = base.n + draw(st.integers(1, 4))
    edges = [*base.edges, *((draw(st.integers(0, v - 1)), v) for v in range(base.n, n))]
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


class TestTwoCore:
    """A value call on a connected graph with a leaf searches its 2-core,
    or an edge where the graph is a tree: deleting a leaf leaves gonality
    unchanged while two vertices remain."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(pendant_trees(), st.booleans())
    def test_value_call_equals_brute_force_and_the_certificate_call(self, g, accelerated):
        fast = {}
        if accelerated:
            fast = {"lower_bound": treewidth_exact(g)[0],
                    "independent_set": maximum_independent_set(g).independent.vertices}
        real, scanned = search._Scan, []
        search._Scan = lambda graph, *rest: scanned.append(graph) or real(graph, *rest)
        try:
            value = gonality(g, with_certificate=False, **fast).value
        finally:
            search._Scan = real
        assert all(min(s.degrees) >= 2 or s.n == 2 for s in scanned)
        assert value == brute_gonality(g) == gonality(g, **fast).value

    def test_long_path_is_an_edge(self):
        assert gonality(path_graph(2000), with_certificate=False) == search.GonalityResult(1, None, (1,))


class TestValueCallOrder:
    """A value call scans the graph relabelled max-degree-first, ties by
    label, and a certificate call scans the graph in its own labels; both
    give the value."""

    def test_both_calls_equal_brute_force(self, monkeypatch):
        # every connected graph of up to six vertices, then random graphs
        # that have a leaf or are disconnected
        graphs = connected_atlas(6)
        rnd, total = random.Random(48), len(graphs) + 60
        while len(graphs) < total:
            g = random_graph(rnd, rnd.randint(2, 7), rnd.choice((0.2, 0.3, 0.5)))
            if 1 in g.degrees or not g.is_connected():
                graphs.append(g)
        real, scanned = search._Scan, []
        monkeypatch.setattr(search, "_Scan", lambda graph, *rest: scanned.append(graph) or real(graph, *rest))
        for g in graphs:
            brute = sum(_brute_gonality(induced_subgraph(g, c)[0]) for c in g.components)
            scanned.clear()
            assert gonality(g, with_certificate=False).value == brute, g.edges
            assert all(list(s.degrees) == sorted(s.degrees, reverse=True) for s in scanned)
            scanned.clear()
            assert gonality(g).value == brute, g.edges
            if g.is_connected():
                assert all(s is g for s in scanned)


class TestPositiveRankAgainstBaseZero:
    """The scan's test reduces ``D - v`` at v; the reference reduces it at 0."""

    @staticmethod
    def base_zero_reference(g, d):
        return all(q_reduce(g, d.minus_vertex(v)).chips[0] >= 0 for v in range(g.n))

    def test_every_stable_candidate_up_to_eight_vertices(self):
        rnd = random.Random(37)
        checked = 0
        for _ in range(24):
            g = random_connected_graph(rnd, rnd.randint(2, 8), rnd.choice((0.3, 0.5, 0.8)))
            for deg in range(1, g.n + 1):
                for chips in _scalar_reduced_candidates(g, deg):
                    d = Divisor(chips)
                    assert has_positive_rank(g, d) == self.base_zero_reference(g, d)
                    checked += 1
        assert checked > 1000

    def test_brute_force_agrees_up_to_five_vertices(self):
        rnd = random.Random(38)
        for _ in range(8):
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            for deg in range(1, g.n + 1):
                for chips in _scalar_reduced_candidates(g, deg):
                    expected = brute_positive_rank(g, chips)
                    assert has_positive_rank(g, Divisor(chips)) == expected


# -- scalar reference scan ----------------------------------------------------
# The one-candidate-at-a-time scan that the batched kernel replaced, copied
# unchanged apart from the ``_scalar_`` names, as the oracle for it.

def _assignments(caps: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """All vectors with given per-slot caps and exact sum, ascending lex order."""
    n = len(caps)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    out = [0] * n

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if remaining == 0:
                yield tuple(out)
            return
        low = max(0, remaining - suffix[i + 1])
        high = min(caps[i], remaining)
        for val in range(low, high + 1):
            out[i] = val
            yield from rec(i + 1, remaining - val)

    if 0 <= total <= suffix[0]:
        yield from rec(0, total)


def _scalar_reduced_candidates(graph, d: int, budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """q-reduced effective divisors of degree d with >= 1 chip at base 0.

    Yielded in ascending lexicographic chip order.  Off-base entries are
    bounded by valence - 1 (necessary for Dhar stability); each surviving
    vector is confirmed stable by a burning pass.  ``budget`` caps the
    vectors enumerated, counted before the burning pass.
    """
    caps = [d - 1] + [graph.degree(v) - 1 for v in range(1, graph.n)]
    count = 0
    for rest in _assignments(caps, d - 1):
        count += 1
        if budget is not None and count > budget:
            raise BudgetExceededError(
                f"degree-{d} scan exceeded budget of {budget} candidates"
            )
        chips = (rest[0] + 1, *rest[1:])
        if is_q_reduced(graph, chips, 0):
            yield chips


def _scalar_scan_degree(graph, d: int,
                        budget: Optional[int]) -> Optional[tuple[tuple[int, ...], list[list[int]]]]:
    """First positive-rank q-reduced divisor of degree d in lex order, with
    its witness scripts, if any."""
    for chips in _scalar_reduced_candidates(graph, d, budget):
        scripts = _positive_rank_scripts(graph, chips)
        if scripts is not None:
            return chips, scripts
    return None


def _search_outcome(call):
    """A gonality call's result with its certificate's text, or its budget
    error's text and refuted degrees."""
    try:
        res = call()
    except BudgetExceededError as exc:
        return str(exc), exc.degrees_refuted
    cert = None if res.certificate is None else serialize_certificate(res.certificate)
    # the first degree searched, or 1 where none was: the digests were pinned with it
    first = res.degrees_searched[0] if res.degrees_searched else 1
    return res.value, res.degrees_searched, first, res.closed_by, cert


def _outcome(call):
    try:
        return call()
    except BudgetExceededError as exc:
        return "budget", str(exc)


@functools.lru_cache(maxsize=None)
def _scalar_outcomes(g, d, budget):
    return (_outcome(lambda: _scalar_scan_degree(g, d, budget)),
            _outcome(lambda: list(_scalar_reduced_candidates(g, d, budget))))


def _batched_outcomes(g, d, budget):
    scan = search._Scan(g, g.n, budget)
    return (_outcome(lambda: search._scan_degree(scan, d)),
            _outcome(lambda: [tuple(r) for c in search._candidate_chunks(scan, d)
                              for r in c[search._burn(g, c, 0)[0].all(axis=1)].tolist()]))


def _oracle_corpus():
    graphs = [g for g in connected_atlas(6) if g.n >= 2]
    rnd = random.Random(39)
    for _ in range(60):
        graphs.append(random_connected_graph(rnd, rnd.randint(2, 10), rnd.choice((0.3, 0.5, 0.9))))
    return graphs


_ORACLE_BUDGETS = (None, 1, 2, 3, 17, 500)


class TestBatchedScanAgainstScalar:
    """The batched kernel returns what the scalar scan returned: the same
    hit and scripts, the same Dhar-filtered candidates, or the same budget
    error.  Chunk size 7 batches every degree, those with few candidates
    too, and runs the multi-chunk path on every degree past the first few."""

    @pytest.mark.parametrize("chunk", [search._CHUNK_ROWS, 7])
    def test_every_degree_and_budget(self, chunk, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_ROWS", chunk)
        if chunk == 7:
            monkeypatch.setattr(search, "_FEW_CANDIDATES", 0)
        hits = budget_errors = 0
        for g in _oracle_corpus():
            for d in range(1, g.n + 1):
                for budget in _ORACLE_BUDGETS:
                    expected = _scalar_outcomes(g, d, budget)
                    assert _batched_outcomes(g, d, budget) == expected, (g.edges, d, budget)
                    hits += expected[0] is not None and expected[0][0] != "budget"
                    budget_errors += expected[0] is not None and expected[0][0] == "budget"
        assert hits > 1000 and budget_errors > 1000

    def test_chunks_are_bounded_and_in_lex_order(self, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_ROWS", 7)
        rnd = random.Random(40)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 9), 0.6)
            for d in range(1, g.n + 1):
                chunks = list(search._candidate_chunks(search._Scan(g, g.n, None), d))
                assert all(1 <= len(c) <= 7 for c in chunks)
                rows = [tuple(r) for c in chunks for r in c.tolist()]
                caps = [d - 1] + [g.degree(v) - 1 for v in range(1, g.n)]
                assert rows == [(r[0] + 1, *r[1:]) for r in _assignments(caps, d - 1)]

    @pytest.mark.parametrize("slots", [1, 3])
    def test_tables_over_the_last_slots_only(self, slots, monkeypatch):
        # blocks grow one slot at a time until they reach the tabled slots
        monkeypatch.setattr(search, "_CHUNK_ROWS", 7)
        monkeypatch.setattr(search, "_TABLE_SLOTS", slots)
        monkeypatch.setattr(search, "_FEW_CANDIDATES", 0)
        for g in _oracle_corpus()[::4]:
            for d in range(1, g.n + 1):
                for budget in _ORACLE_BUDGETS:
                    assert _batched_outcomes(g, d, budget) == _scalar_outcomes(g, d, budget), (g.edges, d, budget)

    @pytest.mark.parametrize("chunk, budget", [(2048, None), (7, None), (2048, 5), (7, 0)])
    def test_tables_hold_no_block_larger_than_a_chunk(self, chunk, budget, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_ROWS", chunk)
        rnd = random.Random(41)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 9), 0.6)
            scan = search._Scan(g, g.n, budget)
            scan.tables()
            caps = [g.n - 1] + [g.degree(v) - 1 for v in range(1, g.n)]
            most, held = (chunk if budget is None else min(chunk, budget)), 0
            for i in range(g.n):
                for r in range(g.n):
                    count = len(list(_assignments(caps[i:], r)))
                    if 0 < count <= most:
                        rows = scan.table[scan.starts[i, r]:scan.starts[i, r] + count, i:]
                        assert [tuple(row) for row in rows.tolist()] == list(_assignments(caps[i:], r))
                        held += count
            assert held == len(scan.table)  # no other block, so none above a chunk

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.data())
    def test_batched_and_scalar_kernels_agree_property(self, data):
        n = data.draw(st.integers(2, 8))
        # a random spanning tree keeps the graph connected; extra edges on top
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        extra = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges |= {e for e, keep in zip(pairs, extra) if keep}
        g = build_graph(n, sorted(edges))
        d = data.draw(st.integers(1, n))
        budget = data.draw(st.one_of(st.none(), st.integers(0, 60)))
        chunk = data.draw(st.sampled_from((1, 2, 5, search._CHUNK_ROWS)))
        few = data.draw(st.sampled_from((0, search._FEW_CANDIDATES)))
        saved = search._CHUNK_ROWS, search._FEW_CANDIDATES
        search._CHUNK_ROWS, search._FEW_CANDIDATES = chunk, few
        try:
            assert _batched_outcomes(g, d, budget) == _scalar_outcomes(g, d, budget)
        finally:
            search._CHUNK_ROWS, search._FEW_CANDIDATES = saved


class TestSmallDegreeRoute:
    """A degree with at most ``_FEW_CANDIDATES`` candidates is enumerated
    in plain Python and skips the batched scan.  With every degree sent
    either way, each call ends the same: the same value, degrees, closure
    and certificate bytes, or the same budget error and refuted degrees.
    Every third connected graph of up to seven vertices, and a few larger
    ones, at each budget from 0 to 40."""

    def test_both_routes_end_every_call_alike(self, monkeypatch):
        graphs = [g for g in connected_atlas(7) if g.n >= 2][::3]
        rnd = random.Random(45)
        graphs += [random_connected_graph(rnd, rnd.randint(8, 10), rnd.choice((0.3, 0.5, 0.9))) for _ in range(20)]
        routes = []
        for few in (0, 10**9):
            monkeypatch.setattr(search, "_FEW_CANDIDATES", few)
            routes.append([_search_outcome(lambda: gonality(g, budget)) for g in graphs for budget in (None, *range(41))])
        assert routes[0] == routes[1]
        assert sum(len(o) == 2 for o in routes[0]) > 3000  # budget errors


class TestVerifyCertificate:
    @pytest.mark.parametrize("cut", ["divisor", "witnesses", "script"])
    def test_wrong_length_is_invalid_not_an_error(self, cut):
        cert = gonality(complete_graph(4)).certificate
        if cut == "divisor":
            cert = PositiveRankCertificate(Divisor(cert.divisor.chips[:-1]), cert.witnesses)
        elif cut == "witnesses":
            cert = PositiveRankCertificate(cert.divisor, cert.witnesses[:-1])
        else:
            short = FiringScript(cert.witnesses[2].fires[:-1])
            cert = PositiveRankCertificate(cert.divisor, (*cert.witnesses[:2], short, *cert.witnesses[3:]))
        assert verify_certificate(complete_graph(4), cert) is False

    @pytest.mark.parametrize("bad", [1.5, "1", None])
    @pytest.mark.parametrize("where", ["divisor", "script"])
    def test_non_integer_entry_is_invalid_not_an_error(self, where, bad):
        g = complete_graph(4)
        cert = gonality(g).certificate
        if where == "divisor":
            cert = PositiveRankCertificate(Divisor((bad, *cert.divisor.chips[1:])), cert.witnesses)
        else:
            fires = FiringScript((bad, *cert.witnesses[2].fires[1:]))
            cert = PositiveRankCertificate(cert.divisor, (*cert.witnesses[:2], fires, *cert.witnesses[3:]))
        assert verify_certificate(g, cert) is False


class TestRefutationKernel:
    """``search._refutes`` against the scalar reduction: a (row D, chip-free
    v) pair it refutes reduces at base v with v still in debt."""

    @staticmethod
    def check_pairs(g, rows):
        """Refute every chip-free pair of ``rows``, check each refuted one,
        and count the pairs refuted and those the first burn alone refutes."""
        row, v = np.nonzero(rows == 0)
        refuted = search._refutes(g, rows[row], v)
        for r, u in zip(row[refuted].tolist(), v[refuted].tolist()):
            rest = rows[r].tolist()
            rest[u] = -1
            assert _reduce_chips(g, rest, u)[u] < 0, (g.edges, rows[r].tolist(), u)
        one_burn = search._burn(g, rows[row], v)[0].all(axis=1)
        assert not (one_burn & ~refuted).any()  # the second round only adds
        return int(refuted.sum()), int(one_burn.sum())

    def test_every_candidate_pair_on_random_graphs(self):
        # every q-reduced candidate of each degree from 1, while the graph's
        # rows so far stay below 400, and every chip-free vertex of each
        rnd = random.Random(46)
        refuted = first_burn = 0
        for n in range(2, 17):
            for p in (0.3, 0.5, 0.9):
                g = random_connected_graph(rnd, n, p)
                scan, seen = search._Scan(g, g.n, None), 0
                for d in range(1, g.n):
                    if seen >= 400:
                        break
                    for chunk in search._candidate_chunks(scan, d):
                        rows = chunk[search._burn(g, chunk, 0)[0].all(axis=1)]
                        seen += len(rows)
                        a, b = self.check_pairs(g, rows)
                        refuted, first_burn = refuted + a, first_burn + b
        assert first_burn > 100_000 and refuted > first_burn + 2000

    def test_q_check_after_refutation_keeps_the_rows_of_the_check_before(self):
        # the rows _unrefuted leaves that are q-reduced by definition are the
        # rows of q-reducing first and then refuting, in the same order
        rnd = random.Random(47)
        kept = dropped = 0
        for n in range(2, 17):
            for p in (0.3, 0.5, 0.9):
                g = random_connected_graph(rnd, n, p)
                scan, seen = search._Scan(g, g.n, None), 0
                for d in range(1, g.n):
                    if seen >= 400:
                        break
                    before = []
                    for chunk in search._candidate_chunks(scan, d):
                        seen += len(chunk)
                        rows = chunk[[is_q_reduced(g, r, 0) for r in chunk.tolist()]]
                        row, v = np.nonzero(rows == 0)
                        refuted = np.zeros(len(rows), dtype=bool)
                        refuted[row[search._refutes(g, rows[row], v)]] = True
                        before += map(tuple, rows[~refuted].tolist())
                    left = list(search._unrefuted(scan, d))
                    assert [r for r in left if is_q_reduced(g, r, 0)] == before, (g.edges, d)
                    kept, dropped = kept + len(before), dropped + len(left) - len(before)
        assert kept > 900 and dropped > 2000  # rows past refutation that the q-check drops

    def test_fire_wider_than_the_scan_dtype(self):
        # K14 less the edges from 0, bar 0-1: the burn from 0 lights 1 only,
        # and the other twelve fire 11 times, 132 chips onto 1, past int8
        g = build_graph(14, [(u, w) for u in range(14) for w in range(u + 1, 14) if u >= 1 or w == 1])
        chips = [0, 0] + [11] * 12
        rows = np.array([chips], dtype=search._Scan(g, g.n, None).dtype)
        assert rows.dtype == np.int8
        burnt, held = search._burn(g, rows, 0)
        assert burnt[0].tolist() == [True, True] + [False] * 12 and held[0, 2:].tolist() == [1] * 12
        assert not search._refutes(g, rows, np.array([0]))[0]
        assert _reduce_chips(g, [-1] + chips[1:], 0)[0] >= 0
        assert self.check_pairs(g, rows) == (0, 0)


class TestScanOutcomesDigest:
    """sha256 digests over 300 seeded connected graphs (n 2 to 12), each
    searched as is and with exact treewidth and a maximum independent set:
    a result, or a budget error's text and refuted degrees."""

    @staticmethod
    def digest(calls) -> str:
        rnd = random.Random(44)
        h = hashlib.sha256()
        for _ in range(300):
            g = random_connected_graph(rnd, rnd.randint(2, 12), rnd.choice((0.2, 0.4, 0.6, 0.9)))
            fast = {"lower_bound": treewidth_exact(g)[0],
                    "independent_set": maximum_independent_set(g).independent.vertices}
            for call in calls(g, fast):
                h.update(repr(_search_outcome(call)).encode())
        return h.hexdigest()

    def test_certificate_calls_match_their_pinned_digest(self):
        """Each certificate is the lex-first hit on the graph itself.  The
        digest is that of the scan that grew each degree's candidates slot
        by slot with no per-graph tables, and of every scan since."""
        digest = self.digest(lambda g, fast: (lambda: gonality(g), lambda: gonality(g, **fast)))
        assert digest == "9053f29603fa1433d8c1d0dd8ca4d7fddf17d5d94d909a0242684b8ecf534ac3"

    def test_value_calls_and_budgets_match_their_pinned_digest(self):
        """The value calls, and the value call at every budget from 0 to 40.
        A value call searches the 2-core of a graph with a pendant vertex,
        so its degrees, closure and budget are the core's."""
        def calls(g, fast):
            yield lambda: gonality(g, with_certificate=False)
            yield lambda: gonality(g, with_certificate=False, **fast)
            for budget in range(41):
                yield lambda: gonality(g, budget, with_certificate=False)

        assert self.digest(calls) == "25dcd141dd2b3a575c3cca8449ac645eda035fc2fba57f2bbe192705318d3997"


class TestScanAllocation:
    """Rows past the budget are never built, so a budgeted scan of a huge
    degree allocates next to nothing: about 0.2 MiB here, where one full
    chunk of K40 rows would take about 1 MiB."""

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                call()
            return info.value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_complete_graph_40(self):
        exc, peak = self.traced_peak(lambda: gonality(complete_graph(40), budget=10))
        assert exc.degrees_refuted == (1,)
        assert peak < 2**19

    def test_degree_20_of_complete_graph_40(self):
        # degree 20 has C(58, 19), about 9.5e14, candidate vectors
        exc, peak = self.traced_peak(lambda: gonality(complete_graph(40), budget=10, lower_bound=20))
        assert exc.degrees_refuted == ()
        assert peak < 2**19

    def test_scan_state_of_path_graph_3000(self):
        """The count table is int16 and the start rows cover the tabled slots
        only, so the scan's state is about 2 n^2 bytes: 23.3 MiB here."""
        g = path_graph(3000)
        g.degrees  # the graph's own state is not the scan's
        tracemalloc.start()
        try:
            search._Scan(g, 2999, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestComplementDivisor:
    def test_complete_graph_single_vertex(self):
        d = complement_divisor(complete_graph(4), {0})
        assert d.chips == (0, 1, 1, 1)
        assert d.degree == 3

    def test_empty_set_gives_all_ones(self):
        d = complement_divisor(cycle_graph(5), set())
        assert d.chips == (1,) * 5

    def test_c4_antipodal_pair(self):
        g = cycle_graph(4)
        d = complement_divisor(g, {0, 2})
        assert d.chips == (0, 1, 0, 1)
        assert brute_positive_rank(g, d.chips)

    def test_rejects_dependent_set(self):
        with pytest.raises(NotIndependentError):
            complement_divisor(cycle_graph(4), {0, 1})


class TestIndependenceCertificate:
    def test_k4_witness_script(self):
        cert = certify_independence_bound(complete_graph(4), {0})
        assert cert.witnesses[0].fires == (0, 1, 1, 1)

    def test_outside_vertices_get_zero_scripts(self):
        g = cycle_graph(5)
        cert = certify_independence_bound(g, {0, 2})
        for v in (1, 3, 4):
            assert cert.witnesses[v].fires == (0,) * 5

    def test_c5_all_witnesses_verify(self):
        g = cycle_graph(5)
        cert = certify_independence_bound(g, {0, 2})
        for v in range(5):
            fired = apply_firing(g, cert.divisor.minus_vertex(v), cert.witnesses[v])
            assert fired.is_effective()

    def test_non_maximal_set_certifies_its_own_degree(self):
        g = cycle_graph(6)
        cert = certify_independence_bound(g, {0})
        assert verify_certificate(g, cert)
        assert cert.divisor.degree == 5

    def test_cap_certificate_has_the_reported_degree(self):
        # the set is used as given, not extended to a maximal one
        g = path_graph(3)
        result = gonality(g, lower_bound=2, independent_set=frozenset({0}))
        assert result.certificate.divisor.degree == result.value == 2
        assert verify_certificate(g, result.certificate)

    def test_repeated_vertex_counts_once_in_the_cap(self):
        result = gonality(complete_graph(4), independent_set=[0, 0])
        assert result.certificate.divisor.degree == result.value == 3

    def test_rejects_isolated_vertex(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(GonalityError):
            certify_independence_bound(g, {0, 2})

    def test_random_graphs_certify(self):
        rnd = random.Random(34)
        for _ in range(25):
            g = random_connected_graph(rnd, rnd.randint(2, 9), 0.5)
            mis = maximum_independent_set(g)
            cert = certify_independence_bound(g, mis.independent.vertices)
            assert verify_certificate(g, cert)
            assert cert.divisor.degree == g.n - mis.alpha


class TestAcceleratorChecks:
    """The accelerators are checked on every path, before the split into
    components, and the scan runs over ``[floor, n - |I|)``."""

    @pytest.mark.parametrize("independent_set, error", [
        ({99}, GonalityError),
        ({-1}, GonalityError),
        ({0, 1}, NotIndependentError),
        ({"a"}, GonalityError),
    ])
    def test_bad_set_on_a_disconnected_graph(self, independent_set, error):
        with pytest.raises(error):
            gonality(build_graph(4, [(0, 1), (2, 3)]), independent_set=independent_set)

    def test_non_integer_vertices_are_rejected(self):
        # three fractional "vertices" touch no edge, so n - |I| read 1 on K4
        with pytest.raises(GonalityError, match="not an integer"):
            gonality(complete_graph(4), independent_set={0.1, 0.2, 0.3}, with_certificate=False)
        assert gonality(complete_graph(4), independent_set={np.int64(0)}).value == 3

    def test_bad_set_on_the_single_vertex(self):
        with pytest.raises(GonalityError):
            gonality(path_graph(1), independent_set={1})

    @pytest.mark.parametrize("graph, independent_set, lower_bound", [
        (complete_graph(4), None, 5),
        (complete_graph(4), {0}, 4),
        (cycle_graph(6), {0, 2, 4}, 4),
        (build_graph(4, [(0, 1), (2, 3)]), {0, 2}, 3),
        (build_graph(3, []), {0, 1, 2}, 2),
    ])
    def test_lower_bound_above_the_cap(self, graph, independent_set, lower_bound):
        with pytest.raises(GonalityError, match=r"exceeds n - \|I\|"):
            gonality(graph, lower_bound=lower_bound, independent_set=independent_set)

    def test_default_floor_stands_where_every_vertex_is_in_the_set(self):
        # n - |I| = 0 on an edgeless graph, below the default floor 1
        assert gonality(build_graph(3, []), independent_set={0, 1, 2}).value == 0
        assert gonality(path_graph(1), independent_set={0}).value == 0

    def test_empty_set_is_the_default(self, monkeypatch):
        # with I empty the scramble test is skipped, as alpha >= 1 > |I|
        monkeypatch.setattr(search, "egg_cuts_reach", None)
        for g in connected_atlas(5):
            assert gonality(g, independent_set=frozenset()) == gonality(g)

    def test_scan_stops_below_the_cap(self):
        # gon = n - alpha = 3, but a cut of 2 edges keeps the scramble open,
        # so degrees 1 and 2 are scanned and 3 is closed unscanned
        g = build_graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        result = gonality(g, independent_set={2, 4, 5})
        assert (result.value, result.degrees_searched, result.closed_by) == (3, (1, 2, 3), "independence")
        assert verify_certificate(g, result.certificate)


def test_gonality_rejects_empty_graph():
    with pytest.raises(GonalityError):
        gonality(build_graph(0, []))

