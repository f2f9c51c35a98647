import functools
import random
import tracemalloc
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gonality import (
    BudgetExceededError,
    CertificateError,
    Divisor,
    GonalityError,
    NotIndependentError,
    apply_firing,
    build_graph,
    certify_independence_bound,
    complement_divisor,
    complete_graph,
    cycle_graph,
    egg_cuts_reach,
    gonality,
    has_positive_rank,
    maximum_independent_set,
    min_degree,
    path_graph,
    q_reduce,
    treewidth_exact,
    verify_certificate,
)
from gonality import search
from gonality.divisors import _positive_rank_scripts

from oracles import (
    brute_alpha,
    brute_egg_cut,
    brute_gonality,
    brute_positive_rank,
    connected_atlas,
    draw_connected_graph,
    is_q_reduced,
    random_connected_graph,
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
        assert result.refutation_floor == 1

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
                assert result.degrees_searched == (value,) == (result.refutation_floor,)
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
        assert result.degrees_searched == (4,) and result.refutation_floor == 4

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
    return (_outcome(lambda: search._scan_degree(g, d, budget)),
            _outcome(lambda: [tuple(r) for c in search._candidate_chunks(g, d, budget)
                              for r in c[search._burns_everything(g, c, 0)].tolist()]))


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
    error.  Chunk size 7 runs the multi-chunk path on every degree past
    the first few."""

    @pytest.mark.parametrize("chunk", [search._CHUNK_ROWS, 7])
    def test_every_degree_and_budget(self, chunk, monkeypatch):
        monkeypatch.setattr(search, "_CHUNK_ROWS", chunk)
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
                chunks = list(search._candidate_chunks(g, d, None))
                assert all(1 <= len(c) <= 7 for c in chunks)
                rows = [tuple(r) for c in chunks for r in c.tolist()]
                caps = [d - 1] + [g.degree(v) - 1 for v in range(1, g.n)]
                assert rows == [(r[0] + 1, *r[1:]) for r in _assignments(caps, d - 1)]

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
        saved = search._CHUNK_ROWS
        search._CHUNK_ROWS = chunk
        try:
            assert _batched_outcomes(g, d, budget) == _scalar_outcomes(g, d, budget)
        finally:
            search._CHUNK_ROWS = saved


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

