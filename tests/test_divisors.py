import gc
import hashlib
import inspect
import random
import sys
import weakref
from collections.abc import MutableMapping
from functools import cached_property
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gonality import (
    DisconnectedGraphError,
    Divisor,
    FiringScript,
    GonalityError,
    Graph,
    apply_firing,
    build_graph,
    canonical_divisor,
    complete_graph,
    connected_components,
    cycle_graph,
    divisor,
    effective_representative,
    genus,
    gonality,
    has_positive_rank,
    linearly_equivalent,
    parse_divisor,
    path_graph,
    q_reduce,
    q_reduce_with_script,
    rank,
    serialize_divisor,
)
from gonality import divisors
from gonality.divisors import _rank_of_reduced

from oracles import (
    brute_positive_rank,
    brute_rank,
    draw_connected_graph,
    eff_equiv_by_scripts,
    equivalent_images,
    exact_equivalent,
    fire_script,
    grid_graph,
    is_q_reduced,
    random_connected_graph,
    reference_rank,
    reference_reduce,
)


def random_script(rnd, n, bound=3):
    return FiringScript(tuple(rnd.randint(-bound, bound) for _ in range(n)))


def random_divisor(rnd, n, bound=3):
    return Divisor(tuple(rnd.randint(-bound, bound) for _ in range(n)))


class TestCanonicalDivisor:
    def test_cycle_all_zero(self):
        for n in range(3, 8):
            assert canonical_divisor(cycle_graph(n)).chips == (0,) * n

    def test_complete_four(self):
        k = canonical_divisor(complete_graph(4))
        assert k.chips == (1, 1, 1, 1)
        assert k.degree == 2 * genus(complete_graph(4)) - 2

    def test_path_leaves(self):
        assert canonical_divisor(path_graph(3)).chips == (-1, 0, -1)

    def test_degree_identity_on_random_connected(self):
        rnd = random.Random(11)
        for _ in range(30):
            g = random_connected_graph(rnd, rnd.randint(2, 9), 0.5)
            assert canonical_divisor(g).degree == 2 * genus(g) - 2


class TestApplyFiring:
    def test_zero_script_identity(self):
        g = cycle_graph(5)
        d = divisor(1, -2, 0, 3, 1)
        assert apply_firing(g, d, FiringScript.zero(5)) == d

    def test_constant_script_identity_connected(self):
        rnd = random.Random(12)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.5)
            d = random_divisor(rnd, g.n)
            ones = FiringScript((1,) * g.n)
            assert apply_firing(g, d, ones) == d

    def test_k2_hand_example(self):
        g = complete_graph(2)
        out = apply_firing(g, divisor(0, 1), FiringScript((0, 1)))
        assert out.chips == (1, 0)

    def test_degree_preserved(self):
        rnd = random.Random(13)
        for _ in range(50):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.4)
            d = random_divisor(rnd, g.n)
            f = random_script(rnd, g.n)
            assert apply_firing(g, d, f).degree == d.degree

    def test_matches_edge_based_oracle(self):
        rnd = random.Random(14)
        for _ in range(50):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.5)
            d = random_divisor(rnd, g.n)
            f = random_script(rnd, g.n)
            assert apply_firing(g, d, f).chips == fire_script(g, d.chips, f.fires)


class TestQReduce:
    def test_zero_divisor_fixed_point(self):
        g = cycle_graph(6)
        z = Divisor((0,) * 6)
        assert q_reduce(g, z) == z

    def test_k2_example_against_set_firing_enumeration(self):
        # enumerate every divisor reachable from (0, 1) on K2 and pick the
        # one that is reduced by definition: nonnegative off the base and
        # no subset of {1} able to fire
        g = complete_graph(2)
        seen = equivalent_images(g, (0, 1), 6)
        reduced = [
            d for d in seen if d[1] >= 0 and d[1] < 1  # {1} fires iff chips >= deg = 1
        ]
        assert reduced == [(1, 0)]
        assert q_reduce(g, divisor(0, 1)).chips == (1, 0)

    def test_idempotent_and_class_constant(self):
        rnd = random.Random(15)
        for _ in range(100):
            g = random_connected_graph(rnd, rnd.randint(2, 8), 0.5)
            d = random_divisor(rnd, g.n)
            f = random_script(rnd, g.n)
            red = q_reduce(g, d)
            assert q_reduce(g, red) == red
            assert q_reduce(g, apply_firing(g, d, f)) == red

    def test_result_is_reduced_by_definition(self):
        rnd = random.Random(16)
        for _ in range(50):
            g = random_connected_graph(rnd, rnd.randint(2, 7), 0.5)
            q = rnd.randrange(g.n)
            red = q_reduce(g, random_divisor(rnd, g.n), q)
            assert is_q_reduced(g, red.chips, q)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.data())
    def test_firing_scripts_do_not_move_the_reduction_property(self, data):
        g = draw_connected_graph(data, 1, 8)
        n = g.n
        d = Divisor(tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
        f = FiringScript(tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
        q = data.draw(st.integers(0, n - 1))
        assert q_reduce(g, apply_firing(g, d, f), q) == q_reduce(g, d, q)

    def test_script_variant_consistent(self):
        rnd = random.Random(17)
        for _ in range(30):
            g = random_connected_graph(rnd, rnd.randint(2, 7), 0.5)
            d = random_divisor(rnd, g.n)
            red, script = q_reduce_with_script(g, d)
            assert apply_firing(g, d, script) == red
            assert red == q_reduce(g, d)

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            q_reduce(g, Divisor((0,) * 4))

    def test_huge_chip_counts_are_exact(self):
        g = cycle_graph(4)
        big = 10**18
        red = q_reduce(g, divisor(big, 0, -big, 0))
        assert red.degree == 0
        assert q_reduce(g, red) == red


class TestLinearEquivalence:
    def test_reflexive(self):
        g = cycle_graph(5)
        d = divisor(2, -1, 0, 0, 3)
        assert linearly_equivalent(g, d, d)

    def test_degree_mismatch(self):
        g = cycle_graph(5)
        assert not linearly_equivalent(g, divisor(1, 0, 0, 0, 0), divisor(0, 0, 0, 0, 0))

    def test_k2_example(self):
        g = complete_graph(2)
        assert linearly_equivalent(g, divisor(0, 1), divisor(1, 0))

    def test_equivalence_axioms(self):
        rnd = random.Random(18)
        for _ in range(40):
            g = random_connected_graph(rnd, rnd.randint(2, 7), 0.5)
            d1 = random_divisor(rnd, g.n)
            d2 = apply_firing(g, d1, random_script(rnd, g.n))
            d3 = apply_firing(g, d2, random_script(rnd, g.n))
            assert linearly_equivalent(g, d1, d2)
            assert linearly_equivalent(g, d2, d1)
            assert linearly_equivalent(g, d1, d3)

    def test_agrees_with_exact_linear_algebra(self):
        rnd = random.Random(19)
        for _ in range(60):
            g = random_connected_graph(rnd, rnd.randint(2, 6), 0.5)
            a = random_divisor(rnd, g.n)
            if rnd.random() < 0.5:
                b = apply_firing(g, a, random_script(rnd, g.n))
            else:
                b = random_divisor(rnd, g.n)
                if rnd.random() < 0.5 and b.degree != a.degree:
                    b = Divisor(b.chips[:-1] + (b.chips[-1] + a.degree - b.degree,))
            assert linearly_equivalent(g, a, b) == exact_equivalent(g, a.chips, b.chips)

    def test_agrees_with_bounded_script_search(self):
        # pairs built from scripts in [-3, 3] always have witnesses within
        # the [-6, 6] search window; long-range debt transport would not,
        # which is why the general case uses the exact solver above
        rnd = random.Random(20)
        for _ in range(25):
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            a = random_divisor(rnd, g.n, bound=2)
            b = apply_firing(g, a, random_script(rnd, g.n, bound=3))
            images = equivalent_images(g, a.chips, 6)
            assert b.chips in images
            assert linearly_equivalent(g, a, b)

    def test_independent_of_base_vertex(self):
        rnd = random.Random(21)
        for _ in range(30):
            g = random_connected_graph(rnd, rnd.randint(2, 6), 0.5)
            a = random_divisor(rnd, g.n)
            b = random_divisor(rnd, g.n)
            results = {
                q_reduce(g, a, q) == q_reduce(g, b, q) for q in range(g.n)
            }
            assert len(results) == 1


class TestEffectiveRepresentative:
    def test_effective_input_stays_effective(self):
        rnd = random.Random(22)
        for _ in range(30):
            g = random_connected_graph(rnd, rnd.randint(2, 7), 0.5)
            d = Divisor(tuple(rnd.randint(0, 3) for _ in range(g.n)))
            rep = effective_representative(g, d)
            assert rep is not None and rep.is_effective()
            assert linearly_equivalent(g, d, rep)

    def test_negative_degree_empty(self):
        g = cycle_graph(4)
        assert effective_representative(g, divisor(-2, 0, 0, 1)) is None

    def test_c4_spec_example_with_script_oracle(self):
        g = cycle_graph(4)
        d = divisor(2, 0, -1, 0)
        assert eff_equiv_by_scripts(g, d.chips, 4)
        rep = effective_representative(g, d)
        assert rep is not None and rep.is_effective()
        assert exact_equivalent(g, d.chips, rep.chips)

    def test_agrees_with_script_oracle_on_small_graphs(self):
        rnd = random.Random(23)
        for _ in range(40):
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            d = random_divisor(rnd, g.n, bound=2)
            found = effective_representative(g, d) is not None
            # script bound 8 is ample for n <= 5 with chips in [-2, 2]
            assert found == eff_equiv_by_scripts(g, d.chips, 8)


class TestPositiveRank:
    def test_degree_zero_never_positive(self):
        rnd = random.Random(24)
        for _ in range(20):
            g = random_connected_graph(rnd, rnd.randint(2, 6), 0.5)
            assert not has_positive_rank(g, Divisor((0,) * g.n))

    def test_complete_graph_all_but_one(self):
        for n in range(3, 7):
            g = complete_graph(n)
            d = Divisor((0,) + (1,) * (n - 1))
            assert has_positive_rank(g, d)

    def test_c5_examples_from_brute_force(self):
        g = cycle_graph(5)
        assert brute_positive_rank(g, (1, 0, 1, 0, 0))
        assert not brute_positive_rank(g, (1, 0, 0, 0, 0))
        assert has_positive_rank(g, divisor(1, 0, 1, 0, 0))
        assert not has_positive_rank(g, divisor(1, 0, 0, 0, 0))

    def test_matches_brute_force_on_random(self):
        rnd = random.Random(25)
        for _ in range(30):
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            d = Divisor(tuple(rnd.randint(0, 2) for _ in range(g.n)))
            assert has_positive_rank(g, d) == brute_positive_rank(g, d.chips)


class TestRank:
    def test_zero_divisor_rank_zero(self):
        rnd = random.Random(26)
        for _ in range(15):
            g = random_connected_graph(rnd, rnd.randint(2, 7), 0.5)
            assert rank(g, Divisor((0,) * g.n)) == 0

    def test_negative_degree(self):
        g = complete_graph(3)
        assert rank(g, divisor(-1, 0, 0)) == -1

    def test_k3_triple(self):
        g = complete_graph(3)
        assert brute_rank(g, (1, 1, 1)) == 2
        assert rank(g, divisor(1, 1, 1)) == 2
        # cross-check via the duality identity with g = 1: K = 0, so
        # rank(K - D) = rank(-D) = -1 and deg - g + 1 = 3
        assert rank(g, divisor(-1, -1, -1)) == -1

    def test_matches_brute_force(self):
        rnd = random.Random(27)
        for _ in range(25):
            g = random_connected_graph(rnd, rnd.randint(2, 4), 0.7)
            d = random_divisor(rnd, g.n, bound=2)
            assert rank(g, d) == brute_rank(g, d.chips)

    def test_positive_rank_iff_rank_at_least_one(self):
        rnd = random.Random(28)
        for _ in range(40):
            g = random_connected_graph(rnd, rnd.randint(2, 6), 0.5)
            d = random_divisor(rnd, g.n, bound=2)
            assert (rank(g, d) >= 1) == has_positive_rank(g, d)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.data())
    def test_positive_rank_iff_rank_at_least_one_property(self, data):
        n = data.draw(st.integers(1, 7))
        # a random spanning tree keeps the graph connected; extra edges on top
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        extra = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges |= {e for e, keep in zip(pairs, extra) if keep}
        g = build_graph(n, sorted(edges))
        d = Divisor(tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))))
        assert has_positive_rank(g, d) == (rank(g, d) >= 1)

    def test_riemann_roch_sample(self):
        # the exhaustive n <= 6 sweep lives in the acceptance suite
        rnd = random.Random(29)
        for _ in range(40):
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            d = random_divisor(rnd, g.n, bound=2)
            k = canonical_divisor(g)
            assert rank(g, d) - rank(g, k - d) == d.degree - genus(g) + 1


    def test_matches_brute_force_up_to_three_chips(self):
        rnd = random.Random(31)
        for _ in range(40):
            g = random_connected_graph(rnd, rnd.randint(2, 4), 0.7)
            d = random_divisor(rnd, g.n, bound=3)
            assert rank(g, d) == brute_rank(g, d.chips)

    def test_riemann_roch_one_above_genus(self):
        # deg D = g + 1 on connected genus-5 G(7, 0.5) graphs, with two chips
        # moved so that D can be in debt
        rnd = random.Random(32)
        tested = 0
        while tested < 25:
            g = random_connected_graph(rnd, 7, 0.5)
            if genus(g) != 5:
                continue
            tested += 1
            chips = [0] * g.n
            for _ in range(6):
                chips[rnd.randrange(g.n)] += 1
            for _ in range(2):
                chips[rnd.randrange(g.n)] -= 1
                chips[rnd.randrange(g.n)] += 1
            d = Divisor(tuple(chips))
            assert rank(g, d) - rank(g, canonical_divisor(g) - d) == 2

    def test_riemann_roch_on_many_small_divisors(self):
        # a node of rank 0 can meet a child of rank 0 before one of rank -1;
        # ending its scan at the first 0 fails here a few times in 600
        rnd = random.Random(33)
        for _ in range(600):
            g = random_connected_graph(rnd, rnd.randint(5, 6), 0.6)
            d = Divisor(tuple(rnd.randint(-1, 2) for _ in range(g.n)))
            k = canonical_divisor(g)
            assert rank(g, d) - rank(g, k - d) == d.degree - genus(g) + 1

    def test_dual_matches_brute_force(self):
        # degrees g through 2g - 1, where rank() answers through K - D, of
        # degree 2g - 2 - deg D in [-1, g - 2]; one chip may be in debt
        rnd = random.Random(35)
        tested = 0
        while tested < 40:
            g = random_connected_graph(rnd, rnd.randint(2, 5), 0.6)
            if not 1 <= genus(g) <= 3:
                continue
            tested += 1
            chips = [0] * g.n
            for _ in range(rnd.randint(genus(g), 2 * genus(g) - 1) + 1):
                chips[rnd.randrange(g.n)] += 1
            chips[rnd.randrange(g.n)] -= 1
            assert rank(g, Divisor(tuple(chips))) == brute_rank(g, chips)

    def test_reference_rank_matches_brute_force(self):
        # the oracle that criterion 06 checks Riemann-Roch on
        rnd = random.Random(36)
        for _ in range(40):
            g = random_connected_graph(rnd, rnd.randint(1, 4), 0.7)
            chips = random_divisor(rnd, g.n, bound=3).chips
            assert reference_rank(g, chips) == brute_rank(g, chips)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_reference_rank(self, data):
        g = draw_connected_graph(data, 1, 6)
        chips = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=g.n, max_size=g.n)))
        assert rank(g, Divisor(chips)) == reference_rank(g, chips)

    def test_deep_divisor_needs_no_recursion(self):
        # rank() answers deg D > g - 1 through K - D, of negative degree
        # here, so the recursion on K2 is entered directly: it runs 5000
        # nodes deep; give it 60 frames
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(len(inspect.stack()) + 60)
            r = rank(path_graph(2), divisor(5000, 0))
            deep = _rank_of_reduced(path_graph(2), (5000, 0))
        finally:
            sys.setrecursionlimit(limit)
        assert r == deep == 5000

    def test_bounded_script_oracle_misses(self):
        # the two divisors on which a script-bounded oracle read rank 3 and 2
        tree = build_graph(4, [(0, 3), (1, 2), (1, 3)])
        assert brute_rank(tree, (0, 3, -2, 3)) == rank(tree, divisor(0, 3, -2, 3)) == 4
        path = path_graph(3)
        assert brute_rank(path, (-1, 1, 3)) == rank(path, divisor(-1, 1, 3)) == 3

    def test_matches_brute_force_around_canonical_degree(self):
        # degrees from 2g - 4 to 2g - 1, which rank() answers through K - D,
        # of degree 2 down to -1
        rnd = random.Random(34)
        tested = 0
        while tested < 30:
            g = random_connected_graph(rnd, rnd.randint(3, 5), 0.7)
            target = 2 * genus(g) - rnd.randint(1, 4)
            if target < 0:
                continue
            tested += 1
            chips = [0] * g.n
            for _ in range(target + 2):
                chips[rnd.randrange(g.n)] += 1
            for _ in range(2):
                chips[rnd.randrange(g.n)] -= 1
            assert rank(g, Divisor(tuple(chips))) == brute_rank(g, chips)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.data())
    def test_adding_a_chip_raises_rank_by_at_most_one(self, data):
        n = data.draw(st.integers(1, 7))
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        extra = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges |= {e for e, keep in zip(pairs, extra) if keep}
        g = build_graph(n, sorted(edges))
        d = Divisor(tuple(data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))))
        v = data.draw(st.integers(0, n - 1))
        assert rank(g, d) <= rank(g, d.plus_vertex(v)) <= rank(g, d) + 1


def _reduce_both_ways(g, d, q):
    """``q_reduce_with_script`` with the jump, and with it switched off."""
    jumped = q_reduce_with_script(g, d, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisors, "_jump", lambda graph, chips, q, script: None)
        plain = q_reduce_with_script(g, d, q)
    return jumped, plain


class TestJump:
    @pytest.fixture
    def jumps(self, monkeypatch):
        """Whether each ``_jump`` call moved any chips, in call order."""
        moved = []
        jump = divisors._jump

        def spy(graph, chips, q, script):
            before = list(chips)
            jump(graph, chips, q, script)
            moved.append(chips != before)

        monkeypatch.setattr(divisors, "_jump", spy)
        return moved

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_same_chips_and_script_without_the_jump(self, data):
        n = data.draw(st.integers(2, 100))
        parents = data.draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
        edges = {(parents[v - 1] % v, v) for v in range(1, n)}
        extra = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
        g = build_graph(n, sorted(edges))
        d = Divisor(tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))))
        jumped, plain = _reduce_both_ways(g, d, data.draw(st.integers(0, n - 1)))
        assert jumped == plain

    def test_jumps_on_large_sparse_graphs(self, jumps):
        rnd = random.Random(40)
        for _ in range(6):
            g = random_connected_graph(rnd, 100, 0.06)
            d = random_divisor(rnd, g.n)
            e = apply_firing(g, d, random_script(rnd, g.n, bound=2))
            jumped, plain = _reduce_both_ways(g, d, rnd.randrange(g.n))
            assert jumped == plain
            assert linearly_equivalent(g, d, e)
        assert sum(jumps) >= 6

    @pytest.mark.parametrize("big", [2**53 + 5, 10**400])
    def test_chips_beyond_float_fall_back_to_dhar_rounds(self, jumps, big):
        g = path_graph(10)
        d = divisor(0, 0, 0, 0, 0, -1, 0, 0, 0, big)
        red, script = q_reduce_with_script(g, d, 0)
        assert jumps == [False]
        assert apply_firing(g, d, script) == red
        assert is_q_reduced(g, red.chips, 0)

    def test_matches_the_whole_set_reference(self, jumps):
        @settings(derandomize=True, database=None, deadline=None, max_examples=100)
        @given(st.data())
        def check(data):
            g = draw_connected_graph(data, 1, 8)
            chips = data.draw(st.lists(st.integers(-12, 9), min_size=g.n, max_size=g.n))
            rich = data.draw(st.integers(0, g.n - 1))
            chips[rich] += divisors._JUMP_FACTOR * g.degree(rich) * data.draw(st.integers(0, 3))
            for q in range(g.n):
                red, script = q_reduce_with_script(g, Divisor(tuple(chips)), q)
                assert (red.chips, script.fires) == reference_reduce(g, chips, q)

        check()
        assert sum(jumps) >= 10

    def test_reductions_match_their_pinned_digest(self):
        """sha256 over ``(chips, script)`` of 300 seeded reductions on
        connected graphs of 2 to 30 vertices, a third with jump-sized chips.
        The digest is that of the reduction that fired the whole unburnt set
        each round."""
        rnd = random.Random(41)
        h = hashlib.sha256()
        for _ in range(300):
            g = random_connected_graph(rnd, rnd.randint(2, 30), rnd.uniform(0.1, 0.5))
            chips = [rnd.randint(-6, 9) for _ in range(g.n)]
            if rnd.random() < 1 / 3:
                v = rnd.randrange(g.n)
                chips[v] += divisors._JUMP_FACTOR * g.degree(v) * rnd.randint(1, 4)
            red, script = q_reduce_with_script(g, Divisor(tuple(chips)), rnd.randrange(g.n))
            h.update(repr((red.chips, script.fires)).encode())
        assert h.hexdigest() == "7f69d9abcb8294ca9a151d272a02c65091c483d3b532a8c9b36e001490b49cb4"

    def test_float_error_never_reaches_the_chips(self, jumps):
        # 2**52 chips on a 50-vertex path: the solve runs, but float64 cannot
        # floor x exactly, and the integer check turns the jump down
        g = path_graph(50)
        chips = [0] * 50
        chips[25], chips[49] = -1, 2**52
        jumped, plain = _reduce_both_ways(g, Divisor(tuple(chips)), 0)
        assert jumps == [False]
        assert jumped == plain

    def test_landings_in_debt_borrow_to_the_reference(self, monkeypatch):
        """Jump-sized piles on paths, cycles, grids, complete graphs and
        sparse random graphs, reduced at every base, against the reference.
        The jump lands around the middle of the reduced range, so some
        landings leave debt and must be borrowed back."""
        landed_in_debt = []
        borrow = divisors._borrow

        def spy(graph, chips, q, script):
            landed_in_debt.append(any(c < 0 for v, c in enumerate(chips) if v != q))
            borrow(graph, chips, q, script)

        monkeypatch.setattr(divisors, "_borrow", spy)

        def sparse(n, rnd):
            edges = {(rnd.randrange(v), v) for v in range(1, n)}
            for _ in range(n // 4):
                u, v = sorted(rnd.sample(range(n), 2))
                edges.add((u, v))
            return build_graph(n, sorted(edges))

        families = [
            lambda data, rnd: path_graph(data.draw(st.integers(2, 40))),
            lambda data, rnd: cycle_graph(data.draw(st.integers(3, 40))),
            lambda data, rnd: grid_graph(data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))),
            lambda data, rnd: complete_graph(data.draw(st.integers(2, 12))),
            lambda data, rnd: sparse(data.draw(st.integers(2, 40)), rnd),
        ]

        @settings(derandomize=True, database=None, deadline=None, max_examples=60)
        @given(st.data())
        def check(data):
            rnd = random.Random(data.draw(st.integers(0, 2**32)))
            g = data.draw(st.sampled_from(families))(data, rnd)
            chips = [rnd.randint(-3, 3) for _ in range(g.n)]
            for _ in range(data.draw(st.integers(1, 3))):
                v = rnd.randrange(g.n)
                chips[v] += divisors._JUMP_FACTOR * g.degree(v) * data.draw(st.integers(1, 6))
            for q in range(g.n):
                red, script = q_reduce_with_script(g, Divisor(tuple(chips)), q)
                assert (red.chips, script.fires) == reference_reduce(g, chips, q)

        check()
        assert sum(landed_in_debt) >= 10


# each public call that checks a divisor or a script, as call(path_graph(3), divisor)
CHECKED_CALLS = [
    pytest.param(q_reduce, id="q_reduce"),
    pytest.param(q_reduce_with_script, id="q_reduce_with_script"),
    pytest.param(lambda g, d: linearly_equivalent(g, d, divisor(0, 0, 0)), id="linearly_equivalent-first"),
    pytest.param(lambda g, d: linearly_equivalent(g, divisor(0, 0, 0), d), id="linearly_equivalent-second"),
    pytest.param(effective_representative, id="effective_representative"),
    pytest.param(has_positive_rank, id="has_positive_rank"),
    pytest.param(rank, id="rank"),
    pytest.param(lambda g, d: apply_firing(g, d, FiringScript.zero(3)), id="apply_firing-divisor"),
    pytest.param(lambda g, d: apply_firing(g, divisor(0, 0, 0), FiringScript(d.chips)), id="apply_firing-script"),
]
NON_INTEGERS = [pytest.param(1.5, id="float"), pytest.param("1", id="str"), pytest.param(None, id="None")]


class TestSizeChecks:
    @pytest.mark.parametrize("chips", [(1, 0, 0, 5), (1, 0)], ids=["long", "short"])
    @pytest.mark.parametrize("call", CHECKED_CALLS)
    def test_wrong_length_raises(self, call, chips):
        with pytest.raises(GonalityError, match="graph has 3 vertices"):
            call(path_graph(3), Divisor(chips))

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    @pytest.mark.parametrize("call", CHECKED_CALLS)
    def test_non_integer_entry_raises(self, call, bad):
        with pytest.raises(GonalityError, match="non-integer entry"):
            call(path_graph(3), Divisor((bad, 0, 0)))

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    @pytest.mark.parametrize("call", [q_reduce, q_reduce_with_script])
    def test_non_integer_base_vertex_raises(self, call, bad):
        with pytest.raises(GonalityError, match="integer base vertex"):
            call(cycle_graph(4), divisor(1, 0, 0, 0), bad)

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_divisor_constructor_refuses_non_integers(self, bad):
        with pytest.raises(GonalityError, match="non-integer entry"):
            divisor(bad, 0, 0)

    def test_integer_like_entries_become_ints(self):
        d = Divisor((np.int64(2), True, 0))
        reduced = q_reduce(path_graph(3), d, np.int64(2))
        assert reduced == divisor(0, 0, 3) and all(type(c) is int for c in reduced.chips)


class TestGraphOwnedMemo:
    def test_no_module_level_table_keyed_by_graph(self):
        g = cycle_graph(5)
        rank(g, divisor(2, 0, 1, 0, 0))
        q_reduce(g, divisor(0, 3, 0, -1, 0), 2)
        for name, module in list(sys.modules.items()):
            if name != "gonality" and not name.startswith("gonality."):
                continue
            for attr, obj in vars(module).items():
                if isinstance(obj, MutableMapping):
                    # weak mappings are not dicts; no dict may be keyed by graphs
                    assert isinstance(obj, dict), f"{name}.{attr}"
                    assert not any(isinstance(k, Graph) for k in obj), f"{name}.{attr}"

    def test_equal_graph_starts_with_empty_memo(self):
        rnd = random.Random(30)
        g = random_connected_graph(rnd, 6, 0.5)
        divs = [random_divisor(rnd, g.n, bound=2) for _ in range(40)]
        ranks = [rank(g, d) for d in divs]
        assert g._rank_memo
        fresh = Graph(g.n, g.edges)
        assert g == fresh and hash(g) == hash(fresh)
        assert set(vars(fresh)) == {"n", "edges"}
        assert [rank(fresh, d) for d in divs] == ranks
        assert fresh._rank_memo is not g._rank_memo

    def test_connectivity_found_once_per_graph(self, monkeypatch):
        found = []
        find = Graph.components.func

        def counted(graph):
            found.append(graph)
            return find(graph)

        prop = cached_property(counted)
        prop.__set_name__(Graph, "components")
        monkeypatch.setattr(Graph, "components", prop)
        g = cycle_graph(5)
        assert g.is_connected() and genus(g) == 1 and len(connected_components(g)) == 1
        rank(g, divisor(2, 0, 1, 0, 0))
        q_reduce(g, divisor(0, 3, 0, -1, 0), 2)
        assert linearly_equivalent(g, divisor(1, 0, 0, 0, 0), divisor(0, 1, 0, 0, 0)) is False
        assert gonality(g).value == 2
        assert found == [g]

    def test_memo_is_freed_with_the_graph(self):
        # degree 2 = g - 1, so rank() recurses on D itself, whose debt away
        # from vertex 0 needs the BFS layers
        g = complete_graph(4)
        rank(g, divisor(2, 1, 0, -1))
        assert g._rank_memo and g._layer_tables
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None


class TestDivisorBasics:
    def test_serialization_roundtrip(self):
        d = divisor(1, 0, -2, 7)
        assert parse_divisor(serialize_divisor(d)) == d
        assert serialize_divisor(d) == "1 0 -2 7"

    def test_parse_length_check(self):
        from gonality import GonalityError

        with pytest.raises(GonalityError):
            parse_divisor("1 2 3", n=4)

    def test_degree_and_effectivity(self):
        d = divisor(2, -1, 0)
        assert d.degree == 1
        assert not d.is_effective()
        assert d.plus_vertex(1).is_effective()
        assert d.minus_vertex(0).chips == (1, -1, 0)

    def test_all_small_divisors_on_k2(self):
        # exhaustive cross-check of the full decision stack on one graph
        g = complete_graph(2)
        for chips in product(range(-3, 4), repeat=2):
            d = Divisor(chips)
            assert (effective_representative(g, d) is not None) == eff_equiv_by_scripts(
                g, chips, 8
            )
            assert rank(g, d) == brute_rank(g, chips)
