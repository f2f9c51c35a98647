"""Independent oracles for the test suite.

Everything here deliberately avoids the library's reduction machinery:
equivalence and rank are decided by enumerating firing scripts or by exact
rational linear algebra on the Laplacian (rank and positive rank by the
latter alone, so no script bound can make them under-report), independence
numbers and edge cuts by subset enumeration, larger independence numbers by
the max-degree branch and bound the library used before colour ordering
(``_reference_mis``), and small-graph corpora come from networkx.
Elimination widths are found by explicit fill-in, exact treewidth and its
witness by the per-(subset, vertex) DP the library ran before it searched
components (``reference_treewidth``), and G(n, p) graphs by
the one-shot sampler the library used before it drew in blocks
(``reference_sample_gnp``).
q-reduction is decided by burning to a fixed point, and reduced by the
Dhar rounds the library ran before its rounds fired only the cut
(``reference_reduce``), and larger ranks by the plain rank recursion on
those reduced forms, with no part of Riemann-Roch (``reference_rank``).
Keeping these paths separate is what makes agreement tests meaningful.
"""

from fractions import Fraction
from functools import lru_cache
import itertools
from itertools import combinations, combinations_with_replacement, product
from math import lcm
import random
from typing import Optional

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from gonality import GnpParams, Graph, IndependentSet, MISResult, build_graph


def fire_script(graph: Graph, chips, script):
    """Apply a firing script straight from the edge list (no Laplacian code)."""
    out = list(chips)
    for u, v in graph.edges:
        out[u] += script[v] - script[u]
        out[v] += script[u] - script[v]
    return tuple(out)


def scripts_up_to(n: int, bound: int):
    """All scripts with first entry 0 and the rest in [-bound, bound]."""
    for rest in product(range(-bound, bound + 1), repeat=n - 1):
        yield (0, *rest)


def eff_equiv_by_scripts(graph: Graph, chips, bound: int) -> bool:
    """Whether some script within the bound makes ``chips`` effective."""
    if sum(chips) < 0:
        return False
    for f in scripts_up_to(graph.n, bound):
        if all(c >= 0 for c in fire_script(graph, chips, f)):
            return True
    return False


def equivalent_images(graph: Graph, chips, bound: int):
    """Set of divisors reachable from ``chips`` with scripts within the bound."""
    return {fire_script(graph, chips, f) for f in scripts_up_to(graph.n, bound)}


def exact_equivalent(graph: Graph, a, b) -> bool:
    """Linear-algebra equivalence test: a - b must be an integer Laplacian
    image.  With the script pinned to 0 at vertex 0, the script is the
    exact rational solution of the reduced system, so a ~ b exactly when
    that solution is integral."""
    return class_key(graph, a) == class_key(graph, b)


def class_key(graph: Graph, chips) -> tuple[int, ...]:
    """Equal for two divisors exactly when they are linearly equivalent: the
    degree, then the scaled solution ``A d`` of :func:`exact_equivalent`'s
    system for ``d = chips`` off vertex 0, modulo its denominator."""
    scaled, den = _pinned_laplacian_inverse(graph)
    rest = chips[1:]
    return (sum(chips), *(sum(m * x for m, x in zip(row, rest)) % den for row in scaled))


@lru_cache(maxsize=256)
def _pinned_laplacian_inverse(graph: Graph):
    """``(A, den)``, integers with ``A / den`` the inverse of the Laplacian
    without vertex 0's row and column, by Gauss-Jordan over the rationals."""
    n = graph.n
    lap = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = n - 1
    mat = [[Fraction(lap[i][j]) for j in range(1, n)] for i in range(1, n)]
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if mat[r][col] != 0)  # connected graphs only
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = mat[col][col]
        mat[col] = [x / scale for x in mat[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    den = lcm(1, *(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in inv), den


def _burnt(graph: Graph, chips, q: int) -> set:
    """Dhar's burn from q, to a fixed point: a vertex catches fire once its
    burnt neighbours outnumber its chips.  Whenever a vertex catches, each
    neighbour's burnt count is taken afresh, until no vertex catches."""
    adj = graph.adjacency
    burnt = {q}
    fire = [q]
    for u in fire:
        for w in adj[u]:
            if w not in burnt and sum(x in burnt for x in adj[w]) > chips[w]:
                burnt.add(w)
                fire.append(w)
    return burnt


def is_q_reduced(graph: Graph, chips, q: int) -> bool:
    """Whether ``chips`` is q-reduced by definition: no debt away from q, and
    a fire started at q burns every vertex."""
    return min(chips[:q] + chips[q + 1:], default=0) >= 0 and len(_burnt(graph, chips, q)) == graph.n


def reference_reduce(graph: Graph, chips, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(chips, script)`` q-reduced with neither the jump nor cut-only rounds.

    Debt away from q is cleared by firing the ball of vertices nearer to q
    than a layer, once at a time, farthest layer first, until that layer is
    debt-free.  Then come the Dhar rounds of the library before its rounds
    fired only the cut: each fires the whole unburnt set as many times as
    its chips allow.
    """
    n = graph.n
    adj = graph.adjacency
    chips, script = list(chips), [0] * n
    dist = [None] * n
    dist[q] = 0
    queue = [q]
    for u in queue:
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    for layer in range(max(dist), 0, -1):
        ball = [int(d < layer) for d in dist]
        while any(c < 0 for c, d in zip(chips, dist) if d == layer):
            chips = list(fire_script(graph, chips, ball))
            script = [s + b for s, b in zip(script, ball)]
    while True:
        burnt = _burnt(graph, chips, q)
        unburnt = {v: sum(u in burnt for u in adj[v]) for v in range(n) if v not in burnt}
        if not unburnt:
            return tuple(chips), tuple(script)
        t = min(chips[v] // bn for v, bn in unburnt.items() if bn > 0)
        for v, bn in unburnt.items():
            chips[v] -= t * bn
            for w in adj[v]:
                if w not in unburnt:
                    chips[w] += t
        for v in unburnt:
            script[v] += t


def reference_rank(graph: Graph, chips, memo: Optional[dict] = None) -> int:
    """Rank by the plain recursion ``r(D) = 1 + min_v r(D - v)`` on the
    0-reduced forms of :func:`reference_reduce`, with ``r = -1`` where
    vertex 0 is in debt.  It has no Riemann-Roch floor, dual or closed form,
    so the theorem can be checked on its ranks.  ``memo`` maps reduced
    forms to ranks; pass one dict for every query on the same graph.
    """
    memo = {} if memo is None else memo

    def walk(red: tuple[int, ...]) -> int:
        if red not in memo:
            r = -1
            if red[0] >= 0:
                ranks = []
                for v in range(graph.n):
                    child = list(red)
                    child[v] -= 1
                    ranks.append(walk(reference_reduce(graph, child, 0)[0]))
                    if ranks[-1] == -1:  # no rank is lower
                        break
                r = 1 + min(ranks)
            memo[red] = r
        return memo[red]

    return walk(reference_reduce(graph, chips, 0)[0])


def effective_divisors(n: int, degree: int):
    """Every effective divisor of the given degree on n vertices."""
    for locations in combinations_with_replacement(range(n), degree):
        chips = [0] * n
        for v in locations:
            chips[v] += 1
        yield tuple(chips)


def eff_equiv_exact(graph: Graph, chips) -> bool:
    """Whether ``chips`` is equivalent to an effective divisor, with no
    script bound: compare it with every effective divisor of its degree."""
    degree = sum(chips)
    return degree >= 0 and any(
        exact_equivalent(graph, chips, e) for e in effective_divisors(graph.n, degree)
    )


def brute_rank(graph: Graph, chips) -> int:
    """Rank by its definition: enumerate effective divisors E of each degree
    and decide each ``chips - E`` by :func:`eff_equiv_exact`."""
    if not eff_equiv_exact(graph, chips):
        return -1
    k = 0
    while True:
        for e in effective_divisors(graph.n, k + 1):
            if not eff_equiv_exact(graph, tuple(c - x for c, x in zip(chips, e))):
                return k
        k += 1


def brute_positive_rank(graph: Graph, chips) -> bool:
    for v in range(graph.n):
        probe = list(chips)
        probe[v] -= 1
        if not eff_equiv_exact(graph, tuple(probe)):
            return False
    return True


def brute_gonality(graph: Graph) -> int:
    """Smallest degree of a positive-rank divisor over all effective divisors."""
    d = 1
    while True:
        if any(brute_positive_rank(graph, chips) for chips in effective_divisors(graph.n, d)):
            return d
        d += 1


def brute_egg_cut(graph: Graph) -> Optional[int]:
    """Smallest edge cut with an edge inside each side, over every vertex
    subset; ``None`` when no subset has an edge on both sides."""
    best = None
    for mask in range(1, (1 << graph.n) - 1):
        sides = [(mask >> u & 1) + (mask >> v & 1) for u, v in graph.edges]
        if 2 in sides and 0 in sides:
            cut = sides.count(1)
            best = cut if best is None else min(best, cut)
    return best


def brute_treewidth(graph: Graph) -> int:
    """Treewidth by trying every elimination order with explicit fill-in."""
    from itertools import permutations

    best = graph.n
    for order in permutations(range(graph.n)):
        adj = {v: set(graph.adjacency[v]) for v in range(graph.n)}
        worst = 0
        for v in order:
            nbrs = adj[v]
            worst = max(worst, len(nbrs))
            if worst >= best:
                break
            for u in nbrs:
                adj[u].discard(v)
                adj[u].update(nbrs - {u})
            del adj[v]
        best = min(best, worst)
    return best


def reference_treewidth(graph: Graph):
    """Exact treewidth and its witness as ``(width, bags, tree_edges)``, by
    the subset DP the library ran before it searched components: one search
    for ``Q(S - v, v)`` per subset S and vertex v, then the same readback
    (the least v attaining ``f(S)``, from the full set down) and the same
    bags along the order."""
    n = graph.n
    if n == 0:
        return -1, (frozenset(),), ()
    adj = graph.adjacency
    size = 1 << n
    f = [0] * size
    for s in range(1, size):
        best = n
        for v in range(n):
            t = s ^ 1 << v
            if s >> v & 1 and f[t] < best:
                best = min(best, max(f[t], _reference_reach(adj, t, v).bit_count()))
        f[s] = best
    order = []
    s = size - 1
    while s:
        v = next(v for v in range(n) if s >> v & 1 and f[s ^ 1 << v] <= f[s]
                 and _reference_reach(adj, s ^ 1 << v, v).bit_count() <= f[s])
        order.append(v)
        s ^= 1 << v
    order.reverse()
    position = {v: i for i, v in enumerate(order)}
    bags, edges, roots = [], [], []
    before = 0
    for i, v in enumerate(order):
        q = _reference_reach(adj, before, v)
        later = [u for u in range(n) if q >> u & 1]
        bags.append(frozenset([v, *later]))
        if later:
            edges.append((i, min(position[u] for u in later)))
        else:
            roots.append(i)
        before |= 1 << v
    edges.extend(zip(roots, roots[1:]))
    return f[size - 1], tuple(bags), tuple(edges)


def _reference_reach(adj, prefix: int, v: int) -> int:
    """The vertices outside ``prefix + v`` that v reaches through paths whose
    inner vertices lie in ``prefix``, by a breadth-first search from v over
    neighbour lists."""
    seen, queue, out = {v}, [v], 0
    for u in queue:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                if prefix >> w & 1:
                    queue.append(w)
                else:
                    out |= 1 << w
    return out


def fill_in_width(graph: Graph, order) -> int:
    """Width of an elimination order: the most later neighbours any vertex
    has when it is eliminated, with explicit fill-in."""
    adj = {v: set(graph.adjacency[v]) for v in range(graph.n)}
    worst = -1
    for v in order:
        nbrs = adj.pop(v)
        worst = max(worst, len(nbrs))
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(nbrs - {u})
    return worst


def reference_sample_gnp(params: GnpParams) -> Graph:
    """The sampler as it was before it drew in blocks: every pair's draw at
    once, as one list of Python floats."""
    n = params.n
    rng = np.random.Generator(np.random.PCG64(params.seed))
    draws = rng.random(n * (n - 1) // 2).tolist()
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, tuple(e for e, draw in zip(pairs, draws) if draw < params.p))


def brute_alpha(graph: Graph) -> int:
    best = 0
    for size in range(graph.n, 0, -1):
        for subset in combinations(range(graph.n), size):
            s = set(subset)
            if all(not (u in s and v in s) for u, v in graph.edges):
                return size
    return best


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


def brute_max_clique_complement(graph: Graph) -> int:
    """Max clique of the complement graph, by subset enumeration."""
    comp_edges = set()
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if (u, v) not in set(graph.edges):
                comp_edges.add((u, v))
    best = 0
    for size in range(graph.n, 0, -1):
        for subset in combinations(range(graph.n), size):
            if all((min(a, b), max(a, b)) in comp_edges for a, b in combinations(subset, 2)):
                return size
    return best


def from_networkx(g) -> Graph:
    relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return build_graph(g.number_of_nodes(), [(relabel[u], relabel[v]) for u, v in g.edges()])


def connected_atlas(max_n: int):
    """All connected graphs with 1 <= n <= max_n, one per isomorphism class."""
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(g):
            out.append(from_networkx(g))
    return out


def all_labeled_connected_graphs(n: int):
    """Every labeled connected simple graph on n vertices (brute force)."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        graph = build_graph(n, edges)
        if graph.is_connected():
            out.append(graph)
    return out


def random_graph(rnd: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p
    ]
    return build_graph(n, edges)


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


def random_connected_graph(rnd: random.Random, n: int, p: float) -> Graph:
    while True:
        graph = random_graph(rnd, n, p)
        if graph.is_connected():
            return graph


def draw_connected_graph(data, min_n: int, max_n: int) -> Graph:
    """A connected graph drawn through hypothesis's ``data``: a random tree
    plus any subset of the other vertex pairs."""
    n = data.draw(st.integers(min_n, max_n))
    edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, sorted(edges | {e for e, keep in zip(pairs, extra) if keep}))
