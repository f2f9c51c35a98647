"""Bounding machinery: exact treewidth, tree-decomposition validation,
maximum independent sets, the edge-scramble cut test, and the random-graph
independence estimate.

Treewidth and the edge scramble bound gonality from below; ``n - alpha``
bounds it from above.  Treewidth and ``n - alpha`` come with checkable
artifacts: a tree decomposition that the validator accepts, and an
independent set.  :class:`IndependentSet` checks nothing; ``gonality()``,
``complement_divisor`` and ``certify_independence_bound`` check the set
where they use it, in ``search._check_independent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import EdgeCountError, GonalityError, MalformedHeaderError, SizeLimitError
from .graphs import Graph, _checked_int, build_graph, degeneracy, induced_subgraph


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags of vertices arranged in a tree (edges join bag indices)."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of tree-decomposition validation.

    ``violation`` names the first failed requirement: "tree structure",
    "property 1" (every vertex in a bag), "property 2" (bags holding a
    vertex form a subtree), or "property 3" (every edge inside a bag).
    """

    valid: bool
    violation: Optional[str]
    width: int

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class IndependentSet:
    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class MISResult:
    """Search outcome; ``exact`` is False when the node budget ran out and
    the set is only a certified lower bound for alpha.  ``nodes_pruned``
    counts the explored nodes that branch on nothing, because their pool
    splits into too few cliques for any vertex's class to beat the
    incumbent."""

    independent: IndependentSet
    exact: bool
    nodes_explored: int
    nodes_pruned: int = 0

    @property
    def alpha(self) -> int:
        return self.independent.size


def validate_tree_decomposition(graph: Graph, td: TreeDecomposition) -> ValidationReport:
    """Check tree-ness and the three decomposition properties, in that order,
    reporting the first violation by name."""
    k = len(td.bags)
    width = td.width

    # tree structure: the edges build a simple graph on the bag indices
    # (valid indices, no loops or duplicates) that is connected and acyclic
    try:
        tree = build_graph(k, td.tree_edges)
    except GonalityError:
        return ValidationReport(False, "tree structure", width)
    if tree.m != k - 1 or not tree.is_connected():
        return ValidationReport(False, "tree structure", width)

    # property 1 also catches bag members outside the vertex range
    covered = frozenset().union(*td.bags)
    if covered != frozenset(range(graph.n)):
        return ValidationReport(False, "property 1", width)

    for v in range(graph.n):
        holding = [i for i, bag in enumerate(td.bags) if v in bag]
        if not induced_subgraph(tree, holding)[0].is_connected():
            return ValidationReport(False, "property 2", width)

    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return ValidationReport(False, "property 3", width)

    return ValidationReport(True, None, width)


# The DP's one list of 2^n widths takes 128 MiB at n = 24, but the ceiling
# guards the minute of CPU there; each further vertex doubles both
_TW_MAX_N = 24


def treewidth_exact(graph: Graph, size_limit: int = 16) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition.

    Dynamic programming over subsets of eliminated vertices: the width of
    the best elimination order with prefix S satisfies
    ``f(S) = min_v max(f(S - v), |Q(S - v, v)|)`` where ``Q(S, v)`` is the
    set of vertices outside ``S + v`` that v reaches through S.  The order
    is read back from the table from the full set down, at each step the
    least v that attains ``f(S)``, and made into bags by
    :func:`_decomposition_from_order`.  Refuses graphs above ``size_limit``,
    or above the ceiling ``_TW_MAX_N`` whatever the limit, before allocating.
    """
    n = graph.n
    limit = min(_checked_int(size_limit, "treewidth_exact", "size limit", 0), _TW_MAX_N)
    if n > limit:
        raise SizeLimitError(f"treewidth_exact limited to n <= {limit}, got {n}")
    if n == 0:
        return -1, TreeDecomposition((frozenset(),), ())
    adj = graph.adjacency_bits
    size = 1 << n
    f = [0] * size
    for s in range(1, size):
        best = n
        m = s
        while m:
            low = m & -m
            t = s ^ low
            w = f[t]
            if w < best:
                back = _reach_through(adj, t, low.bit_length() - 1).bit_count()
                if back > w:
                    w = back
                if w < best:
                    best = w
            m ^= low
        f[s] = best
    order = []
    s = size - 1
    while s:
        v = next((v for v in range(n) if s >> v & 1 and f[s ^ 1 << v] <= f[s]
                  and _reach_through(adj, s ^ 1 << v, v).bit_count() <= f[s]), None)
        if v is None:
            raise GonalityError("no vertex attains the DP value; this is a bug")
        order.append(v)
        s ^= 1 << v
    order.reverse()
    td = _decomposition_from_order(graph, order)
    if td.width != f[size - 1]:
        raise GonalityError("decomposition width disagrees with DP value; this is a bug")
    return f[size - 1], td


treewidth_lower_bound = degeneracy  # certified, and it dominates the minimum degree


def egg_cuts_reach(graph: Graph, k: int) -> bool:
    """Whether every edge cut ``δ(A)`` with an edge inside A and an edge
    inside ``V - A`` has at least k edges (true when no such A exists).

    This is the egg-cut half of the edge scramble, whose eggs are the
    edges: its hitting number is the vertex cover number ``n - alpha``, and
    its egg-cut number is the smallest such cut.  The scramble number
    bounds gonality from below (Harp, Jackson, Jensen and Speeter,
    arXiv:2006.01020), so on a connected graph where this holds for
    ``k = n - alpha``, gonality is exactly ``n - alpha``.

    Three stages, each polynomial.  An edge uv whose two ends have fewer
    than k other edges, with an edge clear of both ends, is a cut below k.
    A set of j vertices has a cut of at least its j smallest degrees less
    ``j - 1`` each (never below 0), so when every size 2 to n - 2 has that
    floor at k on itself or its complement, every cut reaches k.  Otherwise
    the cuts are checked by unit-capacity flows: a smallest valid A may be
    taken to hold a least-degree vertex s that has an edge, and then s has
    a neighbour in A (else moving s out would shrink the cut), so it is
    enough to separate each edge at s from each edge clear of it.
    """
    n, m = graph.n, graph.m
    deg = graph.degrees
    for u, v in graph.edges:
        if deg[u] + deg[v] - 2 < k and m - deg[u] - deg[v] + 1 > 0:
            return False
    ds = sorted(deg)
    floors = [sum(max(0, d - j + 1) for d in ds[:j]) for j in range(n + 1)]
    if all(max(floors[j], floors[n - j]) >= k for j in range(2, n - 1)):
        return True
    adj = graph.adjacency_bits
    s = min(range(n), key=lambda v: (not deg[v], deg[v]))
    for w in graph.adjacency[s]:
        source = 1 << s | 1 << w
        for a, b in graph.edges:
            sink = 1 << a | 1 << b
            if not source & sink and not _disjoint_paths_reach(adj, source, sink, k):
                return False
    return True


def maximum_independent_set(graph: Graph, budget: Optional[int] = None) -> MISResult:
    """Exact maximum independent set by colour-ordered branch and bound:
    Tomita and Seki's MCQ (DMTCS 2003) on the complement, in the bitset
    form of San Segundo et al. (Computers & OR 2011).

    Each node splits its pool greedily into cliques of the graph, the
    colour classes of the complement, so a vertex of class k heads a
    subtree that adds at most k vertices.  It branches on its vertices
    from the last class back, each child taking u and dropping u's closed
    neighborhood and the vertices branched on before it, until ``size + k``
    cannot beat the incumbent, which a greedy set primes.  A node
    ``budget`` turns exhaustion into a flagged lower bound instead of an
    error.

    Label r is the r-th vertex by ascending degree (ties by vertex), which
    is descending degree in the complement, as MCQ prescribes.  An explicit
    stack with one frame per level replaces recursion, so deep searches
    cannot exhaust Python's recursion limit.  A frame makes its next child
    only when the search returns to it, so the stack holds one pool per
    level, not one per pending child.
    """
    budget = None if budget is None else _checked_int(budget, "maximum_independent_set", "budget", 0)
    n = graph.n
    if n == 0:
        return MISResult(IndependentSet(frozenset()), True, 0)

    deg = graph.degrees
    order = sorted(range(n), key=lambda v: (deg[v], v))
    label = [0] * n
    for r, v in enumerate(order):
        label[v] = r
    adj = [sum(1 << label[w] for w in graph.adjacency[v]) for v in order]

    # greedy incumbent: take vertices in label order, skip conflicts
    best = 0
    blocked = 0
    for r in range(n):
        b = 1 << r
        if not (blocked & b):
            best |= b
            blocked |= b | adj[r]
    best_size = best.bit_count()

    nodes = pruned = 0
    truncated = False
    # a frame is a node still branching: its pool less the vertices branched
    # on so far, and the (vertex, class) pairs left, the last class at the end
    stack = []
    node = ((1 << n) - 1, 0, 0)
    while node:
        pool, picked, size = node
        nodes += 1
        if budget is not None and nodes > budget:
            truncated = True
            break
        if not pool:
            if size > best_size:
                best, best_size = picked, size
        else:
            # split the pool into cliques in label order; only the vertices
            # of class k > floor could lead to a larger set
            floor = best_size - size
            branch = []
            rem = pool
            k = 0
            while rem:
                k += 1
                inter = rem
                while inter:
                    low = inter & -inter
                    rem ^= low
                    u = low.bit_length() - 1
                    inter &= adj[u]
                    if k > floor:
                        branch.append((u, k))
            if branch:
                stack.append([pool, picked, size, branch])
            else:
                pruned += 1
        # next, the deepest frame's last vertex whose class can still beat
        # the incumbent; a frame without one is done
        node = None
        while stack and not node:
            frame = stack[-1]
            pool, picked, size, branch = frame
            if branch and size + branch[-1][1] > best_size:
                u = branch.pop()[0]
                b = 1 << u
                frame[0] = pool ^ b
                node = (pool & ~(adj[u] | b), picked | b, size + 1)
            else:
                stack.pop()

    vertices = frozenset(order[r] for r in range(n) if best >> r & 1)
    return MISResult(IndependentSet(vertices), not truncated, nodes, pruned)


def frieze_alpha_estimate(n: int, c: float) -> float:
    """Typical independence number of G(n, c/n) for large sparse graphs:
    ``(2/p) (ln c - ln ln c - ln 2 + 1)`` with ``p = c/n``.

    Requires ``c > e`` so the double logarithm is positive; smaller c is
    outside the estimate's regime and rejected.
    """
    if n < 1:
        raise GonalityError(f"need n >= 1, got {n}")
    if c <= math.e:
        raise GonalityError(f"estimate needs c > e ~ 2.718, got {c}")
    p = c / n
    return (2.0 / p) * _frieze_bracket(c)


def _frieze_bracket(c: float) -> float:
    """``ln c - ln ln c - ln 2 + 1``, the factor shared by the Frieze
    estimate and its ratio column; callers apply their own scale."""
    return math.log(c) - math.log(math.log(c)) - math.log(2.0) + 1.0


def serialize_tree_decomposition(td: TreeDecomposition) -> str:
    """Format: header ``k width``, k bag lines, then k-1 tree-edge lines."""
    lines = [f"{len(td.bags)} {td.width}"]
    for bag in td.bags:
        lines.append(" ".join(str(v) for v in sorted(bag)))
    for a, b in td.tree_edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def parse_tree_decomposition(text: str) -> TreeDecomposition:
    """Inverse of :func:`serialize_tree_decomposition`.

    A blank line is an empty bag, so the line count must match the header
    exactly.  Raises :class:`MalformedHeaderError` or :class:`EdgeCountError`.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines:
        raise MalformedHeaderError("empty input")
    try:
        k, width = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise MalformedHeaderError(f"expected header 'k width', got {lines[0]!r}") from exc
    if k < 0:
        raise MalformedHeaderError(f"negative bag count in header {lines[0]!r}")
    expected = 1 + k + max(k - 1, 0)
    if len(lines) != expected:
        raise EdgeCountError(f"expected {expected} lines, found {len(lines)}")
    try:
        bags = tuple(frozenset(int(tok) for tok in ln.split()) for ln in lines[1:1 + k])
        edges = tuple((int(a), int(b)) for a, b in (ln.split() for ln in lines[1 + k:]))
    except ValueError as exc:
        raise EdgeCountError(f"malformed bag or tree-edge line: {exc}") from exc
    td = TreeDecomposition(bags, edges)
    if td.width != width:
        raise MalformedHeaderError(f"header width {width}, bags give width {td.width}")
    return td


# -- internals ---------------------------------------------------------------

def _reach_through(adj: tuple[int, ...], prefix: int, v: int) -> int:
    """Q(prefix, v) as a bitmask: the vertices outside ``prefix + v`` that v
    reaches through paths whose inner vertices all lie in ``prefix``."""
    comp = 1 << v
    nb = adj[v]
    while True:
        grow = nb & prefix & ~comp
        if not grow:
            break
        comp |= grow
        while grow:
            low = grow & -grow
            nb |= adj[low.bit_length() - 1]
            grow ^= low
    return nb & ~prefix & ~(1 << v)


def _disjoint_paths_reach(adj: tuple[int, ...], source: int, sink: int, k: int) -> bool:
    """Whether k edge-disjoint paths join the vertex sets ``source`` and
    ``sink`` (bitmasks), by k breadth-first augmentations at most."""
    n = len(adj)
    sent = [0] * n  # bit v of sent[u]: one unit of net flow along u -> v
    for _ in range(k):
        parent = [-1] * n
        seen = frontier = source
        while frontier and not seen & sink:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                u = low.bit_length() - 1
                new = adj[u] & ~sent[u] & ~seen & ~grown
                grown |= new
                while new:
                    low = new & -new
                    new ^= low
                    parent[low.bit_length() - 1] = u
            seen |= grown
            frontier = grown
        reached = seen & sink
        if not reached:
            return False
        v = (reached & -reached).bit_length() - 1
        while parent[v] >= 0:
            u = parent[v]
            if sent[v] >> u & 1:
                sent[v] ^= 1 << u
            else:
                sent[u] |= 1 << v
            v = u
    return True


def _decomposition_from_order(graph: Graph, order: list[int]) -> TreeDecomposition:
    """Bags along an elimination order: v's bag is v plus ``Q(before, v)``,
    its neighbours in the filled graph that are eliminated after it (Rose,
    Tarjan and Lueker), and its parent is the bag of the earliest of them."""
    adj = graph.adjacency_bits
    position = {v: i for i, v in enumerate(order)}
    bags, edges, roots = [], [], []
    before = 0
    for i, v in enumerate(order):
        q = _reach_through(adj, before, v)
        later = [u for u in range(graph.n) if q >> u & 1]
        bags.append(frozenset([v, *later]))
        if later:
            edges.append((i, min(position[u] for u in later)))
        else:
            roots.append(i)
        before |= 1 << v
    # isolated-at-elimination bags start their own subtree; chain the roots
    # so the result is a single tree (safe: the linked bags share no vertex)
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(tuple(bags), tuple(edges))
