"""Bounding machinery: exact treewidth, tree-decomposition validation,
maximum independent sets, the edge-scramble cut test, and the random-graph
independence estimate.

Treewidth and the edge scramble bound gonality from below; ``n - alpha``
bounds it from above.  Treewidth and ``n - alpha`` come with checkable
artifacts: a tree decomposition that the validator accepts, and an
independent set whose independence is re-checked on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import EdgeCountError, GonalityError, MalformedHeaderError, SizeLimitError
from .graphs import Graph, build_graph, degeneracy, induced_subgraph


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
    counts the explored nodes that the clique-cover bound cut."""

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


# The DP keeps two lists of 2^n entries: at n = 24 about 0.25 GiB and a
# minute of CPU, and each further vertex doubles the memory
_TW_MAX_N = 24


def treewidth_exact(graph: Graph, size_limit: int = 16) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition.

    Dynamic programming over subsets of eliminated vertices: the width of
    the best elimination order with prefix S satisfies
    ``f(S) = min_v max(f(S - v), backdegree(S - v, v))`` where the
    back-degree counts neighbors of v's component within the prefix.  The
    optimal order is then turned into bags by simulated elimination with
    fill-in.  Refuses graphs above ``size_limit``, or above the fixed
    ceiling ``_TW_MAX_N`` whatever the limit, before allocating anything.
    """
    n = graph.n
    limit = min(size_limit, _TW_MAX_N)
    if n > limit:
        raise SizeLimitError(f"treewidth_exact limited to n <= {limit}, got {n}")
    if n == 0:
        return -1, TreeDecomposition((frozenset(),), ())
    adj = graph.adjacency_bits
    size = 1 << n
    f = [0] * size
    choice = [0] * size
    for s in range(1, size):
        best = n + 1
        bestv = -1
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            t = s ^ low
            w = f[t]
            if w < best:
                back = _back_degree(adj, t, v)
                if back > w:
                    w = back
                if w < best:
                    best = w
                    bestv = v
            m ^= low
        f[s] = best
        choice[s] = bestv
    order = []
    s = size - 1
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    td = _decomposition_from_order(graph, order)
    if td.width != f[size - 1]:
        raise GonalityError("decomposition width disagrees with DP value; this is a bug")
    return f[size - 1], td


def treewidth_lower_bound(graph: Graph) -> int:
    """Certified lower bound: the degeneracy (dominates minimum degree)."""
    return degeneracy(graph)


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
    """Exact maximum independent set by branch and bound.

    Branches on a vertex of maximum degree within the remaining pool
    (include it and drop its closed neighborhood, or exclude it), primed
    with a greedy incumbent and pruned with a greedy clique-cover bound.
    A node ``budget`` turns exhaustion into a flagged lower bound instead of
    an error.

    The search runs on relabelled bitsets: label r is the r-th vertex in
    descending-degree order (ties by vertex), so each clique-cover seed and
    each clique member is the lowest set bit of its mask.  Branching-vertex
    ties still break by the original vertex label.  An explicit stack
    replaces recursion and pops the include child first, so deep searches on
    large sparse graphs cannot exhaust Python's recursion limit.
    """
    n = graph.n
    if n == 0:
        return MISResult(IndependentSet(frozenset()), True, 0)

    deg = graph.degrees
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    label = [0] * n
    for r, v in enumerate(order):
        label[v] = r
    adj = [sum(1 << label[w] for w in graph.adjacency[v]) for v in order]

    # greedy incumbent: take vertices in ascending degree, skip conflicts
    best = 0
    blocked = 0
    for v in sorted(range(n), key=lambda u: (deg[u], u)):
        r = label[v]
        b = 1 << r
        if not (blocked & b):
            best |= b
            blocked |= b | adj[r]
    best_size = best.bit_count()

    nodes = pruned = 0
    truncated = False
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        pool, picked, size = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            truncated = True
            break
        if not pool:
            if size > best_size:
                best, best_size = picked, size
            continue
        # greedy clique cover; stop counting once it can no longer prune
        slack = best_size - size
        rem = pool
        k = 0
        while rem and k <= slack:
            k += 1
            low = rem & -rem
            rem ^= low
            inter = adj[low.bit_length() - 1] & rem
            while inter:
                low = inter & -inter
                rem ^= low
                inter &= adj[low.bit_length() - 1]
        if k <= slack:
            pruned += 1
            continue
        v, vdeg = -1, -1
        m = pool
        while m:
            low = m & -m
            u = low.bit_length() - 1
            d = (adj[u] & pool).bit_count()
            if d > vdeg or (d == vdeg and order[u] < order[v]):
                v, vdeg = u, d
            m ^= low
        b = 1 << v
        stack.append((pool & ~b, picked, size))
        stack.append((pool & ~(adj[v] | b), picked | b, size + 1))

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

def _back_degree(adj: tuple[int, ...], prefix: int, v: int) -> int:
    """Neighbors outside the prefix of v's component within prefix + v."""
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
    return (nb & ~prefix & ~(1 << v)).bit_count()


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
    """Bags from simulated elimination with fill-in along the given order."""
    n = graph.n
    adj = list(graph.adjacency_bits)
    alive = (1 << n) - 1
    position = {v: i for i, v in enumerate(order)}
    bags = []
    parents: list[Optional[int]] = []
    for i, v in enumerate(order):
        nbrs = adj[v] & alive & ~(1 << v)
        bag = {v}
        parent: Optional[int] = None
        best_pos = n + 1
        m = nbrs
        while m:
            low = m & -m
            u = low.bit_length() - 1
            bag.add(u)
            if position[u] < best_pos:
                best_pos = position[u]
                parent = position[u]
            adj[u] |= nbrs & ~low
            m ^= low
        bags.append(frozenset(bag))
        parents.append(parent)
        alive ^= 1 << v
    edges = [(i, p) for i, p in enumerate(parents) if p is not None]
    roots = [i for i, p in enumerate(parents) if p is None]
    # isolated-at-elimination bags start their own subtree; chain the roots
    # so the result is a single tree (safe: the linked bags share no vertex)
    edges.extend((roots[j], roots[j + 1]) for j in range(len(roots) - 1))
    return TreeDecomposition(tuple(bags), tuple(edges))
