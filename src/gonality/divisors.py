"""Divisors and chip-firing: reduction, equivalence, effectivity, rank.

A divisor assigns an integer number of chips to every vertex.  Firing a
vertex sends one chip along each incident edge; firing a set fires every
member once.  Two divisors are linearly equivalent when a firing script
(net fire count per vertex) transforms one into the other.

The canonical form of a divisor class relative to a base vertex ``q`` is the
q-reduced divisor: nonnegative away from ``q`` and stable under Dhar's
burning test (a fire started at ``q`` consumes the whole graph).  Reduction
is the workhorse behind every decision procedure here.

Chip counts are Python integers, so intermediate values cannot silently
wrap no matter how large firing scripts grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DisconnectedGraphError, GonalityError
from .graphs import Graph


@dataclass(frozen=True)
class Divisor:
    """Chip assignment on the vertices of an associated graph."""

    chips: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.chips)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.chips)

    def minus_vertex(self, v: int) -> "Divisor":
        chips = list(self.chips)
        chips[v] -= 1
        return Divisor(tuple(chips))

    def plus_vertex(self, v: int) -> "Divisor":
        chips = list(self.chips)
        chips[v] += 1
        return Divisor(tuple(chips))

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(a + b for a, b in zip(self.chips, other.chips, strict=True)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(a - b for a, b in zip(self.chips, other.chips, strict=True)))


@dataclass(frozen=True)
class FiringScript:
    """Net number of times each vertex fires; negative entries borrow."""

    fires: tuple[int, ...]

    @classmethod
    def zero(cls, n: int) -> "FiringScript":
        return cls((0,) * n)


def divisor(*chips: int) -> Divisor:
    """Convenience constructor: ``divisor(1, 0, 2)``."""
    return Divisor(tuple(int(c) for c in chips))


def canonical_divisor(graph: Graph) -> Divisor:
    """The divisor with ``val(v) - 2`` chips at every vertex."""
    return Divisor(tuple(d - 2 for d in graph.degrees))


def apply_firing(graph: Graph, div: Divisor, script: FiringScript) -> Divisor:
    """Apply a firing script: each vertex v loses ``f(v) * val(v)`` chips and
    gains ``f(u)`` from each neighbor u.  Degree is preserved."""
    _check_size(graph, div.chips, "divisor")
    _check_size(graph, script.fires, "script")
    f = script.fires
    deg = graph.degrees
    adj = graph.adjacency
    out = [
        div.chips[v] - f[v] * deg[v] + sum(f[u] for u in adj[v])
        for v in range(graph.n)
    ]
    return Divisor(tuple(out))


def q_reduce(graph: Graph, div: Divisor, q: int = 0) -> Divisor:
    """The unique q-reduced divisor linearly equivalent to ``div``.

    Requires a connected graph.  Idempotent, and constant on linear
    equivalence classes.
    """
    return Divisor(tuple(_reduced(graph, div, q)))


def q_reduce_with_script(graph: Graph, div: Divisor, q: int = 0) -> tuple[Divisor, FiringScript]:
    """Like :func:`q_reduce` but also returns the script that was applied."""
    script = [0] * graph.n
    chips = _reduced(graph, div, q, script)
    return Divisor(tuple(chips)), FiringScript(tuple(script))


def linearly_equivalent(graph: Graph, a: Divisor, b: Divisor) -> bool:
    """Whether some firing script transforms ``a`` into ``b``.

    Decided by comparing q-reduced forms at base vertex 0.  Reduction keeps
    the degree, so divisors of unequal degree never compare equal.
    """
    return _reduced(graph, a) == _reduced(graph, b)


def effective_representative(graph: Graph, div: Divisor) -> Optional[Divisor]:
    """An effective divisor equivalent to ``div``, or ``None``.

    The q-reduced form is itself effective exactly when its value at the
    base vertex is nonnegative, so reduction decides existence and supplies
    the witness in one step.
    """
    chips = _reduced(graph, div)
    if chips[0] < 0:
        return None
    return Divisor(tuple(chips))


def has_positive_rank(graph: Graph, div: Divisor) -> bool:
    """Whether ``div - v`` is equivalent to an effective divisor for every v."""
    red = _reduced(graph, div)
    return red[0] >= 0 and _positive_rank_scripts(graph, red) is not None


def rank(graph: Graph, div: Divisor) -> int:
    """Baker-Norine rank.

    ``-1`` when ``div`` has no effective equivalent; otherwise the largest k
    such that ``div - E`` keeps an effective equivalent for every effective E
    of degree k.  Computed through the recursion ``r(D) = 1 + min_v r(D - v)``
    on 0-reduced forms, with ``r = -1`` where the base vertex is in debt.
    One loop walks it on an explicit stack, so deep divisors need no Python
    recursion.  It reduces a child ``D - v`` only when its scan reaches v,
    trying chip-free vertices first, and it stops a node's scan at the first
    child of rank -1.  Every rank found is memoized on its reduced form, so
    repeated queries against the same graph stay cheap.  The memo belongs
    to the ``graph`` object and is freed with it: an equal but distinct
    :class:`Graph` starts with an empty memo.
    """
    return _rank_of_reduced(graph, tuple(_reduced(graph, div)))


def serialize_divisor(div: Divisor) -> str:
    return " ".join(str(c) for c in div.chips)


def parse_divisor(text: str, n: Optional[int] = None) -> Divisor:
    try:
        chips = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise GonalityError(f"non-integer chip value in {text!r}") from exc
    if n is not None and len(chips) != n:
        raise GonalityError(f"divisor has {len(chips)} entries, graph has {n} vertices")
    return Divisor(chips)


def serialize_firing_script(script: FiringScript) -> str:
    return " ".join(str(c) for c in script.fires)


def parse_firing_script(text: str, n: Optional[int] = None) -> FiringScript:
    div = parse_divisor(text, n)
    return FiringScript(div.chips)


# -- internals ---------------------------------------------------------------

def _check_size(graph: Graph, values: tuple[int, ...], what: str) -> None:
    if len(values) != graph.n:
        raise GonalityError(f"{what} has {len(values)} entries, graph has {graph.n} vertices")


def _reduced(graph: Graph, div: Divisor, q: int = 0, script: Optional[list[int]] = None) -> list[int]:
    """Size-checked :func:`_reduce_chips` on a copy of ``div``'s chips."""
    _check_size(graph, div.chips, "divisor")
    return _reduce_chips(graph, list(div.chips), q, script)


def _require_connected(graph: Graph) -> None:
    if len(graph.components) != 1:
        raise DisconnectedGraphError("operation requires a connected graph")


def _bfs_layers(graph: Graph, q: int) -> tuple[list[list[int]], list[int], list[int]]:
    """BFS layering from q on a connected graph.

    Returns ``(layers, e_in, e_out)`` where ``e_in[u]`` counts u's neighbors
    one layer closer to q and ``e_out[u]`` those one layer farther.  Kept
    per base vertex in the ``graph`` object's own table, so it is freed with
    the graph.
    """
    tables = graph._layer_tables
    hit = tables.get(q)
    if hit is not None:
        return hit
    n = graph.n
    adj = graph.adjacency
    dist = [-1] * n
    dist[q] = 0
    layers = [[q]]
    frontier = [q]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    e_in = [0] * n
    e_out = [0] * n
    for u in range(n):
        for w in adj[u]:
            if dist[w] == dist[u] - 1:
                e_in[u] += 1
            elif dist[w] == dist[u] + 1:
                e_out[u] += 1
    result = tables[q] = (layers, e_in, e_out)
    return result


def _dhar_unburnt(graph: Graph, chips: list[int], q: int) -> list[tuple[int, int]]:
    """Dhar's burning test from q.

    A vertex burns once its burnt neighbors outnumber its chips.  Returns
    ``(v, burnt_neighbor_count)`` for each unburnt vertex; the count doubles
    as v's out-degree across the unburnt set's boundary.  Empty result means
    the whole graph burnt, i.e. the divisor is q-reduced (given chips are
    nonnegative away from q).  It stays beside the batched
    ``search._burns_everything``: run as a 1-row burn in
    :func:`_reduce_chips`, that kernel made the ``divisor_queries``
    benchmark about three times slower, as each small burn pays numpy's
    fixed per-call cost.
    """
    adj = graph.adjacency
    burnt_nbrs = [0] * graph.n
    burnt = bytearray(graph.n)
    burnt[q] = 1
    stack = [q]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not burnt[w]:
                burnt_nbrs[w] += 1
                if burnt_nbrs[w] > chips[w]:
                    burnt[w] = 1
                    stack.append(w)
    return [(v, burnt_nbrs[v]) for v in range(graph.n) if not burnt[v]]


def _reduce_chips(graph: Graph, chips: list[int], q: int, script: Optional[list[int]] = None) -> list[int]:
    """Reduce ``chips`` to q-reduced form in place and return it.

    Phase 1 clears debt away from q by firing balls around q, pushing chips
    outward layer by layer from the farthest layer inward.  Phase 2 runs
    Dhar's burning repeatedly, firing the unburnt set as many times as its
    chips allow, until the whole graph burns.  Raises
    :class:`DisconnectedGraphError` unless the graph is connected.
    """
    _require_connected(graph)
    n = graph.n
    if not (0 <= q < n):
        raise GonalityError(f"base vertex {q} outside [0, {n})")
    adj = graph.adjacency

    # phase 1: for each layer (far to near), fire the ball inside it until
    # the layer is debt-free; only the ball's boundary layer pays.  Skipped
    # when nothing away from q is in debt, as it would fire nothing.
    at_q = chips[q]
    chips[q] = 0
    debt = min(chips) < 0
    chips[q] = at_q
    if debt:
        layers, e_in, e_out = _bfs_layers(graph, q)
        for i in range(len(layers) - 1, 0, -1):
            t = 0
            for u in layers[i]:
                if chips[u] < 0:
                    t = max(t, (-chips[u] + e_in[u] - 1) // e_in[u])
            if t == 0:
                continue
            for u in layers[i]:
                chips[u] += t * e_in[u]
            for w in layers[i - 1]:
                chips[w] -= t * e_out[w]
            if script is not None:
                for j in range(i):
                    for w in layers[j]:
                        script[w] += t

    # phase 2: Dhar iterations; fire the unburnt set maximally each round.
    while True:
        unburnt = _dhar_unburnt(graph, chips, q)
        if not unburnt:
            return chips
        t = min(chips[v] // bn for v, bn in unburnt if bn > 0)
        unburnt_set = {v for v, _ in unburnt}
        for v, bn in unburnt:
            chips[v] -= t * bn
            for w in adj[v]:
                if w not in unburnt_set:
                    chips[w] += t
        if script is not None:
            for v in unburnt_set:
                script[v] += t


def _positive_rank_scripts(graph: Graph, chips: Sequence[int]) -> Optional[list[list[int]]]:
    """For effective ``chips``, one script per v taking ``chips - v`` to an
    effective divisor, or ``None`` if some v has none.

    Where v holds no chip, ``chips - v`` is nonnegative away from v, so
    reducing it at base v runs Dhar rounds only, and the result is effective
    exactly when its value at v is; that reduction's script is the witness.
    """
    n = graph.n
    scripts = []
    for v in range(n):
        script = [0] * n
        if chips[v] == 0:
            rest = list(chips)
            rest[v] = -1
            if _reduce_chips(graph, rest, v, script)[v] < 0:
                return None
        scripts.append(script)
    return scripts


def _rank_of_reduced(graph: Graph, key: tuple[int, ...]) -> int:
    """Rank of the 0-reduced divisor ``key``; the loop :func:`rank` describes.

    A frame is ``[key, vertex order, next index, min child rank]``.  Every
    rank found goes into the ``graph`` object's own memo.
    """
    cache = graph._rank_memo
    frames: list[list] = []
    while True:
        r = cache.get(key)
        if r is None and key[0] >= 0:
            # chip-free vertices first: their children are the likeliest to
            # have rank -1.  A child has degree deg D - 1, so its rank is
            # below deg D, where the min starts.
            frames.append([key, sorted(range(graph.n), key=key.__getitem__), 0, sum(key)])
        else:
            if r is None:
                r = cache[key] = -1
            # hand r to its parent, and close every frame that this finishes
            while frames:
                fr = frames[-1]
                fr[3] = min(fr[3], r)
                if fr[3] > -1 and fr[2] < graph.n:
                    break
                r = cache[fr[0]] = fr[3] + 1
                frames.pop()
            else:
                return r
        fr = frames[-1]
        v = fr[1][fr[2]]
        fr[2] += 1
        chips = list(fr[0])
        chips[v] -= 1
        # losing a chip keeps the divisor reduced unless v goes into debt
        if v and chips[v] < 0:
            _reduce_chips(graph, chips, 0)
        key = tuple(chips)
