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

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DisconnectedGraphError, GonalityError
from .graphs import Graph, _checked_int, genus


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
    """Convenience constructor: ``divisor(1, 0, 2)``.  Raises
    :class:`GonalityError` for a non-integer entry."""
    return Divisor(tuple(_ints(chips, "divisor")))


def canonical_divisor(graph: Graph) -> Divisor:
    """The divisor with ``val(v) - 2`` chips at every vertex."""
    return Divisor(tuple(d - 2 for d in graph.degrees))


def apply_firing(graph: Graph, div: Divisor, script: FiringScript) -> Divisor:
    """Apply a firing script: each vertex v loses ``f(v) * val(v)`` chips and
    gains ``f(u)`` from each neighbor u.  Degree is preserved.  Raises
    :class:`GonalityError` for a wrong length or a non-integer entry."""
    chips = _int_entries(graph, div.chips, "divisor")
    return Divisor(tuple(_fired(graph, chips, _int_entries(graph, script.fires, "script"))))


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

    Decided by one reduction: ``a ~ b`` exactly when ``a - b`` reduces to the
    zero divisor at base vertex 0, as the zero divisor is 0-reduced and each
    class has one reduced form.  Reduction keeps the degree, so divisors of
    unequal degree never pass.
    """
    a_chips, b_chips = (_int_entries(graph, d.chips, "divisor") for d in (a, b))
    return not any(_reduce_chips(graph, [x - y for x, y in zip(a_chips, b_chips)], 0))


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
    on 0-reduced forms, with ``r = -1`` where the base vertex is in debt,
    on the smaller side of Riemann-Roch (Baker-Norine), as its cost grows
    with degree: ``deg D > g - 1`` gives ``deg D - g + 1 + r(K - D)``.
    Negative degree gives -1 without a reduction.
    One loop walks the recursion on an explicit stack, so deep divisors
    need no Python recursion.  It reduces a child ``D - v`` only when its
    scan reaches v, trying chip-free vertices first, and it stops a node's
    scan at the first child of rank -1, as no later child can go lower.
    Every rank found by the recursion is memoized on its reduced form, so
    repeated queries against the same graph stay cheap.  The memo belongs
    to the ``graph`` object and is freed with it: an equal but distinct
    :class:`Graph` starts with an empty memo.
    """
    chips = _int_entries(graph, div.chips, "divisor")
    _require_connected(graph)
    shift = max(0, sum(chips) - genus(graph) + 1)  # deg D - g + 1 where it is positive
    if shift:  # the dual K - D has the smaller degree
        chips = [k - c for k, c in zip(canonical_divisor(graph).chips, chips)]
    if sum(chips) < 0:
        return shift - 1
    return shift + _rank_of_reduced(graph, tuple(_reduce_chips(graph, chips, 0)))


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
    return FiringScript(parse_divisor(text, n).chips)


# -- internals ---------------------------------------------------------------

def _int_entries(graph: Graph, values: Sequence[int], what: str) -> list[int]:
    """``values`` as a new list of ints, one per vertex, else a :class:`GonalityError`."""
    if len(values) != graph.n:
        raise GonalityError(f"{what} has {len(values)} entries, graph has {graph.n} vertices")
    return _ints(values, what)


def _ints(values: Sequence[int], what: str) -> list[int]:
    """``values`` as a new list of ints, else a :class:`GonalityError`."""
    try:
        return list(map(operator.index, values))
    except TypeError as exc:
        raise GonalityError(f"{what} has a non-integer entry: {exc}") from None


def _reduced(graph: Graph, div: Divisor, q: int = 0, script: Optional[list[int]] = None) -> list[int]:
    """Checked :func:`_reduce_chips` on a copy of ``div``'s chips."""
    chips = _int_entries(graph, div.chips, "divisor")
    return _reduce_chips(graph, chips, _checked_int(q, "reduction", "base vertex"), script)


def _fired(graph: Graph, chips: Sequence[int], fires: Sequence[int]) -> list[int]:
    """``chips`` after each vertex v fires ``fires[v]`` times: v loses
    ``fires[v] * val(v)`` chips and gains ``fires[u]`` from each neighbor u."""
    adj = graph.adjacency
    return [c - f * d + sum(fires[u] for u in adj[v])
            for v, (c, f, d) in enumerate(zip(chips, fires, graph.degrees))]


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


def _reduce_chips(graph: Graph, chips: list[int], q: int, script: Optional[list[int]] = None) -> list[int]:
    """Reduce ``chips`` to q-reduced form in place and return it.

    Phase 1 clears debt away from q by firing balls around q, pushing chips
    outward layer by layer from the farthest layer inward.  If it ran, and
    left some vertex far above its valence, :func:`_jump` lands every
    v != q near the middle of its reduced range in one linear solve, and
    borrows back any debt the landing left.  Phase 2 runs Dhar's burning
    repeatedly, firing the unburnt set U as many times as its chips allow,
    until the whole graph burns.  Firing U by t moves chips across the cut
    only, so a round fires the burnt side by -t instead: it costs the burnt
    side's volume plus the cut, not n plus U's volume, and the script adds
    the rounds' total t to every entry once at the end.  Neither the jump
    nor phase 2 fires q, so the script keeps phase 1's q-entry, and the
    jump changes neither the result nor the script, only how many Dhar
    rounds it takes.  The burn stays scalar beside the batched
    ``search._burn``: run as a 1-row numpy burn, that kernel
    made the ``divisor_queries`` benchmark about three times slower, as each
    small burn pays numpy's fixed per-call cost.  Raises
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
        _jump(graph, chips, q, script)

    # phase 2: Dhar rounds.  A burn from q lists the burnt side B in order
    # and the vertices it touched; those left unburnt are U's side of the cut.
    total = 0
    while True:
        burnt_nbrs = [0] * n
        burnt = bytearray(n)
        burnt[q] = 1
        order = [q]
        touched = []
        for u in order:
            for w in adj[u]:
                if not burnt[w]:
                    if not burnt_nbrs[w]:
                        touched.append(w)
                    burnt_nbrs[w] += 1
                    if burnt_nbrs[w] > chips[w]:
                        burnt[w] = 1
                        order.append(w)
        if len(order) == n:
            if total:
                for v in range(n):
                    script[v] += total
            return chips
        cut = [w for w in touched if not burnt[w]]
        t = min(chips[w] // burnt_nbrs[w] for w in cut)
        for w in cut:
            chips[w] -= t * burnt_nbrs[w]
            for u in adj[w]:
                if burnt[u]:
                    chips[u] += t
        if script is not None:
            for u in order:
                script[u] -= t
            total += t


_JUMP_FACTOR = 8  # jump once some v != q holds this many times val(v) chips
_JUMP_MAX_CHIPS = 2**53  # float64 holds every integer below this exactly
_JUMP_MAX_N = 1024  # the dense solve takes 8 n^2 bytes and O(n^3) time


def _jump(graph: Graph, chips: list[int], q: int, script: Optional[list[int]]) -> None:
    """Fire ``chips`` (nonnegative away from q) close to q-reduced, in place.

    A q-reduced divisor holds ``0 .. val(v) - 1`` chips at each v != q, so
    the jump aims at the middle of that range, ``mid(v) = (val(v) - 1) // 2``.
    It solves ``L_q x = chips - mid`` off q, with ``x(q) = 0`` and ``L_q`` the
    reduced Laplacian, and fires ``s = floor(x)``: in exact arithmetic every
    v != q then lands strictly within ``val(v)`` of ``mid(v)``.  A landing
    outside that band can only come from float error, so the jump is turned
    down there and costs Dhar rounds, never correctness.  A landing inside
    it may leave some v != q in debt, which :func:`_borrow` clears.  Neither
    step fires q, and only one script with a given q-entry leads to the
    reduced divisor, so the chips and script that :func:`_reduce_chips`
    returns are the same with or without the jump.  Skipped unless some
    v != q holds at least ``_JUMP_FACTOR * val(v)`` chips, or when a chip
    count is too large for float64 or the graph too large for a dense solve.
    Each jump solves afresh: a reduction jumps at most once, and an inverse
    kept for reuse costs three solves to build and pages in twice the LAPACK
    code.
    """
    n = graph.n
    # val(v) >= 1, so one max rules out most calls before the exact trigger
    if max(chips) < _JUMP_FACTOR or n > _JUMP_MAX_N:
        return
    deg = graph.degrees
    if all(chips[v] < _JUMP_FACTOR * deg[v] for v in range(n) if v != q):
        return
    mid = [(d - 1) // 2 for d in deg]
    rhs = [c - m for c, m in zip(chips, mid)]
    rhs[q] = 0
    if max(rhs) >= _JUMP_MAX_CHIPS:
        return
    # L_q, with row and column q replaced by the unit vector e_q so that the
    # solve keeps x(q) = rhs(q) = 0
    lap = np.diag(np.asarray(deg, dtype=np.float64)) - graph.adjacency_matrix
    lap[q, :] = lap[:, q] = 0
    lap[q, q] = 1
    x = np.linalg.solve(lap, np.asarray(rhs, dtype=np.float64))
    s = [int(f) for f in np.floor(x).tolist()]
    fired = _fired(graph, chips, s)
    if any(abs(c - m) >= d for v, (c, m, d) in enumerate(zip(fired, mid, deg)) if v != q):
        return
    chips[:] = fired
    if script is not None:
        for v in range(n):
            script[v] += s[v]
    _borrow(graph, chips, q, script)


def _borrow(graph: Graph, chips: list[int], q: int, script: Optional[list[int]]) -> None:
    """Clear the debt away from q in place by single-vertex borrowing.

    Each v != q in debt fires ``-k`` times, ``k = ceil(debt / val(v))``, the
    fewest that clear its debt, and the neighbours this puts into debt wait
    their turn.  Each borrow is forced, so the script falls monotonically to
    the greatest debt-free script below where it started, and q never fires.
    """
    adj = graph.adjacency
    deg = graph.degrees
    todo = [v for v, c in enumerate(chips) if c < 0 and v != q]
    while todo:
        v = todo.pop()
        k = (deg[v] - 1 - chips[v]) // deg[v]
        chips[v] += k * deg[v]
        if script is not None:
            script[v] -= k
        for u in adj[v]:
            chips[u] -= k
            if u != q and chips[u] + k >= 0 > chips[u]:  # u just went into debt
                todo.append(u)


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
    rank the recursion finds goes into the ``graph`` object's own memo.
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
