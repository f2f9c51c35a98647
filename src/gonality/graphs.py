"""Finite simple graphs: construction, random sampling, statistics, file I/O.

Vertices are dense integer labels ``0..n-1``.  Graphs are immutable after
construction, so they can be shared freely across threads and processes.

The edge-list text format is one header line ``n m`` followed by ``m`` lines
``u v`` (0-indexed).  Serialization writes edges with ``u < v`` in
lexicographic order; the parser accepts edges in any order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EdgeCountError,
    GonalityError,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``edges`` is a lexicographically sorted tuple of pairs ``(u, v)`` with
    ``u < v``.  Use :func:`build_graph` instead of the constructor to get
    input validation.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks; bit ``v`` of entry ``u`` means ``u ~ v``."""
        return tuple(sum(1 << v for v in nbrs) for nbrs in self.adjacency)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """0/1 adjacency matrix, for burning many divisors at once: a 0/1
        row of burnt vertices times it counts each vertex's burnt neighbors
        (exactly, as float32 holds every count up to 2**24)."""
        mat = np.zeros((self.n, self.n), dtype=np.float32)
        if self.edges:
            us, vs = np.array(self.edges).T
            mat[us, vs] = mat[vs, us] = 1
        mat.setflags(write=False)  # shared by every caller, like the graph
        return mat

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex partition into components, each sorted, ordered by least vertex."""
        seen = [False] * self.n
        adj = self.adjacency
        parts = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            parts.append(tuple(sorted(comp)))
        return tuple(parts)

    # Memo tables that the divisors module fills: BFS layers by base vertex,
    # and ranks by 0-reduced chip vector.  They live in the instance dict, so
    # they die with this object and are never shared with an equal graph;
    # equality and hashing see only ``n`` and ``edges``.
    @cached_property
    def _layer_tables(self) -> dict[int, tuple]:
        return {}

    @cached_property
    def _rank_memo(self) -> dict[tuple[int, ...], int]:
        return {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def is_connected(self) -> bool:
        return len(self.components) <= 1

    def __repr__(self) -> str:  # keep huge edge tuples out of tracebacks
        return f"Graph(n={self.n}, m={self.m})"


def _checked_int(value, caller: str, name: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` as an ``int`` in ``[least, most]``, each if given, else a :class:`GonalityError`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise GonalityError(f"{caller} needs an integer {name}, got {value!r}") from None
    if least is not None and value < least:
        raise GonalityError(f"{caller} needs {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise GonalityError(f"{caller} needs {name} <= {most}, got {value}")
    return value


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and build a :class:`Graph`.

    Rejects a vertex count that is not a nonnegative integer, and an edge
    that is not two integer endpoints, a self-loop, a duplicate unordered
    pair or an endpoint outside ``[0, n)``, each with its own exception type.
    """
    n = _checked_int(n, "build_graph", "vertex count", 0)
    seen: set[tuple[int, int]] = set()
    normalized: list[tuple[int, int]] = []
    for e in edges:
        try:
            u, v = map(operator.index, e)
        except (TypeError, ValueError) as exc:
            raise EdgeCountError(f"edge {e!r} is not two integer endpoints") from exc
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside vertex range [0, {n})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        normalized.append(key)
    return Graph(n=n, edges=tuple(sorted(normalized)))


def complete_graph(n: int) -> Graph:
    n = _checked_int(n, "complete_graph", "vertex count", 1)
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> Graph:
    n = _checked_int(n, "cycle_graph", "vertex count", 3)
    edges = sorted(tuple(sorted((v, (v + 1) % n))) for v in range(n))
    return Graph(n, tuple(edges))


def path_graph(n: int) -> Graph:
    n = _checked_int(n, "path_graph", "vertex count", 1)
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


@dataclass(frozen=True)
class GnpParams:
    """Parameters of the G(n, p) model with ``p = c / n``.

    ``p`` is always stored as exactly ``c / n``; build from an edge
    probability with :meth:`from_p` (which sets ``c = p * n`` and renormalizes,
    a no-op beyond float rounding).  ``seed`` is a 64-bit integer, and n at
    most the 10,000 vertices :func:`parse_graph` reads.
    """

    n: int
    c: float
    seed: int
    p: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _checked_int(self.n, "GnpParams", "vertex count", 1, _PARSE_MAX_N))
        object.__setattr__(self, "seed", _checked_int(self.seed, "GnpParams", "seed"))
        if not (0 <= self.seed < 2**64):
            raise GonalityError(f"seed must fit in 64 bits, got {self.seed}")
        p = self.c / self.n
        if not (0.0 <= p <= 1.0):
            raise GonalityError(f"p = c/n = {p} outside [0, 1]")
        object.__setattr__(self, "p", p)

    @classmethod
    def from_p(cls, n: int, p: float, seed: int) -> "GnpParams":
        n = _checked_int(n, "GnpParams", "vertex count", 1, _PARSE_MAX_N)  # before p * n
        return cls(n=n, c=p * n, seed=seed)


_DRAW_BLOCK = 1 << 16  # pairs sample_gnp draws at once: 64k float64s, 512 KiB


def sample_gnp(params: GnpParams) -> Graph:
    """Sample an Erdos-Renyi G(n, p) graph, bit-reproducibly.

    The generator is PCG64 (numpy's default BitGenerator), seeded with
    ``params.seed``.  One uniform real is drawn for each of the n(n-1)/2
    vertex pairs in lexicographic order; the pair becomes an edge when the
    draw is ``< p``.  Identical params therefore give identical graphs on
    every platform.  Blocks of ``_DRAW_BLOCK`` draws, each turned into edges
    in numpy, keep memory flat in n.
    """
    n = params.n
    rng = np.random.Generator(np.random.PCG64(params.seed))
    total = n * (n - 1) // 2
    edges: list[tuple[int, int]] = []
    # u's pairs (u, v) are the draws end - n + v for u < v < n, where end is
    # the draw just past u's last pair; the hits come in order, so u only
    # moves forward
    u, end = 0, n - 1
    for start in range(0, total, _DRAW_BLOCK):
        draws = rng.random(min(_DRAW_BLOCK, total - start))
        for k in (draws < params.p).nonzero()[0].tolist():
            k += start
            while k >= end:
                u += 1
                end += n - 1 - u
            edges.append((u, k - end + n))
    return Graph(n, tuple(edges))


def min_degree(graph: Graph) -> int:
    return min(graph.degrees, default=0)


def degeneracy(graph: Graph) -> int:
    """Max over subgraphs of the minimum degree, by iterated peeling."""
    deg = list(graph.degrees)
    adj = graph.adjacency
    alive = set(range(graph.n))
    best = 0
    while alive:
        v = min(alive, key=deg.__getitem__)
        best = max(best, deg[v])
        alive.remove(v)
        for w in adj[v]:
            deg[w] -= 1  # a peeled w's degree is never read again
    return best


def connected_components(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex partition into components, each sorted, ordered by least vertex."""
    return graph.components


def genus(graph: Graph) -> int:
    """First Betti number |E| - |V| + #components (cycle-space dimension)."""
    return graph.m - graph.n + len(graph.components)


def induced_subgraph(graph: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled to ``0..k-1``.

    Returns the subgraph and the tuple mapping new labels back to the
    originals (sorted ascending).
    """
    keep = tuple(sorted(set(vertices)))
    return _restricted(graph, keep)[0], keep


def _restricted(graph: Graph, keep: Sequence[int], marked: Iterable[int] = ()) -> tuple[Graph, frozenset[int]]:
    """Subgraph induced by the distinct vertices ``keep``, with ``keep[i]``
    relabeled to ``i``, and the vertices of ``marked`` in it, relabeled alike."""
    index = {v: i for i, v in enumerate(keep)}
    edges = ((index[u], index[v]) for u, v in graph.edges if u in index and v in index)
    sub = Graph(len(index), tuple(sorted((a, b) if a < b else (b, a) for a, b in edges)))
    return sub, frozenset(index[v] for v in marked if v in index)


def serialize_graph(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


# up to here the scan's n x n float32 adjacency matrix stays under 400 MB,
# and its (n + 1) x n int16 count table under 200 MB
_PARSE_MAX_N = 10_000


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format; inverse of :func:`serialize_graph`.

    Accepts edges in any order and either endpoint order.  A header
    promising more than 10,000 vertices raises :class:`MalformedHeaderError`
    before anything is built, since every later step allocates per vertex.
    Raises :class:`MalformedHeaderError`, :class:`EdgeCountError`, or the
    :func:`build_graph` invariant errors.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedHeaderError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeaderError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeaderError(f"non-integer header {lines[0]!r}") from exc
    if n > _PARSE_MAX_N:
        raise MalformedHeaderError(f"header promises {n} vertices, above the limit {_PARSE_MAX_N}")
    if len(lines) - 1 != m:
        raise EdgeCountError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeCountError(f"malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeCountError(f"non-integer edge line {ln!r}") from exc
    return build_graph(n, edges)
