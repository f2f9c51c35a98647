"""Exact gonality search and positive-rank certificates.

The gonality of a graph is the smallest degree of a divisor with positive
rank.  The search scans degrees upward; at each degree it enumerates the
q-reduced effective divisors with at least one chip on the base vertex.
Every positive-rank class contains exactly one such representative, so the
scan is complete and duplicate-free.

Each call first counts, once for every degree it may scan, the ways each
run of trailing vertices can hold r chips.  A degree with at most 16
candidates is enumerated in plain Python.  A larger one is batched: its
candidates are built in ascending lex order as numpy chunks of bounded
size, most of them by one gather from lex-ordered completion tables built
at the first such degree.  Each row D is paired with its chip-free
vertices v, and the first two Dhar rounds of reducing ``D - v`` at base v
run on many pairs at once; a pair they leave v-reduced with v in debt
refutes its row, q-reduced or not.  On either route a row is then kept only
if its reduction at the base fires nothing, and the q-reduced rows go in
lex order to the scalar positive-rank test, which decides them and supplies
the witness scripts, so the first row it accepts is the lex-first hit.  A
value call scans the graph relabelled max-degree-first, so that the base
has the largest degree; a certificate call scans the graph's own labels.

Every reported value carries a certificate: the witness divisor plus, for
each vertex v, a firing script taking ``divisor - v`` to an effective
divisor.  The positive-rank test that accepts the witness produces these
scripts: the script for v is zero where the divisor holds a chip, and
otherwise the one that reduces ``divisor - v`` at base v.  Certificates
re-verify by direct firing arithmetic, independent of the search that
produced them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .bounds import egg_cuts_reach, maximum_independent_set
from .divisors import (
    Divisor,
    FiringScript,
    parse_divisor,
    parse_firing_script,
    serialize_divisor,
    serialize_firing_script,
    _fired,
    _int_entries,
    _positive_rank_scripts,
    _reduce_chips,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    GonalityError,
    NotIndependentError,
)
from .graphs import Graph, _checked_int, _restricted, degeneracy


@dataclass(frozen=True)
class PositiveRankCertificate:
    """A divisor together with one firing-script witness per vertex.

    Witness v takes ``divisor - v`` to an effective divisor, which is the
    definition of positive rank made checkable.
    """

    divisor: Divisor
    witnesses: tuple[FiringScript, ...]


@dataclass(frozen=True)
class GonalityResult:
    """Outcome of an exact gonality search.

    ``degrees_searched`` lists every degree that was actually scanned, the
    successful one last, or ``n - |I|`` last, unscanned, when the
    independence construction closed it.  Degrees below the first one
    searched were excluded without scanning, by a caller-supplied certified
    lower bound or by the edge-scramble bound; a first degree of 1 means
    everything below the value was refuted by exhaustive enumeration.
    ``certificate`` is ``None`` for disconnected graphs (the value is then
    the sum over components) and for the single-vertex graph.  A
    disconnected graph's ``degrees_searched`` lists each component's in
    turn, each starting at or above that component's own degeneracy floor:
    where ``closed_by`` is ``"components"`` the degrees are no single
    search's.  A value call on a connected graph with a leaf reports its
    2-core C's search (see :func:`gonality`), where ``"independence"``
    means ``|C| - |I ∩ C|``.

    ``closed_by`` names what settled the value: ``"scan"`` (a scanned
    degree held a positive-rank divisor), ``"independence"`` (the scan
    reached ``n - |I|``, I empty by default, whose witness is the
    independence construction), ``"scramble"`` (the edge-scramble bound
    met ``n - alpha`` before any scan) or ``"components"`` (a sum over
    several components, or the single-vertex graph).
    """

    value: int
    certificate: Optional[PositiveRankCertificate]
    degrees_searched: tuple[int, ...]
    closed_by: str = "scan"


def verify_certificate(graph: Graph, cert: PositiveRankCertificate) -> bool:
    """Re-check a certificate by direct firing evaluation only.  A divisor,
    witness list or script of the wrong length, or with a non-integer
    entry, fails the check."""
    if len(cert.witnesses) != graph.n:
        return False
    try:
        chips = _int_entries(graph, cert.divisor.chips, "divisor")
        scripts = [_int_entries(graph, w.fires, "script") for w in cert.witnesses]
    except GonalityError:  # a wrong length or a non-integer entry
        return False
    # D - v fired by a script is D fired by it, less a chip on v
    return all(min(f) >= 0 and f[v] >= 1 for v, f in enumerate(_fired(graph, chips, s) for s in scripts))


def serialize_certificate(cert: PositiveRankCertificate) -> str:
    """Divisor line followed by one witness-script line per vertex."""
    lines = [serialize_divisor(cert.divisor)]
    lines.extend(serialize_firing_script(w) for w in cert.witnesses)
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, n: int) -> PositiveRankCertificate:
    """Inverse of :func:`serialize_certificate` for a graph on ``n`` vertices."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != n + 1:
        raise GonalityError(f"certificate needs 1 + {n} lines, found {len(lines)}")
    div = parse_divisor(lines[0], n)
    witnesses = tuple(parse_firing_script(ln, n) for ln in lines[1:])
    return PositiveRankCertificate(div, witnesses)


def complement_divisor(graph: Graph, independent: frozenset[int] | set[int]) -> Divisor:
    """One chip on every vertex outside the given independent set."""
    _check_independent(graph, independent)
    return Divisor(tuple(0 if v in independent else 1 for v in range(graph.n)))


def certify_independence_bound(graph: Graph, independent: frozenset[int] | set[int]) -> PositiveRankCertificate:
    """Constructive certificate that ``gon(G) <= n - |I|`` for an independent
    set I with no isolated vertex.

    The witness divisor puts one chip on the complement of I.  For v outside
    I the divisor minus v is already effective, so the witness script is
    zero.  For v in I, firing every vertex except v once moves one chip from
    each neighbor of v onto v, and every neighbor of v sits in the
    complement, so the result is effective.  Each script is re-verified by
    direct evaluation before the certificate is returned.
    """
    ind = frozenset(independent)
    div = complement_divisor(graph, ind)
    for v in ind:
        if graph.degree(v) == 0:
            raise GonalityError(
                f"vertex {v} is isolated; the firing construction needs every "
                "independent vertex to have a neighbor"
            )
    n = graph.n
    scripts = [[int(u != v) for u in range(n)] if v in ind else [0] * n for v in range(n)]
    return _build_certificate(graph, div.chips, scripts)


def gonality(
    graph: Graph,
    budget: Optional[int] = None,
    *,
    with_certificate: bool = True,
    lower_bound: int = 1,
    independent_set: Optional[frozenset[int]] = None,
) -> GonalityResult:
    """Exact gonality with certificate.

    ``budget`` caps the candidate divisors enumerated per degree (0 or more);
    exceeding it raises :class:`BudgetExceededError` (never a wrong answer).

    ``lower_bound`` and ``independent_set`` are optional accelerators for
    callers that already hold certified bounds.  With I the given set
    (empty by default; it need not be maximum), the search scans degrees
    ``lower_bound <= d < n - |I|`` upward; callers must pass a proven lower
    bound, such as exact treewidth.  If no scanned degree holds a
    positive-rank divisor, the value is ``n - |I|``, witnessed by the
    independence construction without a scan; for an empty I that cap,
    ``n``, is never reached on a connected graph.  For a non-empty I the
    edge-scramble bound is tried first: when the degree floors of
    :func:`egg_cuts_reach` prove that every cut with an edge on each side
    has at least ``n - |I|`` edges and ``|I|`` is the independence number,
    the value is ``n - |I|`` with no degree scanned; otherwise the scan
    runs.  With the defaults the search on a connected graph is a pure
    exhaustive scan from degree 1.  Both accelerators are checked on every
    graph: a set that is not independent raises :class:`GonalityError`
    (:class:`NotIndependentError` for an edge inside it), and so does a
    ``lower_bound`` above ``n - |I|``, which no gonality exceeds (the
    default 1 always stands).

    A value call (``with_certificate=False``) on a connected graph with a
    leaf searches its 2-core C, or an edge of a tree, with ``I ∩ C`` and
    ``lower_bound`` (:func:`_peeled` proves the value the same), so the
    budget counts C's candidates, in max-degree-first order: a value call
    scans the graph relabelled by descending degree, ties by label.  A
    certificate call scans the graph in its own labels.

    Disconnected graphs get the sum of their components' gonalities, and a
    single-vertex component contributes 0; no combined certificate is
    produced in either degenerate case.  Each component C is searched with
    the set ``I ∩ C`` (empty in the default call) and the floor
    ``max(1, degeneracy(C))``, as gonality is at least treewidth, so each
    component gets its own scramble test and independence cap; the
    caller's ``lower_bound`` bounds the sum and is not passed on.  A
    budget that runs out in a component names its vertices, and
    ``degrees_refuted`` lists the finished components' ``degrees_searched``
    and then that component's refuted degrees.
    """
    budget = None if budget is None else _checked_int(budget, "gonality", "budget", 0)
    lower_bound = _checked_int(lower_bound, "gonality", "lower bound")
    if graph.n == 0:
        raise GonalityError("gonality of the empty graph is undefined")
    independent = frozenset(independent_set or ())  # a repeated vertex counts once
    _check_independent(graph, independent)
    cap = graph.n - len(independent)
    # every graph has gon <= n - |I|; the default floor 1 stands even where
    # gon is 0 (no component has an edge), as the scan never runs there
    if lower_bound > max(cap, 1):
        raise GonalityError(f"lower bound {lower_bound} exceeds n - |I| = {cap}")
    comps = graph.components
    if len(comps) > 1:
        searched, total = [], 0
        for comp in comps:
            # I ∩ C is independent in C, and gon >= tw >= degeneracy
            sub, own = _restricted(graph, comp, independent)
            try:
                part = gonality(sub, budget, with_certificate=False,
                                lower_bound=max(1, degeneracy(sub)), independent_set=own)
            except BudgetExceededError as exc:
                raise BudgetExceededError(f"{exc} (the component on vertices {list(comp)})",
                                          degrees_refuted=(*searched, *exc.degrees_refuted)) from None
            searched += part.degrees_searched
            total += part.value
        return GonalityResult(total, None, tuple(searched), closed_by="components")
    if graph.n == 1:
        # convention: the one-vertex graph needs no chips to move, value 0
        return GonalityResult(0, None, (), closed_by="components")
    if not with_certificate and graph.n > 2 and 1 in graph.degrees:
        sub, own = _restricted(graph, _peeled(graph), independent)
        return gonality(sub, budget, with_certificate=False, lower_bound=lower_bound, independent_set=own)
    floor = max(lower_bound, 1)
    closed_by = "independence"
    # the scramble bound is n - alpha, so a set below alpha raises nothing
    if (independent and floor < cap and egg_cuts_reach(graph, cap)
            and maximum_independent_set(graph).alpha == len(independent)):
        floor, closed_by = cap, "scramble"

    searched, scan = [], None
    if floor < cap:
        scanned = graph
        if not with_certificate:  # any labels give the value; these set the budget's order
            scanned = _restricted(graph, sorted(range(graph.n), key=lambda v: -graph.degrees[v]))[0]
        scan = _Scan(scanned, cap - 1, budget)
    for d in range(floor, cap):
        try:
            hit = _scan_degree(scan, d)
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), degrees_refuted=tuple(searched)) from None
        searched.append(d)
        if hit is not None:
            cert = _build_certificate(graph, *hit) if with_certificate else None
            return GonalityResult(d, cert, tuple(searched))
    # theorem degree reached: the independence construction is the witness
    cert = certify_independence_bound(graph, independent) if with_certificate else None
    return GonalityResult(cap, cert, tuple(searched + [cap]), closed_by=closed_by)


# -- internals ---------------------------------------------------------------

def _peeled(graph: Graph) -> list[int]:
    """The vertices left of a connected graph once degree-1 vertices are
    deleted while more than two remain: the 2-core, or an edge of a tree.

    A deletion keeps gonality.  Let v be a leaf on u, and G - v have two or
    more vertices.  gon(G) <= gon(G - v): extend a positive-rank D' by 0 at
    v, and w's script s by s(v) = s(u), so the edge uv moves nothing; for
    w = v, D - u ~ E >= 0, and firing V - v once moves a chip from u to v.
    gon(G - v) <= gon(G): fire v alone until it holds no chip, and restrict
    to G - v; for w != v, E(v) = s(u) - s(v) >= 0, so u keeps E(u) + s(u) -
    s(v) >= 0.  I ∩ C is independent in C, C has no isolated vertex, and
    the cap falls by one for each deleted vertex outside I.
    """
    deg, adj, gone = list(graph.degrees), graph.adjacency, set()
    leaves = [v for v in range(graph.n) if deg[v] == 1]
    while leaves and graph.n - len(gone) > 2:
        v = leaves.pop()
        gone.add(v)
        for w in adj[v] - gone:
            deg[w] -= 1
            if deg[w] == 1:
                leaves.append(w)
    return [v for v in range(graph.n) if v not in gone]


def _check_independent(graph: Graph, vertices) -> None:
    vs = set(vertices)
    for v in vs:
        try:
            ok = 0 <= operator.index(v) < graph.n
        except TypeError:  # 0.5 is no vertex, yet it would shrink n - |I|
            ok = False
        if not ok:
            raise GonalityError(f"vertex {v!r} is not an integer in [0, {graph.n})")
    for u, v in graph.edges:
        if u in vs and v in vs:
            raise NotIndependentError(f"vertices {u} and {v} are adjacent")


# Rows per candidate chunk: bounds the scan's memory at any n.
_CHUNK_ROWS = 2048
# The most slots a completion table spans: bounds the tables' memory at any n.
_TABLE_SLOTS = 32
# A degree with at most this many candidates skips the batched scan.
_FEW_CANDIDATES = 16


def _blocks(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``start, ..., start + count - 1`` of each block, end to end."""
    ends = counts.cumsum()
    return np.arange(counts.sum()) - (ends - counts - starts).repeat(counts)


class _Scan:
    """The scan's state for one graph, built once for every degree up to
    ``top``.

    Slot 0 of a candidate holds up to ``top - 1`` chips before the +1 on
    the base (at degree d all slots share d - 1, so this cap never binds),
    and slot v up to ``val(v) - 1``, the most a q-reduced divisor holds
    there.  ``room[i]`` is the most chips slots i.. can take, and
    ``ways[i, r]`` the number of ways they take exactly r, capped above any
    chunk, so that int16 holds it.  Where that count fits in the largest
    chunk ``budget`` allows, the completion table T(i, r) lists those ways
    in lex order, in the rows of ``table`` from ``starts[i - tabled, r]``,
    for the last ``_TABLE_SLOTS`` slots, from slot ``tabled`` on.
    A row of T(i, r) is a value c of slot i and a row of T(i + 1, r - c),
    so the tables fill from the last slot back, one gather per slot.
    """

    def __init__(self, graph: Graph, top: int, budget: Optional[int]) -> None:
        n = graph.n
        self.graph, self.budget = graph, budget
        self.caps = np.array([top - 1] + [graph.degree(v) - 1 for v in range(1, n)])
        self.room = np.append(self.caps[::-1].cumsum()[::-1], 0)
        self.ways = ways = np.zeros((n + 1, top), dtype=np.int16)
        ways[n, 0] = 1
        for i in range(n - 1, -1, -1):
            conv = np.convolve(ways[i + 1], np.ones(self.caps[i] + 1, dtype=np.int64))[:top]
            ways[i] = np.minimum(conv, _CHUNK_ROWS + 1)
        # the narrowest signed type holding every entry, the slot-0 +1 included
        self.dtype = np.min_scalar_type(-max(top, n) - 1)
        self.table = None  # built by tables() when a degree first needs it

    def tables(self) -> None:
        """Build the completion tables, once."""
        if self.table is not None:
            return
        n, top, ways = self.graph.n, self.ways.shape[1], self.ways
        most = _CHUNK_ROWS if self.budget is None else min(_CHUNK_ROWS, self.budget)  # rows in a chunk
        self.tabled = first = max(0, n - _TABLE_SLOTS)  # the table's first column
        slot, r = np.nonzero((ways[first:n] > 0) & (ways[first:n] <= most))
        counts = ways[slot + first, r]
        self.starts = np.zeros((n + 1 - first, top), dtype=np.int64)  # slots first..n only
        self.starts[slot, r] = counts.cumsum() - counts
        slot += first
        values, width = self.values(r, slot)
        slot, left = slot.repeat(width), r.repeat(width) - values
        counts = ways[slot + 1, left]
        values = values.repeat(counts)
        below = _blocks(self.starts[slot + 1 - first, left], counts)  # the row each continues with
        ends = slot.repeat(counts).searchsorted(np.arange(first, n + 1)).tolist()
        self.table = table = np.zeros((len(values), n - first), dtype=self.dtype)
        for i in range(n - 1, first - 1, -1):
            a, b = ends[i - first], ends[i + 1 - first]
            if i < n - 1:  # the rows continued with are zero up to slot i
                table[a:b] = table.take(below[a:b], axis=0)
            table[a:b, i - first] = values[a:b]

    def values(self, left: np.ndarray, i) -> tuple[np.ndarray, np.ndarray]:
        """Per entry, every value slot i (one slot, or one per entry) can take
        out of ``left`` chips with the later slots still completable, end to
        end, and how many."""
        low = np.maximum(0, left - self.room[i + 1])
        width = np.minimum(self.caps[i], left) - low + 1
        return _blocks(low, width), width


def _candidate_chunks(scan: _Scan, d: int) -> Iterator[np.ndarray]:
    """Degree-d candidate chip vectors in ascending lex order, as int arrays
    of at most ``_CHUNK_ROWS`` rows.

    Prefix blocks wait on a stack.  Each step takes the longest run of a
    block's rows whose completions fit in one chunk and finishes them with
    one gather from the completion tables, or, when the first row alone has
    too many or its slot has no tables, grows the run by one slot.  Every
    prefix on the stack has a completion, so the stack is empty exactly
    when no vectors are left.  The scan's ``budget`` caps the vectors
    emitted: no row past it is built, and the error is raised only when a
    further vector exists.
    """
    ways, budget = scan.ways, scan.budget
    if ways[0, d - 1] == 0:
        return
    scan.tables()
    stack = [(np.zeros((1, scan.graph.n), dtype=scan.dtype), np.array([d - 1], dtype=np.int64), 0)]
    emitted = 0
    while stack:
        if budget is not None and emitted >= budget:
            raise BudgetExceededError(f"degree-{d} scan exceeded budget of {budget} candidates")
        limit = _CHUNK_ROWS if budget is None else min(_CHUNK_ROWS, budget - emitted)
        rows, left, i = stack.pop()
        take = max(1, int(ways[i, left].cumsum().searchsorted(limit, side="right")))
        if take < len(rows):
            stack.append((rows[take:], left[take:], i))
        rows, left = rows[:take], left[:take]
        if i < scan.tabled or ways[i, left[0]] > limit:
            values, width = scan.values(left, i)
            rows = rows.repeat(width, axis=0)
            rows[:, i] = values
            stack.append((rows, left.repeat(width) - values, i + 1))
            continue
        counts, j = ways[i, left], i - scan.tabled  # j: slot i's column in the tables
        rows = rows.repeat(counts, axis=0)
        rows[:, i:] = scan.table.take(_blocks(scan.starts[j, left], counts), axis=0)[:, j:]
        rows[:, 0] += 1
        emitted += len(rows)
        yield rows


def _few_candidates(scan: _Scan, d: int) -> Iterator[tuple[int, ...]]:
    """Degree-d candidate chip vectors in ascending lex order, as tuples,
    with no numpy set-up; the budget caps them as in :func:`_candidate_chunks`.
    A partial vector lists only its nonzero slots."""
    caps, room, n = scan.caps.tolist(), scan.room.tolist(), scan.graph.n
    rows = [((), d - 1)]  # (the nonzero (slot, chips) so far, the chips left)
    for i in range(n):
        rows = [(row + ((i, c),) if c else row, left - c) for row, left in rows
                for c in range(max(0, left - room[i + 1]), min(caps[i], left) + 1)]
    for k, (row, _) in enumerate(rows):
        if scan.budget is not None and k >= scan.budget:
            raise BudgetExceededError(f"degree-{d} scan exceeded budget of {scan.budget} candidates")
        held = dict(row)
        yield tuple(held.get(v, 0) + (v == 0) for v in range(n))


def _burn(graph: Graph, chips: np.ndarray, sources) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the vertices Dhar's burn from that row's source reaches, and
    each vertex's count of burnt neighbors.

    A vertex burns once its burnt neighbors outnumber its chips; the chips
    at the source do not matter.  ``sources`` is one vertex for all rows or
    one per row.
    """
    adj = graph.adjacency_matrix
    chips = chips.astype(adj.dtype)  # a copy, compared with no cast per round
    chips[np.arange(len(chips)), sources] = -1  # so the sources stay burnt
    held, count = adj[sources], len(chips)  # the sources' burnt neighbors
    while True:
        burnt = held > chips
        grown = np.count_nonzero(burnt)
        if grown == count:  # nothing new burnt, so held counts this set
            return burnt, held
        held, count = burnt @ adj, grown


def _refutes(graph: Graph, chips: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Per row D and its chip-free source v, whether the first two Dhar
    rounds of reducing ``D - v`` at base v leave v in debt and the divisor
    v-reduced, so that ``D - v`` has no effective equivalent.

    Round one burns from v; if the burn consumes the graph, ``D - v`` is
    already v-reduced.  Otherwise the unburnt side U fires t times, t the
    least ``chips // burnt neighbors`` over the cut, which is at least 1 as
    no cut vertex burnt.  A v bordering U gains at least t chips and leaves
    debt, which settles the pair as unrefuted.  Any other v burns again on
    the fired chips, and a burn that consumes the graph refutes the pair.
    The fired chips are float32, wider than the scan's rows: a vertex gains
    at most the chips on its unburnt neighbors, so every count stays exact
    while the degree of D is below 2**24.
    """
    burnt, held = _burn(graph, chips, sources)
    refuted = burnt.all(axis=1)
    live = np.flatnonzero(~refuted)
    if not len(live):
        return refuted
    burnt, held, chips, sources = burnt[live], held[live], chips[live], sources[live]
    cut = (held > 0) & ~burnt
    share = np.floor_divide(chips, held, out=np.full(held.shape, np.inf, dtype=held.dtype), where=cut)
    t = share.min(axis=1, keepdims=True)
    # firing U moves t chips over each cut edge, from U's side to B's
    fired = chips + t * (burnt * np.asarray(graph.degrees, dtype=held.dtype) - held)
    debt = np.flatnonzero(fired[np.arange(len(live)), sources] == 0)
    if len(debt):
        refuted[live[debt]] = _burn(graph, fired[debt], sources[debt])[0].all(axis=1)
    return refuted


def _scan_degree(scan: _Scan, d: int) -> Optional[tuple[tuple[int, ...], list[list[int]]]]:
    """First positive-rank q-reduced divisor of degree d in lex order, with
    its witness scripts, if any.  The rows are those :func:`_unrefuted`
    leaves or, at a degree with few candidates, every candidate; the scalar
    test decides the q-reduced ones, whose reduction at the base fires
    nothing."""
    graph = scan.graph
    rows = _few_candidates(scan, d) if scan.ways[0, d - 1] <= _FEW_CANDIDATES else _unrefuted(scan, d)
    for chips in rows:
        if _reduce_chips(graph, list(chips), 0) != list(chips):
            continue
        scripts = _positive_rank_scripts(graph, chips)
        if scripts is not None:
            return chips, scripts
    return None


def _unrefuted(scan: _Scan, d: int) -> Iterator[tuple[int, ...]]:
    """The degree-d candidates that no pair refutes, in lex order, q-reduced
    or not: a refuted pair proves rank 0 for any effective row, so the
    caller tests q-reducedness only on the few rows left.
    :func:`_refutes` settles most (row, chip-free vertex) pairs that fail:
    first each row at its first chip-free vertex, where most failing rows
    fail, then the rows left at their other chip-free vertices, a part of
    whole rows and at most a chunk of pairs at a time.  Each part's rows
    are yielded before the next part burns, so no part past the first hit
    is burnt."""
    graph = scan.graph
    for rows in _candidate_chunks(scan, d):
        row, v = np.nonzero(rows == 0)
        first = np.ones(len(row), dtype=bool)
        first[1:] = row[1:] != row[:-1]
        refuted = np.zeros(len(rows), dtype=bool)
        refuted[row[first][_refutes(graph, rows[row[first]], v[first])]] = True
        rest = ~first & ~refuted[row]
        row, v = row[rest], v[rest]
        lo = 0
        while lo < len(rows):
            # the rows from lo whose pairs fit in a chunk, at least one
            a = row.searchsorted(lo)
            hi = len(rows) if a + _CHUNK_ROWS >= len(row) else max(lo + 1, int(row[a + _CHUNK_ROWS]))
            b = row.searchsorted(hi)
            for s in range(a, b, _CHUNK_ROWS):
                part = slice(s, min(s + _CHUNK_ROWS, b))
                refuted[row[part][_refutes(graph, rows[row[part]], v[part])]] = True
            yield from map(tuple, rows[lo:hi][~refuted[lo:hi]].tolist())
            lo = hi


def _build_certificate(graph: Graph, chips: tuple[int, ...], scripts: list[list[int]]) -> PositiveRankCertificate:
    # the vertices holding a chip fire nothing, and share one zero script
    zero = FiringScript.zero(graph.n)
    witnesses = tuple(FiringScript(tuple(s)) if any(s) else zero for s in scripts)
    cert = PositiveRankCertificate(Divisor(chips), witnesses)
    if not verify_certificate(graph, cert):
        raise CertificateError(f"certificate of {chips} failed re-verification")
    return cert
