"""Exact gonality search and positive-rank certificates.

The gonality of a graph is the smallest degree of a divisor with positive
rank.  The search scans degrees upward; at each degree it enumerates the
q-reduced effective divisors with at least one chip on the base vertex.
Every positive-rank class contains exactly one such representative, so the
scan is complete and duplicate-free.

The scan is batched.  A degree's candidate vectors are built in ascending
lex order as numpy chunks of bounded size, and Dhar's burn runs on a whole
chunk at once: the burn from the base keeps the q-reduced rows, and a burn
from a chip-free vertex v that consumes the graph refutes a row.  The rows
left go in lex order to the scalar positive-rank test, which decides them
and supplies the witness scripts, so the first row it accepts is the
lex-first hit.

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
    apply_firing,
    parse_divisor,
    parse_firing_script,
    serialize_divisor,
    serialize_firing_script,
    _positive_rank_scripts,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    GonalityError,
    NotIndependentError,
)
from .graphs import Graph, _checked_int, induced_subgraph


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
    independence construction closed it.  Degrees below ``refutation_floor``
    were excluded without scanning, by a caller-supplied certified lower
    bound or by the edge-scramble bound; the default floor of 1 means
    everything below the value was refuted by exhaustive enumeration.
    ``certificate`` is ``None`` for disconnected graphs (the value is then
    the sum over components) and for the single-vertex graph.

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
    refutation_floor: int = 1
    closed_by: str = "scan"


def verify_certificate(graph: Graph, cert: PositiveRankCertificate) -> bool:
    """Re-check a certificate by direct firing evaluation only."""
    if len(cert.divisor.chips) != graph.n or len(cert.witnesses) != graph.n:
        return False
    for v in range(graph.n):
        fired = apply_firing(graph, cert.divisor.minus_vertex(v), cert.witnesses[v])
        if not fired.is_effective():
            return False
    return True


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
    edge-scramble bound is tried first: when every cut with an edge on
    each side has at least ``n - |I|`` edges (:func:`egg_cuts_reach`) and
    ``|I|`` is the independence number, the value is ``n - |I|`` with no
    degree scanned.  With the defaults the search is a pure exhaustive
    scan from degree 1.  Both accelerators are checked on every graph: a
    set that is not independent raises :class:`GonalityError`
    (:class:`NotIndependentError` for an edge inside it), and so does a
    ``lower_bound`` above ``n - |I|``, which no gonality exceeds (the
    default 1 always stands).

    Disconnected graphs get the sum of their components' gonalities, and a
    single-vertex component contributes 0; no combined certificate is
    produced in either degenerate case.
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
        total = 0
        searched: list[int] = []
        for comp in comps:
            sub, _ = induced_subgraph(graph, comp)
            part = gonality(sub, budget, with_certificate=False)
            total += part.value
            searched.extend(part.degrees_searched)
        return GonalityResult(total, None, tuple(searched), closed_by="components")
    if graph.n == 1:
        # convention: the one-vertex graph needs no chips to move, value 0
        return GonalityResult(0, None, (), closed_by="components")
    floor = max(lower_bound, 1)
    closed_by = "independence"
    # the scramble bound is n - alpha, so a set below alpha raises nothing
    if (independent and floor < cap and egg_cuts_reach(graph, cap)
            and maximum_independent_set(graph).alpha == len(independent)):
        floor, closed_by = cap, "scramble"

    searched = []
    for d in range(floor, cap):
        try:
            hit = _scan_degree(graph, d, budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), degrees_refuted=tuple(searched)) from None
        searched.append(d)
        if hit is not None:
            cert = _build_certificate(graph, *hit) if with_certificate else None
            return GonalityResult(d, cert, tuple(searched), refutation_floor=floor)
    # theorem degree reached: the independence construction is the witness
    cert = certify_independence_bound(graph, independent) if with_certificate else None
    return GonalityResult(cap, cert, tuple(searched + [cap]), refutation_floor=floor, closed_by=closed_by)


# -- internals ---------------------------------------------------------------

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


def _candidate_chunks(graph: Graph, d: int, budget: Optional[int]) -> Iterator[np.ndarray]:
    """Degree-d candidate chip vectors in ascending lex order, as int arrays
    of at most ``_CHUNK_ROWS`` rows.

    Slot 0 holds 1 to d chips; slot v holds 0 to ``val(v) - 1``, the most a
    q-reduced divisor can hold there.  Prefix blocks wait on a stack; each
    step takes the longest run of a block's rows whose completions fit in
    one chunk and grows them slot by slot to full vectors, or, when the
    first row alone has too many, grows that row by one slot.  Every prefix
    on the stack has a completion, so the stack is empty exactly when no
    vectors are left.  ``budget`` caps the vectors emitted: no row past it
    is built, and the error is raised only when a further vector exists.
    """
    n = graph.n
    if d < 1:
        return
    caps = [d - 1] + [graph.degree(v) - 1 for v in range(1, n)]
    # room[i]: the most chips slots i.. can take; ways[i, r]: the number of
    # ways slots i.. can take exactly r chips, capped above any chunk
    room = np.cumsum(caps[::-1])[::-1].tolist() + [0]
    ways = np.zeros((n + 1, d), dtype=np.int64)
    ways[n, 0] = 1
    for i in range(n - 1, -1, -1):
        conv = np.convolve(ways[i + 1], np.ones(caps[i] + 1, dtype=np.int64))[:d]
        ways[i] = np.minimum(conv, _CHUNK_ROWS + 1)
    if ways[0, d - 1] == 0:
        return

    def grow(rows, left, i):
        # every value slot i can take with the later slots still completable
        low = np.maximum(0, left - room[i + 1])
        width = np.minimum(caps[i], left) - low + 1
        ends = width.cumsum()
        values = np.arange(ends[-1]) - (ends - width - low).repeat(width)
        rows = rows.repeat(width, axis=0)
        rows[:, i] = values
        return rows, left.repeat(width) - values

    # the narrowest signed type holding every entry, the slot-0 +1 included
    dtype = np.min_scalar_type(-max(d, n) - 1)
    stack = [(np.zeros((1, n), dtype=dtype), np.array([d - 1], dtype=np.int64), 0)]
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
        if ways[i, left[0]] > limit:
            stack.append((*grow(rows, left, i), i + 1))
            continue
        for j in range(i, n):
            rows, left = grow(rows, left, j)
        rows[:, 0] += 1
        emitted += len(rows)
        yield rows


def _burns_everything(graph: Graph, chips: np.ndarray, sources) -> np.ndarray:
    """Per row, whether Dhar's burn from that row's source reaches every
    vertex.

    A vertex burns once its burnt neighbors outnumber its chips; the chips
    at the source do not matter.  ``sources`` is one vertex for all rows or
    one per row.
    """
    adj = graph.adjacency_matrix
    lit = (np.arange(len(chips)), sources)
    burnt = np.zeros(chips.shape, dtype=bool)
    burnt[lit] = True
    count = len(chips)
    while True:
        burnt = burnt @ adj > chips
        burnt[lit] = True
        grown = np.count_nonzero(burnt)
        if grown == count:
            return burnt.all(axis=1)
        count = grown


def _scan_degree(graph: Graph, d: int,
                 budget: Optional[int]) -> Optional[tuple[tuple[int, ...], list[list[int]]]]:
    """First positive-rank q-reduced divisor of degree d in lex order, with
    its witness scripts, if any.

    A row with no chip at v is refuted when the burn from v consumes the
    whole graph, because ``D - v`` is then v-reduced with -1 at v.  The
    rows no such burn refutes go in order to the scalar test, which decides
    the rest and supplies the scripts.
    """
    for rows in _candidate_chunks(graph, d, budget):
        rows = rows[_burns_everything(graph, rows, 0)]  # the q-reduced rows
        # burn each row from its first chip-free vertex, which refutes most
        # rows that fail, then the rows left from all their other ones, at
        # most a chunk of (row, vertex) pairs per burn
        row, v = np.nonzero(rows == 0)
        first = np.ones(len(row), dtype=bool)
        first[1:] = row[1:] != row[:-1]
        refuted = np.zeros(len(rows), dtype=bool)
        for pick in (first, ~first):
            pairs = np.flatnonzero(pick & ~refuted[row])
            for part in np.split(pairs, range(_CHUNK_ROWS, len(pairs), _CHUNK_ROWS)):
                refuted[row[part][_burns_everything(graph, rows[row[part]], v[part])]] = True
        rows = rows[~refuted]
        for chips in map(tuple, rows.tolist()):
            scripts = _positive_rank_scripts(graph, chips)
            if scripts is not None:
                return chips, scripts
    return None


def _build_certificate(graph: Graph, chips: tuple[int, ...], scripts: list[list[int]]) -> PositiveRankCertificate:
    # the vertices holding a chip fire nothing, and share one zero script
    zero = FiringScript.zero(graph.n)
    witnesses = tuple(FiringScript(tuple(s)) if any(s) else zero for s in scripts)
    cert = PositiveRankCertificate(Divisor(chips), witnesses)
    if not verify_certificate(graph, cert):
        raise CertificateError(f"certificate of {chips} failed re-verification")
    return cert
