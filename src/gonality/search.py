"""Exact gonality search, positive-rank certificates, and the Clifford index.

The gonality of a graph is the smallest degree of a divisor with positive
rank.  The search scans degrees upward; at each degree it enumerates the
q-reduced effective divisors with at least one chip on the base vertex.
Every positive-rank class contains exactly one such representative, so the
scan is complete and duplicate-free.

Every reported value carries a certificate: the witness divisor plus, for
each vertex v, a firing script taking ``divisor - v`` to an effective
divisor.  The positive-rank test that accepts the witness produces these
scripts: the script for v is zero where the divisor holds a chip, and
otherwise the one that reduces ``divisor - v`` at base v.  Certificates
re-verify by direct firing arithmetic, independent of the search that
produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .divisors import (
    Divisor,
    FiringScript,
    apply_firing,
    canonical_divisor,
    parse_divisor,
    parse_firing_script,
    serialize_divisor,
    serialize_firing_script,
    _dhar_unburnt,
    _positive_rank_scripts,
    _rank_of_reduced,
    _reduce_chips,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    GonalityError,
    NotIndependentError,
    NotMaximalError,
)
from .graphs import Graph, genus, induced_subgraph


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
    successful one last.  Degrees below ``refutation_floor`` were excluded
    by a caller-supplied certified lower bound instead of scanning; the
    default floor of 1 means everything below the value was refuted by
    exhaustive enumeration.  ``certificate`` is ``None`` for disconnected
    graphs (the value is then the sum over components) and for the
    single-vertex graph.
    """

    value: int
    certificate: Optional[PositiveRankCertificate]
    degrees_searched: tuple[int, ...]
    refutation_floor: int = 1


@dataclass(frozen=True)
class CliffordResult:
    value: int
    witness: Divisor
    witness_rank: int


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
    """Constructive certificate that ``gon(G) <= n - |I|`` for maximal I.

    The witness divisor puts one chip on the complement of I.  For v outside
    I the divisor minus v is already effective, so the witness script is
    zero.  For v in I, firing every vertex except v once moves one chip from
    each neighbor of v onto v, and every neighbor of v sits in the
    complement, so the result is effective.  Each script is re-verified by
    direct evaluation before the certificate is returned.
    """
    ind = frozenset(independent)
    div = complement_divisor(graph, ind)
    _check_maximal(graph, ind)
    for v in ind:
        if graph.degree(v) == 0:
            raise GonalityError(
                f"vertex {v} is isolated; the firing construction needs every "
                "independent vertex to have a neighbor"
            )
    zero = FiringScript.zero(graph.n)
    witnesses = []
    for v in range(graph.n):
        if v in ind:
            witnesses.append(FiringScript(tuple(0 if u == v else 1 for u in range(graph.n))))
        else:
            witnesses.append(zero)
    cert = PositiveRankCertificate(div, tuple(witnesses))
    if not verify_certificate(graph, cert):
        raise CertificateError("independence-bound certificate failed re-verification")
    return cert


def gonality(
    graph: Graph,
    budget: Optional[int] = None,
    *,
    with_certificate: bool = True,
    lower_bound: int = 1,
    independent_set: Optional[frozenset[int]] = None,
) -> GonalityResult:
    """Exact gonality with certificate.

    ``budget`` caps the number of candidate divisors enumerated per degree;
    exceeding it raises :class:`BudgetExceededError` (never a wrong answer).

    ``lower_bound`` and ``independent_set`` are optional accelerators for
    callers that already hold certified bounds: degrees below the lower
    bound are skipped (callers must pass a proven bound such as exact
    treewidth), and when the scan reaches ``n - |I|`` the independence
    construction supplies the witness without scanning that degree.  With
    the defaults the search is a pure exhaustive scan from degree 1.

    Disconnected graphs get the sum of their components' gonalities, and a
    single-vertex component contributes 0; no combined certificate is
    produced in either degenerate case.
    """
    if graph.n == 0:
        raise GonalityError("gonality of the empty graph is undefined")
    comps = graph.components
    if len(comps) > 1:
        total = 0
        searched: list[int] = []
        for comp in comps:
            sub, _ = induced_subgraph(graph, comp)
            part = gonality(sub, budget, with_certificate=False)
            total += part.value
            searched.extend(part.degrees_searched)
        return GonalityResult(total, None, tuple(searched))
    if graph.n == 1:
        # convention: the one-vertex graph needs no chips to move, value 0
        return GonalityResult(0, None, ())
    if lower_bound < 1:
        lower_bound = 1
    cap = None
    if independent_set is not None:
        _check_independent(graph, independent_set)
        cap = graph.n - len(independent_set)

    searched = []
    d = lower_bound
    while True:
        if cap is not None and d >= cap:
            # theorem degree reached: the independence construction is the witness
            maximal = _extend_to_maximal(graph, frozenset(independent_set))  # type: ignore[arg-type]
            cert = certify_independence_bound(graph, maximal) if with_certificate else None
            return GonalityResult(cap, cert, tuple(searched + [cap]), refutation_floor=lower_bound)
        try:
            hit = _scan_degree(graph, d, budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(str(exc), degrees_refuted=tuple(searched)) from None
        searched.append(d)
        if hit is not None:
            cert = _build_certificate(graph, *hit) if with_certificate else None
            return GonalityResult(d, cert, tuple(searched), refutation_floor=lower_bound)
        if d > graph.n:
            raise CertificateError("search passed degree n without a witness; this is a bug")
        d += 1


def clifford_index(graph: Graph, budget: Optional[int] = None) -> Optional[CliffordResult]:
    """Minimize ``deg(D) - 2 rank(D)`` over classes with ``rank(D) > 0`` and
    ``rank(K - D) > 0``; ``None`` when no class qualifies.

    Classes are enumerated through their q-reduced representatives, one per
    class, for each candidate degree; ties keep the first witness found
    (lowest degree, then lexicographic).  ``budget`` caps the total number
    of representatives examined.
    """
    if len(graph.components) != 1:
        raise GonalityError("clifford_index requires a connected graph")
    g = genus(graph)
    kan = canonical_divisor(graph)
    best: Optional[CliffordResult] = None
    examined = 0
    # rank(D) > 0 forces at least one chip at the base in reduced form, and
    # rank(K - D) > 0 forces deg(D) <= 2g - 3
    for d in range(1, 2 * g - 2):
        for chips in _reduced_candidates(graph, d):
            examined += 1
            if budget is not None and examined > budget:
                raise BudgetExceededError(
                    f"clifford_index budget of {budget} candidates exhausted"
                )
            r = _rank_of_reduced(graph, chips)
            if r < 1:
                continue
            residual = [k - c for k, c in zip(kan.chips, chips)]
            r_res = _rank_of_reduced(graph, tuple(_reduce_chips(graph, residual, 0)))
            if r_res < 1:
                continue
            value = d - 2 * r
            if best is None or value < best.value:
                best = CliffordResult(value, Divisor(chips), r)
    return best


# -- internals ---------------------------------------------------------------

def _check_independent(graph: Graph, vertices) -> None:
    vs = set(vertices)
    for v in vs:
        if not (0 <= v < graph.n):
            raise GonalityError(f"vertex {v} outside [0, {graph.n})")
    for u, v in graph.edges:
        if u in vs and v in vs:
            raise NotIndependentError(f"vertices {u} and {v} are adjacent")


def _check_maximal(graph: Graph, vertices: frozenset[int]) -> None:
    adj = graph.adjacency
    for u in range(graph.n):
        if u not in vertices and not (adj[u] & vertices):
            raise NotMaximalError(f"vertex {u} could extend the independent set")


def _extend_to_maximal(graph: Graph, independent: frozenset[int]) -> frozenset[int]:
    adj = graph.adjacency
    out = set(independent)
    for u in range(graph.n):
        if u not in out and not (adj[u] & out):
            out.add(u)
    return frozenset(out)


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


def _reduced_candidates(graph: Graph, d: int, budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
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
        if not _dhar_unburnt(graph, list(chips), 0):
            yield chips


def _scan_degree(graph: Graph, d: int,
                 budget: Optional[int]) -> Optional[tuple[tuple[int, ...], list[list[int]]]]:
    """First positive-rank q-reduced divisor of degree d in lex order, with
    its witness scripts, if any."""
    for chips in _reduced_candidates(graph, d, budget):
        scripts = _positive_rank_scripts(graph, chips)
        if scripts is not None:
            return chips, scripts
    return None


def _build_certificate(graph: Graph, chips: tuple[int, ...], scripts: list[list[int]]) -> PositiveRankCertificate:
    cert = PositiveRankCertificate(Divisor(chips), tuple(FiringScript(tuple(s)) for s in scripts))
    if not verify_certificate(graph, cert):
        raise CertificateError("gonality certificate failed re-verification")
    return cert
