#!/usr/bin/env python3
"""Exact gonality with certificates you can re-check by hand.

Gonality is the smallest degree of a positive-rank divisor: one that can
cover a chip demand at any single vertex after suitable firing.  The search
returns, for every vertex, the firing script that meets the demand, so the
answer does not have to be taken on faith.
"""

from gonality import (
    apply_firing,
    build_graph,
    certify_independence_bound,
    complete_graph,
    cycle_graph,
    gonality,
    maximum_independent_set,
    path_graph,
    verify_certificate,
)

for name, g in [
    ("path P6", path_graph(6)),
    ("cycle C6", cycle_graph(6)),
    ("complete K5", complete_graph(5)),
]:
    result = gonality(g)
    print(f"{name}: gonality {result.value}, "
          f"refuted degrees {result.degrees_searched[:-1]}, "
          f"witness {result.certificate.divisor.chips}")

petersen = build_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8),
     (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)],
)
result = gonality(petersen)
print(f"\nPetersen graph: gonality {result.value}")
print(f"certificate verifies: {verify_certificate(petersen, result.certificate)}")

# watch one witness do its job: move the divisor minus a vertex to
# something effective (pick a chipless vertex so the script has real work)
cert = result.certificate
v = cert.divisor.chips.index(0)
before = cert.divisor.minus_vertex(v)
after = apply_firing(petersen, before, cert.witnesses[v])
print(f"divisor - v{v}: {before.chips}")
print(f"after witness: {after.chips}  (effective: {after.is_effective()})")

# the complement of an independent set with no isolated vertex is always a
# positive-rank divisor; its certificate needs no search at all
mis = maximum_independent_set(petersen)
cert = certify_independence_bound(petersen, mis.independent.vertices)
print(f"\nindependence certificate: degree {cert.divisor.degree} "
      f"= n - alpha = {petersen.n} - {mis.alpha}")
