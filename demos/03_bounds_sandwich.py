#!/usr/bin/env python3
"""Squeezing gonality between treewidth and n - alpha.

Treewidth never exceeds gonality, and the complement of a maximum
independent set caps it from above.  On small random graphs we can compute
all three exactly and watch the sandwich close.
"""

from gonality import (
    GnpParams,
    frieze_alpha_estimate,
    gonality,
    maximum_independent_set,
    sample_gnp,
    serialize_tree_decomposition,
    treewidth_exact,
    treewidth_lower_bound,
    validate_tree_decomposition,
)

print(f"{'n':>3} {'p':>5} {'degen':>6} {'tw':>3} {'gon':>4} {'n-alpha':>8}  pinched?")
for n, p, seed in [(8, 0.3, 1), (8, 0.5, 2), (9, 0.7, 3), (10, 0.8, 4), (9, 0.9, 5)]:
    g = sample_gnp(GnpParams.from_p(n, p, seed))
    if not g.is_connected():
        continue
    # the width alone, from one DP per biconnected block that the
    # simplicial and series rules leave
    tw = treewidth_exact(g, with_decomposition=False)[0]
    alpha = maximum_independent_set(g).alpha
    gon = gonality(g, with_certificate=False).value
    pinched = "yes" if tw == n - alpha else ""
    print(f"{n:>3} {p:>5.1f} {treewidth_lower_bound(g):>6} {tw:>3} {gon:>4} "
          f"{n - alpha:>8}  {pinched}")

# every exact treewidth value ships with a decomposition the validator accepts
g = sample_gnp(GnpParams.from_p(9, 0.4, 99))
tw, td = treewidth_exact(g)
report = validate_tree_decomposition(g, td)
print(f"\nwitness decomposition for a G(9, 0.4) sample (width {td.width}, "
      f"valid: {report.valid}):")
print(serialize_tree_decomposition(td), end="")

# for sparse random graphs the independence number concentrates tightly;
# the classical estimate predicts where
n, c = 100, 15.0
est = frieze_alpha_estimate(n, c)
g = sample_gnp(GnpParams(n, c, 7))
print(f"\nG({n}, c={c}): predicted alpha ~ {est:.1f}")
result = maximum_independent_set(g, budget=200_000)
label = "exact" if result.exact else "lower bound"
print(f"branch and bound found {result.alpha} ({label}, "
      f"{result.nodes_explored} nodes)")
