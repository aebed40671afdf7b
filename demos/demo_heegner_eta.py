"""Eta quotients, the Hecke action on q-expansions, and Heegner divisors.

Run:  python demos/demo_heegner_eta.py
"""

from eischow import (
    EtaQuotient,
    canonical_decomposition,
    eta_expand,
    hecke_q,
    heegner_points,
    invariants,
)

# The discriminant form and the level-11 generator, expanded exactly.
delta = eta_expand(EtaQuotient(factors=((1, 24),)), 24)
print("tau(n), n <= 12:", delta.coeffs[:12])
f11 = eta_expand(EtaQuotient.from_text("eta(1)^2*eta(11)^2"), 60)
print("level-11 newform a_n, n <= 12:", f11.coeffs[:12])

# Both are Hecke eigenforms: T_l acts by the l-th coefficient.
for l in (2, 3, 5):
    image = hecke_q(l, f11)
    scaled = tuple(f11.a(l) * c for c in f11.coeffs[: image.precision])
    print(f"T_{l} f11 == a_{l} * f11 up to precision {image.precision}:",
          image.coeffs == scaled)

# Heegner points of discriminant -4 and -3 are counted by square roots of
# the discriminant mod 4N; their counts match the elliptic-point counts.
print()
for n in (11, 37, 101, 145):
    inv = invariants(n)
    h4 = heegner_points(n, -4)
    h3 = heegner_points(n, -3)
    print(f"N={n:>4}: disc -4 roots {list(h4.roots)!s:<14} (nu2={inv.nu2})"
          f"  disc -3 count {h3.count} (nu3={inv.nu3})")

# The canonical divisor decomposes into the cusp part and the two blocks.
cd = canonical_decomposition(37)
print(f"\ncanonical class at N=37: (2g-2) = {cd.mult_infty}, "
      f"|H_i| = {cd.h_i.count}, |H_j| = {cd.h_j.count}")
