"""The unit-disc verification kernel behind the functoriality machinery.

Every function is a closed form: a finite sum of terms
c z^a zbar^b (log|z|^2)^k with rational exponents and coefficients.
Derivatives, pull-back and push-forward along z -> z^n act on the terms by
exact rules, and every check takes its closed forms plus the grid to
integrate on; the grid integrates each term as one radial Gauss sum.  Each
identity is checked by quadrature against closed forms: Dirichlet
seminorms, push-forward/pull-back along z -> z^n, the dbar equality, the
weighted Hardy-type inequality with constant (4/delta)^2, adjointness, and
integration by parts.

Run:  python demos/demo_disc_identities.py
"""

import math
from fractions import Fraction

from eischow.disc import (
    ClosedForm,
    DiscGrid,
    cf_abs2,
    cf_bump_times_z,
    cf_one_minus_abs2,
    check_adjoint,
    check_dbar_equality,
    check_hardy,
    check_ibp,
    pullback_pow,
    pushforward_pow,
    seminorm1,
    verification_report,
)

grid = DiscGrid.gauss(128, 256)
bump = cf_one_minus_abs2()   # 1 - |z|^2
abs2 = cf_abs2()             # |z|^2

# the integrand |f_z|^2 = |z|^2 is within the grid's exactness, so the only
# error against the closed form pi is round-off
s = seminorm1(bump, grid)
print(f"||1-|z|^2||_1^2 = {s:.12f}   (pi = {math.pi:.12f},"
      f" error {abs(s - math.pi):.1e})")

for n in (2, 3):
    lifted = seminorm1(pullback_pow(bump, n), grid)
    print(f"pull-back along z^{n} multiplies the seminorm by {lifted / s:.9f}")

# push-forward and pull-back map closed forms to closed forms, term by term
half = Fraction(1, 2)
two_abs = ClosedForm({(half, half, 0): 2})  # 2|w| = 2 (w wbar)^(1/2)
print(f"push-forward of |z|^2 along z^2 is 2|w| term by term: {pushforward_pow(abs2, 2) == two_abs}")
print(f"d/dz of 1-|z|^2 is -zbar by rule: {bump.dz == ClosedForm({(0, 1, 0): -1})}")

r = check_dbar_equality(cf_bump_times_z(), grid)
print(f"\ndbar equality for z(1-|z|^2): lhs {r.lhs.real:.9f},"
      f" rhs {r.rhs.real:.9f}, residual {r.residual:.1e}")

for delta in (1.0, 1.5):
    h = check_hardy(bump, delta, grid)
    exact = 4 * math.pi * (1 / delta - 2 / (delta + 2) + 1 / (delta + 4))
    print(f"hardy at delta={delta}: {h.lhs:.6f} <= {h.rhs:.6f}"
          f"  (lhs closed form {exact:.6f}, error {abs(h.lhs - exact):.1e})")

adj = check_adjoint(abs2, abs2, 2, grid)
print(f"adjointness (|w|^2, |z|^2, n=2): both sides {adj.lhs.real:.9f}"
      f" = 4 pi/3 = {4 * math.pi / 3:.9f}")

ibp = check_ibp(bump, abs2, grid)
print(f"integration by parts: {ibp.lhs.real:.9f} vs {ibp.rhs.real:.9f}")

rep = verification_report()
print(f"\nfull certified suite at {rep['grid']['radial']}x{rep['grid']['angular']}, "
      f"tol {rep['tolerance']:g}: "
      f"{sum(c['passed'] for c in rep['checks'])}/{len(rep['checks'])} checks pass")
