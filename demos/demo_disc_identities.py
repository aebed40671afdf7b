"""The unit-disc verification kernel behind the functoriality machinery.

Every function is a closed form (elementwise callables), and every check
takes its closed forms plus the grid to integrate on; the grid evaluates
them one block of node rows at a time.  Each identity is checked by quadrature
against closed forms: Dirichlet seminorms, push-forward/pull-back along
z -> z^n, the dbar equality, the weighted Hardy-type inequality with
constant (4/delta)^2, adjointness, and integration by parts.

Run:  python demos/demo_disc_identities.py
"""

import math

from eischow.disc import (
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

# push-forward and pull-back map closed forms to closed forms; sample them at a
# block of nodes (here the whole grid) to compare
push = grid.sample(pushforward_pow(abs2, 2).value, grid.nodes)
err = abs(push - 2.0 * abs(grid.nodes)).max()
print(f"push-forward of |z|^2 along z^2 equals 2|w| up to {err:.1e}")

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
