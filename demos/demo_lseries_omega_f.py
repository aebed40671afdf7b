"""The rank-one pipeline at level 37: L-values, Petersson norm, omega_f^2.

The eigenform dataset is produced on the fly by counting points on the
conductor-37 curve y^2 + y = x^3 - x (the rank-one optimal quotient of
J_0(37)) and extending multiplicatively; it then goes through the same
JSON-lines ingestion path an external dataset would use.

Run:  python demos/demo_lseries_omega_f.py
"""

import json
import tempfile
from pathlib import Path

from eischow import ingest, omega_f_sq
from eischow.gamma0 import primes_upto
from eischow.lseries import lambda_symmetry_residual

COUNT = 1200


def ap_37a(p):
    if p == 37:
        return -1  # nonsplit multiplicative reduction
    if p == 2:
        cnt = sum(1 for x in range(2) for y in range(2)
                  if (y * y + y - x * x * x + x) % 2 == 0)
        return 2 + 1 - (cnt + 1)
    cnt = 0
    for x in range(p):
        d = (1 + 4 * (x * x * x - x)) % p
        sym = pow(d, (p - 1) // 2, p) if d else 0
        cnt += 1 + (1 if sym == 1 else (-1 if sym == p - 1 else 0))
    return p + 1 - (cnt + 1)


a = [0] * (COUNT + 1)
a[1] = 1
primes = primes_upto(COUNT)
ap = {p: ap_37a(p) for p in primes}
for n in range(2, COUNT + 1):
    p = next(q for q in primes if n % q == 0)
    m = n // p
    if m % p:
        a[n] = ap[p] * a[m]
    elif p == 37:
        a[n] = ap[p] * a[m]
    else:
        a[n] = ap[p] * a[m] - p * a[m // p]

record = {"label": "37a", "level": 37, "weight": 2, "al_sign": 1, "an": a[1:]}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "37a.jsonl"
    path.write_text(json.dumps(record) + "\n")
    f = ingest(path)

print(f"ingested {f.label}: level {f.level}, {f.precision} coefficients,"
      f" w_N eigenvalue {f.al_sign:+d}")

# The functional-equation sign convention is checked against the data: the
# completed function built at an asymmetric split must satisfy
# Lambda(1+t) = eps Lambda(1-t).
for t in (0.05, 0.1):
    print(f"Lambda symmetry residual at t={t}: {lambda_symmetry_residual(f, t):.2e}")

# omega_f_sq reports every special value it consumes.  L(f,1) itself is 0
# by the functional equation (sign -1), which is why L'(f,1) enters.
res = omega_f_sq(f)
print(f"\nL'(f,1)         = {res.l_prime:.12f}")
print(f"L(f,chi_-4,1)   = {res.l_chi4:.12f}")
print(f"L(f,chi_-3,1)   = {res.l_chi3:.12f}")
print(f"(f,f) Petersson = {res.petersson:.12f}")
print(f"\nheights: h_i = {res.h_i:.9f}, h_j = {res.h_j:.9f}")
print(f"omega_f^2 = -(sqrt(h_i) + 2 sqrt(h_j))^2 = {res.omega_f_sq:.9f}")
