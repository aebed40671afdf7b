"""Rank-one eigenform catalog, generated by point counting.

Each curve below is a Weierstrass model [a1, a2, a3, a4, a6] whose
discriminant is a prime N, so its conductor is N and its reduction at N is
multiplicative.  Counting the projective points of the reduced cubic gives
a_p = p + 1 - #E(F_p) at every prime, the bad one included (the node is
counted once, which yields a_N = +1 or -1).  The a_p are then extended to
a_1..a_M by multiplicativity and the Hecke recursion.

Every generated form is gated before use: the completed L-function must
satisfy its functional equation with sign -1 (al_sign = +1) to 1e-10 and
must visibly fail it (residual >= 1e-4) with the sign flipped.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

COEFF_COUNT = 2400

# label -> (conductor, [a1, a2, a3, a4, a6])
CURVES = {
    "37a": (37, (0, 0, 1, -1, 0)),
    "43a": (43, (0, 1, 1, 0, 0)),
    "53a": (53, (1, -1, 1, 0, 0)),
    "61a": (61, (1, 0, 0, -2, 1)),
    "79a": (79, (1, 1, 1, -2, 0)),
    "83a": (83, (1, 1, 1, 1, 0)),
    "101a": (101, (0, 1, 1, -1, -1)),
    "131a": (131, (0, -1, 1, 1, 0)),
}

GATE_T = 0.25
GATE_MATCH = 1e-10
GATE_FLIPPED = 1e-4


def discriminant(a) -> int:
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def primes_upto(m: int) -> list[int]:
    sieve = np.ones(m + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(m ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def point_count_ap(a, p: int) -> int:
    """a_p = p + 1 - #E(F_p), counting every projective point of the model."""
    a1, a2, a3, a4, a6 = a
    if p == 2:
        affine = sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0
        )
        return p + 1 - (affine + 1)
    x = np.arange(p, dtype=np.int64)
    rhs = (((x + a2) * x % p + a4) * x + a6) % p
    lin = (a1 * x + a3) % p
    disc = (lin * lin + 4 * rhs) % p
    is_square = np.zeros(p, dtype=np.int64)
    is_square[(x * x) % p] = 1
    # y^2 + lin*y = rhs has 1 + (disc / p) solutions
    roots = np.where(disc == 0, 1, 2 * is_square[disc])
    return p + 1 - (int(roots.sum()) + 1)


def coefficients(level: int, a, count: int = COEFF_COUNT) -> list[int]:
    primes = primes_upto(count)
    ap = {p: point_count_ap(a, p) for p in primes}
    smallest = list(range(count + 1))
    for p in reversed(primes):
        smallest[p::p] = [p] * len(smallest[p::p])
    an = [0] * (count + 1)
    an[1] = 1
    for n in range(2, count + 1):
        p = smallest[n]
        m = n // p
        if m % p:
            an[n] = ap[p] * an[m]
        elif p == level:
            an[n] = ap[p] * an[m]
        else:
            an[n] = ap[p] * an[m] - p * an[m // p]
    return an[1:]


def records(labels=tuple(CURVES), count: int = COEFF_COUNT) -> list[dict]:
    out = []
    for label in labels:
        level, a = CURVES[label]
        if abs(discriminant(a)) != level:
            raise ValueError(f"{label}: discriminant {discriminant(a)} is not +-{level}")
        out.append(
            {"label": label, "level": level, "weight": 2, "al_sign": 1,
             "an": coefficients(level, a, count)}
        )
    return out


def write_catalog(directory, labels=tuple(CURVES), count: int = COEFF_COUNT) -> dict:
    """Write one JSONL file per form into ``directory``; return label -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for rec in records(labels, count):
        path = directory / f"{rec['label']}.jsonl"
        path.write_text(json.dumps(rec, separators=(",", ":")) + "\n", encoding="utf-8")
        paths[rec["label"]] = path
    return paths


def gate(f) -> tuple[float, float]:
    """Functional-equation residuals at al_sign and at the flipped sign.

    Raises ValueError unless the first is tiny and the second is not.
    """
    from eischow.lseries import lambda_symmetry_residual

    match = lambda_symmetry_residual(f, GATE_T)
    flipped = lambda_symmetry_residual(replace(f, al_sign=-f.al_sign), GATE_T)
    if not (match <= GATE_MATCH and flipped >= GATE_FLIPPED):
        raise ValueError(
            f"{f.label}: functional-equation gate failed "
            f"(residual {match:.3e} at sign, {flipped:.3e} flipped)"
        )
    return match, flipped
