"""Command-line front end: every computation as a subcommand.

Exit codes: 0 success, 1 domain error (the error class name is reported as
a machine-readable code), 2 usage error.  JSON output is canonical (compact
separators, stable key order) so that parse + re-serialize is
byte-identical.

Only the exact layers load at import time, and they need nothing beyond
the standard library: ``invariants``, ``gram``, ``omega-eis``, ``hecke``
and ``heegner`` never import numpy.  ``omega-f`` imports ``lseries`` and
``verify-analysis`` imports ``disc`` (and with them numpy) when they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import eis, hecke
from .errors import EischowError
from .gamma0 import invariants
from .symbolic import SymbolicReal

__all__ = ["main", "run"]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _emit(obj, fmt: str, table_lines) -> bool:
    """Print obj; False when the reader has closed stdout.

    Stdout then points at os.devnull, so the flush at exit cannot fail too.
    """
    try:
        if fmt == "json":
            print(_dumps(obj))
        else:
            for line in table_lines(obj):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return False
    return True


def _kv_lines(obj):
    for k, v in obj.items():
        yield f"{k:>14}: {v}"


def _cmd_invariants(args) -> dict:
    inv = invariants(args.N)
    return {
        "N": inv.N,
        "psi": inv.psi,
        "nu2": inv.nu2,
        "nu3": inv.nu3,
        "cusps": inv.cusps,
        "genus": inv.genus,
    }


def _gram_table(obj):
    labels = obj["basis"]
    cells = [[SymbolicReal.from_json_obj(e).to_text() for e in row] for row in obj["entries"]]
    width = max(len(c) for row in cells for c in row)
    yield f"Gram matrix at N={obj['N']} (convention: {obj['dinf_pairing']})"
    yield " " * 8 + "  ".join(f"{l:>{width}}" for l in labels)
    for lab, row in zip(labels, cells):
        yield f"{lab:>6}  " + "  ".join(f"{c:>{width}}" for c in row)


def _cmd_gram(args) -> dict:
    return eis.gram(args.N).to_json_obj()


def _cmd_omega_eis(args) -> dict:
    return eis.omega_eis_report(args.N, precision=args.precision)


def _cmd_hecke(args) -> dict:
    if args.l is not None:
        op = hecke.t_hat(args.l, args.N)
        g_log = eis.gram(args.N, "log")
        g_zero = eis.gram(args.N, "zero")
        return {
            "N": args.N,
            "l": args.l,
            "basis": list(op.basis.labels),
            "matrix": [
                [op.columns[j][i].to_text() for j in range(op.basis.dimension)]
                for i in range(op.basis.dimension)
            ],
            "shift": hecke.hecke_shift(args.l, args.N).to_text(),
            "self_adjoint": hecke.is_self_adjoint(op, g_log),
            "self_adjoint_zero_convention": hecke.is_self_adjoint(op, g_zero),
        }
    op = hecke.w_hat(args.d, args.N)
    identity = hecke.identity_operator(op.basis)
    squared = op.compose(op)
    involution = all(
        squared.columns[j] == identity.columns[j]
        for j in range(op.basis.dimension)
        if squared.columns[j] is not None
    )
    return {
        "N": args.N,
        "d": args.d,
        "basis": list(op.basis.labels),
        "matrix": [
            [
                None if op.columns[j] is None else op.columns[j][i].to_text()
                for j in range(op.basis.dimension)
            ]
            for i in range(op.basis.dimension)
        ],
        "domain": list(op.domain),
        "involution_on_domain": involution,
    }


def _hecke_table(obj):
    if "l" in obj:
        yield f"T-hat_{obj['l']} at N={obj['N']}  (columns are images of basis elements)"
    else:
        yield f"w-hat_{obj['d']} at N={obj['N']}  (domain: {', '.join(obj['domain'])})"
    labels = obj["basis"]
    width = max(
        len(str(e)) for row in obj["matrix"] for e in row
    )
    yield " " * 8 + "  ".join(f"{l:>{width}}" for l in labels)
    for lab, row in zip(labels, obj["matrix"]):
        cells = "  ".join(f"{('' if e is None else e):>{width}}" for e in row)
        yield f"{lab:>6}  {cells}"
    for key in ("shift", "self_adjoint", "self_adjoint_zero_convention", "involution_on_domain"):
        if key in obj:
            yield f"{key}: {obj[key]}"


def _cmd_heegner(args) -> dict:
    from .qexp import _heegner_points

    inv = invariants(args.N)
    div = _heegner_points(args.N, inv.primes, args.disc)
    expected = inv.nu2 if args.disc == -4 else inv.nu3
    obj = div.to_json_obj()
    obj["elliptic_count"] = expected
    return obj


def _cmd_omega_f(args) -> dict:
    from . import lseries

    f = lseries.ingest(args.eigenform)
    result = lseries.omega_f_sq(f)
    obj = {"label": f.label, "level": f.level, "al_sign": f.al_sign}
    obj.update(result.to_json_obj())
    return obj


def _cmd_verify_analysis(args) -> dict:
    from . import disc

    return disc.verification_report()


def _verify_table(obj):
    yield (
        f"disc-analysis certified checks (grid {obj['grid']['radial']}x"
        f"{obj['grid']['angular']}, tol {obj['tolerance']:g})"
    )
    for c in obj["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        yield f"[{status}] {c['name']}: residual {c['residual']:.3e}"
    yield f"overall: {'PASS' if obj['passed'] else 'FAIL'}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eischow",
        description="Eisenstein-part arithmetic intersection numbers on X_0(N), "
        "L-series invariants, and the disc-identity verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, positional_n=True):
        if positional_n:
            p.add_argument("N", type=int, help="level (squarefree)")
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("invariants", help="Gamma_0(N) invariants")
    add_common(p)
    p = sub.add_parser("gram", help="Eisenstein intersection Gram matrix")
    add_common(p)
    p = sub.add_parser("omega-eis", help="self-intersection of the Eisenstein part")
    add_common(p)
    p.add_argument("--precision", type=_positive_int, default=8, help="decimal digits")
    p = sub.add_parser("hecke", help="Hecke operator T-hat_l or involution w-hat_d")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int, help="Hecke prime l (l not dividing N)")
    group.add_argument("--d", type=int, help="Atkin-Lehner divisor d of N")
    p = sub.add_parser("heegner", help="Heegner divisor roots b^2 = disc mod 4N")
    add_common(p)
    p.add_argument("--disc", type=int, required=True, choices=(-3, -4))
    p = sub.add_parser("omega-f", help="isotypical invariant omega_f^2 from a dataset")
    add_common(p, positional_n=False)
    p.add_argument("--eigenform", required=True, help="JSON-lines eigenform file")
    p = sub.add_parser("verify-analysis", help="run the disc-identity regression gate")
    add_common(p, positional_n=False)
    return parser


_DISPATCH = {
    "invariants": (_cmd_invariants, _kv_lines),
    "gram": (_cmd_gram, _gram_table),
    "omega-eis": (_cmd_omega_eis, _kv_lines),
    "hecke": (_cmd_hecke, _hecke_table),
    "heegner": (_cmd_heegner, _kv_lines),
    "omega-f": (_cmd_omega_f, _kv_lines),
    "verify-analysis": (_cmd_verify_analysis, _verify_table),
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, table = _DISPATCH[args.command]
    try:
        obj = command(args)
        if not _emit(obj, args.format, table):
            return 1
    except (EischowError, ValueError, OSError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if args.format == "json":
            _emit(err, "json", None)
        else:
            print(f"error[{err['error']}]: {err['message']}", file=sys.stderr)
        return 1
    if args.command == "verify-analysis" and not obj["passed"]:
        return 1
    return 0


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(run())
