"""The four benchmark workloads.

Each builder turns a seeded ``random.Random`` into one *pass*: a fixed mix of
ops in seeded order.  The benchmark repeats whole passes, so every run sees
the same mix whatever its length.  An op has a timed ``run`` and an untimed
``check`` that raises ``CheckFailed`` on a wrong output and otherwise
returns the op's canonical output (for the digest).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import catalog
import levels

REF_OMEGA_37 = {"KAPPA": "288/19", "LOG(37)": "-1/3"}
REF_OMEGA_F = {"37a": -0.9200053483196, "43a": -0.5025320567003}
REF_L_11A = 0.25384186085591068
ETA_11A = ((1, 2), (11, 2))
CURVE_11A = (11, (0, -1, 1, -10, -20))
CHILD_TIMEOUT_S = 150


class CheckFailed(Exception):
    """An op returned an output that disagrees with its reference."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    # error classes that are a known library defect: a failed op, not a wrong output
    expected_errors: tuple = ()
    child: bool = False


@dataclass
class Context:
    root: Any  # checkout root (pathlib.Path)
    workdir: Any  # scratch directory inside the checkout for this run
    tiny: bool = False
    wrong_reference: bool = False
    env: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    warm_up: Callable[[], None]
    # whole passes a run of run.REFERENCE_SECONDS measures; --seconds scales it
    passes: int


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- exact-levels -------------------------------------------------------------


def _round_trip(sym) -> None:
    from eischow.symbolic import SymbolicReal

    obj = json.loads(json.dumps(sym.to_json_obj()))
    _require(SymbolicReal.from_json_obj(obj) == sym, f"JSON round trip changed {sym}")


def _exact_op(kind: str, N: int, l: int, ref: dict | None) -> Op:
    import eischow as ec
    from eischow.hecke import identity_operator

    heegner = math.gcd(N, 6) == 1 and N <= 10 ** 7

    def run():
        inv = ec.invariants(N)
        g_log = ec.gram(N, "log")
        g_zero = ec.gram(N, "zero")
        grams = (g_log.to_json_obj(), g_zero.to_json_obj())
        omega = ec.omega_eis_sq(N)
        op_t = ec.t_hat(l, N)
        adjoint = (ec.is_self_adjoint(op_t, g_log), ec.is_self_adjoint(op_t, g_zero))
        w = ec.w_hat(N, N)
        w2 = w.compose(w)
        roots = None
        if heegner:
            roots = (ec.heegner_points(N, -4).roots, ec.heegner_points(N, -3).roots)
        return inv, (g_log, g_zero), grams, omega, omega.to_json_obj(), op_t, adjoint, w2, roots

    def check(out):
        inv, gms, grams, omega, omega_json, op_t, adjoint, w2, roots = out
        _require(inv.N == N and math.prod(inv.primes) == N, f"N={N}: invariants mismatch")
        _require(inv.genus == levels.genus(inv.primes), f"N={N}: genus mismatch")
        _require(adjoint == (True, True), f"N={N}: T_{l} not self-adjoint {adjoint}")
        ident = identity_operator(w2.basis)
        _require(w2.domain != (), f"N={N}: w_N^2 has empty domain")
        for col, id_col in zip(w2.columns, ident.columns):
            _require(col is None or col == id_col, f"N={N}: w_N^2 is not the identity")
        for g in gms:
            for row in g.entries:
                for e in row:
                    _round_trip(e)
        _round_trip(omega)
        for col in op_t.columns:
            for e in col:
                _round_trip(e)
        if roots is not None:
            _require(
                (len(roots[0]), len(roots[1])) == (inv.nu2, inv.nu3),
                f"N={N}: Heegner counts {len(roots[0])},{len(roots[1])} vs nu2, nu3",
            )
        if ref is not None:
            _require(omega_json == ref, f"N={N}: omega_Eis^2 = {omega_json}, expected {ref}")
        return {
            "N": N,
            "l": l,
            "inv": [inv.psi, inv.nu2, inv.nu3, inv.cusps, inv.genus],
            "gram": list(grams),
            "omega": omega_json,
            "t_hat": op_t.to_json_obj(),
            "w2": w2.to_json_obj(),
            "heegner": None if roots is None else [list(r) for r in roots],
        }

    return Op(kind=kind, label=f"N={N}", run=run, check=check)


def no_heegner(n: int) -> bool:
    return math.gcd(n, 6) > 1


# Prime-factor counts of the small levels (N=37 comes on top).  As many
# levels are cheaper than the two-prime block as are dearer, so the
# workload median sits in the middle of that block whatever the seed; the
# two-prime levels share a factor with 6, so none of them adds a Heegner
# scan whose cost grows with N.
SMALL_K = (1,) * 14 + (2,) * 20 + (3, 3, 3, 4, 4)
SMOOTH_K = (5, 6, 7, 8, 9)
LARGE = ("prime1e6", "prime1e6", "prime1e6", "semiprime1e12", "prime1e11")


def build_exact_levels(rng, ctx: Context) -> Workload:
    if ctx.tiny:
        small_k, smooth_k, large = (2, 3), (5,), ()
    else:
        small_k, smooth_k, large = SMALL_K, SMOOTH_K, LARGE
    ref37 = dict(REF_OMEGA_37)
    if ctx.wrong_reference:
        ref37["KAPPA"] = "289/19"
    used = {37}
    specs = [("small", 37, ref37)]
    specs += [
        ("small", levels.small_level(rng, k, used, require=no_heegner if k == 2 else None), None)
        for k in small_k
    ]
    specs += [("smooth", levels.smooth_level(rng, k), None) for k in smooth_k]
    specs += [("large", levels.large_level(rng, kind), None) for kind in large]
    ops = [_exact_op(kind, N, levels.hecke_prime(rng, N), ref) for kind, N, ref in specs]
    rng.shuffle(ops)
    warm = [_exact_op("small", 37, 2, None), _exact_op("smooth", 2 * 3 * 5 * 7 * 11, 13, None)]

    def warm_up():
        for op in warm:
            op.check(op.run())

    return Workload(ops=ops, warm_up=warm_up, passes=1 if ctx.tiny else 4)


# -- rank1-forms --------------------------------------------------------------


def build_rank1_forms(rng, ctx: Context) -> Workload:
    from eischow import lseries, qexp
    from eischow.errors import QuadratureNotConverged

    labels = ("37a", "53a") if ctx.tiny else tuple(catalog.CURVES)
    eta_count = 1 if ctx.tiny else 3
    paths = catalog.write_catalog(ctx.workdir / "eigenforms", labels=labels)
    for path in paths.values():
        catalog.gate(lseries.ingest(path))
    level, curve = CURVE_11A
    ref_11a = tuple(catalog.coefficients(level, curve))
    refs = dict(REF_OMEGA_F)
    if ctx.wrong_reference:
        refs["37a"] *= 1.0 + 1e-6

    def form_op(label, path):
        def run():
            return lseries.omega_f_sq(lseries.ingest(path))

        def check(res):
            vals = res.to_json_obj()
            _require(all(math.isfinite(v) for v in vals.values()), f"{label}: non-finite output")
            _require(res.h_i >= 0.0 and res.h_j >= 0.0, f"{label}: negative height")
            _require(res.omega_f_sq <= 0.0, f"{label}: omega_f^2 > 0")
            if label in refs:
                rel = abs(res.omega_f_sq - refs[label]) / abs(refs[label])
                _require(rel <= 1e-9, f"{label}: omega_f^2 = {res.omega_f_sq!r}, rel err {rel:.2e}")
            return {"label": label, **vals}

        # the known defect: defaults do not converge from level 53 up; below
        # that a QuadratureNotConverged is a regression and makes the run incorrect
        known = (QuadratureNotConverged,) if catalog.CURVES[label][0] >= 53 else ()
        return Op(kind=label, label=label, run=run, check=check, expected_errors=known)

    def eta_op():
        def run():
            q = qexp.eta_expand(qexp.EtaQuotient(factors=ETA_11A), catalog.COEFF_COUNT)
            f = lseries.from_qexpansion(q, label="11a", al_sign=-1)
            return q, lseries.l_value(f), lseries.petersson(f)

        def check(out):
            q, lv, pet = out
            _require(q.coeffs == ref_11a, "11a: eta coefficients disagree with point counts")
            rel = abs(lv - REF_L_11A) / REF_L_11A
            _require(rel <= 1e-9, f"11a: L(f,1) = {lv!r}, rel err {rel:.2e}")
            _require(math.isfinite(pet) and pet > 0.0, f"11a: Petersson norm {pet!r}")
            return {"label": "11a", "l_value": lv, "petersson": pet}

        return Op(kind="11a", label="11a", run=run, check=check)

    ops = [form_op(label, path) for label, path in paths.items()]
    if not ctx.tiny:
        # 53a is the middle form by cost; a second copy puts the workload
        # median in the middle of one form's block, not on a single sample
        ops.append(form_op("53a", paths["53a"]))
    ops += [eta_op() for _ in range(eta_count)]
    rng.shuffle(ops)

    def warm_up():
        # the q-expansion and L-value paths; the Petersson pass keeps no state
        # between calls, so warming it would only lengthen set-up
        q = qexp.eta_expand(qexp.EtaQuotient(factors=ETA_11A), catalog.COEFF_COUNT)
        lseries.l_value(lseries.from_qexpansion(q, label="11a", al_sign=-1))

    return Workload(ops=ops, warm_up=warm_up, passes=1 if ctx.tiny else 3)


# -- cli-cold -----------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    spans: dict | None = None


def _in_process(argv) -> tuple[int, str, str]:
    from eischow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_argvs(rng, eigenform: str, tiny: bool) -> list[tuple[str, list[str], int]]:
    """(kind, argv, exit code) for one pass; about one in ten inputs is invalid:
    a non-squarefree level exits 1, a missing required flag exits 2."""
    used: set = set()
    any_level = lambda: levels.small_level(rng, rng.choice((1, 2, 3)), used)  # noqa: E731
    coprime6 = lambda: levels.small_level(  # noqa: E731
        rng, rng.choice((1, 2)), used, require=lambda n: math.gcd(n, 6) == 1
    )
    if tiny:
        n = any_level()
        return [
            ("omega-eis", ["omega-eis", str(n), "--precision", "6"], 0),
            ("invalid", ["invariants", str(levels.non_squarefree(rng))], 1),
            ("invalid", ["heegner", str(coprime6())], 2),
            ("omega-f", ["omega-f", "--eigenform", eigenform], 0),
        ]
    out = []
    for _ in range(3):
        out.append(("invariants", ["invariants", str(any_level())], 0))
        out.append(("gram", ["gram", str(any_level())], 0))
        n = any_level()
        # 6 digits stay certifiable for every level up to 10^4 (8 do not)
        out.append(("omega-eis", ["omega-eis", str(n), "--precision", "6"], 0))
    for _ in range(2):
        n = any_level()
        out.append(("hecke", ["hecke", str(n), "--l", str(levels.hecke_prime(rng, n))], 0))
    n = levels.small_level(rng, 2, used)
    out.append(("hecke", ["hecke", str(n), "--d", str(n)], 0))
    out.append(("heegner", ["heegner", str(coprime6()), "--disc", "-4"], 0))
    out.append(("heegner", ["heegner", str(coprime6()), "--disc", "-3"], 0))
    out.append(("omega-f", ["omega-f", "--eigenform", eigenform], 0))
    out.append(("verify-analysis", ["verify-analysis"], 0))
    bad = rng.choice(("invariants", "gram", "omega-eis"))
    out.append(("invalid", [bad, str(levels.non_squarefree(rng))], 1))
    out.append(("invalid", rng.choice((["heegner", str(coprime6())], ["hecke", str(any_level())])), 2))
    return out


def build_cli_cold(rng, ctx: Context) -> Workload:
    paths = catalog.write_catalog(ctx.workdir / "eigenforms", labels=("37a",))
    eigenform = str(paths["37a"].relative_to(ctx.root))
    child_py = str(ctx.root / "bench" / "child.py")
    spans_path = ctx.workdir / "spans.json"

    def cli_op(kind, argv, exit_code):
        argv = argv + ["--format", "json"]
        expected = _in_process(argv)
        if expected[0] != exit_code:
            raise ValueError(f"{argv}: exits {expected[0]} in process, expected {exit_code}")
        if exit_code == 1 and json.loads(expected[1])["error"] != "NonSquarefree":
            raise ValueError(f"{argv}: unexpected error {expected[1]}")

        def run(traced=False):
            if traced:
                cmd = [sys.executable, child_py, str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "eischow.cli", *argv]
            proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            spans = None
            if traced:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            return ChildResult(proc.returncode, proc.stdout, proc.stderr, spans)

        # the eigenform file lives in a per-run directory; keep it out of the digest
        shown = [a if a != eigenform else "<eigenform>" for a in argv]

        def check(res: ChildResult):
            code, out, err = expected
            _require(res.code == code, f"{argv}: exit {res.code}, expected {code}")
            if code == 2:
                _require(res.stderr == err, f"{argv}: usage error text differs")
                return {"argv": shown, "code": code, "stderr": res.stderr}
            obj = json.loads(res.stdout)
            text = res.stdout.rstrip("\n")
            _require(json.dumps(obj, separators=(",", ":")) == text, f"{argv}: JSON not canonical")
            ref = json.loads(out)
            if code == 1:
                _require(obj.get("error") == ref["error"], f"{argv}: error {obj.get('error')}")
            else:
                _require(obj == ref, f"{argv}: output differs from the in-process run")
            return {"argv": shown, "code": code, "stdout": obj}

        return Op(kind=kind, label=" ".join(argv), run=run, check=check, child=True)

    ops = [cli_op(*spec) for spec in cli_argvs(rng, eigenform, ctx.tiny)]
    rng.shuffle(ops)
    warm = cli_op("invariants", ["invariants", "37"], 0)

    def warm_up():
        warm.check(warm.run())

    return Workload(ops=ops, warm_up=warm_up, passes=1 if ctx.tiny else 3)


# -- disc-verify --------------------------------------------------------------

GRIDS = ((256, 512),) * 5 + ((128, 256), (512, 1024), (512, 1024))


def build_disc_verify(rng, ctx: Context) -> Workload:
    from eischow import disc

    def grid_op(radial, angular):
        def run():
            return disc.verification_report(radial=radial, angular=angular)

        def check(report):
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            _require(report["passed"] is True and not failed, f"{radial}x{angular}: {failed}")
            return report

        return Op(kind=f"{radial}x{angular}", label=f"{radial}x{angular}", run=run, check=check)

    grids = list(GRIDS[5:6] if ctx.tiny else GRIDS)
    rng.shuffle(grids)
    ops = [grid_op(r, a) for r, a in grids]
    warm = grid_op(disc.DEFAULT_RADIAL, disc.DEFAULT_ANGULAR)

    def warm_up():
        warm.check(warm.run())

    return Workload(ops=ops, warm_up=warm_up, passes=1 if ctx.tiny else 7)


BUILDERS = {
    "exact-levels": build_exact_levels,
    "rank1-forms": build_rank1_forms,
    "cli-cold": build_cli_cold,
    "disc-verify": build_disc_verify,
}
