"""eischow benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-levels, rank1-forms, cli-cold, disc-verify (see
bench/README.md).  Load model: one closed-loop client in this process; the
cli-cold workload runs one child process at a time.  --seconds sets the
amount of work: a run measures round(passes * S / REFERENCE_SECONDS) whole
passes of its seeded op mix (at least one), where ``passes`` is the
workload's pass count for a run of REFERENCE_SECONDS.  On a shared 2-core
x86-64 host that takes 15 to 30 seconds of op time at S = 20.

--trace 0 prints the end-to-end metrics; --trace 1 measures half the
passes untraced and half with span tracing on, and prints the per-layer
metrics.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report, which is also written to bench/results/.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, CheckFailed, Context  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

REFERENCE_SECONDS = 20  # run_seconds in BENCHMARK.json
SETUP_PROBES = 5
# a fixed pure-Python kernel, timed after every pass: a host-speed diagnostic
# for the report that touches no metric
HOST_KERNEL_ITERATIONS = 15000
HOST_KERNEL_REPEATS = 3
TAIL_ABOVE = 10
INTERPRETER_PROBES = 5
PROBE_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "<span>.<stat>" where <span> is a traced function
# or a bare layer name (summed over the layer's spans)
LAYER_METRICS = {
    "gamma0.invariants.calls": "calls/op",
    "gamma0.invariants.self_ms": "ms/op",
    "gamma0.squarefree_factorization.self_ms": "ms/op",
    "symbolic.LOG.calls": "calls/op",
    "symbolic.linear_product.calls": "calls/op",
    "symbolic.self_ms": "ms/op",
    "eis.gram.calls": "calls/op",
    "eis.gram.self_ms": "ms/op",
    "eis.omega_eis_sq.self_ms": "ms/op",
    "eis.pair.calls": "calls/op",
    "hecke.t_hat.self_ms": "ms/op",
    "hecke.w_hat.self_ms": "ms/op",
    "hecke.is_self_adjoint.calls": "calls/op",
    "hecke.is_self_adjoint.self_ms": "ms/op",
    "qexp.heegner_points.calls": "calls/op",
    "qexp.heegner_points.self_ms": "ms/op",
    "qexp.eta_expand.self_ms": "ms/op",
    "lseries.ingest.self_ms": "ms/op",
    "lseries.l_derivative.self_ms": "ms/op",
    "lseries.l_value.self_ms": "ms/op",
    "lseries.petersson.calls": "calls/op",
    "lseries.petersson.self_ms": "ms/op",
    "lseries.petersson.converged_ratio": "ratio",
    "lseries.omega_f_sq.self_ms": "ms/op",
    "disc.DiscGrid.gauss.self_ms": "ms/op",
    "disc.seminorm1.self_ms": "ms/op",
    "disc.pullback_pow.self_ms": "ms/op",
    "disc.pushforward_pow.self_ms": "ms/op",
    "disc.check_dbar_equality.self_ms": "ms/op",
    "disc.check_hardy.self_ms": "ms/op",
    "disc.check_adjoint.self_ms": "ms/op",
    "disc.check_ibp.self_ms": "ms/op",
    "disc.verification_report.self_ms": "ms/op",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.exit_nonzero": "ratio",
}

KINDS = (
    "small", "smooth", "large",
    "invariants", "gram", "omega-eis", "hecke", "heegner", "omega-f", "verify-analysis", "invalid",
    "11a", "37a", "43a", "53a", "61a", "79a", "83a", "101a", "131a",
    "128x256", "256x512", "512x1024",
)


def per_layer_units() -> dict:
    units = {"trace.overhead_ratio": "ratio", "failed_ratio": "ratio"}
    units.update(LAYER_METRICS)
    units.update({f"kind.{k}.p50_ms": "ms" for k in KINDS})
    return units


@dataclass
class Record:
    kind: str
    latency: float
    status: str  # ok | expected (known defect) | wrong (check failed) | error
    output: object = None
    label: str = ""
    child_exit: int | None = None
    child_import_ms: float | None = None


@dataclass
class Phase:
    records: list = field(default_factory=list)
    busy: float = 0.0
    passes: int = 0
    first_pass: list = field(default_factory=list)
    host_kernel_ms: list = field(default_factory=list)


def execute(op, tracer) -> Record:
    t0 = time.perf_counter()
    try:
        if op.child:
            out = op.run(traced=tracer is not None)
        elif tracer is not None:
            out = tracer.op(op.kind, op.run)
        else:
            out = op.run()
    except op.expected_errors as exc:
        latency = time.perf_counter() - t0
        return Record(op.kind, latency, "expected",
                      {"error": type(exc).__name__, "message": str(exc)}, label=op.label)
    except Exception as exc:  # an op must not stop the run; record and count it
        latency = time.perf_counter() - t0
        tb = traceback.format_exc(limit=3)
        return Record(op.kind, latency, "error",
                      {"error": type(exc).__name__, "traceback": tb}, label=op.label)
    latency = time.perf_counter() - t0
    rec = Record(op.kind, latency, "ok", label=op.label)
    if op.child:
        rec.child_exit = out.code
        if out.spans is not None:
            tracer.merge(out.spans, op.kind)
            rec.child_import_ms = out.spans["extra"]["import_ms"]
    try:
        rec.output = op.check(out)
    except CheckFailed as exc:
        rec.status = "wrong"
        rec.output = {"check_failed": str(exc), "op": op.label}
    return rec


def host_kernel_ms() -> float:
    """Median milliseconds of a fixed pure-Python kernel: the host's current speed."""
    times = []
    for _ in range(HOST_KERNEL_REPEATS):
        t0 = time.perf_counter()
        n, hits, table = 1000003, 0, {}
        for b in range(HOST_KERNEL_ITERATIONS):
            if (b * b + 4) % (4 * n) == 0:
                hits += 1
            table[b % 97] = table.get(b % 97, 0) + b
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure(workload, seconds: float, tracer=None) -> Phase:
    """round(workload.passes * seconds / REFERENCE_SECONDS) whole passes, at
    least one.  A fixed pass count keeps the sample count, and with it the
    tail percentile, the same on every run."""
    passes = max(1, round(workload.passes * seconds / REFERENCE_SECONDS))
    phase = Phase()
    for n in range(passes):
        for op in workload.ops:
            rec = execute(op, tracer)
            phase.records.append(rec)
            phase.busy += rec.latency
            if n == 0:
                phase.first_pass.append(rec.output)
            if rec.status == "ok":
                rec.output = None  # keep the heap (and so GC work) flat across passes
        phase.passes += 1
        phase.host_kernel_ms.append(host_kernel_ms())
    return phase


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples above): highest percentile with >= 10 samples above."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_ABOVE:
        return lat[-1], 100.0, 0
    return lat[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, TAIL_ABOVE


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup(args, workdir):
    """Imports, seeded inputs, eigenform files and warm-up; returns the workload."""
    import eischow

    if not pathlib.Path(eischow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"eischow imported from {eischow.__file__}, not from {SRC}")
    rng = random.Random(f"{args.workload}:{args.seed}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = Context(root=ROOT, workdir=workdir, tiny=args.tiny,
                  wrong_reference=args.wrong_reference, env=env)
    workload = BUILDERS[args.workload](rng, ctx)
    workload.warm_up()
    return workload


def setup_seconds(args) -> list[float]:
    """Seconds from spawn to 'ready' of fresh processes doing the same set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")

    def probe() -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        return elapsed

    return [probe() for _ in range(SETUP_PROBES)]


def interpreter_ms() -> float:
    times = []
    for _ in range(INTERPRETER_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    lat = [r.latency for r in phase.records]
    ok = sum(r.status == "ok" for r in phase.records)
    value, pct, above = tail(lat)
    metrics = {
        "ops_per_s": ok / phase.busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": value * 1e3,
        "failed_ratio": (len(lat) - ok) / len(lat),
    }
    return metrics, {"percentile": pct, "samples_above": above, "samples": len(lat)}


def layer_metrics(stats: dict, phase: Phase) -> dict:
    ops = len(phase.records)
    out = {}
    for name in LAYER_METRICS:
        if name.startswith("cli."):
            continue
        span, stat = name.rsplit(".", 1)
        if "." in span:
            rows = [stats[span]] if span in stats else []
        else:
            rows = [s for k, s in stats.items() if k.startswith(span + ".")]
        calls = sum(s["calls"] for s in rows)
        if stat == "calls":
            out[name] = calls / ops
        elif stat == "self_ms":
            out[name] = sum(s["self_s"] for s in rows) * 1e3 / ops
        elif stat == "converged_ratio":
            out[name] = sum(s["ok_calls"] for s in rows) / calls if calls else 0.0
    children = [r for r in phase.records if r.child_exit is not None]
    imports = [r.child_import_ms for r in children if r.child_import_ms is not None]
    run_s = stats.get("cli.run", {}).get("total_s", 0.0)
    out["cli.import_ms"] = statistics.fmean(imports) if imports else 0.0
    out["cli.run_ms"] = run_s * 1e3 / len(children) if children else 0.0
    out["cli.exit_nonzero"] = (
        sum(r.child_exit != 0 for r in children) / len(children) if children else 0.0
    )
    return out


def median_ms_by(phase: Phase, key) -> dict:
    groups: dict = {}
    for r in phase.records:
        groups.setdefault(key(r), []).append(r.latency)
    return {k: statistics.median(v) * 1e3 for k, v in groups.items()}


def kind_p50(phase: Phase) -> dict:
    by_kind = median_ms_by(phase, lambda r: r.kind)
    unknown = set(by_kind) - set(KINDS)
    if unknown:
        raise RuntimeError(f"op kinds without a metric: {sorted(unknown)}")
    return {f"kind.{k}.p50_ms": by_kind.get(k, 0.0) for k in KINDS}


def run_workload(args, workdir) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    workload = setup(args, workdir)
    setup_in_run = time.perf_counter() - t0
    gc.collect()
    gc.freeze()  # set-up objects live for the whole run; keep them out of GC scans
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine_info(),
        "ops_per_pass": len(workload.ops), "setup_in_run_s": setup_in_run,
    }
    children = args.workload == "cli-cold"
    if not args.trace:
        phase = measure(workload, args.seconds)
        metrics, tail_info = end_to_end(phase)
        metrics["peak_rss_mb"] = peak_rss_mb(children)
        probes = setup_seconds(args)
        metrics["setup_s"] = statistics.median(probes)
        report.update(setup_probe_s=probes, latency_tail=tail_info, kinds=kind_p50(phase),
                      ops_p50_ms=median_ms_by(phase, lambda r: f"{r.kind}:{r.label}"))
        phases = [phase]
        emitted = {k: metrics[k] for k in END_TO_END}
        units = END_TO_END
    else:
        plain = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        stats = tracer.aggregate()
        metrics, tail_info = end_to_end(plain)
        traced_metrics, _ = end_to_end(traced)
        phases = [plain, traced]
        emitted = layer_metrics(stats, traced)
        emitted["cli.interpreter_ms"] = interpreter_ms() if children else 0.0
        emitted["trace.overhead_ratio"] = traced_metrics["ops_per_s"] / metrics["ops_per_s"]
        emitted["failed_ratio"] = metrics["failed_ratio"]
        emitted.update(kind_p50(plain))
        units = per_layer_units()
        emitted = {k: emitted[k] for k in units}
        report.update(spans=len(tracer), traced_passes=traced.passes,
                      span_stats=stats, latency_tail=tail_info)
    records = [r for p in phases for r in p.records]
    failures = [r for r in records if r.status != "ok"]
    correct = not any(r.status in ("wrong", "error") for r in records)
    report.update(
        passes=phases[0].passes,
        digest=digest(phases[0].first_pass),
        host_kernel_ms=[ms for p in phases for ms in p.host_kernel_ms],
        end_to_end={k: {"value": v, "unit": END_TO_END.get(k, "ratio")} for k, v in metrics.items()},
        failures_by_kind=Counter(r.kind + ":" + r.status for r in failures),
        failure_examples=[r.output for r in failures[:3]],
    )
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in emitted.items()},
    }
    return report, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one minimal pass (self-test)")
    p.add_argument("--wrong-reference", action="store_true",
                   help="perturb one reference value (self-test of the checks)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eischow" / "__init__.py").is_file():
        print(f"error: no eischow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup(args, workdir)
            print("ready", flush=True)
            return 0
        report, result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
