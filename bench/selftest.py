"""Self-test of the benchmark itself.

Usage (from the repository root): python3 bench/selftest.py

* every workload, run at tiny size with --trace 0 and --trace 1, emits
  exactly the metrics BENCHMARK.json names, with their units;
* a deliberately wrong reference value (--wrong-reference) turns into a
  failed op and an incorrect run, so the output checks fire;
* QuadratureNotConverged is the known defect only at levels >= 53: on 37a
  and on the 11a eta op it is an error that makes the run incorrect;
* two runs with the same seed give the same output digest on exact-levels,
  cli-cold and disc-verify;
* without the library sources next to it the benchmark exits nonzero and
  prints no result.
"""

import json
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def bench(*args, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--seed", "3", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_known_defect_levels() -> None:
    """Make every Petersson pass raise and see which ops count it as known."""
    import random

    from eischow import lseries
    from eischow.errors import QuadratureNotConverged

    import run
    from workloads import Context, build_rank1_forms

    def not_converged(*args, **kwargs):
        raise QuadratureNotConverged("forced by the self-test")

    workdir = BENCH / ".work" / "selftest-defect"
    saved = lseries.omega_f_sq, lseries.petersson
    lseries.omega_f_sq = lseries.petersson = not_converged
    try:
        ctx = Context(root=ROOT, workdir=workdir, tiny=True)
        ops = build_rank1_forms(random.Random("selftest"), ctx).ops
        status = {op.label: run.execute(op, None).status for op in ops}
    finally:
        lseries.omega_f_sq, lseries.petersson = saved
        shutil.rmtree(workdir, ignore_errors=True)
    assert status == {"37a": "error", "53a": "expected", "11a": "error"}, status
    print(f"ok  rank1-forms   forced non-convergence: {status}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            report, result = result_of(bench("--workload", wl, "--trace", str(trace), "--tiny"))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], f"{wl} trace {trace}: metrics differ {set(got) ^ set(wanted[trace])}"
            assert result["correct"] is True and result["attempted"] >= 1, (wl, trace, result)
            print(f"ok  {wl:13s} trace {trace}: {len(got)} metrics, digest {report['digest'][:12]}")

    for wl in ("exact-levels", "rank1-forms"):
        report, result = result_of(bench("--workload", wl, "--tiny", "--wrong-reference"))
        wrong = sum(n for k, n in report["failures_by_kind"].items() if k.endswith(":wrong"))
        assert wrong >= 1 and result["correct"] is False, (wl, report["failures_by_kind"])
        print(f"ok  {wl:13s} wrong reference: {wrong} op(s) failed their check, correct=false")
    check_known_defect_levels()

    for wl in ("exact-levels", "cli-cold", "disc-verify"):
        digests = [result_of(bench("--workload", wl, "--tiny"))[0]["digest"] for _ in range(2)]
        assert digests[0] == digests[1], (wl, digests)
        print(f"ok  {wl:13s} digest repeats")

    bare = BENCH / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "exact-levels", root=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok  without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
