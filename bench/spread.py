"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Usage (from the repository root):

    python3 bench/spread.py [--seeds 10] [--out bench/BASELINE.json]

Runs every workload once per seed 1..--seeds with --trace 0 and reports,
for each end-to-end metric, the median and the quartile spread
(q3 - q1) / median as ``statistics.quantiles(values, n=4)`` gives it,
against the metric's bound from BENCHMARK.json.  A spread at or above a
third of its bound is flagged.  With --out it then makes one traced run
(seed 1) per workload and writes a fresh file with the machine info, all
values, digests, host-kernel times and per-layer numbers.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", default=None, help="write the baseline JSON here")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    out = {"run_seconds": seconds, "seeds": seeds, "machine": None, "workloads": {}}
    worst = 0.0
    for wl in (w["name"] for w in spec["workloads"]):
        rows, digests, walls, kernels = [], {}, [], []
        for seed in seeds:
            report, result, wall = run_once(wl, seed, seconds, 0)
            if not result["correct"]:
                raise RuntimeError(f"{wl} seed {seed}: incorrect output {report['failure_examples']}")
            if out["machine"] not in (None, report["machine"]):
                raise RuntimeError(f"{wl} seed {seed}: machine info changed during the runs")
            out["machine"] = report["machine"]
            rows.append(result)
            digests[seed] = report["digest"]
            walls.append(wall)
            kernels.append(statistics.median(report["host_kernel_ms"]))
        entry = {"wall_s": summarize(walls), "host_kernel_ms": summarize(kernels),
                 "digests": digests, "metrics": {},
                 "failed_ratio": statistics.median(r["failed"] / r["attempted"] for r in rows)}
        print(f"{wl}: wall median {entry['wall_s']['median']:.1f} s, "
              f"host kernel spread {entry['host_kernel_ms']['spread']:.3f}", flush=True)
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in rows])
            s["bound"] = bound
            entry["metrics"][name] = s
            worst = max(worst, s["spread"] / bound)
            flag = "" if s["spread"] < bound / 3 else "  <-- at or above bound/3"
            print(f"  {name:16s} median {s['median']:10.4f}  spread {s['spread']:.4f}  bound {bound}{flag}",
                  flush=True)
        if args.out:
            _, result, _ = run_once(wl, TRACE_SEED, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items() if v["value"]}
        out["workloads"][wl] = entry
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
