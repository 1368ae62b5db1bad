#!/usr/bin/env python3
"""Steadiness report: each end-to-end metric's spread over repeated runs.

    python3 perfbench/steady.py

Runs ``perfbench/run.py --trace 0`` for every workload of ``BENCHMARK.json``,
one run at a time, in two sets of ten runs, each run with its own seed. For
each set and metric it reports the median of the runs and the spread, the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, against
the metric's bound; the bound is met by a spread at or below it, and the
benchmark aims for a third of it. It also gives how far the second set's
median lies from the first, in the direction the metric gets worse. The
report goes to stdout and to ``.perfbench/steadiness.json``; the exit code
is 1 if a run was incorrect or any spread or drift exceeded its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_ok": spread <= bound, "spread_steady": spread < bound / 3.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    all_ok = True
    for name in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                result = run_once(spec, name, seed)
                result["seed"] = seed
                runs.append(result)
                print(f"{name} set {s + 1} seed {seed}: wall {result['wall_s']:.1f} s, "
                      f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        entry = {"sets": [], "drift": {}}
        for runs in sets:
            summary = {
                m: summarize([r["metrics"][m]["value"] for r in runs], metrics[m]["bound"])
                for m in metrics
            }
            entry["sets"].append({
                "seeds": [r["seed"] for r in runs],
                "correct": all(r["correct"] for r in runs),
                "failed": [r["failed"] for r in runs],
                "attempted": [r["attempted"] for r in runs],
                "wall_s": [r["wall_s"] for r in runs],
                "metrics": summary,
            })
            all_ok &= all(r["correct"] for r in runs)
            all_ok &= all(v["spread_ok"] for v in summary.values())
        for m, spec_m in metrics.items():
            first = entry["sets"][0]["metrics"][m]["median"]
            second = entry["sets"][1]["metrics"][m]["median"]
            sign = 1.0 if spec_m["better"] == "lower" else -1.0
            worse_by = sign * (second - first) / first
            entry["drift"][m] = {"worse_by": worse_by, "ok": worse_by <= spec_m["bound"]}
            all_ok &= worse_by <= spec_m["bound"]
        report["workloads"][name] = entry

        print(f"\n{name}")
        for m in metrics:
            cells = []
            for st in entry["sets"]:
                v = st["metrics"][m]
                flag = "steady" if v["spread_steady"] else ("ok" if v["spread_ok"] else "WIDE")
                cells.append(f"median {v['median']:.6g} spread {v['spread']:.3f}/{v['bound']} {flag}")
            drift = entry["drift"][m]
            tail = f"  drift {drift['worse_by']:+.3f} {'ok' if drift['ok'] else 'WORSE'}"
            print(f"  {m:<12} " + " | ".join(cells) + tail)

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1))
    print(f"\nall checks {'passed' if all_ok else 'FAILED'}; report in .perfbench/steadiness.json")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
