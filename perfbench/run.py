#!/usr/bin/env python3
"""resonatorlab benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src``. The
workloads (``cli-pipeline``, ``linear-batch``, ``kerr-sweep``) and every
metric are described in ``perfbench/README.md``.

One client runs ops back to back for ``--seconds`` seconds, in whole cycles
of the workload's op order and at least two of them, after a set-up that is
repeated and timed. With ``--trace 1`` the first half of the time runs
untraced and the second half traced, at least one cycle each, and the
per-layer metrics come from the traced half.

Stdout holds a table of every metric, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full record (run environment, input fingerprint, all
metrics, per-function span summary and the spans themselves) is written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cli-pipeline", "linear-batch", "kerr-sweep")
SETUP_REPEATS = 3
#: Every run holds at least this many whole cycles, so each command of
#: cli-pipeline runs twice and its report is compared with the first run. A
#: traced run gets that from its untraced and traced halves together.
MIN_CYCLES = 2
#: op_s.tail is this percentile of the op times on every workload and commit.
TAIL_PERCENTILE = 90
PROBE_REPEATS = 3
CUBIC_PROBE_POINTS = 10**6

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_of(times: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE op time and the number of samples beyond it."""
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return tail, sum(1 for t in times if t > tail)


def timed_loop(workload, ops, seconds: float, min_cycles: int, tracer=None):
    """Closed loop: whole cycles of ops until ``seconds`` have passed, and at
    least ``min_cycles`` of them."""
    records, problems = [], []
    start = clock()
    cycles = 0
    while cycles < min_cycles or clock() - start < seconds:
        cycles += 1
        for _ in range(workload.cycle_len):
            kind, op = next(ops)
            if tracer is not None:
                tracer.op = len(records)
            t0 = clock()
            ok, problem = op()
            records.append((kind, clock() - t0, ok))
            if problem:
                problems.append(problem)
    return records, clock() - start, problems


def end_to_end(records, elapsed: float, setup_times, peak_rss_mb: float):
    times = [r[1] for r in records]
    tail, beyond = tail_of(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(records) / elapsed, "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failed = sum(1 for r in records if not r[2])
    extra = {
        "failed_ratio": (failed / len(records), "ratio"),
        "op_s.samples": (len(times), "count"),
        "op_s.tail_percentile": (TAIL_PERCENTILE, "%"),
        "op_s.tail_beyond": (beyond, "count"),
        "setup_s.samples": (len(setup_times), "count"),
    }
    for kind in sorted({r[0] for r in records}):
        kind_times = [r[1] for r in records if r[0] == kind]
        name = f"{kind}_s" if kind.startswith("cli.") else f"op_s.p50.{kind}"
        extra[name] = (statistics.median(kind_times), "s")
        extra[f"samples.{kind}"] = (len(kind_times), "count")
        extra[f"failed.{kind}"] = (sum(1 for r in records if r[0] == kind and not r[2]), "count")
    return metrics, extra


def parse_importtime(stderr: str) -> dict:
    """Totals from ``python -X importtime -c 'import resonatorlab.cli'``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")  # self | cumulative | name
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))

    def within(pkg, name):
        return name == pkg or name.startswith(pkg + ".")

    totals = {"resonatorlab": 0, "scipy": 0, "jsonschema": 0}
    modules = 0
    ancestors: list[str] = []
    # importtime prints children before parents; reversed, parents come first.
    for level, name, cumulative in reversed(entries):
        del ancestors[level:]
        chain = [*ancestors, name]
        if any(within("resonatorlab", a) for a in chain):
            modules += 1
        for pkg in totals:
            if within(pkg, name) and not any(within(pkg, a) for a in ancestors):
                totals[pkg] += cumulative
        ancestors.append(name)
    return {
        "cli.import_s": (totals["resonatorlab"] * 1e-6, "s"),
        "cli.imported_modules": (modules, "count"),
        "cli.import.scipy_s": (totals["scipy"] * 1e-6, "s"),
        "cli.import.jsonschema_s": (totals["jsonschema"] * 1e-6, "s"),
    }


def import_probe(env) -> dict:
    runs = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import resonatorlab.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {k: (statistics.median(r[k][0] for r in runs), unit) for k, (_, unit) in runs[0].items()}


def cubic_probe(seed: int) -> dict:
    """One standalone ``photon_cubic_roots`` call at 1e6 points, median of a few."""
    import numpy as np

    import resonatorlab as rl

    rng = np.random.default_rng([seed, 6])
    delta = rng.uniform(-5.0, 5.0, CUBIC_PROBE_POINTS)
    xi = rng.uniform(0.0, 2.0, CUBIC_PROBE_POINTS)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        roots = rl.photon_cubic_roots(delta, xi)
        times.append(clock() - t0)
    return {
        "kerrfit.cubic_ns_per_point_1e6": (statistics.median(times) / CUBIC_PROBE_POINTS * 1e9, "ns"),
        # computed from array sizes (inputs read, roots written), not measured
        "kerrfit.cubic_bytes_computed": (delta.nbytes + xi.nbytes + roots.nbytes, "bytes"),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it exposes one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(seed: int) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "git_commit": commit,
        "seed": seed,
    }


def merge_child_spans(per_op: list[list]) -> list:
    """Give spans from separate CLI processes unique ids and their op index."""
    merged, offset = [], 0
    for op, spans in enumerate(per_op):
        top = 0
        for sid, name, start, end, parent, _, attrs in spans:
            merged.append(
                [sid + offset, name, start, end, None if parent is None else parent + offset, op, attrs]
            )
            top = max(top, sid + 1)
        offset += top
    return merged


def declared(spec_metrics, computed: dict) -> dict:
    """The metrics named in BENCHMARK.json that the run produced, in its order."""
    return {
        m["name"]: {"value": computed[m["name"]][0], "unit": computed[m["name"]][1]}
        for m in spec_metrics if m["name"] in computed
    }


def run(args, spec: dict, workdir: Path) -> dict:
    from layers import covered_time, function_summary, layer_metrics
    from tracer import Tracer
    from workloads import CliPipeline, LinearBatch, KerrSweep, child_env

    env = child_env(SRC)
    workload = {
        "cli-pipeline": lambda: CliPipeline(env),
        "linear-batch": LinearBatch,
        "kerr-sweep": KerrSweep,
    }[args.workload]()

    setup_times, prints = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import resonatorlab"], env=env, cwd=ROOT, check=True)
        inputs, fingerprint = workload.generate(args.seed, workdir)
        setup_times.append(clock() - t0)
        prints.append(fingerprint)
    problems = []
    if any(p != prints[0] for p in prints):
        problems.append("set-up repetitions generated different inputs")

    ops = workload.ops(inputs)
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    min_cycles = MIN_CYCLES // 2 if args.trace else MIN_CYCLES
    records, elapsed, found = timed_loop(workload, ops, seconds, min_cycles)
    problems += found
    is_cli = isinstance(workload, CliPipeline)
    peak = workload.peak_rss_mb if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, extra = end_to_end(records, elapsed, setup_times, peak)
    every = {**metrics, **extra}
    result = {}

    if args.trace:
        # The traced half replays the untraced half's op sequence from the start.
        ops = workload.ops(inputs)
        if is_cli:
            workload.spans_sink = []
            t_records, t_elapsed, found = timed_loop(workload, ops, seconds, min_cycles)
            spans = merge_child_spans(workload.spans_sink)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                t_records, t_elapsed, found = timed_loop(workload, ops, seconds, min_cycles, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.spans
        problems += found
        per_layer = layer_metrics(spans)
        per_layer["trace.overhead_ops_per_s"] = (
            len(t_records) / t_elapsed - len(records) / elapsed, "1/s"
        )
        per_layer["trace.covered_share"] = (
            covered_time(spans) / sum(r[1] for r in t_records), "ratio"
        )
        per_layer.update(import_probe(env))
        per_layer.update(cubic_probe(args.seed))
        every.update(per_layer)
        records = records + [(f"traced.{kind}", t, ok) for kind, t, ok in t_records]
        result["functions"] = function_summary(spans)
        result["spans"] = spans
        shown = declared(spec["per_layer"], per_layer)
    else:
        shown = declared(spec["end_to_end"], metrics)

    digest = hashlib.sha256("\n".join(prints[0]).encode()).hexdigest()
    result.update(
        records=records,
        correct=not problems and bool(records),
        attempted=len(records),
        failed=sum(1 for r in records if not r[2]),
        problems=sorted(set(problems)),
        fingerprint={"seed": args.seed, "sha256": digest, "inputs": prints[0]},
        every=every,
        shown=shown,
    )
    return result


def write_results(args, result: dict, record: dict) -> Path:
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in result:
        with open(results_dir / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": record,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "fingerprint": result["fingerprint"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["every"].items())},
        "functions": result.get("functions", {}),
        "ops": [{"kind": k, "s": t, "ok": ok} for k, t, ok in result["records"]],
    }
    path = results_dir / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resonatorlab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'resonatorlab'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    # Fits warn about short spans; the op checks judge the results instead.
    warnings.simplefilter("ignore")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(args.seed)
    path = write_results(args, result, record)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("run " + json.dumps(record, sort_keys=True))
    print(f"inputs sha256 {result['fingerprint']['sha256']}  ({len(result['fingerprint']['inputs'])} inputs)")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    for name, (value, unit) in sorted(result["every"].items()):
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print(f"results {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["shown"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
