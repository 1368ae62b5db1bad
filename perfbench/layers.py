"""Per-layer metrics computed from the spans of a traced run.

Times are seconds per call of the layer's entry function (``fit_linear``,
``fit_kerr``, ...), counts are per call of that function, so the figures do
not grow with run length. A metric whose function never ran is absent.
"""

from __future__ import annotations

from collections import defaultdict

BRANCHES = ("lowest", "sweep-continuation")
CLI_SUBCOMMANDS = (
    "version", "design", "synth", "fit-linear", "fit-field", "fit-power-sweep", "fit-kerr"
)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = _union_length(
            (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end
        )
        out[sid] = (end - start) - covered
    return out


def covered_time(spans) -> float:
    """Wall time covered by root spans (those without a parent)."""
    return _union_length((s[2], s[3]) for s in spans if s[4] is None)


def _ancestor(span, by_id, name):
    parent = span[4]
    while parent is not None:
        p = by_id[parent]
        if p[1] == name:
            return p
        parent = p[4]
    return None


def layer_metrics(spans) -> dict:
    """Metric name -> (value, unit) for every layer function that ran."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    groups = defaultdict(list)
    for s in spans:
        groups[s[1]].append(s)
    out: dict[str, tuple[float, str]] = {}

    def dur(items):
        return sum(s[3] - s[2] for s in items)

    def per_call(metric, value, unit, calls):
        if calls:
            out[metric] = (value / calls, unit)

    # linfit: stages of fit_linear, per fit_linear call.
    fits = groups.get("linfit.fit_linear", [])
    n_fit = len(fits)
    per_call("linfit.fit_linear_s", dur(fits), "s", n_fit)
    per_call("linfit.fit_linear_self_s", sum(selfs[s[0]] for s in fits), "s", n_fit)
    delay = groups.get("linfit.estimate_delay", [])
    per_call("linfit.estimate_delay_s", dur(delay), "s", n_fit)
    scalar = groups.get("linfit.minimize_scalar", [])
    per_call("linfit.delay_refine_s", dur(scalar), "s", n_fit)
    per_call("linfit.delay_refine_nfev", sum(s[6]["nfev"] for s in scalar if s[6]), "count", n_fit)
    circles = groups.get("linfit.circle_fit", [])
    per_call("linfit.circle_fit_calls", len(circles), "count", n_fit)
    per_call("linfit.circle_fit_s", dur(circles), "s", n_fit)
    lsq = [s for s in groups.get("linfit.least_squares", []) if s[6]]
    for stage, n_params in (("phase", 3), ("refine", 7)):
        calls = [s for s in lsq if s[6]["n"] == n_params]
        per_call(f"linfit.{stage}_nfev", sum(s[6]["nfev"] for s in calls), "count", n_fit)
        per_call(f"linfit.{stage}_s", dur(calls), "s", n_fit)

    # kerrfit: per fit_kerr call, split by the branch rule the fit used;
    # cubic and least-squares calls count toward the fit_kerr they ran under.
    kfits = {s[0]: s for s in groups.get("kerrfit.fit_kerr", []) if s[6]}

    def owned(name):
        items = defaultdict(list)
        for s in groups.get(name, []):
            fit = _ancestor(s, by_id, "kerrfit.fit_kerr")
            if s[6] and fit is not None and fit[0] in kfits:
                items[fit[0]].append(s)
        return items

    cubic_of, lsq_of = owned("kerrfit.photon_cubic_roots"), owned("kerrfit.least_squares")
    for branch in BRANCHES:
        fits = [f for f in kfits.values() if f[6]["branch"] == branch]
        n = len(fits)
        cubic = [c for f in fits for c in cubic_of[f[0]]]
        klsq = [c for f in fits for c in lsq_of[f[0]]]
        points = sum(c[6]["points"] for c in cubic)
        sfx = f".{branch}"
        per_call("kerrfit.fit_kerr_s" + sfx, dur(fits), "s", n)
        per_call("kerrfit.fit_kerr_self_s" + sfx, sum(selfs[f[0]] for f in fits), "s", n)
        per_call("kerrfit.cubic_calls" + sfx, len(cubic), "count", n)
        per_call("kerrfit.cubic_points" + sfx, points, "count", n)
        per_call("kerrfit.cubic_s" + sfx, dur(cubic), "s", n)
        if points:
            out["kerrfit.cubic_ns_per_point" + sfx] = (dur(cubic) / points * 1e9, "ns")
            out["kerrfit.bistable_point_share" + sfx] = (
                sum(c[6]["bistable"] for c in cubic) / points, "ratio"
            )
        # one full-sweep evaluation solves the cubic once per power slice
        evals = sum(len(cubic_of[f[0]]) / f[6]["powers"] for f in fits)
        per_call("kerrfit.sweep_evals" + sfx, evals, "count", n)
        per_call("kerrfit.least_squares_nfev" + sfx, sum(c[6]["nfev"] for c in klsq), "count", n)
        per_call("kerrfit.least_squares_s" + sfx, dur(klsq), "s", n)

    # io: rows per second and seconds per call of each CSV entry point.
    for fn in ("parse_trace_csv", "write_trace_csv", "parse_field_csv"):
        items = groups.get(f"io.{fn}", [])
        per_call(f"io.{fn}_s", dur(items), "s", len(items))
    for fn, metric in (("parse_trace_csv", "io.parse_rows_per_s"), ("write_trace_csv", "io.write_rows_per_s")):
        items = [s for s in groups.get(f"io.{fn}", []) if s[6]]
        if items and dur(items) > 0:
            out[metric] = (sum(s[6]["rows"] for s in items) / dur(items), "1/s")

    # reports: building (which validates), validation alone and dumping.
    for fn in ("make_report", "validate_report", "dump_report"):
        items = groups.get(f"reports.{fn}", [])
        per_call(f"reports.{fn}_s", dur(items), "s", len(items))
    dumps = [s for s in groups.get("reports.dump_report", []) if s[6]]
    per_call("reports.report_bytes", sum(s[6]["bytes"] for s in dumps), "bytes", len(dumps))

    field = groups.get("fieldmodel.fit_field_sweep", [])
    per_call("fieldmodel.fit_field_sweep_s", dur(field), "s", len(field))
    flsq = [s for s in groups.get("fieldmodel.least_squares", []) if s[6]]
    per_call("fieldmodel.least_squares_nfev", sum(s[6]["nfev"] for s in flsq), "count", len(field))

    mains = groups.get("cli.main", [])
    n_design = sum(1 for s in mains if s[6] and s[6]["sub"] == "design")
    qw = groups.get("designer.quarter_wave", [])
    per_call("designer.quarter_wave_calls", len(qw), "count", n_design)
    per_call("designer.quarter_wave_s", dur(qw), "s", len(qw))

    gen = groups.get("synth.generate_kerr_sweep", [])
    per_call("synth.generate_kerr_sweep_s", dur(gen), "s", len(gen))

    # cli: in-process time of main() per subcommand, imports excluded.
    for sub in CLI_SUBCOMMANDS:
        items = [s for s in mains if s[6] and s[6]["sub"] == sub]
        name = "synth-kerr" if sub == "synth" else sub
        per_call(f"cli.main.{name}_s", dur(items), "s", len(items))
    imports = groups.get("cli.import", [])
    per_call("cli.child_import_s", dur(imports), "s", len(imports))
    return out


def function_summary(spans) -> dict:
    """Span name -> calls, total and self seconds, for the results file."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[3] - s[2]
        row["self_s"] += selfs[s[0]]
    return dict(sorted(table.items()))
