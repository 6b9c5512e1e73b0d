"""Traced run and the per-layer metrics derived from its spans.

A traced run first times a share of its units untraced, then installs the
tracer and times the rest; the ratio of the two medians is the tracing
overhead.  Every per-layer metric is computed on the traced units only.  A
layer that a workload never calls reads 0 for that workload.
"""

from __future__ import annotations

import os
import statistics

from tracer import SpanTable, Tracer, default_targets
from workloads import warm

# name -> unit; every traced run reports all of them.
PER_LAYER = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_points_per_step": "count",
    "spectral.fft_ms_per_step": "ms",
    "spectral.fft_calls_per_strang_step": "count",
    "spectral.fft_calls_per_energy": "count",
    "spectral.fft_calls_per_iter": "count",
    "spectral.fft_points_per_iter": "count",
    "spectral.fft_s_per_iter": "s",
    "spectral.make_multiplier_calls_per_iter": "count",
    "spectral.make_multiplier_s_per_iter": "s",
    "spectral.fft_calls_per_batch": "count",
    "spectral.fft_points_per_batch": "count",
    "model.energy_calls_per_step": "count",
    "model.energy_ms_per_call": "ms",
    "model.sources_s_per_iter": "s",
    "evolution.strang_step_self_ms": "ms",
    "evolution.loop_self_ms_per_step": "ms",
    "evolution.record_ms_per_row": "ms",
    "evolution.picard_self_s_per_iter": "s",
    "bourgain.random_band_limited_ms_per_field": "ms",
    "bourgain.retarded_convolution_ms_per_field": "ms",
    "bourgain.xsb_norm_ms_per_call": "ms",
    "exponents.fuzz_s_per_dim": "s",
    "exponents.region_scan_s_per_dim": "s",
    "harness.write_csv_s": "s",
    "harness.write_report_s": "s",
    "config.make_initial_state_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _per(num, den):
    return num / den if den else 0.0


def _durations(spans, name):
    return [s[4] - s[3] for s in spans if s[2] == name]


def layer_metrics(table: SpanTable, kinds) -> dict:
    """Per-layer values from the spans of each unit kind."""
    v = dict.fromkeys(PER_LAYER, 0.0)
    everything = table.spans
    for name in ("harness.write_csv", "harness.write_report"):
        d = _durations(everything, name)
        v[name + "_s"] = _per(sum(d), len(d))
    d = _durations(everything, "config.make_initial_state")
    v["config.make_initial_state_ms"] = 1e3 * _per(sum(d), len(d))
    for name, metric in (("exponents.fuzz", "exponents.fuzz_s_per_dim"),
                         ("exponents.region_scan", "exponents.region_scan_s_per_dim")):
        d = _durations(everything, name)
        v[metric] = _per(sum(d), len(d))

    for kind in kinds:
        spans = table.under("unit." + kind.name)
        units = sum(1 for s in spans if s[1] < 0)
        items = units * kind.items
        ffts = [s for s in spans if s[2] == "spectral.fft"]
        fft_s = sum(s[4] - s[3] for s in ffts)
        points = sum(s[5] for s in ffts)
        if kind.item == "step":
            steps = [s for s in spans if s[2] == "evolution.strang_step"]
            energy = [s for s in spans if s[2] == "model.energy"]
            rows = _durations(spans, "evolution.record")
            loop = [s for s in spans if s[2] == "evolution.run_simulation"]
            v["spectral.fft_calls_per_step"] = _per(len(ffts), items)
            v["spectral.fft_points_per_step"] = _per(points, items)
            v["spectral.fft_ms_per_step"] = 1e3 * _per(fft_s, items)
            v["spectral.fft_calls_per_strang_step"] = _per(
                sum(table.parent_name(s) == "evolution.strang_step" for s in ffts), len(steps))
            v["spectral.fft_calls_per_energy"] = _per(
                sum(table.parent_name(s) == "model.energy" for s in ffts), len(energy))
            v["model.energy_calls_per_step"] = _per(len(energy), items)
            v["model.energy_ms_per_call"] = 1e3 * _per(
                sum(s[4] - s[3] for s in energy), len(energy))
            v["evolution.strang_step_self_ms"] = 1e3 * _per(
                sum(table.self_time(s) for s in steps), len(steps))
            v["evolution.loop_self_ms_per_step"] = 1e3 * _per(
                sum(table.self_time(s) for s in loop), items)
            v["evolution.record_ms_per_row"] = 1e3 * _per(sum(rows), len(rows))
        elif kind.item == "iter":
            mult = _durations(spans, "spectral.make_multiplier")
            picard = [s for s in spans if s[2] == "evolution.picard_iterate"]
            v["spectral.fft_calls_per_iter"] = _per(len(ffts), items)
            v["spectral.fft_points_per_iter"] = _per(points, items)
            v["spectral.fft_s_per_iter"] = _per(fft_s, items)
            v["spectral.make_multiplier_calls_per_iter"] = _per(len(mult), items)
            v["spectral.make_multiplier_s_per_iter"] = _per(sum(mult), items)
            v["model.sources_s_per_iter"] = _per(sum(_durations(spans, "model.source")), items)
            v["evolution.picard_self_s_per_iter"] = _per(
                sum(table.self_time(s) for s in picard), items)
        elif kind.item == "batch":
            v["spectral.fft_calls_per_batch"] = _per(len(ffts), items)
            v["spectral.fft_points_per_batch"] = _per(points, items)
            for name in ("random_band_limited", "retarded_convolution"):
                d = _durations(spans, "bourgain." + name)
                v[f"bourgain.{name}_ms_per_field"] = 1e3 * _per(sum(d), len(d))
            d = _durations(spans, "bourgain.xsb_norm")
            v["bourgain.xsb_norm_ms_per_call"] = 1e3 * _per(sum(d), len(d))
    return v


def traced_run(run, seconds, untraced_share, out_root, args) -> dict:
    kinds = run.workload.kinds
    run.rounds(seconds * untraced_share, min_rounds=1)
    untraced = {k.name: statistics.median(warm(run.times[k.name])) * k.items
                for k in kinds if run.times[k.name]}
    done = {k.name: len(run.times[k.name]) for k in kinds}

    tracer = Tracer()
    tracer.install(default_targets())
    try:
        run.rounds(seconds * (1.0 - untraced_share), min_rounds=2, tracer=tracer)
    finally:
        tracer.uninstall()
    traced = {k.name: statistics.median(run.times[k.name][done[k.name]:]) * k.items
              for k in kinds if run.times[k.name][done[k.name]:]}

    table = SpanTable(tracer.spans)
    metrics = layer_metrics(table, kinds)
    common = sorted(set(untraced) & set(traced))
    metrics["trace.overhead_frac"] = (
        sum(traced[k] for k in common) / sum(untraced[k] for k in common) - 1.0
        if common else 0.0)

    # Exact counts must repeat unit after unit.
    counts = {}
    for kind in kinds:
        sigs = table.signatures("unit." + kind.name)
        if sigs and any(s != sigs[0] for s in sigs):
            run.failures.append(f"{kind.name}: call counts differ between traced units")
        if sigs:
            calls, points = sigs[0]
            counts[kind.name] = {"calls": dict(calls), "fft_points": points,
                                 "units_compared": len(sigs)}
    for name, c in counts.items():
        print(f"counts per unit {name}: " + ", ".join(
            f"{k} {n}" for k, n in sorted(c["calls"].items()))
            + f", fft points {c['fft_points']} (identical over {c['units_compared']} units)")

    spans_path = os.path.join(out_root, f"{args.workload}-seed{args.seed}-spans.csv")
    tracer.write(spans_path)
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "counts_per_unit": counts,
        "spans_file": spans_path,
        "untraced_unit_s": untraced,
        "traced_unit_s": traced,
    }
