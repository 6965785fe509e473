"""One measurement process: set up a workload, run it, print one JSON line.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at the
checkout's ``src`` and the kernel library path set.  ``--setup-only`` stops
after set-up and reports only its duration; ``run.py`` starts a few of
those to report the median set-up time.

With ``--trace 0`` the timed phase runs untraced and the end-to-end
metrics are reported.  With ``--trace 1`` the phase runs twice, each for
half the time: untraced (the overhead baseline and the load-generator
lag) and traced (every per-layer metric).
"""

T_ENTRY = __import__("time").perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import GC, LAYER_OF, TRACER, pc  # noqa: E402
from workloads import build_dir, percentile  # noqa: E402

#: Reported instead of an infinite latency percentile (a shed, timed-out
#: or raised request counts as missing every limit): 1000 s in µs.
MISSED_US = 1e9


def _us(seconds: float) -> float:
    return MISSED_US if math.isinf(seconds) else seconds * 1e6


def end_to_end(result) -> tuple[dict, list[str]]:
    """Rates are medians over episodes and latency percentiles cover every
    sample of the run.  The gated rate and p50 are scaled to the reference
    host speed (``hostspeed.py``); the raw figures are in the report."""
    scaled_rates = [r * s for r, s in zip(result.rates, result.rate_scales)]
    metrics = {
        "decisions_per_s": (percentile(scaled_rates, 0.5), "1/s"),
        "latency_p50_us": (_us(percentile(result.scaled_latencies, 0.5)), "us"),
        "latency_p99_us": (_us(percentile(result.latencies, 0.99)), "us"),
        "admitted_frac": (result.admitted / result.decided, "ratio"),
        "utilization": (result.utilization, "ratio"),
        "peak_rss_mb": (result.peak_rss_mb, "MiB"),
    }
    report = [
        f"latency samples: {len(result.latencies)} in {len(result.p50s)} episodes "
        f"({sum(1 for x in result.latencies if math.isinf(x))} missed every limit)",
        "per-episode p50/p99 (us): "
        + ", ".join(f"{_us(a):.0f}/{_us(b):.0f}" for a, b in zip(result.p50s, result.p99s)),
        "decisions/s per episode (the burst for service-durable): " + ", ".join(f"{r:.0f}" for r in result.rates),
        "host scale per episode: " + ", ".join(f"{s:.3f}" for s in result.rate_scales),
        f"raw (unscaled) decisions_per_s {percentile(result.rates, 0.5):.6g} 1/s, "
        f"latency_p50_us {_us(percentile(result.latencies, 0.5)):.6g} us",
    ]
    if result.recover_s:
        report.append(
            "recover_s per restart: " + ", ".join(f"{x:.4f}" for x in result.recover_s)
        )
        metrics["recover_s"] = (percentile(result.recover_s, 0.5), "s")
    for phase in result.phases:
        report.append(
            f"phase {phase.name}: attempted {phase.attempted}, succeeded "
            f"{phase.succeeded}, failed {phase.failed}"
        )
    report.extend(result.notes)
    return metrics, report


def _perf_totals(arbitrators) -> dict:
    keys = (
        "chains_probed",
        "chains_quick_rejected",
        "chains_area_rejected",
        "chains_pruned_dominated",
        "chains_pruned_quality",
        "chains_prescreen_skipped",
        "batch_fallbacks",
    )
    totals = dict.fromkeys(keys, 0)
    decisions = 0
    for arbitrator in arbitrators:
        snap = arbitrator.perf_snapshot()
        for key in keys:
            totals[key] += int(snap.get(key, 0))
        decisions += arbitrator.admitted + arbitrator.rejected
    totals["decisions"] = decisions
    return totals


def per_layer(base, traced, unattributed_limit: float) -> tuple[dict, list[str], dict]:
    wall = TRACER.wall()
    gc_pauses, gc_gen2 = TRACER.gc_pauses()
    incl, own, count = TRACER.totals()
    union = TRACER.union()
    unattributed = (wall - union) / wall
    layer_self: dict[str, float] = {}
    for name, seconds in own.items():
        layer = LAYER_OF[name]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    accounted = sum(layer_self.values()) / wall + unattributed
    error = abs(accounted - 1.0)

    def share(*names: str, self_time: bool = False) -> float:
        source = own if self_time else incl
        return sum(source.get(n, 0.0) for n in names) / wall

    perf = _perf_totals(traced.arbitrators)
    considered = (
        perf["chains_probed"]
        + perf["chains_quick_rejected"]
        + perf["chains_area_rejected"]
        + perf["chains_pruned_dominated"]
        + perf["chains_pruned_quality"]
        + perf["chains_prescreen_skipped"]
    )
    pruned = considered - perf["chains_probed"]
    segments = traced.segments
    batches = count.get("service.decide", 0)
    metrics = {
        "sim.self_frac": (share("sim.run", self_time=True), "ratio"),
        "arbitrator.submit_calls": (count.get("arbitrator.submit", 0), "count"),
        "arbitrator.submit_frac": (share("arbitrator.submit"), "ratio"),
        "arbitrator.self_frac": (layer_self.get("arbitrator", 0.0) / wall, "ratio"),
        "arbitrator.chains_probed_per_decision": (
            perf["chains_probed"] / max(1, perf["decisions"]),
            "count",
        ),
        "arbitrator.chains_pruned_frac": (pruned / max(1, considered), "ratio"),
        "profile.earliest_fit_calls": (count.get("profile.earliest_fit", 0), "count"),
        "profile.earliest_fit_frac": (share("profile.earliest_fit"), "ratio"),
        "profile.query_frac": (share("profile.query"), "ratio"),
        "profile.mutate_frac": (share("profile.mutate"), "ratio"),
        "profile.segments_p50": (percentile(segments, 0.5) if segments else 0, "count"),
        "profile.segments_max": (max(segments) if segments else 0, "count"),
        "kernels.calls": (count.get("kernels.admit", 0), "count"),
        "kernels.flatten_frac": (share("kernels.flatten"), "ratio"),
        "kernels.admit_frac": (share("kernels.admit", self_time=True), "ratio"),
        "kernels.fallbacks": (perf["batch_fallbacks"], "count"),
        "service.enqueue_frac": (share("service.enqueue"), "ratio"),
        "service.drain_frac": (share("service.drain", self_time=True), "ratio"),
        "service.queue_wait_p50_us": (
            percentile(traced.queue_waits, 0.5) * 1e6 if traced.queue_waits else 0.0,
            "us",
        ),
        "service.batches": (batches, "count"),
        "service.batch_jobs_mean": (
            traced.batch_jobs / batches if batches else 0.0,
            "count",
        ),
        "service.ack_frac": (share("service.ack", self_time=True), "ratio"),
        "wal.append_jobs_frac": (share("wal.append_jobs"), "ratio"),
        "wal.append_decisions_frac": (share("wal.append_decisions"), "ratio"),
        "wal.fsyncs": (traced.wal_fsyncs, "count"),
        "wal.bytes": (traced.wal_bytes, "B"),
        "wal.checkpoint_frac": (share("wal.checkpoint"), "ratio"),
        "recovery.entries": (
            sum(traced.recovered_entries) / len(traced.recovered_entries)
            if traced.recovered_entries
            else 0,
            "count",
        ),
        "recovery.read_checkpoint_frac": (share("recovery.read_checkpoint"), "ratio"),
        "recovery.read_wal_frac": (share("recovery.read_wal"), "ratio"),
        "recovery.decode_frac": (share("recovery.decode"), "ratio"),
        "recovery.replay_frac": (
            share("recovery.replay") - share("recovery.audit"),
            "ratio",
        ),
        "recovery.audit_frac": (share("recovery.audit"), "ratio"),
        "gc.pause_frac": (sum(gc_pauses) / wall, "ratio"),
        "gc.pause_max_ms": (max(gc_pauses, default=0.0) * 1e3, "ms"),
        "gc.gen2_collections": (gc_gen2, "count"),
        "runtime.idle_frac": (share("runtime.idle"), "ratio"),
        "runtime.loop_frac": (share("runtime.loop", self_time=True), "ratio"),
        "loadgen.self_frac": (share("loadgen", self_time=True), "ratio"),
        "loadgen.lag_p99_us": (percentile(base.lag_p99s, 0.5) * 1e6, "us"),
        "trace.overhead_frac": (traced.per_op_wall / base.per_op_wall, "ratio"),
        "trace.unattributed_frac": (unattributed, "ratio"),
        "trace.accounting_error_frac": (error, "ratio"),
    }
    report = [
        f"traced wall {wall:.4f} s over {len(TRACER.windows)} windows, "
        f"{len(TRACER.start)} spans",
        "layer self time (s): "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(layer_self.items())),
        f"layer self + unattributed = {accounted:.5f} of traced wall "
        f"(tolerance {tracing.ACCOUNTING_TOLERANCE}); unattributed "
        f"{unattributed:.5f} (limit {unattributed_limit})",
    ]
    summary = {
        "wall_s": wall,
        "unattributed_frac": unattributed,
        "layer_self_s": layer_self,
        "span_incl_s": incl,
        "span_self_s": own,
        "span_count": count,
    }
    return metrics, report, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    GC.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup(args.seconds)
        # Keep the benchmark's own pre-generated inputs out of the program's
        # collections.
        gc.collect()
        gc.freeze()
        setup_raw_s = pc() - T_ENTRY
        # The host-speed reference is measuring equipment, not set-up; the
        # set-up time is scaled by the reference timed right after it.
        host = HostSpeed()
        now = statistics.median(host.measure() for _ in range(3))
        out = {"setup_s": setup_raw_s / host.scale(now, now), "setup_raw_s": setup_raw_s}
        if args.setup_only:
            print(json.dumps(out))
            return 0
        if args.trace == 0:
            result = workload.run(args.seconds, traced=False, host=host)
            metrics, report = end_to_end(result)
            report.append(
                f"gc over the whole process (explicit collections between "
                f"episodes included): collections per generation {GC.count}, pause "
                f"{sum(GC.pause):.4f} s, max {GC.pause_max * 1e3:.2f} ms"
            )
        else:
            base = workload.run(args.seconds / 2, traced=False, host=host)
            traced = workload.run(args.seconds / 2, traced=True, host=host)
            limit = workload.unattributed_limit
            metrics, report, summary = per_layer(base, traced, limit)
            spans = build_dir() / f"spans-{args.workload}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            with open(spans, "w") as fh:
                json.dump(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "summary": summary,
                        "spans": TRACER.to_json(),
                    },
                    fh,
                )
            report.append(f"spans written to {spans}")
            ok = (
                metrics["trace.accounting_error_frac"][0] <= tracing.ACCOUNTING_TOLERANCE
                and metrics["trace.unattributed_frac"][0] <= limit
            )
            if not ok:
                report.append("layer accounting OUT OF TOLERANCE")
            result = traced
            result.correct = result.correct and base.correct and ok
            result.phases = base.phases + traced.phases
        out.update(
            correct=result.correct,
            attempted=result.attempted,
            failed=result.failed,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            report=report,
        )
        print(json.dumps(out))
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
