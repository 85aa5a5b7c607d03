"""Metric catalogs and their computation from measured phases.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
``BENCHMARK.json`` declares; every workload reports every metric, with a
workload-specific reading documented in ``spec.json`` where one is
needed (a ``_s`` per-layer metric is the summed wall time of the calls
into that function; a layer a workload never enters reads 0).
"""

from __future__ import annotations

import statistics

import numpy as np

import tracing

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("device_days_per_s", "1/s", "higher"),
    ("query_values_per_s", "1/s", "higher"),
    ("job_latency_p95_s", "s", "lower"),
    ("first_response_p95_ms", "ms", "lower"),
)

#: (name, unit, better); spans are the tracing.TARGETS names
PER_LAYER = (
    ("workloads.volume_s", "s", "lower"),
    ("workloads.volume_calls", "count", "lower"),
    ("sim.build_s", "s", "lower"),
    ("sim.build_calls", "count", "lower"),
    ("sim.scatter_s", "s", "lower"),
    ("sim.batch_run_s", "s", "lower"),
    ("sim.step_day_s", "s", "lower"),
    ("sim.step_days", "count", "lower"),
    ("sim.maintain_s", "s", "lower"),
    ("flash.rber_s", "s", "lower"),
    ("flash.rber_calls", "count", "lower"),
    ("flash.chip_read_s", "s", "lower"),
    ("flash.advance_time_s", "s", "lower"),
    ("ecc.residual_ber_s", "s", "lower"),
    ("ecc.residual_ber_calls", "count", "lower"),
    ("ftl.write_s", "s", "lower"),
    ("ftl.read_s", "s", "lower"),
    ("ftl.trim_s", "s", "lower"),
    ("ftl.wear_level_s", "s", "lower"),
    ("ftl.gc_s", "s", "lower"),
    ("ftl.select_victim_s", "s", "lower"),
    ("ftl.host_writes", "count", "higher"),
    ("ftl.gc_migrations", "count", "lower"),
    ("ftl.gc_erases", "count", "lower"),
    ("ftl.wl_migrations", "count", "lower"),
    ("ftl.waf", "ratio", "lower"),
    ("fleet.shard_s", "s", "lower"),
    ("fleet.shards", "count", "higher"),
    ("fleet.reduce_s", "s", "lower"),
    ("runner.sweep_s", "s", "lower"),
    ("runner.coord_s", "s", "lower"),
    ("runner.cache_load_s", "s", "lower"),
    ("runner.cache_loads", "count", "lower"),
    ("runner.cache_hits", "count", "higher"),
    ("runner.cache_store_s", "s", "lower"),
    ("runner.cache_stores", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.column_read_s", "s", "lower"),
    ("store.values_read", "count", "higher"),
    ("store.bytes_on_disk", "bytes", "lower"),
    ("serve.exec_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.journal_save_s", "s", "lower"),
    ("serve.journal_saves", "count", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.deduplicated", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.polls_per_job", "count", "lower"),
    ("serve.slo_misses", "count", "lower"),
    ("gen.lag_p95_ms", "ms", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("obs.fleet_devices_done", "count", "higher"),
) + tuple((f"self.{layer}_s", "s", "lower") for layer in tracing.LAYERS)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _value(name: str, value: float) -> dict:
    return {"value": float(value), "unit": UNITS[name]}


def is_gateway(name: str) -> bool:
    return name == "gateway-mix"


# -- end to end ------------------------------------------------------------------


#: Rates are the 10th percentile of per-unit rates (the slow decile).
#: On a shared 2-vCPU virtual machine, CPU speed switches between two
#: regimes about 50% apart, dwelling seconds to tens of seconds in each:
#: a run's median records how much of it fell in the slow regime, while
#: the slow regime itself recurs in nearly every run at a steady level.
RATE_PERCENTILE = 10


def computed_jobs(phase) -> list:
    """gateway-mix jobs that computed every shard (no cache hit, no dedup)."""
    return [o for o in phase.outcomes
            if o.ok and not o.deduplicated and o.result.get("cached_shards") == 0]


def unit_rates(name: str, phase) -> list[float]:
    """Simulated device-days per host second of each unit of ``run_fleet``
    work: each shard of a timed fleet call (shards are equal-sized), or
    for gateway-mix each job that computed every shard, over the
    ``run_fleet`` wall time its summary reports."""
    if is_gateway(name):
        return [o.result["devices"] * o.item.params["days"] / o.result["wall_s"]
                for o in computed_jobs(phase)]
    return [
        call.plan.shard_size * call.plan.days / seconds
        for call in phase.calls for seconds in call.shard_s
    ]


def device_days_per_s(name: str, phase) -> float:
    return _percentile(unit_rates(name, phase), RATE_PERCENTILE)


def latencies(name: str, phase) -> tuple[list[float], list[float]]:
    """(job latencies in s, first-response latencies in ms)."""
    if is_gateway(name):
        return ([o.latency_s for o in phase.outcomes],
                [o.admit_s * 1000.0 for o in phase.outcomes])
    return ([c.wall_s for c in phase.calls], [c.first_s * 1000.0 for c in phase.calls])


def end_to_end(name: str, phase, setups: list[float], rss_mb: float) -> dict:
    jobs, first = latencies(name, phase)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "device_days_per_s": device_days_per_s(name, phase),
        "query_values_per_s": _percentile(
            [v / t for v, t in zip(phase.query_values, phase.query_seconds)],
            RATE_PERCENTILE,
        ),
        "job_latency_p95_s": _percentile(jobs, 95),
        "first_response_p95_ms": _percentile(first, 95),
    }
    return {key: _value(key, values[key]) for key, _, _ in END_TO_END}


def operations(name: str, phases) -> tuple[int, int]:
    """(attempted, failed) operations: gateway jobs, or fleet shards."""
    if is_gateway(name):
        outcomes = [o for p in phases for o in p.outcomes]
        return len(outcomes), sum(1 for o in outcomes if not o.ok)
    calls = [c for p in phases for c in p.calls]
    return sum(c.shards for c in calls), sum(c.failed_shards for c in calls)


def slo_misses(phase, limit_s: float) -> int:
    return sum(1 for o in phase.outcomes if not o.ok or o.latency_s > limit_s)


# -- per layer -------------------------------------------------------------------


def compute_seconds(name: str, phase, only: set | None = None) -> tuple[float, int]:
    """(run_fleet seconds, device-days) of the phase's simulated work:
    fleet calls (those whose plan index is in ``only``, if given), or the
    gateway jobs that computed every shard."""
    if is_gateway(name):
        jobs = computed_jobs(phase)
        return (sum(o.result["wall_s"] for o in jobs),
                sum(o.result["devices"] * o.item.params["days"] for o in jobs))
    calls = [c for c in phase.calls if only is None or c.k in only]
    return sum(c.wall_s for c in calls), sum(c.device_days for c in calls)


def trace_overhead(name: str, traced, plain) -> float:
    """Traced over untraced run_fleet seconds per device-day, minus 1;
    base: the untraced half.  Fleets compare the plans both halves ran
    (the untraced half replays the traced half's plans); gateway-mix
    compares other fresh plans of the same shape."""
    only = None
    if not is_gateway(name):
        only = {c.k for c in traced.calls} & {c.k for c in plain.calls}
    traced_s, traced_days = compute_seconds(name, traced, only)
    plain_s, plain_days = compute_seconds(name, plain, only)
    if not (traced_days and plain_s):
        return 0.0
    return (traced_s / traced_days) / (plain_s / plain_days) - 1.0


def per_layer(name: str, traced, plain, tracer, observer) -> dict:
    from gateway_mix import SLO_LATENCY_S

    totals = tracing.span_totals(tracer.spans)
    snapshot = observer.registry.snapshot()

    def total(span: str) -> float:
        return totals.get(span, {}).get("total_s", 0.0)

    def calls(span: str) -> int:
        return int(totals.get(span, {}).get("calls", 0))

    def count(key: str) -> float:
        return tracer.counts.get(key, 0)

    def obs_span(key: str) -> float:
        return snapshot["spans"].get(key, {}).get("wall_s", 0.0)

    host = count("ftl.host_writes")
    extra = count("ftl.gc_migrations") + count("ftl.wl_migrations")
    gateway = is_gateway(name)
    values = {
        "workloads.volume_s": total("workloads.volume"),
        "workloads.volume_calls": calls("workloads.volume"),
        "sim.build_s": total("sim.build"),
        "sim.build_calls": calls("sim.build"),
        "sim.scatter_s": total("sim.scatter"),
        "sim.batch_run_s": totals.get("sim.batch_run", {}).get("self_s", 0.0),
        "sim.step_day_s": total("sim.step_day"),
        "sim.step_days": calls("sim.step_day"),
        "sim.maintain_s": obs_span("lifetime.maintain"),
        "flash.rber_s": total("flash.rber"),
        "flash.rber_calls": calls("flash.rber"),
        "flash.chip_read_s": total("flash.chip_read"),
        "flash.advance_time_s": total("flash.advance_time"),
        "ecc.residual_ber_s": total("ecc.residual_ber"),
        "ecc.residual_ber_calls": calls("ecc.residual_ber"),
        "ftl.write_s": total("ftl.write"),
        "ftl.read_s": total("ftl.read"),
        "ftl.trim_s": total("ftl.trim"),
        "ftl.wear_level_s": total("ftl.wear_level"),
        "ftl.gc_s": obs_span("ftl.gc"),
        "ftl.select_victim_s": obs_span("gc.select_victim"),
        "ftl.host_writes": host,
        "ftl.gc_migrations": count("ftl.gc_migrations"),
        "ftl.gc_erases": count("ftl.gc_erases"),
        "ftl.wl_migrations": count("ftl.wl_migrations"),
        "ftl.waf": (host + extra) / host if host else 0.0,
        "fleet.shard_s": total("fleet.shard"),
        "fleet.shards": calls("fleet.shard"),
        "fleet.reduce_s": total("fleet.reduce"),
        "runner.sweep_s": total("runner.sweep"),
        "runner.coord_s": (
            total("runner.sweep") - total("fleet.shard")
            - total("runner.cache_load") - total("runner.cache_store")
        ),
        "runner.cache_load_s": total("runner.cache_load"),
        "runner.cache_loads": calls("runner.cache_load"),
        "runner.cache_hits": snapshot["counters"].get("sweep.cache_hits", 0),
        "runner.cache_store_s": total("runner.cache_store"),
        "runner.cache_stores": calls("runner.cache_store"),
        "store.put_s": total("store.put"),
        "store.puts": calls("store.put"),
        "store.open_s": total("store.open"),
        "store.column_read_s": total("store.column_read"),
        "store.values_read": count("store.values_read"),
        "store.bytes_on_disk": sum(p.stat().st_size for p in set(traced.store_paths)
                                   if p.exists()),
        "serve.exec_s": total("serve.exec"),
        "serve.queue_wait_s": count("serve.queue_wait_s"),
        "serve.journal_save_s": total("serve.journal_save"),
        "serve.journal_saves": calls("serve.journal_save"),
        "serve.admitted": traced.counters.get("serve.admitted", 0) if gateway else 0,
        "serve.deduplicated": traced.counters.get("serve.deduplicated", 0) if gateway else 0,
        "serve.shed": (sum(v for k, v in traced.counters.items() if k.startswith("serve.shed"))
                       if gateway else 0),
        "serve.polls_per_job": (statistics.mean(o.polls for o in traced.outcomes)
                                if gateway and traced.outcomes else 0.0),
        "serve.slo_misses": slo_misses(traced, SLO_LATENCY_S) if gateway else 0,
        "gen.lag_p95_ms": (_percentile([o.lag_s * 1000.0 for o in traced.outcomes], 95)
                           if gateway else 0.0),
        "obs.trace_overhead_frac": trace_overhead(name, traced, plain),
        "obs.fleet_devices_done": snapshot["counters"].get("fleet.devices_done", 0),
    }
    for layer in tracing.LAYERS:
        values[f"self.{layer}_s"] = sum(
            entry["self_s"] for span, entry in totals.items()
            if span.split(".", 1)[0] == layer
        )
    return {key: _value(key, values[key]) for key, _, _ in PER_LAYER}


# -- the human-readable line -----------------------------------------------------


def report_line(name: str, phases, results: dict, attempted: int, failed: int) -> str:
    """Every reported metric by name and unit, plus what the JSON line does
    not gate: the failure fraction, the median latencies, and for
    gateway-mix the SLO misses, admit latency and generator lateness."""
    from gateway_mix import POLL_S, SLO_LATENCY_S

    parts = [f"{key}={entry['value']:.6g} {entry['unit']}" for key, entry in results.items()]
    parts.append(f"failed_frac={failed / attempted if attempted else 0.0:.6g} "
                 f"({failed}/{attempted})")
    jobs = [x for p in phases for x in latencies(name, p)[0]]
    first = [x for p in phases for x in latencies(name, p)[1]]
    parts.append(f"job_latency_p50_s={_percentile(jobs, 50):.6g} s "
                 f"({len(jobs)} {'jobs' if is_gateway(name) else 'run_fleet calls'})")
    parts.append(f"first_response_p50_ms={_percentile(first, 50):.6g} ms")
    if is_gateway(name):
        outcomes = [o for p in phases for o in p.outcomes]
        misses = sum(slo_misses(p, SLO_LATENCY_S) for p in phases)
        parts.append(f"slo_miss_frac={misses / max(1, len(outcomes)):.6g} "
                     f"(limit {SLO_LATENCY_S} s)")
        parts.append(f"admit_latency_p50_ms={_percentile(first, 50):.6g} ms; "
                     f"admit_latency_p95_ms={_percentile(first, 95):.6g} ms "
                     f"(the submit round trip; status polled every {POLL_S * 1000:g} ms)")
        lags = [o.lag_s * 1000.0 for o in outcomes]
        parts.append(f"gen.lag_p95_ms={_percentile(lags, 95):.6g} ms")
    return f"perfbench {name}: " + "; ".join(parts)
