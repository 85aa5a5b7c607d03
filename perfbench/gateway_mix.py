"""gateway-mix: an in-process gateway driven open-loop on a seeded schedule.

One :class:`repro.serve.Gateway` (``max_running=1``, ``job_workers=1``:
the event loop plus one job thread) is fed by a generator that submits
each scheduled job at its due time, whether or not earlier jobs have
finished -- independent users, so a stall makes later jobs wait and the
wait shows in their latency.  Every job is a ``population`` job:

* ``fresh`` (60%): a plan no one ran before -- compute, cache writes,
  journal writes;
* ``repeat`` (30%): a plan run at least ``REF_GAP_S`` earlier, under
  another client -- a new job whose shards all hit the result cache;
* ``resubmit`` (10%): an earlier (client, plan) sent again -- the
  journal's dedup answer (HTTP 200).

Latency is timed from each job's due time to the poll that sees it in a
terminal state; polls are ``POLL_S`` apart, which quantizes latency to
that step.  A refused (429/503) or failed job counts as failed and as an
SLO miss.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import compare, pin_slot, summary_digest, summary_fields
from fleets import store_query

#: fixed interval between status polls of one job
POLL_S = 0.01
#: a repeat or resubmit refers only to work due at least this much earlier
REF_GAP_S = 1.0
#: job latency above this is an SLO miss
SLO_LATENCY_S = 1.0
CLIENTS = 8
MIX = (("fresh", 0.6), ("repeat", 0.3), ("resubmit", 0.1))
TERMINAL = ("done", "failed", "cancelled")
#: re-simulated fresh plans per run (another shard/chunk geometry)
RESIM_JOBS = 2
#: time spent repeating the percentile query, split over the pauses
#: between ``QUERY_WINDOWS`` windows of the job stream: host CPU speed
#: changes over seconds, and bursts spread over the run see more than
#: one moment of it
QUERY_SECONDS = 3.0
QUERY_WINDOWS = 4
#: summary fields that do not depend on the shard geometry (the mean
#: sums shard totals in shard order, so its last bit may differ)
ORDER_FIELDS = ("devices", "complete", "exact", "median", "p90", "p99", "max",
                "worn_out_fraction")

SHAPES = {
    # a fresh 40-device plan takes ~60 ms, well inside the 100 ms between
    # jobs, so back-to-back fresh plans do not queue: a queue that builds
    # up amplifies the host's CPU-speed swings into the latency tail.  A
    # 20 s run holds 200 jobs, ten beyond the 95th percentile.
    "full": dict(rate=10.0, devices=40, days=90),
    "tiny": dict(rate=10.0, devices=6, days=10),
}


@dataclass(frozen=True)
class Item:
    index: int
    offset: float
    kind: str
    client: str
    params: dict
    #: index of the fresh item whose plan this one reuses (else None)
    ref: int | None = None


def schedule(seed: int, seconds: float, shape: dict) -> list[Item]:
    """The seeded open-loop schedule: one job every ``1/rate`` seconds."""
    rng = np.random.default_rng([seed, 11])
    rate, devices, days = shape["rate"], shape["devices"], shape["days"]
    kinds = [name for name, _ in MIX]
    weights = np.array([w for _, w in MIX])
    items: list[Item] = []
    #: fresh item index -> clients that already sent its plan
    senders: dict[int, set[str]] = {}
    for index in range(max(1, int(seconds * rate))):
        offset = index / rate
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        earlier = [it for it in items if it.offset <= offset - REF_GAP_S]
        # a repeat needs a client that has not sent that plan yet
        fresh = [it for it in earlier
                 if it.kind == "fresh" and len(senders[it.index]) < CLIENTS]
        if kind == "repeat" and fresh:
            base = fresh[int(rng.integers(len(fresh)))]
            others = [f"tenant-{c}" for c in range(CLIENTS)
                      if f"tenant-{c}" not in senders[base.index]]
            client = others[int(rng.integers(len(others)))]
            senders[base.index].add(client)
            items.append(Item(index, offset, kind, client, base.params, base.index))
        elif kind == "resubmit" and earlier:
            base = earlier[int(rng.integers(len(earlier)))]
            ref = base.index if base.ref is None else base.ref
            items.append(Item(index, offset, kind, base.client, base.params, ref))
        else:
            plan_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 2**31)
            client = f"tenant-{int(rng.integers(CLIENTS))}"
            params = {"devices": devices, "days": days, "seed": plan_seed}
            senders[index] = {client}
            items.append(Item(index, offset, "fresh", client, params))
    return items


@dataclass
class Outcome:
    item: Item
    due: float
    lag_s: float
    status: int = 0
    admit_s: float = 0.0
    latency_s: float = 0.0
    polls: int = 0
    job_id: str = ""
    state: str = ""
    deduplicated: bool = False
    result: dict | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.state == "done" and not self.error


@dataclass
class Phase:
    outcomes: list[Outcome] = field(default_factory=list)
    #: values read and seconds taken by each timed query sample
    query_values: list[int] = field(default_factory=list)
    query_seconds: list[float] = field(default_factory=list)
    #: gateway counter deltas over the phase
    counters: dict = field(default_factory=dict)
    store_paths: list[Path] = field(default_factory=list)


class GatewayMix:
    name = "gateway-mix"

    def __init__(self, seed: int, scale: str, scratch: Path, seconds: float) -> None:
        self.seed = seed
        self.scale = scale
        self.shape = SHAPES[scale]
        self.scratch = scratch
        self.items = schedule(seed, seconds, self.shape)
        self.cursor = 0.0
        self.loop: asyncio.AbstractEventLoop | None = None
        self.gateway = None

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Imports, a tiny in-process warm-up fleet, then a started gateway."""
        from repro.fleet import FleetPlan, run_fleet
        from repro.serve.client import GatewayClient  # noqa: F401  (imported before timing)
        from repro.serve.gateway import Gateway, GatewayConfig
        from repro.serve.quotas import ClientQuota
        from repro.store import ColumnStore  # noqa: F401  (imported before timing)

        run_fleet(FleetPlan(n_devices=2, days=5, shard_size=1, chunk=1), jobs=1)
        if self.scratch.exists():
            shutil.rmtree(self.scratch)
        self.scratch.mkdir(parents=True)
        # generous admission limits: this workload measures the admission
        # path, not the limiter; a refusal is a failure here
        config = GatewayConfig(
            state_dir=self.scratch / "state", max_running=1, job_workers=1,
            retries=0, max_queue=256, rate_per_s=1000.0, burst=1000.0,
            quota=ClientQuota(max_concurrent=256),
        )
        self.loop = asyncio.new_event_loop()
        self.gateway = Gateway(config)
        self.loop.run_until_complete(self.gateway.start())

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.gateway.stop())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None
        shutil.rmtree(self.scratch, ignore_errors=True)

    def rewind(self) -> None:
        """No replay: the same (client, plan) sent to the same journal
        again would be a dedup answer, not the same work.  The next
        ``measure`` runs the schedule's next window: other plans of the
        same shape and mix."""

    # -- measurement -----------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Run the schedule's jobs due in the next ``seconds`` in
        ``QUERY_WINDOWS`` windows; after each window's jobs are done,
        time the percentile query over the gateway's store."""
        lo, hi = self.cursor, self.cursor + seconds
        self.cursor = hi
        phase = Phase()
        before = self._counters()
        path = Path(self.gateway.cache_dir) / "columns.rcs"
        phase.store_paths.append(path)
        edges = np.linspace(lo, hi, QUERY_WINDOWS + 1)
        for start, end in zip(edges, edges[1:]):
            items = [it for it in self.items if start <= it.offset < end]
            phase.outcomes += self.loop.run_until_complete(self._drive(items, start, tracer))
            spent = 0.0
            while spent < QUERY_SECONDS / QUERY_WINDOWS:
                span = tracer.open("harness.query") if tracer else None
                t0 = time.perf_counter()
                values, _ = store_query(path)
                elapsed = time.perf_counter() - t0
                spent += elapsed
                if span:
                    tracer.close(span)
                phase.query_values.append(values)
                phase.query_seconds.append(elapsed)
        after = self._counters()
        phase.counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        return phase

    def _counters(self) -> dict:
        return dict(self.gateway.health.registry.snapshot()["counters"])

    async def _drive(self, items: list[Item], origin: float, tracer) -> list[Outcome]:
        from repro.serve.client import GatewayClient

        host, port = self.gateway.address
        client = GatewayClient(host, port, timeout_s=60.0)
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.05
        tasks = []
        for item in items:
            due = t0 + item.offset - origin
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(item=item, due=due, lag_s=max(0.0, loop.time() - due))
            tasks.append(loop.create_task(self._job(client, outcome, tracer)))
        return list(await asyncio.gather(*tasks))

    async def _job(self, client, outcome: Outcome, tracer) -> Outcome:
        from repro.serve.client import GatewayError
        from repro.serve.jobs import JobSpec

        loop = asyncio.get_running_loop()
        item = outcome.item
        outcome.job_id = JobSpec.from_wire(
            {"client": item.client, "kind": "population", "params": item.params}
        ).job_id()
        span = None
        if tracer:
            span = tracer.open("harness.job", trace=outcome.job_id, push=False)
            tracer.job_spans.setdefault(outcome.job_id, span["id"])
        try:
            sent = loop.time()
            sub = (tracer.open("harness.submit", trace=outcome.job_id,
                               parent=span["id"], push=False) if tracer else None)
            status, view, _ = await client.submit(item.client, "population", item.params)
            if sub:
                tracer.close(sub)
            outcome.admit_s = loop.time() - sent
            outcome.status = status
            if status not in (200, 202):
                outcome.error = f"refused with HTTP {status}: {view}"
                return outcome
            outcome.deduplicated = bool(view.get("deduplicated"))
            while view.get("state") not in TERMINAL:
                await asyncio.sleep(POLL_S)
                status, view, _ = await client.job(outcome.job_id)
                outcome.polls += 1
                if status != 200:
                    outcome.error = f"status poll answered HTTP {status}"
                    return outcome
            outcome.state = view["state"]
            outcome.result = view.get("result")
            if outcome.state != "done":
                outcome.error = f"job {outcome.state}: {view.get('error')}"
        except GatewayError as exc:
            outcome.error = repr(exc)
        finally:
            outcome.latency_s = loop.time() - outcome.due
            if span:
                tracer.close(span)
        return outcome

    # -- checks ----------------------------------------------------------------

    def check(self, phases: list[Phase], pins: dict) -> tuple[int, list[str]]:
        from repro.fleet import FleetPlan, fleet_wear_from_store, run_fleet
        from repro.serve.jobs import JobSpec

        outcomes = sorted((o for p in phases for o in p.outcomes), key=lambda o: o.item.index)
        checks = 0
        failures: list[str] = []
        by_index = {o.item.index: o for o in outcomes}
        for o in outcomes:
            if not o.ok:
                continue  # already counted as a failed job
            label = f"job {o.item.index} ({o.item.kind})"
            checks += 1
            summary = o.result or {}
            expected_status = 200 if o.item.kind == "resubmit" else 202
            if o.status != expected_status or o.deduplicated != (o.item.kind == "resubmit"):
                failures.append(f"{label}: answered HTTP {o.status}, dedup={o.deduplicated}")
            if not summary.get("complete") or summary.get("devices") != o.item.params["devices"]:
                failures.append(f"{label}: incomplete summary {summary_fields(summary)}")
            if o.item.ref is not None:
                base = by_index.get(o.item.ref)
                if base is not None and base.ok:
                    failures += compare(f"{label} vs job {base.item.index}",
                                        summary_fields(base.result), summary_fields(summary))
        # re-simulate sampled fresh plans under another shard/chunk
        # geometry: every device's wear must equal the stored column the
        # job wrote, and the summary's order statistics must agree
        fresh = [o for o in outcomes if o.item.kind == "fresh" and o.ok]
        rng = np.random.default_rng([self.seed, 13])
        picks = rng.choice(len(fresh), size=min(RESIM_JOBS, len(fresh)), replace=False)
        for pick in sorted(int(i) for i in picks):
            o = fresh[pick]
            label = f"job {o.item.index} re-simulated"
            p = JobSpec.from_wire(
                {"client": o.item.client, "kind": "population", "params": o.item.params}
            ).params
            shape = dict(n_devices=p["devices"], days=p["days"], capacity_gb=p["capacity_gb"],
                         seed=p["seed"], build=p["build"], exact_cap=p["exact_cap"])
            served = FleetPlan(shard_size=p["shard_size"], chunk=p["chunk"], **shape)
            half = max(1, p["devices"] // 2)
            other = FleetPlan(shard_size=half, chunk=max(1, half // 2), **shape)
            result = run_fleet(other, jobs=1)
            stored = fleet_wear_from_store(served, self.gateway.cache_dir,
                                           name="serve-population")
            checks += 1
            if stored.exact != result.wear_values():
                failures.append(f"{label}: per-device wear differs from the stored column")
            summary = result.summary()
            failures += compare(label, {k: o.result.get(k) for k in ORDER_FIELDS},
                                {k: summary.get(k) for k in ORDER_FIELDS})
        slot = pin_slot(pins, self.name, self.scale, self.seed)
        if slot is not None:
            checks += 1
            for o in fresh:
                pinned = slot["summaries"].get(str(o.item.params["seed"]))
                if pinned is not None and pinned != summary_digest(o.result):
                    failures.append(f"job {o.item.index}: summary digest differs from the pin")
        return checks, failures

    def pins(self, phases: list[Phase]) -> dict:
        fresh = [o for p in phases for o in p.outcomes if o.item.kind == "fresh" and o.ok]
        return {"summaries": {str(o.item.params["seed"]): summary_digest(o.result)
                              for o in fresh}}

