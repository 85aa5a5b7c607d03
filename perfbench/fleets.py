"""The three in-process fleet workloads: sos-fleet, census-fleet, ftl-fleet.

Each run calls :func:`repro.fleet.run_fleet` back to back (``jobs=1``:
serial, in-process, no worker pool) on a sequence of plans derived from
the seed, and answers a percentile query after each call.  Call ``k``
of seed ``s`` always simulates the same devices, so call 0 of the
default seed carries pinned digests.

The population composition (the plan's mix-assignment seed) is fixed;
the seed draws each device's workload.  A 30-device FTL fleet holds
zero to three ``adversarial`` devices depending on the assignment, and
those dominate its GC work, so letting the seed move the composition
would make the run-to-run spread a property of the sample, not of the
code.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    DEFAULT_SEED,
    columns_equal,
    compare,
    pin_slot,
    resimulate,
    sample_windows,
    wear_digest,
)

#: the plan's mix-assignment seed (FleetPlan's own default)
POP_SEED = 606

#: the six observable columns an epoch fleet persists per device
EPOCH_COLUMNS = (
    "wear", "spare_wear", "capacity_gb", "spare_quality", "retired_groups",
    "resuscitated_groups",
)
FTL_TOTALS = ("host_writes", "gc_migrations", "gc_erases", "wl_migrations")
QUANTILES = (0.5, 0.9, 0.99)

#: per workload and scale: plan shape, re-simulation geometry, query reps
SHAPES = {
    "sos-fleet": {
        "full": dict(n_devices=300, days=1095, build="sos", shard_size=150, chunk=150),
        "tiny": dict(n_devices=12, days=60, build="sos", shard_size=6, chunk=6),
    },
    "census-fleet": {
        "full": dict(n_devices=2500, days=90, build="tlc_baseline", shard_size=500, chunk=50),
        "tiny": dict(n_devices=120, days=30, build="tlc_baseline", shard_size=40, chunk=20),
    },
    "ftl-fleet": {
        "full": dict(n_devices=15, days=90, fidelity="ftl", shard_size=5, chunk=5),
        "tiny": dict(n_devices=4, days=15, fidelity="ftl", shard_size=2, chunk=1),
    },
}

#: devices per re-simulated window, and calls besides call 0 re-simulated
RESIM_WIDTH = {"sos-fleet": 4, "census-fleet": 20, "ftl-fleet": 2}
RESIM_CALLS = 2

#: in-memory percentile queries per timed sample (sos-fleet, ftl-fleet):
#: one query over a few hundred values takes ~0.1 ms, so a sample of 400
#: lasts tens of ms, long enough that one preemption of the process does
#: not decide a sample
MEMORY_QUERY_BATCH = 400
QUERY_SAMPLES_PER_CALL = 3


def derived_seed(seed: int, k: int) -> int:
    """Workload-seed base of call ``k`` under benchmark seed ``seed``."""
    state = np.random.SeedSequence([seed, k]).generate_state(1)[0]
    return int(state % (2**31))


@dataclass
class Call:
    k: int
    plan: object
    wall_s: float
    first_s: float
    #: time from the call (or the previous shard) to each shard's result
    shard_s: list[float]
    device_days: int
    shards: int
    failed_shards: int
    complete: bool
    wear: list[float] | None
    cache_dir: Path | None = None
    #: census: percentile answers of the store query, per column
    answers: dict | None = None
    #: ftl-fleet call 0: FtlStats totals of its re-simulation
    ftl_totals: dict | None = None


@dataclass
class Phase:
    calls: list[Call] = field(default_factory=list)
    #: values read and seconds taken by each timed query sample
    query_values: list[int] = field(default_factory=list)
    query_seconds: list[float] = field(default_factory=list)
    store_paths: list[Path] = field(default_factory=list)


class FleetWorkload:
    """One fleet workload; ``setup`` -> ``measure``... -> ``check`` -> ``teardown``."""

    def __init__(self, name: str, seed: int, scale: str, scratch: Path) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.shape = SHAPES[name][scale]
        self.cached = name == "census-fleet"
        self.scratch = scratch
        self.next_k = 0
        #: calls made so far; names each call's fresh cache directory
        self.calls_made = 0

    # -- set-up ----------------------------------------------------------------

    def plan(self, k: int):
        from repro.fleet import FleetPlan

        return FleetPlan(
            seed=POP_SEED, workload_seed_base=derived_seed(self.seed, k), **self.shape
        )

    def setup(self) -> None:
        """Imports plus one tiny warm-up call, so lazy imports and
        in-process caches are filled before any timing."""
        from repro.fleet import FleetPlan, run_fleet

        self.scratch.mkdir(parents=True, exist_ok=True)
        warm = dict(self.shape, n_devices=2, days=5, shard_size=1, chunk=1)
        plan = FleetPlan(seed=POP_SEED, **warm)
        warm_dir = self.scratch / "warm-up" if self.cached else None
        run_fleet(plan, jobs=1, cache_dir=warm_dir)
        if warm_dir is not None:
            store_query(warm_dir / "columns.rcs")
            shutil.rmtree(warm_dir)

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def rewind(self) -> None:
        """Make the next ``measure`` replay the plans from call 0, each
        into a fresh cache directory, so it repeats the same work."""
        self.next_k = 0

    # -- measurement -----------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Call ``run_fleet`` until ``seconds`` are used up (at least once)."""
        from repro.fleet import run_fleet

        phase = Phase()
        begin = time.perf_counter()
        while True:
            k = self.next_k
            self.next_k += 1
            self.calls_made += 1
            plan = self.plan(k)
            cache_dir = self.scratch / f"call-{self.calls_made}" if self.cached else None
            # every span of one call shares the call's trace id
            span = tracer.open("harness.call", trace=f"call-{k}") if tracer else None
            t0 = time.perf_counter()
            stamps = [t0]
            result = run_fleet(
                plan, jobs=1, cache_dir=cache_dir, keep_going=True,
                on_shard=lambda *_: stamps.append(time.perf_counter()),
            )
            t1 = time.perf_counter()
            if span:
                tracer.close(span)
            summary = result.summary()
            call = Call(
                k=k, plan=plan, wall_s=t1 - t0,
                first_s=(stamps[1] if len(stamps) > 1 else t1) - t0,
                shard_s=[b - a for a, b in zip(stamps, stamps[1:])],
                device_days=result.devices * plan.days,
                shards=summary["shards"], failed_shards=summary["failed_shards"],
                complete=bool(summary["complete"]), wear=result.wear_values(),
                cache_dir=cache_dir,
            )
            phase.calls.append(call)
            self._query(phase, call, result, tracer)
            last = time.perf_counter() - t0
            if time.perf_counter() - begin + last / 2 >= seconds:
                break
        return phase

    def _query(self, phase: Phase, call: Call, result, tracer) -> None:
        """The percentile query a user asks of the run's results: off disk
        from the column store when the fleet was cached, else from the
        in-memory wear digest."""
        for _ in range(QUERY_SAMPLES_PER_CALL):
            span = tracer.open("harness.query", trace=f"call-{call.k}") if tracer else None
            t0 = time.perf_counter()
            if self.cached:
                path = call.cache_dir / "columns.rcs"
                values, call.answers = store_query(path)
            else:
                for _ in range(MEMORY_QUERY_BATCH):
                    result.wear.quantiles(QUANTILES)
                # each quantile reads the whole wear list once
                values = MEMORY_QUERY_BATCH * len(QUANTILES) * result.wear.count
            elapsed = time.perf_counter() - t0
            if span:
                tracer.close(span)
            phase.query_values.append(values)
            phase.query_seconds.append(elapsed)
        if self.cached:
            phase.store_paths.append(call.cache_dir / "columns.rcs")

    # -- checks ----------------------------------------------------------------

    def check(self, phases: list[Phase], pins: dict) -> tuple[int, list[str]]:
        """Outside any timed region; returns (checks made, failures)."""
        checks = 0
        failures: list[str] = []

        def record(found: list[str]) -> None:
            nonlocal checks
            checks += 1
            failures.extend(found)

        rng = np.random.default_rng([self.seed, 7])
        # the default seed's call 0 is re-simulated whole, for its pinned
        # FtlStats totals; other calls and seeds re-simulate one window
        whole = self.seed == DEFAULT_SEED
        calls = [call for phase in phases for call in phase.calls]
        later = sorted({call.k for call in calls if call.k != 0})
        resim = {0} | {int(k) for k in rng.choice(later, size=min(RESIM_CALLS, len(later)),
                                                   replace=False)}
        #: first call of each plan; a replay (traced runs) must equal it
        first: dict[int, Call] = {}
        for phase in phases:
            for call in phase.calls:
                label = f"call {call.k}"
                record([] if call.complete and call.wear is not None
                       else [f"{label}: incomplete fleet ({call.failed_shards} failed shards)"])
                if call.wear is None:
                    continue
                if call.k in first:
                    earlier = first[call.k].wear
                    record([] if call.wear == earlier
                           else [f"{label}: replayed wear differs from the first run"])
                    continue
                first[call.k] = call
                template = call.plan.shard_grid()[0]
                n = call.plan.n_devices
                columns = self._stored_columns(call) if self.cached else {
                    "wear": np.asarray(call.wear, dtype=np.float64)
                }
                if self.cached:
                    record(self._check_store(call, columns))
                if call.k not in resim:
                    continue
                if self.name == "ftl-fleet" and call.k == 0 and whole:
                    # call 0 re-simulated whole under another geometry:
                    # every device bit-identical, and FtlStats totals
                    obs = resimulate(template, 0, n, max(1, call.plan.chunk - 2))
                    record(columns_equal(f"{label} resim", {"wear": columns["wear"]}, obs))
                    call.ftl_totals = {key: int(obs[key].sum()) for key in FTL_TOTALS}
                    continue
                width = RESIM_WIDTH[self.name]
                (start,) = sample_windows(rng, n, width, 1)
                count = min(width, n)
                obs = resimulate(template, start, count, max(1, count // 2))
                expected = {name: col[start:start + count] for name, col in columns.items()}
                record(columns_equal(f"{label} devices {start}..{start + count - 1}",
                                     expected, obs))
        record(self._check_pins(phases, pins))
        return checks, failures

    def _stored_columns(self, call: Call) -> dict:
        """Every device's observable columns, read back from the store."""
        from repro.fleet import fleet_store_keys
        from repro.store import ColumnStore

        store = ColumnStore(call.cache_dir / "columns.rcs", mode="read")
        names = [f"obs.{c}" for c in EPOCH_COLUMNS]
        parts = [store.get(key, columns=names) for key in fleet_store_keys(call.plan)]
        if any(part is None for part in parts):
            return {}
        return {
            c: np.concatenate([part[f"obs.{c}"] for part in parts]) for c in EPOCH_COLUMNS
        }

    def _check_store(self, call: Call, columns: dict) -> list[str]:
        label = f"call {call.k} store"
        if not columns:
            return [f"{label}: shards missing from the column store"]
        failures = columns_equal(
            label, {"wear": np.asarray(call.wear, dtype=np.float64)}, columns
        )
        expected = np.percentile(np.asarray(call.wear), [q * 100 for q in QUANTILES])
        got = call.answers.get("wear") if call.answers else None
        if got is None or list(got) != expected.tolist():
            failures.append(f"{label}: query p50/p90/p99 of wear {got} != {expected.tolist()}")
        return failures

    def _check_pins(self, phases: list[Phase], pins: dict) -> list[str]:
        slot = pin_slot(pins, self.name, self.scale, self.seed)
        if slot is None:
            return []
        first = next((c for p in phases for c in p.calls if c.k == 0), None)
        if first is None or first.wear is None:
            return ["call 0 missing: nothing to compare with the pinned digests"]
        found = compare("call 0 wear", slot["wear"], wear_digest(first.wear))
        if "ftl_totals" in slot:
            found += compare("call 0 FtlStats", slot["ftl_totals"], first.ftl_totals)
        if "query" in slot:
            found += compare("call 0 query", slot["query"], jsonable(first.answers))
        return found

    def pins(self, phases: list[Phase]) -> dict:
        """Digests of call 0, in the form :meth:`_check_pins` compares."""
        first = next(c for p in phases for c in p.calls if c.k == 0)
        slot = {"wear": wear_digest(first.wear)}
        if first.ftl_totals is not None:
            slot["ftl_totals"] = first.ftl_totals
        if first.answers is not None:
            slot["query"] = jsonable(first.answers)
        return slot


def jsonable(answers: dict | None) -> dict | None:
    if answers is None:
        return None
    return {name: [float(v) for v in values] for name, values in answers.items()}


def store_query(path: Path) -> tuple[int, dict]:
    """Off-disk p50/p90/p99 over every observable column of a store.

    Opens the store read-only, reads every live ``obs.*`` column of every
    key in one block-ordered scan, and returns
    (values read, {column: [p50, p90, p99]}).
    """
    from repro.store import ColumnStore

    parts: dict[str, list[np.ndarray]] = {}
    for _, name, array in ColumnStore(path, mode="read").scan():
        if name.startswith("obs."):
            parts.setdefault(name[len("obs."):], []).append(array.ravel())
    values = 0
    answers = {}
    for name in sorted(parts):
        column = np.concatenate(parts[name])
        values += int(column.size)
        answers[name] = np.percentile(column, [q * 100 for q in QUANTILES])
    return values, answers
