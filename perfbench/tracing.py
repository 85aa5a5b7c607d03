"""Traced runs: wrap each layer's public functions and record spans.

A traced run replaces the public functions listed in :data:`TARGETS`
with timing wrappers and arms :class:`repro.obs.Observer`, so the
spans and counters the program already emits are collected as well.
Untraced runs never see a wrapper: :func:`traced` restores every
original on exit, and :func:`assert_unwrapped` checks identity against
the originals before any untraced timing starts.

A span is ``(id, parent, trace, name, thread, start, end)``.  Spans nest
through a per-thread stack; a span opened by :func:`execute_job` takes
the gateway job id as its trace id and, as parent, the harness span that
submitted that job, so every span of one job shares one identifier.
A layer's self time is the length of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (span name, "module:qualname") -- the public functions a traced run
#: times.  The span name's prefix before the first dot is the layer.
TARGETS: tuple[tuple[str, str], ...] = (
    ("workloads.volume", "repro.workloads.mobile:MobileWorkload.daily_volume_arrays"),
    ("sim.scatter", "repro.sim.batch:BatchPartition.scatter_to"),
    ("sim.batch_run", "repro.sim.batch:run_lifetime_batch"),
    ("sim.step_day", "repro.sim.batch:BatchLifetimeDevice.step_day"),
    ("flash.rber", "repro.flash.error_model:ErrorModel.rber_many"),
    ("flash.chip_read", "repro.flash.chip:FlashChip.read_analytic_many"),
    ("flash.advance_time", "repro.flash.chip:FlashChip.advance_time"),
    ("ecc.residual_ber", "repro.ecc.policy:ProtectionPolicy.residual_ber_many"),
    ("ftl.write", "repro.ftl.ftl:Ftl.write_many"),
    ("ftl.read", "repro.ftl.ftl:Ftl.read_many"),
    ("ftl.trim", "repro.ftl.ftl:Ftl.trim_many"),
    ("ftl.wear_level", "repro.ftl.ftl:Ftl.run_wear_leveling"),
    ("fleet.run", "repro.fleet.run:run_fleet"),
    ("fleet.shard", "repro.fleet.points:fleet_shard_point"),
    ("fleet.reduce", "repro.fleet.reduce:WearDigest.merge_in"),
    ("runner.sweep", "repro.runner.sweep:run_sweep"),
    ("runner.cache_load", "repro.runner.cache:ResultCache.load"),
    ("runner.cache_store", "repro.runner.cache:ResultCache.store"),
    ("store.open", "repro.store.store:ColumnStore.__init__"),
    ("store.put", "repro.store.store:ColumnStore.put"),
    ("store.column_read", "repro.store.store:ColumnStore.get"),
    ("store.column_read", "repro.store.store:ColumnStore.scan"),
    ("serve.exec", "repro.serve.jobs:execute_job"),
    ("serve.journal_save", "repro.serve.jobs:JobStore.save"),
)

#: every ``ALL_BUILDERS`` entry is timed as one ``sim.build`` span
BUILDERS = "repro.sim.baselines:ALL_BUILDERS"

LAYERS = (
    "workloads", "sim", "flash", "ecc", "ftl", "fleet", "runner", "store",
    "serve", "harness",
)


class Tracer:
    """In-memory span recorder; thread-safe appends, per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: per-name call counts and values the wrappers observed
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: job id -> id of the open harness span that submitted it
        self.job_spans: dict[str, int] = {}

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self, name: str, trace: str | None = None, parent: int | None = None,
        push: bool = True,
    ) -> dict:
        """Start a span.  ``push=False`` keeps it off the thread's nesting
        stack: asyncio tasks interleave on one thread, so their spans name
        parents explicitly instead."""
        stack = self._stack()
        top = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "parent": parent if parent is not None else (top["id"] if top else None),
            "trace": trace if trace is not None else (top["trace"] if top else None),
            "name": name,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        if push:
            stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, trace: str | None = None, parent: int | None = None):
        span = self.open(name, trace, parent)
        try:
            yield span
        finally:
            self.close(span)

    def write_jsonl(self, path: Path) -> None:
        """Write every closed span, one JSON object per line, by start time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                row = dict(span, start=span["start"] - origin, end=span["end"] - origin)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _bindings(func) -> list[tuple[object, str]]:
    """Every ``repro`` module attribute bound to the function object
    ``func`` (``from x import f`` copies the binding into the importer)."""
    return [
        (module, attr)
        for module in _repro_modules()
        for attr, value in list(vars(module).items())
        if value is func
    ]


def _wrapped_bindings() -> list[tuple[object, str, object]]:
    """Module attributes (and classes' attributes) that hold a wrapper."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, "_perfbench_span"):
                found.append((module, attr, value))
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    if hasattr(member, "_perfbench_span"):
                        found.append((value, name, member))
    return found


def _wrap(tracer: Tracer, name: str, func):
    wrapper = _make_wrapper(tracer, name, func)
    wrapper._perfbench_span = name
    return wrapper


def _make_wrapper(tracer: Tracer, name: str, func):
    if name == "serve.exec":
        @functools.wraps(func)
        def exec_wrapper(record, *args, **kwargs):
            # admission stamped the record with wall-clock time
            tracer.add("serve.queue_wait_s", time.time() - record.submitted_at)
            # the job thread starts a new trace keyed by the job id, whose
            # parent is the harness span that submitted the job
            with tracer.span(name, trace=record.job_id,
                             parent=tracer.job_spans.get(record.job_id)):
                return func(record, *args, **kwargs)
        return exec_wrapper
    if name == "serve.journal_save":
        @functools.wraps(func)
        def save_wrapper(self, record, *args, **kwargs):
            with tracer.span(name, trace=record.job_id,
                             parent=tracer.job_spans.get(record.job_id)):
                return func(self, record, *args, **kwargs)
        return save_wrapper

    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            # the span covers the whole iteration, not just the call
            with tracer.span(name):
                for item in func(*args, **kwargs):
                    _observe(tracer, name, item)
                    yield item
        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        _observe(tracer, name, result)
        return result
    return wrapper


def _observe(tracer: Tracer, name: str, result) -> None:
    """Counts taken at the same boundary as the span."""
    if name == "store.column_read" and isinstance(result, dict):
        tracer.add("store.values_read", sum(int(a.size) for a in result.values()))
    elif name == "store.column_read" and isinstance(result, tuple):
        tracer.add("store.values_read", int(result[2].size))  # one scan item
    elif name == "fleet.shard" and isinstance(result, dict):
        columns = result.get("obs", {})
        for column in ("host_writes", "gc_migrations", "gc_erases", "wl_migrations"):
            if column in columns:
                tracer.add(f"ftl.{column}", int(columns[column].sum()))


class _Patches:
    """The installed wrappers and the originals to restore."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self.undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self.undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def restore(self) -> None:
        originals = {}
        for owner, attr, original in reversed(self.undo):
            originals[owner[attr] if isinstance(owner, dict) else vars(owner)[attr]] = original
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.undo.clear()
        # a module imported while the wrappers were installed bound a
        # wrapper by ``from x import f``; point it back at the original
        for module, attr, value in _wrapped_bindings():
            if value in originals:
                setattr(module, attr, originals[value])


def install(tracer: Tracer) -> _Patches:
    """Wrap every target; returns the handle :func:`uninstall` takes."""
    patches = _Patches()
    for name, target in TARGETS:
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        wrapper = _wrap(tracer, name, original)
        if isinstance(owner, type):
            patches.set(owner, attr, wrapper)
        else:
            for module, bound in _bindings(original):
                patches.set(module, bound, wrapper)
    owner, attr = _resolve(BUILDERS)
    builders = getattr(owner, attr)
    for key, builder in list(builders.items()):
        patches.set(builders, key, _wrap(tracer, "sim.build", builder))
    return patches


def uninstall(patches: _Patches) -> None:
    patches.restore()


def originals() -> dict[str, object]:
    """Identity snapshot of every target as currently bound."""
    snap: dict[str, object] = {}
    for _, target in TARGETS:
        owner, attr = _resolve(target)
        snap[target] = vars(owner)[attr]
    owner, attr = _resolve(BUILDERS)
    for key, builder in getattr(owner, attr).items():
        snap[f"{BUILDERS}[{key}]"] = builder
    return snap


def assert_unwrapped(reference: dict[str, object]) -> None:
    """Raise unless no wrapper is installed and every target is the
    object captured in ``reference`` before any tracing."""
    leftover = _wrapped_bindings()
    if leftover:
        raise RuntimeError(f"wrappers still bound: {[(str(o), a) for o, a, _ in leftover]}")
    current = originals()
    changed = [key for key, value in reference.items() if current.get(key) is not value]
    if changed:
        raise RuntimeError(f"targets still wrapped: {changed}")


@contextmanager
def traced():
    """Wrap the targets and arm the program's Observer for the block.

    Yields ``(tracer, observer)``; both are restored on exit, even when
    the block raises.
    """
    from repro.obs import Observer, set_observer

    tracer = Tracer()
    observer = Observer(trace=False)
    patches = install(tracer)
    previous = set_observer(observer)
    try:
        yield tracer, observer
    finally:
        set_observer(previous)
        uninstall(patches)


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its length minus the union of the parts
    of it that its direct children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        cursor = lo
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start, end = max(child["start"], cursor), min(child["end"], hi)
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = (hi - lo) - covered
    return out


def span_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds, self seconds."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[span["id"]]
    return totals
