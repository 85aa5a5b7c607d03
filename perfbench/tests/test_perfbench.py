"""The benchmark's own tests: smoke runs, failure reporting, unwrapping.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from fleets import FleetWorkload  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "2",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    catalog = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: unit for name, unit, _ in catalog} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, catalog in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(catalog)
    # spec.json documents each metric once: its prediction table covers
    # every per-layer metric, its end-to-end notes every end-to-end one
    docs = json.loads((BENCH / "spec.json").read_text())
    predicted = [name for row in docs["per_layer"]["predictions"] for name in row["metrics"]]
    assert sorted(predicted) == sorted(name for name, _, _ in metrics.PER_LAYER)
    assert {name for name, _, _ in metrics.END_TO_END} <= set(docs["end_to_end"])
    assert set(docs["workloads"]) == set(WORKLOADS)


def _tiny_fleet(seed: int, tmp_path: Path) -> tuple[FleetWorkload, list]:
    workload = FleetWorkload("sos-fleet", seed, "tiny", tmp_path / f"w{seed}")
    workload.setup()
    phase = workload.measure(0.01)
    return workload, [phase]


def test_mutated_digest_is_a_failure(tmp_path):
    workload, phases = _tiny_fleet(1, tmp_path)
    slot = workload.pins(phases)
    pins = {"sos-fleet": {"tiny": {"1": slot}}}
    assert workload.check(phases, pins)[1] == []
    slot["wear"]["sha256"] = "0" * 64
    failures = workload.check(phases, pins)[1]
    assert any("sha256" in failure for failure in failures)


def test_wrong_seed_is_a_failure(tmp_path):
    pinned, pinned_phases = _tiny_fleet(1, tmp_path)
    pins = {"sos-fleet": {"tiny": {"2": pinned.pins(pinned_phases)}}}
    other, phases = _tiny_fleet(2, tmp_path)
    assert other.check(phases, pins)[1]


def test_failed_check_prints_no_metrics(tmp_path):
    """A run whose output disagrees with its pins exits 1 with
    correct=false and an empty metrics object, not with numbers."""
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    (checkout / "src").symlink_to(ROOT / "src")
    pins_path = checkout / "perfbench" / "pins.json"
    pins = checks.load_pins(pins_path)
    slot = pins["ftl-fleet"]["tiny"]["1"]
    slot["wear"]["p50"] += 1.0
    pins_path.write_text(json.dumps(pins))
    proc = _run("--workload", "ftl-fleet", "--seed", "1", "--seconds", "1",
                "--scale", "tiny", cwd=checkout)
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert "p50" in proc.stderr


def test_without_program_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "sos-fleet", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrappers_are_removed_before_untraced_timing():
    reference = tracing.originals()
    with tracing.traced() as (tracer, _):
        wrapped = tracing.originals()
        assert all(wrapped[key] is not reference[key] for key in reference)
        from repro.fleet import FleetPlan, run_fleet

        run_fleet(FleetPlan(n_devices=2, days=3, shard_size=1, chunk=1))
        assert {"fleet.run", "fleet.shard", "sim.batch_run"} <= {
            span["name"] for span in tracer.spans
        }
    tracing.assert_unwrapped(reference)
    assert all(tracing.originals()[key] is reference[key] for key in reference)
    from repro.obs import NullObserver, get_observer

    assert isinstance(get_observer(), NullObserver)


def test_wrappers_are_removed_when_the_traced_block_raises():
    reference = tracing.originals()
    with pytest.raises(KeyError):
        with tracing.traced():
            raise KeyError("boom")
    tracing.assert_unwrapped(reference)


def test_assert_unwrapped_rejects_an_installed_wrapper():
    reference = tracing.originals()
    patches = tracing.install(tracing.Tracer())
    try:
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped(reference)
    finally:
        tracing.uninstall(patches)
    tracing.assert_unwrapped(reference)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "b", "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 2, "name": "c", "start": 1.0, "end": 2.0},
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
