"""Output checks: pinned digests for the default seed, and re-simulation
of sampled devices under another shard/chunk geometry for any seed.

Every check returns a list of failure strings (empty when it passed);
the harness counts each failed check in ``failed`` and reports the run
as incorrect.  Nothing here runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
#: the seed whose outputs are pinned
DEFAULT_SEED = 1

#: fields of a fleet summary that are a pure function of the plan
SUMMARY_FIELDS = (
    "devices", "requested_devices", "missing_devices", "shards",
    "failed_shards", "complete", "exact", "median", "p90", "p99", "max",
    "mean", "worn_out_fraction",
)


def wear_digest(values) -> dict:
    """Hash of the exact wear vector (float64 bytes) plus p50/p99."""
    arr = np.asarray(values, dtype=np.float64)
    return {
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
        "n": int(arr.size),
        "p50": float(np.quantile(arr, 0.5)),
        "p99": float(np.quantile(arr, 0.99)),
    }


def summary_fields(summary: dict) -> dict:
    return {key: summary.get(key) for key in SUMMARY_FIELDS}


def summary_digest(summary: dict) -> str:
    text = json.dumps(summary_fields(summary), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def pin_slot(pins: dict, workload: str, scale: str, seed: int) -> dict | None:
    """The pinned digests for one (workload, scale, seed), or None."""
    return pins.get(workload, {}).get(scale, {}).get(str(seed))


def compare(label: str, expected, actual) -> list[str]:
    """One failure string per key whose value differs."""
    if expected == actual:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual))
        return [
            f"{label}.{key}: expected {expected.get(key)!r}, got {actual.get(key)!r}"
            for key in keys
            if expected.get(key) != actual.get(key)
        ]
    return [f"{label}: expected {expected!r}, got {actual!r}"]


def resimulate(template: dict, start: int, count: int, chunk: int) -> dict:
    """Re-simulate devices ``start .. start+count-1`` of a fleet plan as
    one shard of another geometry; returns its observable columns."""
    from repro.fleet import fleet_shard_point

    params = dict(template, start=start, count=count, chunk=chunk)
    return fleet_shard_point(params, 0)["obs"]


def sample_windows(rng: np.random.Generator, n_devices: int, width: int, k: int) -> list[int]:
    """``k`` window starts of ``width`` devices, drawn from ``rng``."""
    width = min(width, n_devices)
    return sorted(int(s) for s in rng.integers(0, n_devices - width + 1, size=k))


def columns_equal(label: str, expected: dict, actual: dict) -> list[str]:
    """Bit-identical comparison of same-named columns."""
    failures = []
    for name in sorted(expected):
        a = np.asarray(expected[name])
        b = np.asarray(actual.get(name, np.array([])))
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            failures.append(f"{label}: column {name!r} differs")
    return failures
