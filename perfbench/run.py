"""Layered benchmark of the SOS reproduction: four workloads, end-to-end
metrics from untraced runs, per-layer metrics from a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sos-fleet --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the run into a
traced half (public functions of every layer wrapped, the program's
Observer armed) and an untraced half, and reports the per-layer metrics
plus the tracing overhead.  Outputs are checked after the timed region;
a failed check makes the run incorrect, prints no metrics and exits 1.
See ``perfbench/spec.json`` for what each workload and metric means.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark holds itself to the event loop plus one
# job thread on a 2-core host; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sos-fleet", "census-fleet", "ftl-fleet", "gateway-mix")
#: set-up runs (fresh interpreters) whose median is ``setup_s``, taken
#: half before and half after the timed region: on a shared 2-vCPU
#: virtual machine CPU speed drifts over seconds, and samples spread
#: over the run see its average
SETUP_REPS = 4
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="1 is the pinned seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready', exit (timed by the parent)")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's output digests as the pins of its seed")
    return parser.parse_args(argv)


def make_workload(args: argparse.Namespace):
    from fleets import FleetWorkload
    from gateway_mix import GatewayMix

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    if args.workload == "gateway-mix":
        return GatewayMix(args.seed, args.scale, scratch, args.seconds)
    return FleetWorkload(args.workload, args.seed, args.scale, scratch)


def time_setups(args: argparse.Namespace, reps: int) -> list[float]:
    """Wall time from launching a fresh interpreter to its 'ready' line,
    ``reps`` times: imports, input generation, warm-up, gateway start."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", args.scale, "--setup-only",
    ]
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        finally:
            child.stdout.close()
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up run exited {code} before it was ready")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        workload = make_workload(args)
        workload.setup()
        print("ready", flush=True)
        workload.teardown()
        return 0

    import checks
    import metrics
    import tracing

    workload = make_workload(args)
    workload.setup()
    reference = tracing.originals()
    phases = []
    try:
        if args.trace:
            with tracing.traced() as (tracer, observer):
                traced_phase = workload.measure(args.seconds / 2, tracer)
            tracing.assert_unwrapped(reference)
            # the untraced half replays the traced half's calls, so the
            # overhead compares the same work (fleets; see rewind)
            workload.rewind()
            plain_phase = workload.measure(args.seconds / 2)
            phases = [traced_phase, plain_phase]
            results = metrics.per_layer(
                workload.name, traced_phase, plain_phase, tracer, observer
            )
            tracer.write_jsonl(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
            (TRACE_DIR / f"{args.workload}-seed{args.seed}-observer.json").write_text(
                json.dumps(observer.registry.snapshot(), sort_keys=True, indent=1)
            )
        else:
            setups = time_setups(args, SETUP_REPS // 2)
            tracing.assert_unwrapped(reference)
            phase = workload.measure(args.seconds)
            rss = peak_rss_mb()
            phases = [phase]
            setups += time_setups(args, SETUP_REPS - SETUP_REPS // 2)
            results = metrics.end_to_end(workload.name, phase, setups, rss)
        pins = checks.load_pins()
        n_checks, failures = workload.check(phases, pins)
        if args.write_pins:
            pins.setdefault(args.workload, {}).setdefault(args.scale, {})[
                str(args.seed)
            ] = workload.pins(phases)
            checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    finally:
        workload.teardown()

    attempted, failed = metrics.operations(workload.name, phases)
    attempted += n_checks
    failed += len(failures)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(metrics.report_line(workload.name, phases, results, attempted, failed))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": results if correct else {},
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
