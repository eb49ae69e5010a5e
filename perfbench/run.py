"""The repository's serving benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the public serving APIs of ``src/repro`` for
about ``S`` seconds of measurement, checks every output, and prints as
its last line one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a separate run that wraps each layer's public functions with
timers.  The line before it is a JSON record of the run: machine,
speed probe, sample counts and checksums.

A failed correctness check prints ``"correct": false`` and exits 1.  A
checkout without ``src/repro`` exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("distinct-walks", "ingress-open-loop", "epoch-churn")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, traced: bool, **scale):
    """Run one workload; returns ``(metrics, record, attempted, failed)``.

    ``scale`` passes smaller sizes and corruption hooks through to the
    workload (the self-tests use it).
    """
    import closed_loop
    import open_loop
    from common import build_deployment, machine_record

    deployment = build_deployment()
    if workload == "ingress-open-loop":
        module = open_loop
        result = open_loop.run(deployment, seed, seconds, traced, **scale)
    else:
        module = closed_loop
        result = closed_loop.run(
            deployment, seed, seconds, traced, churn=workload == "epoch-churn", **scale
        )
    metrics, record, attempted, failed = result
    if traced:
        bypassed = module.BYPASSED
        if workload == "distinct-walks":
            bypassed = bypassed + ("epochs.",)
        metrics = complete_layers(metrics, bypassed)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine_record(),
        **record,
    }
    return metrics, record, attempted, failed


def complete_layers(metrics: dict, bypassed) -> dict:
    """Per-layer figures, with 0 for every layer the workload bypasses."""
    names = [entry["name"] for entry in load_spec()["per_layer"]]
    filled = dict(metrics)
    for name in names:
        if name not in filled and name.startswith(tuple(bypassed)):
            filled[name] = 0.0
    return filled


def result_line(metrics: dict, traced: bool, attempted: int, failed: int) -> dict:
    """The final line, checked against the metric list in BENCHMARK.json."""
    from common import CheckFailed

    spec = load_spec()["per_layer" if traced else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec}
    if set(metrics) != set(units):
        raise CheckFailed(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}"
        )
    return {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on one CPU.

    The yardstick (``common.Yardstick``) measures the CPU it runs on; a
    run spread over several CPUs of a shared host also feels contention
    on the others, which the yardstick cannot see.  Called before numpy
    is imported, so its thread pool inherits the mask too.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    from common import CheckFailed

    try:
        metrics, record, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        line = result_line(metrics, bool(args.trace), attempted, failed)
    except CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
