"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at smoke size, traced and untraced, and requires
the printed metric names to match ``BENCHMARK.json``; then corrupts a
fix stream or a checksum at each check site and requires the run to
fail.  Exits 0 when every test passes.  Takes about two minutes.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from common import CheckFailed, Yardstick, quantile, typical_ticks  # noqa: E402

SMOKE = {"sessions": 8, "min_passes": 2}


def test_spec_is_well_formed() -> None:
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quantiles_come_from_raw_samples() -> None:
    samples = [float(v) for v in range(1, 101)]
    assert quantile(samples, 0.5) == 50.5
    assert abs(quantile(samples, 0.99) - 99.01) < 1e-9
    assert typical_ticks([[1.0, 9.0], [2.0, 2.0], [3.0, 2.0]]) == [2.0, 2.0]


def test_yardstick_scales_by_its_own_segment() -> None:
    yardstick = Yardstick()
    assert yardstick.sample() > 0
    yardstick.samples = [1.0, 1.0, 1.0] + [2 * Yardstick.REFERENCE_S] * 2
    assert yardstick.scale(3) == 0.5
    assert yardstick.scale() == Yardstick.REFERENCE_S


def _smoke(workload: str, traced: bool) -> None:
    metrics, record, attempted, failed = run.measure(workload, 1, 0.0, traced, **SMOKE)
    line = run.result_line(metrics, traced, attempted, failed)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert record["machine"]["machine_speed_probe_s"] > 0


def _expect_failure(workload: str, corrupt: str) -> None:
    try:
        run.measure(workload, 1, 0.0, False, corrupt=corrupt, **SMOKE)
    except CheckFailed:
        return
    raise AssertionError(f"{workload}: corrupted {corrupt} passed the checks")


def test_metric_names_must_match_the_spec() -> None:
    spec = run.load_spec()
    metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
    run.result_line(metrics, False, 1, 0)
    metrics.pop("setup_s")
    try:
        run.result_line(metrics, False, 1, 0)
    except CheckFailed:
        return
    raise AssertionError("a missing metric passed the name check")


TESTS = [
    test_spec_is_well_formed,
    test_quantiles_come_from_raw_samples,
    test_yardstick_scales_by_its_own_segment,
    test_metric_names_must_match_the_spec,
]
for _workload in run.WORKLOADS:
    for _traced in (False, True):
        TESTS.append(
            lambda w=_workload, t=_traced: _smoke(w, t)
        )
        TESTS[-1].__name__ = f"smoke {_workload} trace={int(_traced)}"
for _workload, _corrupt in (
    ("distinct-walks", "batched-stream"),
    ("epoch-churn", "epoch-checksum"),
    ("ingress-open-loop", "wire-stream"),
):
    TESTS.append(lambda w=_workload, c=_corrupt: _expect_failure(w, c))
    TESTS[-1].__name__ = f"{_workload} fails on corrupted {_corrupt}"


def main() -> int:
    failures = 0
    for test in TESTS:
        try:
            test()
        except Exception:  # noqa: BLE001 - report every failing test
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failures}/{len(TESTS)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
