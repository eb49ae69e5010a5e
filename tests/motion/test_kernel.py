"""The per-tick IMU kernel against the per-segment functions.

Every row :func:`analyze_segments` answers must equal ``check_imu``,
``is_walking`` and ``count_steps_csc`` on that segment bit for bit,
whatever else shares the batch; the segments it declines are exactly the
ones it documents, and nothing makes it raise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.kernel import analyze_segments
from repro.motion.step_counting import count_steps_csc, find_peaks, is_walking
from repro.robustness.sanitizer import check_imu, imu_check_for
from repro.sensors.accelerometer import GRAVITY, AccelerometerModel, AccelSignal
from repro.sensors.imu import ImuSegment


def _segment(samples, readings, rate_hz=10.0) -> ImuSegment:
    return ImuSegment(
        accel=AccelSignal(
            samples=samples, rate_hz=rate_hz, true_step_times=np.zeros(0)
        ),
        compass_readings=readings,
        true_course_deg=0.0,
        true_distance_m=0.0,
    )


def _mixed_segments():
    """Labelled segments of every kind the engine can meet in one tick."""
    rng = np.random.default_rng(2013)
    model = AccelerometerModel()
    segments = {}
    for n in (28, 31, 36, 43):
        duration = n / model.rate_hz
        walk = model.walking(duration, rng.uniform(0.45, 0.65), rng).samples
        course = rng.uniform(0, 360) + rng.normal(0, 3, n)
        segments[f"walking-{n}"] = _segment(walk, course)
        segments[f"idle-{n}"] = _segment(model.idle(duration, rng).samples, course)
        segments[f"flat-{n}"] = _segment(np.full(n, GRAVITY), course)
        segments[f"nearly-flat-{n}"] = _segment(
            GRAVITY + 1e-8 * rng.standard_normal(n), course
        )
        segments[f"spoofed-{n}"] = _segment(
            walk.copy(), 90.0 * (-1.0) ** np.arange(n)
        )
        # Mean heading steps of 41 and 39 degrees, either side of the
        # spoof threshold.
        segments[f"jittery-41-{n}"] = _segment(walk.copy(), 41.0 * (np.arange(n) % 2))
        segments[f"jittery-39-{n}"] = _segment(walk.copy(), 39.0 * (np.arange(n) % 2))
        with_nan = walk.copy()
        with_nan[n // 2] = np.nan
        segments[f"nan-{n}"] = _segment(with_nan, course)
        segments[f"inf-compass-{n}"] = _segment(
            walk.copy(), np.where(np.arange(n) == 3, np.inf, course)
        )
        segments[f"empty-compass-{n}"] = _segment(walk.copy(), np.zeros(0))
        segments[f"one-reading-{n}"] = _segment(walk.copy(), course[:1])
        # Plateaus: a coarse grid makes equal neighbours, and the top of
        # every step bump is held for a second sample.
        plateau = np.round(walk * 2.0) / 2.0
        top = int(np.argmax(plateau[1:-2])) + 1
        plateau[top + 1] = plateau[top]
        segments[f"plateau-{n}"] = _segment(plateau, course)
    segments["two-samples"] = _segment(np.array([9.0, 12.0]), np.array([0.0, 1.0]))
    segments["no-samples"] = _segment(np.zeros(0), np.zeros(0))
    segments["walking-5hz"] = _segment(
        AccelerometerModel(rate_hz=5.0).walking(7.0, 0.55, rng).samples,
        np.zeros(35),
        rate_hz=5.0,
    )
    return segments


SEGMENTS = _mixed_segments()
NAMES = sorted(SEGMENTS)
DECLINED = {
    name
    for name in NAMES
    if name.startswith(("nan-", "inf-compass-", "empty-compass-"))
    or name in ("two-samples", "no-samples")
}


def _per_segment(segment):
    return (
        check_imu(segment),
        is_walking(segment.accel),
        count_steps_csc(segment.accel),
    )


EXPECTED = {name: _per_segment(SEGMENTS[name]) for name in NAMES}


def _assert_rows_match(names, results):
    for name, result in zip(names, results):
        if name in DECLINED:
            assert result is None, name
            continue
        assert result is not None, name
        check, walking, steps = EXPECTED[name]
        assert imu_check_for(result.tripped) == check, name
        assert result.walking is walking, name
        assert result.steps == steps, name


def test_the_batch_exercises_every_verdict():
    checks = {EXPECTED[name][0].tripped for name in NAMES}
    assert {None, "flat-line", "heading-rate", "non-finite", "empty"} <= checks
    assert any(EXPECTED[name][1] for name in NAMES)
    assert any(not EXPECTED[name][1] for name in NAMES)
    assert any(EXPECTED[name][2] > 0 for name in NAMES if name.startswith("plateau"))


def test_whole_batch_matches_per_segment_functions():
    _assert_rows_match(NAMES, analyze_segments([SEGMENTS[n] for n in NAMES]))


def test_each_segment_alone_matches():
    for name in NAMES:
        _assert_rows_match([name], analyze_segments([SEGMENTS[name]]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(NAMES), min_size=1, max_size=40))
def test_any_order_and_composition_matches(names):
    _assert_rows_match(names, analyze_segments([SEGMENTS[n] for n in names]))


def _reference_csc(signal) -> float:
    """CSC through the scalar per-peak loop the vectorized refinement
    replaced: one ``np.clip`` and Python float arithmetic per peak."""
    samples = signal.samples
    if len(samples) < 3 or not float(np.std(samples)) > 1.0:
        return 0.0
    threshold = float(samples.mean()) + 0.4 * float(samples.max() - samples.mean())
    indices = find_peaks(samples, threshold, max(int(0.3 * signal.rate_hz), 1))
    times = []
    for idx in indices:
        refined = float(idx)
        left, mid, right = samples[idx - 1], samples[idx], samples[idx + 1]
        denominator = left - 2.0 * mid + right
        if abs(denominator) > 1e-9:
            shift = 0.5 * (left - right) / denominator
            refined = idx + float(np.clip(shift, -0.5, 0.5))
        times.append(refined / signal.rate_hz)
    if len(times) < 2:
        return float(len(times))
    period = (times[-1] - times[0]) / (len(times) - 1)
    odd_time = times[0] + (signal.duration_s - times[-1])
    return (len(times) - 1) + odd_time / period


def test_step_counts_match_the_per_peak_reference():
    for name in NAMES:
        signal = SEGMENTS[name].accel
        if np.isfinite(signal.samples).all():
            assert count_steps_csc(signal) == _reference_csc(signal), name


def test_malformed_inputs_are_declined_never_raised():
    good = SEGMENTS["walking-31"]
    walk = good.accel.samples
    malformed = [
        None,
        "not a segment",
        replace(good, accel=replace(good.accel, samples=list(walk))),
        replace(good, accel=replace(good.accel, samples=walk.astype(np.float32))),
        replace(good, accel=replace(good.accel, samples=walk.reshape(-1, 1))),
        replace(good, accel=replace(good.accel, samples=np.array(["a"] * 31))),
        replace(good, accel=replace(good.accel, rate_hz=0.0)),
        replace(good, accel=replace(good.accel, rate_hz=float("nan"))),
        replace(good, accel=replace(good.accel, rate_hz=10)),
        replace(good, compass_readings=None),
        replace(good, accel=None),
    ]
    results = analyze_segments(malformed + [good])
    assert results[:-1] == [None] * len(malformed)
    _assert_rows_match(["walking-31"], results[-1:])


def test_empty_batch():
    assert analyze_segments([]) == []
