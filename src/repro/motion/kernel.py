"""One numpy pass over a tick's IMU segments: credibility and step counts.

The serving engine prepares every session of a tick before matching, and
on distinct traffic the per-segment Python of the IMU credibility check
and CSC step counting (Sec. IV-B1) was the largest part of that.
:func:`analyze_segments` does both for a whole tick: segments of equal
shape (accelerometer length, compass length, rate) are stacked once into
a ``(b, T)`` block, and one pass computes finiteness, one standard
deviation (shared by the flat-line check and the walking test), the
heading-rate check, and the CSC step count through the same peak finder
the per-segment functions use (:func:`repro.motion.step_counting.find_peak_rows`).

Every result equals the per-segment functions bit for bit —
``repro.robustness.sanitizer.check_imu``, :func:`is_walking` and
:func:`count_steps_csc` — whatever else is in the batch.  Segments the
kernel cannot vouch for (non-finite values, fewer than three samples, an
empty compass stream, arrays that are not 1-D float64, a rate that is
not a positive finite number, objects that are not segments) get None,
and the caller runs the per-segment functions on them instead; the
kernel itself never raises.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..sensors.accelerometer import AccelSignal
from ..sensors.imu import ImuSegment
from .step_counting import _WALK_STD_THRESHOLD, csc_rows, row_moments

__all__ = [
    "FLAT_LINE_ACCEL_STD",
    "MAX_CREDIBLE_HEADING_STEP_DEG",
    "SegmentAnalysis",
    "analyze_segments",
]

FLAT_LINE_ACCEL_STD = 1e-6
"""Accelerometer-magnitude standard deviation (m/s²) below which the
stream is a flat line no physical sensor produces.  A dead register
repeats one value exactly (std 0.0), while even the quietest MEMS
accelerometer resting on a table shows thermal noise orders of magnitude
above this; a standing user's quiescent noise (~0.008 m/s²) must not be
vetoed as a dropout — standing still is legitimate motion state, not a
sensor fault."""

MAX_CREDIBLE_HEADING_STEP_DEG = 40.0
"""Mean absolute heading change between consecutive compass readings
(degrees) above which the stream is spoofed: a walking pedestrian's
readings wander by per-reading noise (a few degrees) around one course,
while a forged stream that whips the heading every reading shows mean
steps of the oscillation amplitude.  Clean synthetic segments sit well
under 10°; the margin keeps honest noisy compasses out of quarantine."""


class SegmentAnalysis(NamedTuple):
    """What one pass learns about one IMU segment.

    Attributes:
        tripped: The credibility check that rejects the segment —
            ``"flat-line"`` or ``"heading-rate"`` — or None when it
            passes (the ``tripped`` of ``check_imu``).
        walking: :func:`is_walking` of the accelerometer signal.
        steps: :func:`count_steps_csc` of the accelerometer signal.
    """

    tripped: Optional[str]
    walking: bool
    steps: float


def _float_vector(values: object, min_size: int) -> bool:
    return (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.ndim == 1
        and values.size >= min_size
    )


def _shape_key(imu: object) -> Optional[Tuple[int, int, float]]:
    """``(T, C, rate)`` of a segment the kernel handles, else None."""
    if type(imu) is not ImuSegment or type(imu.accel) is not AccelSignal:
        return None
    samples, readings = imu.accel.samples, imu.compass_readings
    rate = imu.accel.rate_hz
    if not (
        _float_vector(samples, 3)
        and _float_vector(readings, 1)
        and isinstance(rate, float)
        and math.isfinite(rate)
        and rate > 0
    ):
        return None
    return samples.size, readings.size, float(rate)


def analyze_segments(
    imus: Sequence[ImuSegment],
) -> List[Optional[SegmentAnalysis]]:
    """Credibility verdict, walking test and CSC steps of every segment.

    Returns one entry per segment, in order: a :class:`SegmentAnalysis`,
    or None for a segment the kernel leaves to the per-segment functions
    (see the module docstring).
    """
    results: List[Optional[SegmentAnalysis]] = [None] * len(imus)
    groups: Dict[Tuple[int, int, float], List[int]] = {}
    for index, imu in enumerate(imus):
        key = _shape_key(imu)
        if key is not None:
            groups.setdefault(key, []).append(index)
    for (_, n_readings, rate_hz), members in groups.items():
        samples = np.array([imus[i].accel.samples for i in members])
        readings = np.array([imus[i].compass_readings for i in members])
        finite = np.isfinite(samples).all(axis=1) & np.isfinite(readings).all(
            axis=1
        )
        if not finite.all():
            samples, readings = samples[finite], readings[finite]
            members = [m for m, ok in zip(members, finite.tolist()) if ok]
            if not members:
                continue
        mean, std = row_moments(samples)
        flat = std < FLAT_LINE_ACCEL_STD
        if n_readings >= 2:
            turns = readings[:, 1:] - readings[:, :-1]
            turns = np.abs((turns + 180.0) % 360.0 - 180.0)
            mean_turn = np.add.reduce(turns, axis=1) / (n_readings - 1)
            spoofed = mean_turn > MAX_CREDIBLE_HEADING_STEP_DEG
        else:
            spoofed = np.zeros(len(members), dtype=bool)
        walking = std > _WALK_STD_THRESHOLD
        steps = np.zeros(len(members))
        if walking.any():
            steps[walking] = csc_rows(samples[walking], mean[walking], rate_hz)
        for index, is_flat, is_spoofed, walks, count in zip(
            members,
            flat.tolist(),
            spoofed.tolist(),
            walking.tolist(),
            steps.tolist(),
        ):
            tripped = (
                "flat-line" if is_flat else "heading-rate" if is_spoofed else None
            )
            results[index] = SegmentAnalysis(tripped, walks, count)
    return results
