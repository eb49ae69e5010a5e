"""Step detection and counting: DSC and CSC (paper Sec. IV-B1).

The walked distance during a localization interval is step count times
step length.  The paper contrasts two counters:

* **Discrete Step Counting (DSC)** — the prior art: count detected step
  peaks.  It loses the *odd time* (the fractions of a step before the
  first detected peak and after the last one), which matters when an
  interval only contains a handful of steps.
* **Continuous Step Counting (CSC)** — the paper's refinement: estimate
  the step period from the detected peaks, convert the odd time into
  *decimal steps*, and add them to the integral count.

Both operate on the accelerometer-magnitude signal of
:mod:`repro.sensors.accelerometer`.

Peak finding is one numpy routine over a ``(b, T)`` block of signals
(:func:`find_peak_rows`); the per-signal functions here are its ``b = 1``
case and the serving engine's per-tick kernel
(:func:`repro.motion.kernel.analyze_segments`) its batched one.  It
returns exactly the indices of ``scipy.signal.find_peaks(x, height=h,
distance=d)`` — plateau midpoints, the inclusive height bound, and the
higher-peak-wins rule inside ``distance`` included — without depending
on scipy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..sensors.accelerometer import GRAVITY, AccelSignal

__all__ = [
    "detect_step_times",
    "find_peak_rows",
    "find_peaks",
    "is_walking",
    "count_steps_dsc",
    "count_steps_csc",
]

_MIN_STEP_SEPARATION_S = 0.3
"""No human walks faster than one step per 0.3 s; peaks closer are noise."""

_WALK_STD_THRESHOLD = 1.0
"""Signal standard deviation above which the user is considered walking."""


def find_peak_rows(
    x: np.ndarray, heights: np.ndarray, distance: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Peaks of every row of a 2-D float64 block, as ``(rows, cols)``.

    Row ``r``'s columns are exactly
    ``scipy.signal.find_peaks(x[r], height=heights[r], distance=distance)[0]``:

    * a peak is a sample, or the midpoint (rounded down) of a run of equal
      samples, strictly above both neighbours — so the first and last
      samples, and a run touching either end, are never peaks;
    * peaks below the row's height are dropped (the bound is inclusive);
    * of peaks closer than ``distance`` samples, the higher survives,
      visited in ``np.argsort`` order of height as scipy visits them, so
      ties resolve the same way.

    Pairs come row-major (rows ascending, columns ascending within a
    row).  Only the distance rule loops in Python, and only over rows
    that hold a pair of peaks closer than ``distance``.
    """
    n = x.shape[1]
    if n < 3:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    before, after = x[:, :-1], x[:, 1:]
    rising = before < after
    falling = before > after
    # For every position, the first position at or after it whose
    # next sample differs (n - 1 when the rest of the row is flat).
    step = np.where(before == after, n - 1, np.arange(n - 1))
    plateau_end = np.minimum.accumulate(step[:, ::-1], axis=1)[:, ::-1]
    # A run starting at l >= 1 after a rise is a peak when the
    # sample after its last one, plateau_end[l] + 1, is lower.
    end = plateau_end[:, 1:]
    rows, left = np.nonzero(rising[:, :-1] & (end < n - 1))
    right = end[rows, left]
    keep = falling[rows, right]
    rows, left, right = rows[keep], left[keep] + 1, right[keep]
    cols = (left + right) // 2
    high = x[rows, cols] >= heights[rows]
    rows, cols = rows[high], cols[high]

    close = (rows[1:] == rows[:-1]) & (cols[1:] - cols[:-1] < distance)
    if close.any():
        keep = np.ones(rows.size, dtype=bool)
        for row in np.unique(rows[1:][close]):
            span = np.flatnonzero(rows == row)
            keep[span] = _select_by_distance(
                cols[span].tolist(), x[row, cols[span]], distance
            )
        rows, cols = rows[keep], cols[keep]
    return rows, cols


def _select_by_distance(
    peaks: List[int], priority: np.ndarray, distance: int
) -> List[bool]:
    """scipy's distance rule on one row: highest first, neighbours out."""
    size = len(peaks)
    keep = [True] * size
    for j in np.argsort(priority)[::-1].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and peaks[j] - peaks[k] < distance:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < size and peaks[k] - peaks[j] < distance:
            keep[k] = False
            k += 1
    return keep


def find_peaks(x, height: float, distance: int) -> np.ndarray:
    """Indices of ``scipy.signal.find_peaks(x, height=height, distance=distance)``.

    The one-signal case of :func:`find_peak_rows`; ``x`` is read as a
    1-D float64 array of finite values.
    """
    block = np.asarray(x, dtype=float).reshape(1, -1)
    return find_peak_rows(block, np.array([float(height)]), distance)[1]


def row_moments(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of every row of a ``(b, T)`` float64 block.

    The arithmetic of ``np.mean`` and ``np.std`` along a row, with the
    mean computed once for both.
    """
    n = samples.shape[1]
    mean = np.add.reduce(samples, axis=1, keepdims=True) / n
    deviation = samples - mean
    np.square(deviation, out=deviation)
    return mean[:, 0], np.sqrt(np.add.reduce(deviation, axis=1) / n)


def step_times_rows(
    samples: np.ndarray, mean: np.ndarray, rate_hz: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Refined step instants of every row of a ``(b, T)`` float64 block.

    The peak detection of :func:`detect_step_times` applied to each row
    (``mean`` holds the rows' means) as a walking signal: returns
    ``(rows, times)``, row-major like :func:`find_peak_rows`, with times
    in seconds from the row's start.
    """
    threshold = mean + 0.4 * (np.maximum.reduce(samples, axis=1) - mean)
    min_distance = max(int(_MIN_STEP_SEPARATION_S * rate_hz), 1)
    rows, cols = find_peak_rows(samples, threshold, min_distance)
    # Parabolic refinement through each peak and its two neighbours
    # (peaks are never the first or last sample).
    flat = samples.ravel()
    at = rows * samples.shape[1] + cols
    left, mid, right = flat[at - 1], flat[at], flat[at + 1]
    denominator = left - 2.0 * mid + right
    curved = np.abs(denominator) > 1e-9
    shift = 0.5 * (left - right) / np.where(curved, denominator, 1.0)
    refined = np.where(
        curved, cols + np.minimum(np.maximum(shift, -0.5), 0.5), cols
    )
    return rows, refined / rate_hz


def csc_rows(samples: np.ndarray, mean: np.ndarray, rate_hz: float) -> np.ndarray:
    """CSC step counts (:func:`count_steps_csc`) of every row of a
    ``(b, T)`` float64 block of walking signals with row means ``mean``."""
    rows, times = step_times_rows(samples, mean, rate_hz)
    counts = np.bincount(rows, minlength=samples.shape[0])
    steps = counts.astype(float)
    several = counts >= 2
    if several.any():
        ends = np.cumsum(counts)[several]
        first = times[ends - counts[several]]
        last = times[ends - 1]
        intervals = counts[several] - 1
        period = (last - first) / intervals
        odd_time = first + (samples.shape[1] / rate_hz - last)
        steps[several] = intervals + odd_time / period
    return steps


def _one_row(signal: AccelSignal) -> Tuple[np.ndarray, Optional[np.ndarray], bool]:
    """The samples as a one-row float64 block, its mean, and whether the
    signal shows the oscillation of walking."""
    samples = np.asarray(signal.samples, dtype=float).reshape(1, -1)
    if samples.size == 0:
        return samples, None, False
    mean, std = row_moments(samples)
    return samples, mean, bool(std[0] > _WALK_STD_THRESHOLD)


def is_walking(signal: AccelSignal) -> bool:
    """Whether the signal shows the oscillation of walking (Sec. IV-B1).

    Idle accelerometer noise is a few tenths of m/s^2; walking swings
    several m/s^2 around gravity, so a variance test separates them.
    """
    return _one_row(signal)[2]


def detect_step_times(signal: AccelSignal) -> List[float]:
    """Detected step (peak) instants, in seconds from signal start.

    Peaks are local maxima above an adaptive threshold (40% of the way
    from the signal mean to its maximum) separated by at least the
    minimum human step interval; each peak time is refined by parabolic
    interpolation for sub-sample accuracy, which CSC's period estimate
    benefits from.  Samples are read as float64.
    """
    samples, mean, walking = _one_row(signal)
    if not walking or samples.shape[1] < 3:
        return []
    return step_times_rows(samples, mean, signal.rate_hz)[1].tolist()


def count_steps_dsc(signal: AccelSignal) -> float:
    """Discrete step count: the number of detected step peaks."""
    return float(len(detect_step_times(signal)))


def count_steps_csc(signal: AccelSignal) -> float:
    """Continuous step count: integral steps plus decimal odd-time steps.

    With peaks at ``t_1 < ... < t_n`` in an interval of duration ``D``,
    the step period is ``(t_n - t_1) / (n - 1)``; the odd time
    ``t_1 + (D - t_n)`` is divided by the period to recover the decimal
    steps the discrete counter drops, giving

        steps = (n - 1) + odd_time / period.

    For a walker of perfectly constant cadence this recovers ``D / period``
    exactly, independent of where the first heel strike fell.
    """
    samples, mean, walking = _one_row(signal)
    if not walking or samples.shape[1] < 3:
        return 0.0
    return float(csc_rows(samples, mean, signal.rate_hz)[0])
