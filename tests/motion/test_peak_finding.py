"""The numpy peak finder against the definition it reproduces.

``find_peaks(x, h, d)`` must return exactly the indices of
``scipy.signal.find_peaks(x, height=h, distance=d)``.  The property test
needs scipy and skips without it; the worked examples below pin the
same rules without it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.step_counting import find_peak_rows, find_peaks


class TestWorkedExamples:
    def test_plateau_reports_its_midpoint_rounded_down(self):
        x = [0.0, 1.0, 3.0, 3.0, 3.0, 3.0, 1.0, 0.0]
        assert find_peaks(x, 0.0, 1).tolist() == [3]

    def test_plateau_touching_an_end_is_no_peak(self):
        assert find_peaks([0.0, 2.0, 2.0], 0.0, 1).tolist() == []
        assert find_peaks([2.0, 2.0, 1.0], 0.0, 1).tolist() == []

    def test_plateau_followed_by_a_rise_is_no_peak(self):
        assert find_peaks([0.0, 2.0, 2.0, 3.0, 0.0], 0.0, 1).tolist() == [3]

    def test_height_bound_is_inclusive(self):
        x = [0.0, 2.0, 0.0, 3.0, 0.0]
        assert find_peaks(x, 2.0, 1).tolist() == [1, 3]
        assert find_peaks(x, 2.5, 1).tolist() == [3]
        assert find_peaks(x, 3.5, 1).tolist() == []

    def test_higher_peak_wins_inside_distance(self):
        x = [0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0]
        assert find_peaks(x, 0.0, 3).tolist() == [3]
        assert find_peaks(x, 0.0, 2).tolist() == [1, 3, 5]

    def test_a_removed_peak_removes_no_other(self):
        # 5 removes 3; 1 is 4 samples from 5, so it stays although 3
        # (gone) was within distance of it.
        x = [0.0, 2.0, 0.0, 1.0, 0.0, 5.0, 0.0]
        assert find_peaks(x, 0.0, 3).tolist() == [1, 5]

    def test_short_signals_have_no_peaks(self):
        for n in range(3):
            assert find_peaks(np.ones(n), 0.0, 1).tolist() == []

    def test_rows_are_independent(self):
        x = np.array([[0.0, 1.0, 0.0, 2.0, 0.0], [0.0, 2.0, 2.0, 0.0, 0.0]])
        rows, cols = find_peak_rows(x, np.array([1.5, 0.0]), 1)
        assert rows.tolist() == [0, 1]
        assert cols.tolist() == [3, 1]


@st.composite
def signals(draw):
    """Signals of 0-64 samples on a coarse grid, so plateaus and
    equal-height peaks are common; some get a forced plateau."""
    n = draw(st.integers(0, 64))
    levels = draw(st.integers(2, 6))
    grid = st.lists(st.integers(0, levels), min_size=n, max_size=n)
    x = np.array(draw(grid), dtype=float)
    if n >= 5 and draw(st.booleans()):
        start = draw(st.integers(1, n - 3))
        width = draw(st.integers(2, n - start - 1))
        x[start : start + width] = levels + 1
    if draw(st.booleans()):
        x = x + draw(st.floats(-1.0, 1.0)) * np.arange(n) * 1e-3
    return x


@settings(max_examples=600, deadline=None)
@given(
    x=signals(),
    distance=st.integers(1, 6),
    height_kind=st.sampled_from(["none", "max", "above", "random"]),
    offset=st.floats(0.0, 1.0),
)
def test_matches_scipy_find_peaks(x, distance, height_kind, offset):
    signal = pytest.importorskip("scipy.signal")
    top = float(x.max()) if x.size else 0.0
    height = {
        "none": -np.inf,
        "max": top,
        "above": top + 1e-9 + offset,
        "random": top * offset,
    }[height_kind]
    want = signal.find_peaks(x, height=height, distance=distance)[0]
    assert find_peaks(x, height, distance).tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(
        st.floats(-50.0, 50.0, allow_nan=False), min_size=0, max_size=64
    ),
    distance=st.integers(1, 6),
)
def test_matches_scipy_on_continuous_values(x, distance):
    signal = pytest.importorskip("scipy.signal")
    x = np.array(x, dtype=float)
    height = float(np.median(x)) if x.size else 0.0
    want = signal.find_peaks(x, height=height, distance=distance)[0]
    assert find_peaks(x, height, distance).tolist() == want.tolist()
