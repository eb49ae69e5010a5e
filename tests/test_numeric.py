"""Float sums on the fix path round the same way on every interpreter."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.numeric import left_sum, left_sum_rows


def test_left_sum_is_not_compensated():
    # Python 3.12's builtin sum() returns 1.0 here; 3.10/3.11 return 0.0.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum_rows(np.array([[1e16, 1.0, -1e16]]))[0] == 0.0


@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_left_sum_rows_equals_left_sum(rows):
    sums = left_sum_rows(np.array(rows))
    assert [s.hex() for s in sums.tolist()] == [left_sum(r).hex() for r in rows]
