"""Float reductions whose result does not depend on the interpreter.

Since Python 3.12 the builtin ``sum()`` over floats is compensated
(Neumaier summation): ``sum([1e16, 1.0, -1e16])`` is ``1.0`` there and
``0.0`` on 3.10/3.11.  The fix path must produce the same bits on every
supported interpreter — the golden fixtures were written with the naive
sum, and the batched kernels reduce left to right — so every float sum
on that path goes through :func:`left_sum` instead, and the batched
kernels reduce with :func:`left_sum_rows`, which adds the same terms in
the same order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["left_sum", "left_sum_rows"]


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, starting from ``0.0``.

    Bit-identical to the builtin ``sum()`` of Python 3.10/3.11 on any
    non-empty float sequence, and to each row of :func:`left_sum_rows`.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def left_sum_rows(values: np.ndarray) -> np.ndarray:
    """:func:`left_sum` of every row of a 2-D array, left to right.

    One vector add per column, so each row accumulates in index order —
    unlike ``values.sum(axis=1)``, whose pairwise summation rounds
    differently.  Trailing ``0.0`` padding leaves a row's sum unchanged.
    """
    total = np.zeros(len(values))
    for column in values.T:
        total += column
    return total
