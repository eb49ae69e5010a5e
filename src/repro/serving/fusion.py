"""Eq. 7 for a whole tick: posterior fusion and the argmax on arrays.

The batch matcher hands the engine one
:class:`~repro.serving.scheduler.CandidateRow` per matched session.
:class:`TickPosteriors` stacks them into padded ``(B, K)`` blocks, fuses
the Eq. 4 probabilities with the tick's Eq. 6 block in one pass —
weights, normalizer, zero-support fallback, argmax — and turns each row
into the :class:`~repro.core.localizer.LocationEstimate` that
:meth:`~repro.core.localizer.MoLocLocalizer.evaluate` would have
returned for that session.

Bitwise equivalence holds by construction: the weights and posteriors
are the reference's element-wise products and quotients, the normalizer
is a left-to-right row sum (:func:`~repro.numeric.left_sum_rows`;
padding adds ``+0.0``), and the argmax takes the highest probability
with ties broken toward the lower id, exactly as
``max(..., key=(probability, -location_id))`` does.  A row the pass
cannot vouch for — a non-finite dissimilarity, probability, weight or
normalizer, or an Eq. 6 row the evaluator flagged doubtful — yields no
estimate, and the engine completes that session through the reference
path instead.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.localizer import EvaluatedCandidate, LocationEstimate
from ..numeric import left_sum_rows
from .scheduler import CandidateRow

__all__ = ["TickPosteriors"]

_NO_ID = np.iinfo(np.int64).max


def _best_columns(
    values: np.ndarray, ids: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per row, the column of the highest value; ties go to the lower id."""
    masked = np.where(valid, values, -np.inf)
    top = masked.max(axis=1, keepdims=True)
    return np.where(masked == top, ids, _NO_ID).argmin(axis=1)


class TickPosteriors:
    """One tick's candidate sets as ``(B, K)`` arrays, through Eq. 7.

    Args:
        candidate_rows: One matched row per session; ragged lengths
            are padded (probability 0, never a winner).

    Attributes:
        ids: ``(B, K)`` candidate ids, 0 on padding.
        valid: ``(B, K)`` mask, False on padding.
    """

    def __init__(self, candidate_rows: Sequence[CandidateRow]) -> None:
        self._rows = list(candidate_rows)
        lengths = np.array([len(r) for r in self._rows])
        self.valid = np.arange(lengths.max()) < lengths[:, np.newaxis]
        # A row-major mask fill lays the concatenated rows out in order.
        ids = np.zeros(self.valid.shape, dtype=np.int64)
        dissimilarities = np.zeros(self.valid.shape)
        probabilities = np.zeros(self.valid.shape)
        ids[self.valid] = np.concatenate([r.ids for r in self._rows])
        dissimilarities[self.valid] = np.concatenate(
            [r.dissimilarities for r in self._rows]
        )
        probabilities[self.valid] = np.concatenate(
            [r.probabilities for r in self._rows]
        )
        self.ids = ids
        self._probabilities = probabilities
        self._finite = (
            np.isfinite(dissimilarities) & np.isfinite(probabilities)
        ).all(axis=1)
        self._best_fingerprint = _best_columns(probabilities, ids, self.valid)
        self._fused = np.zeros(len(self._rows), dtype=bool)
        self._trusted = np.zeros(len(self._rows), dtype=bool)
        self._used = np.zeros(len(self._rows), dtype=bool)
        self._posteriors = probabilities
        self._best_posterior = self._best_fingerprint

    def fuse(
        self, rows: np.ndarray, transitions: np.ndarray, doubtful: np.ndarray
    ) -> None:
        """Eq. 7 for the rows that carry a prior and a motion measurement.

        Args:
            rows: Indices of those rows.
            transitions: Their Eq. 6 values, ``(len(rows), K)``, 0 on
                padding.
            doubtful: Rows (aligned with ``rows``) whose Eq. 6 values
                the evaluator could not vouch for.
        """
        weights = self._probabilities[rows] * transitions
        total = left_sum_rows(weights)
        # A left-to-right sum is finite only if every weight is.
        trusted = ~doubtful & np.isfinite(total)
        support = trusted & (total > 0.0)
        used = rows[support]
        posteriors = self._probabilities.copy()
        posteriors[used] = weights[support] / total[support, np.newaxis]
        self._fused[rows] = True
        self._trusted[rows] = trusted
        self._used[used] = True
        self._posteriors = posteriors
        self._best_posterior = _best_columns(posteriors, self.ids, self.valid)

    def estimate(
        self, row: int, wifi_only: bool = False
    ) -> Optional[LocationEstimate]:
        """Row ``row`` as the estimate ``evaluate`` would return, or None.

        ``wifi_only`` asks for the Eq. 4-only estimate (the session's
        motion was shed).  None means the row cannot be vouched for; the
        caller completes it through the reference path.
        """
        if not self._finite[row]:
            return None
        fused = self._fused[row] and not wifi_only
        if fused and not self._trusted[row]:
            return None
        matched = self._rows[row]
        fingerprint = matched.probabilities.tolist()
        used_motion = bool(fused and self._used[row])
        if used_motion:
            posteriors = self._posteriors[row, : len(matched)].tolist()
            best = self._best_posterior[row]
        else:
            posteriors = fingerprint
            best = self._best_fingerprint[row]
        evaluated = tuple(
            map(
                EvaluatedCandidate,
                matched.ids.tolist(),
                matched.dissimilarities.tolist(),
                fingerprint,
                posteriors,
            )
        )
        winner = evaluated[best]
        return LocationEstimate(
            location_id=winner.location_id,
            probability=winner.probability,
            candidates=evaluated,
            used_motion=used_motion,
        )
