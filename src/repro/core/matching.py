"""Candidate estimation: k-nearest fingerprint matching (paper Eq. 3-4).

Instead of committing to the single nearest database entry, MoLoc keeps
the ``k`` locations whose fingerprints are nearest the query (Eq. 3) and
assigns each a probability proportional to the *inverse* of its
dissimilarity (Eq. 4) — smaller dissimilarity, higher probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..numeric import left_sum
from .fingerprint import Fingerprint, FingerprintDatabase

__all__ = ["Candidate", "candidates_from_ranked", "select_candidates"]

_EXACT_MATCH_EPSILON = 1e-9
"""Dissimilarity floor so an exact fingerprint match keeps Eq. 4 finite."""


@dataclass(frozen=True)
class Candidate:
    """One location candidate from fingerprint matching.

    Attributes:
        location_id: The candidate reference location.
        dissimilarity: ``phi(F, F_candidate)`` — the ``m_i`` of Eq. 3.
        probability: ``P(x = l_i | F)`` from Eq. 4 (sums to 1 over the set).
    """

    location_id: int
    dissimilarity: float
    probability: float


def candidates_from_ranked(
    nearest: Sequence[Tuple[int, float]],
) -> List[Candidate]:
    """Eq. 4 probabilities for an already-ranked nearest-candidate list.

    The reference for the inverse-dissimilarity weighting: the
    sequential :func:`select_candidates` path ranks locations first,
    then hands the ``(location_id, dissimilarity)`` prefix here.  The
    batched serving engine's matcher
    (:class:`~repro.serving.scheduler.BatchMatcher`) runs the same
    element-wise arithmetic, in the same order, on a whole tick's ranked
    rows.

    Args:
        nearest: The ``k`` nearest ``(location_id, dissimilarity)`` pairs,
            sorted by ascending dissimilarity (ties by lower id).

    Raises:
        ValueError: for an empty ranking.
    """
    if not nearest:
        raise ValueError("cannot build candidates from an empty ranking")
    inverse_weights = [1.0 / max(m, _EXACT_MATCH_EPSILON) for _, m in nearest]
    total = left_sum(inverse_weights)
    return [
        Candidate(location_id=lid, dissimilarity=m, probability=w / total)
        for (lid, m), w in zip(nearest, inverse_weights)
    ]


def select_candidates(
    database: FingerprintDatabase,
    query: Fingerprint,
    k: int,
    active_aps: Optional[Sequence[bool]] = None,
) -> List[Candidate]:
    """The ``k`` nearest location candidates with Eq. 4 probabilities.

    Ties in dissimilarity break on the lower location id so results are
    deterministic.  If the database holds fewer than ``k`` locations, all
    of them are returned.

    Args:
        database: The fingerprint database to match against.
        query: The user-collected fingerprint ``F``.
        k: Candidate-set size (Eq. 3).
        active_aps: Optional boolean per-AP mask; masked-out APs (e.g.
            ones a sanitizer diagnosed as dead) are excluded from every
            dissimilarity.

    Returns:
        Candidates sorted by ascending dissimilarity; probabilities
        normalized over the returned set.

    Raises:
        ValueError: if ``k`` is not positive.
    """
    if k < 1:
        raise ValueError(f"candidate set size k must be >= 1, got {k}")

    dissimilarities = database.dissimilarities(query, active_aps)
    ranked = sorted(dissimilarities.items(), key=lambda item: (item[1], item[0]))
    return candidates_from_ranked(ranked[: min(k, len(ranked))])
