"""The MoLoc motion-assisted localizer (paper Sec. V-C, Eq. 7).

Each localization interval, the localizer:

1. retrieves the ``k`` nearest fingerprint candidates with Eq. 4
   probabilities (*candidate estimation*);
2. if a previous candidate set and a motion measurement exist, scores each
   new candidate ``j_m`` by

       P(x = j_m | L', F, d, o) ∝ P(x = j_m | F) * P_{L', j_m}(d, o)

   — the fingerprint match times the Eq. 6 reachability from the retained
   set through the measured motion (*candidate evaluation*);
3. returns the highest-probability candidate and retains the whole
   evaluated set for the next interval.

When every candidate gets zero motion support (e.g. the motion database
has no entry connecting the sets — the user teleported as far as the data
can tell), the localizer falls back to fingerprint-only probabilities for
that interval rather than dividing by zero; the paper's normalizer ``N``
is undefined in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..motion.rlm import MotionMeasurement
from ..numeric import left_sum
from .config import MoLocConfig
from .fingerprint import Fingerprint, FingerprintDatabase
from .matching import Candidate, select_candidates
from .motion_db import MotionDatabase
from .motion_matching import set_transition_probability

__all__ = ["EvaluatedCandidate", "LocationEstimate", "MoLocLocalizer"]


@dataclass(frozen=True)
class EvaluatedCandidate:
    """A candidate after evaluation, with both probability layers visible.

    Attributes:
        location_id: The candidate reference location.
        dissimilarity: Fingerprint dissimilarity ``m_i`` (Eq. 3).
        fingerprint_probability: ``P(x = l_i | F)`` (Eq. 4).
        probability: The final (posterior) probability (Eq. 7); equals the
            fingerprint probability when motion was unavailable.
    """

    location_id: int
    dissimilarity: float
    fingerprint_probability: float
    probability: float


@dataclass(frozen=True)
class LocationEstimate:
    """The outcome of one localization interval.

    Attributes:
        location_id: The returned estimate (highest-probability candidate).
        probability: Its probability.
        candidates: The full evaluated candidate set, retained internally
            for the next interval.
        used_motion: Whether motion matching contributed to this estimate
            (False on the initial fix and on zero-support fallback).
    """

    location_id: int
    probability: float
    candidates: Tuple[EvaluatedCandidate, ...]
    used_motion: bool


class MoLocLocalizer:
    """Stateful MoLoc localization for one user session.

    Args:
        fingerprint_db: The site-survey fingerprint database.
        motion_db: The crowdsourced motion database.
        config: Candidate-set size and discretization intervals.
        retention: Which probabilities the retained candidate set carries
            into Eq. 6 as ``P(x = i_k)``.  The paper's Eq. 6/7 reading —
            "the newly obtained candidates with corresponding
            probabilities are retained" — is the ``"posterior"`` default;
            ``"fingerprint"`` retains the Eq. 4 probabilities instead
            (motion evidence influences only the current fix, never the
            prior), the alternative the parameters-ablation bench probes.
    """

    def __init__(
        self,
        fingerprint_db: FingerprintDatabase,
        motion_db: MotionDatabase,
        config: MoLocConfig = MoLocConfig(),
        retention: str = "posterior",
    ) -> None:
        if retention not in ("posterior", "fingerprint"):
            raise ValueError(
                f"retention must be 'posterior' or 'fingerprint', got {retention!r}"
            )
        self.fingerprint_db = fingerprint_db
        self.motion_db = motion_db
        self.config = config
        self.retention = retention
        self._retained: Optional[List[Tuple[int, float]]] = None

    def reset(self) -> None:
        """Forget the retained candidate set (start a new session)."""
        self._retained = None

    def state_dict(self) -> dict:
        """The mutable session state, as a JSON-compatible dict.

        Covers everything a restored localizer needs to continue the
        exact estimate stream: the retained candidate set.  The
        databases, config, and retention policy are construction-time
        and travel with the deployment, not the checkpoint.
        """
        return {
            "retained": (
                None
                if self._retained is None
                else [[lid, p] for lid, p in self._retained]
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore session state captured by :meth:`state_dict`."""
        retained = state["retained"]
        self._retained = (
            None
            if retained is None
            else [(int(lid), float(p)) for lid, p in retained]
        )

    def seed_candidates(self, candidates: List[Tuple[int, float]]) -> None:
        """Replace the retained set with externally derived candidates.

        The robustness layer's dead-reckoning coast uses this: when a
        scan is lost, the coasted distribution becomes the prior the next
        scan-based interval evaluates against, keeping Eq. 6's ``P(x=i)``
        aligned with where the user actually is.

        Raises:
            ValueError: for an empty candidate list.
        """
        pairs = [(int(lid), float(p)) for lid, p in candidates]
        if not pairs:
            raise ValueError("seeded candidate set cannot be empty")
        self._retained = pairs

    @property
    def retained_candidates(self) -> Optional[List[Tuple[int, float]]]:
        """The currently retained ``(location_id, probability)`` set."""
        return None if self._retained is None else list(self._retained)

    def adopt(self, estimate: LocationEstimate) -> None:
        """Adopt an already-evaluated interval as this session's.

        Replays exactly the retention side effect :meth:`evaluate` would
        have produced for the estimate.  The batched serving engine
        evaluates Eq. 6/7 for a whole tick on arrays and hands each
        session its row's estimate through this seam, so only the
        per-session state update runs here.
        """
        if self.retention == "posterior":
            self._retained = [
                (c.location_id, c.probability) for c in estimate.candidates
            ]
        else:
            self._retained = [
                (c.location_id, c.fingerprint_probability)
                for c in estimate.candidates
            ]

    def locate(
        self,
        fingerprint: Fingerprint,
        motion: Optional[MotionMeasurement] = None,
        active_aps: Optional[Sequence[bool]] = None,
        k: Optional[int] = None,
        beta_scale: Optional[float] = None,
        dwell: Optional[bool] = None,
    ) -> LocationEstimate:
        """Process one localization interval.

        Args:
            fingerprint: The WiFi scan of this interval.
            motion: The direction/offset measured since the previous
                interval; None on the very first query of a session.
            active_aps: Optional per-AP boolean mask; masked-out APs do
                not participate in fingerprint matching (dead-AP serving).
            k: Candidate-set size override for this interval only (the
                divergence watchdog widens the set during recovery);
                defaults to the configured ``k``.
            beta_scale: Speed-adaptive offset-interval widening from the
                session's speed estimator; None means the fixed model
                (bitwise-unchanged).
            dwell: Explicit dwell verdict for the stay model.

        Returns:
            The location estimate with its evaluated candidate set.
        """
        candidates = select_candidates(
            self.fingerprint_db,
            fingerprint,
            self.config.k if k is None else k,
            active_aps,
        )
        return self.evaluate(
            candidates, motion, beta_scale=beta_scale, dwell=dwell
        )

    def evaluate(
        self,
        candidates: Sequence[Candidate],
        motion: Optional[MotionMeasurement] = None,
        transition_probabilities: Optional[Sequence[float]] = None,
        beta_scale: Optional[float] = None,
        dwell: Optional[bool] = None,
    ) -> LocationEstimate:
        """Candidate evaluation (Eq. 6/7) over an already-matched set.

        The second half of :meth:`locate`, split out so callers can
        supply candidates from a vectorized matcher and precomputed Eq. 6
        transition probabilities.  It is the sequential reference for
        posterior normalization, retention, and tie-breaking; the batched
        serving engine's array pass
        (:class:`~repro.serving.fusion.TickPosteriors`) reproduces it bit
        for bit.

        Args:
            candidates: The Eq. 4 candidate set for this interval.
            motion: The measured motion since the previous interval, or
                None (initial fix / WiFi-only interval).
            transition_probabilities: Optional precomputed Eq. 6 values,
                one per candidate, in candidate order.  When omitted they
                are computed here via
                :func:`~repro.core.motion_matching.set_transition_probability`.
                Ignored unless both a retained set and a motion
                measurement exist.
            beta_scale: Speed-adaptive offset-interval widening; None is
                the fixed model.  Precomputed transition probabilities
                must already reflect it (the engine keys its caches on
                the speed state).
            dwell: Explicit dwell verdict for the stay model.

        Raises:
            ValueError: for an empty candidate set, or a transition list
                whose length does not match the candidate set.
        """
        if not candidates:
            raise ValueError("cannot evaluate an empty candidate set")
        used_motion = False
        posteriors = [c.probability for c in candidates]
        if self._retained is not None and motion is not None:
            if transition_probabilities is None:
                scale = 1.0 if beta_scale is None else beta_scale
                transition_probabilities = [
                    set_transition_probability(
                        self.motion_db,
                        self._retained,
                        c.location_id,
                        motion,
                        self.config,
                        scale,
                        dwell,
                    )
                    for c in candidates
                ]
            elif len(transition_probabilities) != len(candidates):
                raise ValueError(
                    f"{len(transition_probabilities)} transition probabilities "
                    f"for {len(candidates)} candidates"
                )
            weights = [
                c.probability * t
                for c, t in zip(candidates, transition_probabilities)
            ]
            total = left_sum(weights)
            if total > 0.0:
                posteriors = [w / total for w in weights]
                used_motion = True

        evaluated = tuple(
            EvaluatedCandidate(
                location_id=c.location_id,
                dissimilarity=c.dissimilarity,
                fingerprint_probability=c.probability,
                probability=p,
            )
            for c, p in zip(candidates, posteriors)
        )
        if self.retention == "posterior":
            self._retained = [(c.location_id, c.probability) for c in evaluated]
        else:
            self._retained = [
                (c.location_id, c.fingerprint_probability) for c in evaluated
            ]

        best = max(evaluated, key=lambda c: (c.probability, -c.location_id))
        return LocationEstimate(
            location_id=best.location_id,
            probability=best.probability,
            candidates=evaluated,
            used_motion=used_motion,
        )
