"""The graceful-fallback chain: motion-assisted → WiFi-only → coasting.

Every interval must produce a fix, whatever evidence survived
sanitization.  The chain degrades one rung at a time:

1. **Motion-assisted** — scan usable, IMU credible, heading calibrated:
   the full paper pipeline.
2. **WiFi-only** — scan usable but the IMU is missing, flat-lined, or
   uncalibrated: fingerprint candidates alone (the paper's initial-fix
   path, applied mid-session).
3. **Dead-reckoning coasting** — the scan itself is lost: the fix coasts
   from the retained candidate set through the motion database (Eq. 6
   with uniform fingerprint evidence), or holds position outright when
   even motion is gone.

Coasting deliberately reuses :func:`set_transition_probability` rather
than floor-plan geometry: the motion database is the serving path's
authority on reachability, and the core MoLoc path stays geometry-free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.config import MoLocConfig
from ..core.localizer import EvaluatedCandidate, LocationEstimate
from ..core.motion_db import MotionDatabase
from ..core.motion_matching import set_transition_probability
from ..motion.rlm import MotionMeasurement
from ..numeric import left_sum
from .health import ServingMode

__all__ = ["choose_mode", "coast"]


def choose_mode(
    scan_usable: bool, imu_usable: bool, calibrated: bool
) -> ServingMode:
    """The fallback rung for one interval's surviving evidence."""
    if not scan_usable:
        return ServingMode.DEAD_RECKONING
    if imu_usable and calibrated:
        return ServingMode.MOTION_ASSISTED
    return ServingMode.WIFI_ONLY


def coast(
    motion_db: MotionDatabase,
    retained: Sequence[Tuple[int, float]],
    measurement: Optional[MotionMeasurement],
    config: MoLocConfig,
) -> LocationEstimate:
    """A dead-reckoned fix from the retained candidates and the motion.

    With a measurement, every retained location and every motion-database
    neighbor of one is scored by the Eq. 6 mixture from the retained set;
    without one (scan *and* IMU lost), the retained distribution is
    simply held.  Probabilities are normalized over the scored set; when
    nothing gets support (the measurement contradicts all reachability),
    the retained distribution is held too — coasting never invents
    movement it cannot explain.

    Args:
        motion_db: Reachability and hop statistics.
        retained: The ``(location_id, probability)`` set retained from
            the last interval with a usable scan; must be non-empty.
        measurement: The motion measured this interval, if any.
        config: Discretization intervals and the stay model.

    Raises:
        ValueError: if ``retained`` is empty.
    """
    if not retained:
        raise ValueError("coasting needs a non-empty retained candidate set")

    if measurement is not None:
        frontier = {lid for lid, _ in retained}
        for lid in list(frontier):
            frontier.update(motion_db.neighbors_of(lid))
        scored = [
            (
                lid,
                set_transition_probability(
                    motion_db, retained, lid, measurement, config
                ),
            )
            for lid in sorted(frontier)
        ]
        total = left_sum(weight for _, weight in scored)
        if total > 0.0:
            return _estimate(
                [(lid, weight / total) for lid, weight in scored],
                used_motion=True,
            )

    total = left_sum(probability for _, probability in retained)
    if total <= 0.0:
        # Degenerate retained set: hold the first location outright.
        return _estimate([(retained[0][0], 1.0)], used_motion=False)
    return _estimate(
        [(lid, probability / total) for lid, probability in retained],
        used_motion=False,
    )


def _estimate(
    weighted: List[Tuple[int, float]], used_motion: bool
) -> LocationEstimate:
    """Package a coasted distribution as a LocationEstimate.

    Fingerprint evidence did not participate, so the fingerprint
    probability is recorded as uniform and the dissimilarity as NaN.
    """
    uniform = 1.0 / len(weighted)
    evaluated = tuple(
        EvaluatedCandidate(
            location_id=lid,
            dissimilarity=float("nan"),
            fingerprint_probability=uniform,
            probability=probability,
        )
        for lid, probability in weighted
    )
    best = max(evaluated, key=lambda c: (c.probability, -c.location_id))
    return LocationEstimate(
        location_id=best.location_id,
        probability=best.probability,
        candidates=evaluated,
        used_motion=used_motion,
    )
