"""Motion matching: how well a measured movement fits the motion database.

Implements Eq. 5 and 6 of the paper.  The probability that a user walked
from location ``i`` to ``j`` through measured direction ``d`` and offset
``o`` factorizes — direction and offset are independent — into

    P_{i,j}(d, o) = D_{i,j}(d) * O_{i,j}(o)                        (Eq. 5)

where each factor is the probability mass of the pair's Gaussian inside a
discretization interval (``alpha`` degrees around ``d``, ``beta`` meters
around ``o``).  Extended to a *set* of possible starting locations with
probabilities (the retained candidate set), the transition probability is
the mixture

    P_{S,j}(d, o) = sum_{i in S} P(x = i) * P_{i,j}(d, o)          (Eq. 6)

A self-transition (the user stayed at ``j``) is not in the paper's motion
database; we model it with a zero-mean offset Gaussian so a stationary
user is handled gracefully instead of being assigned probability zero.

Speed adaptation: the paper surveys its motion database at one walking
speed, so its ``beta`` interval is tuned to pedestrian offsets.  Every
offset scorer here accepts an optional ``beta_scale`` that widens (or
narrows) the interval to ``beta_m * beta_scale`` for users estimated to
move faster or slower than the survey gait.  ``beta_scale=1.0`` computes
the exact same float expression as before — the disabled path stays
bitwise-identical.  ``stay_probability`` additionally accepts an explicit
``dwell`` verdict: a detected dwell scores the stay interval at its
center instead of at the (noise-driven) measured offset.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

from ..env.geometry import bearing_difference, normalize_bearing
from ..motion.rlm import MotionMeasurement
from .config import MoLocConfig
from .motion_db import MotionDatabase, PairStatistics

__all__ = [
    "gaussian_interval_probability",
    "direction_probability",
    "offset_probability",
    "pair_probability",
    "stay_probability",
    "set_transition_probability",
]

_SQRT2 = math.sqrt(2.0)


def gaussian_interval_probability(
    mean: float, std: float, center: float, width: float
) -> float:
    """Mass of ``N(mean, std)`` inside ``[center - width/2, center + width/2]``.

    This is the discretization the paper's ``D`` and ``O`` integrals
    perform (Sec. V-B).

    Raises:
        ValueError: for non-positive ``std`` or ``width``.
    """
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    low = (center - width / 2.0 - mean) / (std * _SQRT2)
    high = (center + width / 2.0 - mean) / (std * _SQRT2)
    return 0.5 * (math.erf(high) - math.erf(low))


def _signed_direction_delta(direction_deg: float, mean_deg: float) -> float:
    """Signed circular difference ``direction - mean`` in ``[-180, 180)``."""
    delta = normalize_bearing(direction_deg - mean_deg)
    return delta - 360.0 if delta >= 180.0 else delta


def direction_probability(
    stats: PairStatistics, direction_deg: float, alpha_deg: float
) -> float:
    """``D_{i,j}(d)``: mass of the pair's direction Gaussian around ``d``.

    Works on the circular difference to the mean so the 0/360 wrap-around
    is handled correctly.
    """
    delta = _signed_direction_delta(direction_deg, stats.direction_mean_deg)
    return gaussian_interval_probability(
        mean=0.0, std=stats.direction_std_deg, center=delta, width=alpha_deg
    )


def offset_probability(
    stats: PairStatistics,
    offset_m: float,
    beta_m: float,
    beta_scale: float = 1.0,
) -> float:
    """``O_{i,j}(o)``: mass of the pair's offset Gaussian around ``o``.

    ``beta_scale`` widens the discretization interval for users moving
    faster (or slower) than the survey gait; ``1.0`` is the exact
    fixed-pedestrian computation.
    """
    return gaussian_interval_probability(
        mean=stats.offset_mean_m,
        std=stats.offset_std_m,
        center=offset_m,
        width=beta_m * beta_scale,
    )


def pair_probability(
    stats: PairStatistics,
    measurement: MotionMeasurement,
    config: MoLocConfig,
    beta_scale: float = 1.0,
) -> float:
    """``P_{i,j}(d, o) = D_{i,j}(d) * O_{i,j}(o)`` (Eq. 5)."""
    return direction_probability(
        stats, measurement.direction_deg, config.alpha_deg
    ) * offset_probability(
        stats, measurement.offset_m, config.beta_m, beta_scale
    )


def stay_probability(
    measurement: MotionMeasurement,
    config: MoLocConfig,
    beta_scale: float = 1.0,
    dwell: Optional[bool] = None,
) -> float:
    """Probability that the measured motion means "the user did not move".

    Direction is uninformative while standing, so only the offset is
    scored, against a zero-mean Gaussian of scale ``stay_sigma_m``.

    ``dwell`` is the speed estimator's explicit verdict: ``True`` means
    the interval was detected as a standing dwell, so the stay interval
    is scored at its center (full mass, instead of wherever accelerometer
    noise happened to put the measured offset).  ``None``/``False`` keeps
    the legacy step-absence behavior of scoring at the measured offset.
    """
    center = 0.0 if dwell else measurement.offset_m
    return gaussian_interval_probability(
        mean=0.0,
        std=config.stay_sigma_m,
        center=center,
        width=config.beta_m * beta_scale,
    )


def set_transition_probability(
    motion_db: MotionDatabase,
    prior: Iterable[Tuple[int, float]],
    end_id: int,
    measurement: MotionMeasurement,
    config: MoLocConfig,
    beta_scale: float = 1.0,
    dwell: Optional[bool] = None,
) -> float:
    """``P_{S,j}(d, o)``: mixture over the prior candidate set (Eq. 6).

    Args:
        motion_db: The motion database.
        prior: ``(location_id, probability)`` pairs — the retained
            candidate set ``S`` with ``P(x = i_k)``.
        end_id: The candidate end location ``j``.
        measurement: The measured direction and offset.
        config: Discretization intervals and the stay model.
        beta_scale: Speed-adaptive widening of the offset interval
            (``1.0`` = fixed-pedestrian model, bitwise-unchanged).
        dwell: Explicit dwell verdict forwarded to
            :func:`stay_probability`.

    Pairs unknown to the motion database contribute zero: the database is
    the authority on which hops are walkable.
    """
    total = 0.0
    for start_id, probability in prior:
        if probability <= 0.0:
            continue
        if start_id == end_id:
            total += probability * stay_probability(
                measurement, config, beta_scale, dwell
            )
        elif motion_db.has_pair(start_id, end_id):
            stats = motion_db.entry(start_id, end_id)
            total += probability * pair_probability(
                stats, measurement, config, beta_scale
            )
    return total
