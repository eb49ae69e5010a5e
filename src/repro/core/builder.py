"""Motion-database construction from crowdsourced RLMs (paper Sec. IV-B2).

The builder accumulates :class:`~repro.motion.rlm.RlmObservation` records
produced by crowdsourcing users, then applies the paper's sanitation
pipeline:

1. **Data reassembling** — every observation is keyed with the smaller
   location id as start, mirroring the measurement (direction + 180, same
   offset) when needed, so each walk trains both directions at once.
2. **Coarse filtering** — each measurement is compared against the RLM
   computed from the two locations' map coordinates; measurements more
   than 20 degrees or 3 m away (defaults) are discarded.  This is what
   removes RLMs whose endpoints were *mislocalized* by fingerprinting.
3. **Fine filtering** — the survivors of each pair are fit to Gaussians
   and measurements beyond two standard deviations from the mean are
   dropped; the Gaussians are refit on what remains.

Pairs with too few surviving measurements are omitted from the database.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..env.floorplan import FloorPlan
from ..env.geometry import (
    bearing_between,
    bearing_difference,
    circular_mean,
    circular_std,
)
from ..motion.rlm import MotionMeasurement, RlmObservation
from ..numeric import left_sum
from .config import MoLocConfig
from .motion_db import MotionDatabase, PairStatistics

__all__ = ["SanitationReport", "MotionDatabaseBuilder"]


@dataclass
class SanitationReport:
    """Bookkeeping of what the sanitation pipeline did.

    Attributes:
        total_observations: Raw RLMs fed to the builder.
        coarse_rejected: Dropped by the coarse map-based filter.
        fine_rejected: Dropped by the fine two-sigma filter.
        pairs_rejected_sparse: Pairs omitted for insufficient support.
        pairs_stored: Pairs that made it into the database.
    """

    total_observations: int = 0
    coarse_rejected: int = 0
    fine_rejected: int = 0
    pairs_rejected_sparse: int = 0
    pairs_stored: int = 0


class MotionDatabaseBuilder:
    """Accumulates crowdsourced RLM observations and builds the database.

    Args:
        plan: Floor plan supplying the coordinates the coarse filter
            checks measurements against.
        config: Thresholds and floors; see :class:`MoLocConfig`.
        enable_coarse_filter: Ablation switch for the map-based filter.
        enable_fine_filter: Ablation switch for the two-sigma filter.
    """

    def __init__(
        self,
        plan: FloorPlan,
        config: MoLocConfig = MoLocConfig(),
        enable_coarse_filter: bool = True,
        enable_fine_filter: bool = True,
    ) -> None:
        self.plan = plan
        self.config = config
        self.enable_coarse_filter = enable_coarse_filter
        self.enable_fine_filter = enable_fine_filter
        self._raw: Dict[Tuple[int, int], List[MotionMeasurement]] = defaultdict(list)
        self._n_added = 0

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------

    def add_observation(self, observation: RlmObservation) -> None:
        """Add one crowdsourced RLM (reassembled before storage).

        Observations whose endpoints coincide (the user was localized at
        the same place twice) carry no relative information and are
        ignored.
        """
        if observation.start_id == observation.end_id:
            return
        if observation.start_id not in self.plan or observation.end_id not in self.plan:
            raise ValueError(
                f"observation references unknown locations "
                f"({observation.start_id}, {observation.end_id})"
            )
        reassembled = observation.reassembled()
        self._raw[(reassembled.start_id, reassembled.end_id)].append(
            reassembled.measurement
        )
        self._n_added += 1

    def add_observations(self, observations: Iterable[RlmObservation]) -> None:
        """Add many observations."""
        for observation in observations:
            self.add_observation(observation)

    @property
    def n_observations(self) -> int:
        """How many usable observations have been added so far."""
        return self._n_added

    # ------------------------------------------------------------------
    # Sanitation + build
    # ------------------------------------------------------------------

    def _map_rlm(self, start_id: int, end_id: int) -> Tuple[float, float]:
        """Direction and offset computed from map coordinates (coarse ref)."""
        a = self.plan.position_of(start_id)
        b = self.plan.position_of(end_id)
        return bearing_between(a, b), a.distance_to(b)

    def _coarse_filter(
        self, pair: Tuple[int, int], measurements: List[MotionMeasurement]
    ) -> Tuple[List[MotionMeasurement], int]:
        """Drop measurements far from the coordinate-computed RLM."""
        map_direction, map_offset = self._map_rlm(*pair)
        kept = [
            m
            for m in measurements
            if bearing_difference(m.direction_deg, map_direction)
            <= self.config.coarse_direction_threshold_deg
            and abs(m.offset_m - map_offset) <= self.config.coarse_offset_threshold_m
        ]
        return kept, len(measurements) - len(kept)

    def _fine_filter(
        self, measurements: List[MotionMeasurement]
    ) -> Tuple[List[MotionMeasurement], int]:
        """Drop measurements beyond ``fine_sigma_multiplier`` sigmas."""
        directions = [m.direction_deg for m in measurements]
        offsets = [m.offset_m for m in measurements]
        mu_d = circular_mean(directions)
        sigma_d = max(circular_std(directions), self.config.min_direction_std_deg)
        mu_o = left_sum(offsets) / len(offsets)
        variance = left_sum((o - mu_o) ** 2 for o in offsets) / len(offsets)
        sigma_o = max(variance**0.5, self.config.min_offset_std_m)

        limit = self.config.fine_sigma_multiplier
        kept = [
            m
            for m in measurements
            if bearing_difference(m.direction_deg, mu_d) <= limit * sigma_d
            and abs(m.offset_m - mu_o) <= limit * sigma_o
        ]
        return kept, len(measurements) - len(kept)

    def _fit(self, measurements: List[MotionMeasurement]) -> PairStatistics:
        """Fit the stored Gaussian quadruple to sanitized measurements."""
        directions = [m.direction_deg for m in measurements]
        offsets = [m.offset_m for m in measurements]
        mu_o = left_sum(offsets) / len(offsets)
        variance = left_sum((o - mu_o) ** 2 for o in offsets) / len(offsets)
        return PairStatistics(
            direction_mean_deg=circular_mean(directions),
            direction_std_deg=max(
                circular_std(directions), self.config.min_direction_std_deg
            ),
            offset_mean_m=mu_o,
            offset_std_m=max(variance**0.5, self.config.min_offset_std_m),
            n_observations=len(measurements),
        )

    def build(self) -> Tuple[MotionDatabase, SanitationReport]:
        """Run the sanitation pipeline and produce the motion database."""
        report = SanitationReport(total_observations=self._n_added)
        entries: Dict[Tuple[int, int], PairStatistics] = {}

        for pair, measurements in sorted(self._raw.items()):
            survivors = list(measurements)
            if self.enable_coarse_filter and survivors:
                survivors, dropped = self._coarse_filter(pair, survivors)
                report.coarse_rejected += dropped
            if self.enable_fine_filter and survivors:
                survivors, dropped = self._fine_filter(survivors)
                report.fine_rejected += dropped
            if len(survivors) < self.config.min_observations:
                report.pairs_rejected_sparse += 1
                continue
            entries[pair] = self._fit(survivors)
            report.pairs_stored += 1

        return MotionDatabase(entries), report
