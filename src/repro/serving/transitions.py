"""Batched Eq. 5/6 transition evaluation over the dense motion tensor.

Sequentially, every candidate pays ``|prior|`` dict lookups, each
constructing a :class:`~repro.core.motion_db.PairStatistics` (and its
``__post_init__`` validation) before the Gaussian-interval math runs.
The serving engine replaces that with one array pass per tick
(:meth:`TransitionEvaluator.evaluate_batch`): the tick's candidate ids
form a ``(B, K)`` block, the sessions' retained priors a ``(B, P)``
block padded with probability 0, and every (row, candidate, prior
entry) triple is classified at once as a self-transition, a pair the
:class:`~repro.core.motion_db.DenseMotionView` covers, or nothing.  The
Gaussian parameters are gathered for the covered pairs only and Eq. 5
runs element-wise over them.

Bitwise equivalence with
:func:`~repro.core.motion_matching.set_transition_probability` holds
because every value is computed by the reference's operations in the
reference's order:

* the dense view stores exactly the values :meth:`MotionDatabase.entry`
  returns;
* the circular direction difference, the interval bounds and the mass
  ``0.5 * (erf(high) - erf(low))`` are the element-wise float64 forms
  of :func:`~repro.core.motion_matching.gaussian_interval_probability`
  (numpy's ``remainder`` is Python's float ``%``), and ``erf`` is
  ``math.erf`` mapped over the gathered bounds (numpy has none), so
  each value is the libm call the reference makes;
* the mixture adds the prior's terms left to right
  (:func:`~repro.numeric.left_sum_rows`); entries the reference skips
  (probability ``<= 0``, pairs the database does not cover, padding)
  contribute ``+0.0``, which leaves a sum that started at ``0.0``
  unchanged.

Rows the pass cannot vouch for — an evaluated pair with a non-positive
standard deviation or interval width, on which the reference raises —
are reported as doubtful instead of computed.

:meth:`TransitionEvaluator.evaluate` is the single-vector form: a b=1
call into the same pass, behind a content-addressed LRU on whole Eq. 6
vectors (pure in ``(prior, end ids, measurement, speed state)``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import MoLocConfig
from ..core.motion_db import MotionDatabase
from ..core.motion_matching import set_transition_probability
from ..motion.rlm import MotionMeasurement
from ..numeric import left_sum_rows
from ..observability import MetricsRegistry

__all__ = ["TransitionEvaluator"]

_SQRT2 = math.sqrt(2.0)


def _interval_masses(
    mean: np.ndarray, std: np.ndarray, center: np.ndarray, width: np.ndarray
) -> np.ndarray:
    """Element-wise :func:`~repro.core.motion_matching.gaussian_interval_probability`.

    Where ``std`` or ``width`` is not positive the reference raises
    instead; the caller flags those rows and ignores their values.
    """
    half = width / 2.0
    low = (center - half - mean) / (std * _SQRT2)
    high = (center + half - mean) / (std * _SQRT2)
    bounds = np.concatenate([high, low])
    erf = np.fromiter(map(math.erf, bounds.tolist()), float, len(bounds))
    return 0.5 * (erf[: len(high)] - erf[len(high) :])


class TransitionEvaluator:
    """Eq. 6 evaluation for one motion database and config.

    Args:
        motion_db: The deployment's motion database.
        config: Discretization intervals and the stay model; must match
            the sessions' configuration (the engine enforces this).
        set_cache_size: Entries in the whole-vector LRU in front of
            :meth:`evaluate` (0 disables).
        metrics: Registry receiving the evaluator's metrics (a fresh
            one when omitted); the ``set_cache_*`` properties are views
            over its counters.
    """

    def __init__(
        self,
        motion_db: MotionDatabase,
        config: MoLocConfig,
        set_cache_size: int = 16384,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if set_cache_size < 0:
            raise ValueError(
                f"set_cache_size must be >= 0, got {set_cache_size}"
            )
        view = motion_db.dense_view()
        self._motion_db = motion_db
        self._config = config
        ids = np.asarray(view.location_ids, dtype=np.int64)
        self._sorter = np.argsort(ids, kind="stable")
        self._sorted_ids = ids[self._sorter]
        self._valid = view.valid
        self._direction_mean = view.direction_mean_deg
        self._direction_std = view.direction_std_deg
        self._offset_mean = view.offset_mean_m
        self._offset_std = view.offset_std_m
        self._set_cache_size = set_cache_size
        self._set_cache: "OrderedDict[tuple, List[float]]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_hits = self.metrics.counter("transitions.set_cache_hits")
        self._c_misses = self.metrics.counter("transitions.set_cache_misses")
        self._c_evictions = self.metrics.counter("transitions.evictions")
        self._c_pairs = self.metrics.counter("transitions.pairs_evaluated")

    @property
    def config(self) -> MoLocConfig:
        """The configuration the cached probabilities assume."""
        return self._config

    @property
    def set_cache_hits(self) -> int:
        """Whole-vector Eq. 6 lookups served from cache."""
        return self._c_hits.value

    @property
    def set_cache_misses(self) -> int:
        """Whole-vector Eq. 6 lookups that had to compute."""
        return self._c_misses.value

    def clear_caches(self) -> None:
        """Drop the vector LRU (and reset hit counters)."""
        self._set_cache.clear()
        self._c_hits.reset()
        self._c_misses.reset()

    def evaluate(
        self,
        prior: Sequence[Tuple[int, float]],
        end_ids: Sequence[int],
        measurement: MotionMeasurement,
        beta_scale: Optional[float] = None,
        dwell: Optional[bool] = None,
    ) -> List[float]:
        """Eq. 6 for every candidate end location, in order.

        Bitwise-identical to calling
        :func:`~repro.core.motion_matching.set_transition_probability`
        per end id with the same prior, measurement, config, and speed
        state — and raising where it raises.  ``beta_scale``/``dwell``
        are part of the vector's cache key: two sessions at different
        estimated speeds must not share a cached vector even when their
        priors and measurements agree.
        """
        prior_key = tuple(prior)
        ends_key = tuple(end_ids)
        direction = measurement.direction_deg
        offset = measurement.offset_m
        scale = 1.0 if beta_scale is None else beta_scale
        set_key = (prior_key, ends_key, direction, offset, scale, dwell)
        if self._set_cache_size > 0:
            cached = self._set_cache.get(set_key)
            if cached is not None:
                self._set_cache.move_to_end(set_key)
                self._c_hits.inc()
                return list(cached)
        self._c_misses.inc()

        values, doubtful = self.evaluate_batch(
            np.array(ends_key, dtype=np.int64).reshape(1, -1),
            [prior_key],
            [direction],
            [offset],
            [beta_scale],
            [dwell],
        )
        if doubtful[0]:
            # The reference raises on this vector: let it.
            vector = [
                set_transition_probability(
                    self._motion_db,
                    prior_key,
                    end_id,
                    measurement,
                    self._config,
                    scale,
                    dwell,
                )
                for end_id in ends_key
            ]
        else:
            vector = values[0].tolist()
        if self._set_cache_size > 0:
            self._set_cache[set_key] = vector
            if len(self._set_cache) > self._set_cache_size:
                self._set_cache.popitem(last=False)
                self._c_evictions.inc()
        return list(vector)

    def evaluate_batch(
        self,
        end_ids: np.ndarray,
        priors: Sequence[Sequence[Tuple[int, float]]],
        directions: Sequence[float],
        offsets: Sequence[float],
        beta_scales: Sequence[Optional[float]],
        dwells: Sequence[Optional[bool]],
        end_valid: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 6 for a ``(B, K)`` block of candidate ids, one pass.

        Args:
            end_ids: Row ``b`` holds session ``b``'s candidate ids.
            priors: Each session's retained ``(location_id, probability)``
                set, in retention order (ragged).
            directions: Each session's measured direction (degrees).
            offsets: Each session's measured offset (meters).
            beta_scales: Each session's offset-interval widening; None is
                the fixed model.
            dwells: Each session's explicit dwell verdict.
            end_valid: Optional ``(B, K)`` mask; False marks padding in
                a ragged block (its value is ``0.0``).

        Returns:
            ``(values, doubtful)``: the ``(B, K)`` Eq. 6 values, and a
            ``(B,)`` mask of rows on which the reference raises (an
            evaluated pair with a non-positive standard deviation or
            interval width); those rows' values are not meaningful.
        """
        n_rows = len(end_ids)
        if end_valid is None:
            end_valid = np.ones(end_ids.shape, dtype=bool)
        # Every (row, candidate) the reference scores, flattened in order.
        end_row, end_col = np.nonzero(end_valid)
        end_id = end_ids[end_row, end_col]
        # Every prior entry the reference evaluates — NaN probabilities
        # included, non-positive ones skipped — flattened in prior order,
        # with its position in its own prior.
        lengths = np.array([len(prior) for prior in priors], dtype=np.intp)
        prior_id = np.array(
            [lid for prior in priors for lid, _ in prior], dtype=np.int64
        )
        prior_p = np.array(
            [p for prior in priors for _, p in prior], dtype=float
        )
        prior_row = np.repeat(np.arange(n_rows), lengths)
        prior_pos = np.arange(len(prior_row)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        kept = ~(prior_p <= 0.0)
        prior_id, prior_p = prior_id[kept], prior_p[kept]
        prior_row, prior_pos = prior_row[kept], prior_pos[kept]

        # Pair each candidate with each evaluated entry of its row's
        # prior: pairs of one candidate are contiguous, in prior order.
        per_row = np.bincount(prior_row, minlength=n_rows)
        per_end = per_row[end_row]
        pair_end = np.repeat(np.arange(len(end_row)), per_end)
        pair_prior = np.arange(len(pair_end)) + np.repeat(
            (np.cumsum(per_row) - per_row)[end_row]
            - (np.cumsum(per_end) - per_end),
            per_end,
        )
        pair_row = end_row[pair_end]
        stay = prior_id[pair_prior] == end_id[pair_end]
        start_index = self._view_index(prior_id)[pair_prior]
        end_index = self._view_index(end_id)[pair_end]
        covered = ~stay & (start_index >= 0) & (end_index >= 0)
        covered[covered] = self._valid[start_index[covered], end_index[covered]]
        start_index, end_index = start_index[covered], end_index[covered]

        config = self._config
        directions = np.asarray(directions, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        scales = np.array(
            [1.0 if scale is None else scale for scale in beta_scales],
            dtype=float,
        )
        widths = config.beta_m * scales
        rows = pair_row[covered]
        direction_std = self._direction_std[start_index, end_index]
        offset_std = self._offset_std[start_index, end_index]
        delta = np.remainder(
            directions[rows] - self._direction_mean[start_index, end_index],
            360.0,
        )
        delta[delta >= 360.0] = 0.0
        delta = np.where(delta >= 180.0, delta - 360.0, delta)
        stay_centers = np.where(
            [bool(dwell) for dwell in dwells], 0.0, offsets
        )
        n_pairs = len(rows)
        masses = _interval_masses(
            mean=np.concatenate(
                [
                    np.zeros(n_pairs),
                    self._offset_mean[start_index, end_index],
                    np.zeros(n_rows),
                ]
            ),
            std=np.concatenate(
                [direction_std, offset_std, np.full(n_rows, config.stay_sigma_m)]
            ),
            center=np.concatenate([delta, offsets[rows], stay_centers]),
            width=np.concatenate(
                [np.full(n_pairs, config.alpha_deg), widths[rows], widths]
            ),
        )
        pair_masses = masses[:n_pairs] * masses[n_pairs : 2 * n_pairs]
        stay_masses = masses[2 * n_pairs :]

        # Each candidate's terms in its prior's positions, then Eq. 6's
        # mixture as a left-to-right sum over them.
        terms = np.zeros((len(end_row), int(lengths.max(initial=0))))
        pair_p = prior_p[pair_prior]
        pair_pos = prior_pos[pair_prior]
        terms[pair_end[covered], pair_pos[covered]] = (
            pair_p[covered] * pair_masses
        )
        terms[pair_end[stay], pair_pos[stay]] = (
            pair_p[stay] * stay_masses[pair_row[stay]]
        )
        values = np.zeros(end_ids.shape)
        values[end_row, end_col] = left_sum_rows(terms)

        doubtful = np.zeros(n_rows, dtype=bool)
        doubtful[rows[(direction_std <= 0.0) | (offset_std <= 0.0)]] = True
        evaluated = np.zeros(n_rows, dtype=bool)
        evaluated[pair_row[covered | stay]] = True
        doubtful |= (widths <= 0.0) & evaluated
        self._c_pairs.inc(len(pair_end))
        return values, doubtful

    def _view_index(self, ids: np.ndarray) -> np.ndarray:
        """Each id's dense-view index, -1 where the view does not cover it."""
        if len(self._sorted_ids) == 0:
            return np.full(ids.shape, -1)
        position = np.minimum(
            np.searchsorted(self._sorted_ids, ids), len(self._sorted_ids) - 1
        )
        return np.where(
            self._sorted_ids[position] == ids, self._sorter[position], -1
        )
