"""The tick's Eq. 4/6/7 array passes equal the sequential reference, bit for bit.

Hypothesis drives ragged candidate blocks, masks, ragged priors (zero
and negative probabilities, ids the motion database does not cover,
self-transitions, a prior over every location), speed states and tied
probabilities through the batched kernels:

* the matcher's ranking pass against ``select_candidates`` and
  ``candidates_from_ranked``;
* :meth:`TransitionEvaluator.evaluate_batch` rows against
  ``set_transition_probability``;
* :class:`TickPosteriors` rows against ``MoLocLocalizer.evaluate``.

Floats are compared through ``float.hex`` so ``0.0`` and ``-0.0`` (and
any last-bit difference) count as different.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MoLocConfig
from repro.core.fingerprint import Fingerprint, FingerprintDatabase
from repro.core.localizer import MoLocLocalizer
from repro.core.matching import candidates_from_ranked, select_candidates
from repro.core.motion_db import MotionDatabase, PairStatistics
from repro.core.motion_matching import set_transition_probability
from repro.motion.rlm import MotionMeasurement
from repro.serving import BatchMatcher, MatchRequest, TransitionEvaluator
from repro.serving.fusion import TickPosteriors
from repro.serving.scheduler import CandidateRow

N_APS = 6
LOCATION_IDS = (1, 2, 3, 5, 8, 13, 21, 34)
UNKNOWN_ID = 99  # matched candidates never carry it; the motion DB lacks it


def _fingerprint_db() -> FingerprintDatabase:
    base = [-45.0, -52.0, -60.0, -67.0, -75.0, -82.0]
    return FingerprintDatabase(
        {
            lid: Fingerprint.from_values(
                [v + 1.5 * (lid % 7) + 2.0 * (i % (lid % 5 + 1)) for i, v in enumerate(base)]
            )
            for lid in LOCATION_IDS
        }
    )


def _motion_db() -> MotionDatabase:
    entries = {}
    for i, start in enumerate(LOCATION_IDS):
        for j, end in enumerate(LOCATION_IDS):
            if j <= i or (i + j) % 3 == 0:  # i < j keys; some pairs unknown
                continue
            entries[(start, end)] = PairStatistics(
                direction_mean_deg=(37.0 * i + 91.0 * j) % 360.0,
                direction_std_deg=8.0 + i,
                offset_mean_m=1.5 + 0.7 * abs(i - j),
                offset_std_m=0.4 + 0.1 * j,
                n_observations=5,
            )
    return MotionDatabase(entries)


FDB = _fingerprint_db()
MDB = _motion_db()
CONFIG = MoLocConfig()

rss = st.floats(min_value=-95.0, max_value=-30.0)
queries = st.lists(rss, min_size=N_APS, max_size=N_APS).map(Fingerprint.from_values)
masks = st.one_of(
    st.none(),
    st.lists(st.booleans(), min_size=N_APS, max_size=N_APS).filter(any).map(tuple),
)
probabilities = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=1e-300, max_value=1e-3),
)
priors = st.one_of(
    st.lists(
        st.tuples(
            st.sampled_from(LOCATION_IDS + (UNKNOWN_ID,)),
            probabilities,
        ),
        min_size=0,
        max_size=len(LOCATION_IDS) + 1,
    ),
    # The coast seed: a prior over every location.
    st.lists(
        probabilities, min_size=len(LOCATION_IDS), max_size=len(LOCATION_IDS)
    ).map(lambda ps: list(zip(LOCATION_IDS, ps))),
)
end_rows = st.lists(
    st.sampled_from(LOCATION_IDS + (UNKNOWN_ID,)), min_size=1, max_size=10
)
speed_states = st.tuples(
    st.one_of(st.none(), st.floats(min_value=0.25, max_value=4.0)),
    st.sampled_from([None, True, False]),
)
motions = st.builds(
    MotionMeasurement,
    direction_deg=st.floats(min_value=-720.0, max_value=720.0),
    offset_m=st.floats(min_value=0.0, max_value=12.0),
)


def _hex(values):
    return [float(v).hex() for v in values]


def _estimate_bits(estimate):
    return (
        estimate.location_id,
        estimate.probability.hex(),
        estimate.used_motion,
        tuple(
            (
                c.location_id,
                c.dissimilarity.hex(),
                c.fingerprint_probability.hex(),
                c.probability.hex(),
            )
            for c in estimate.candidates
        ),
    )


# ----------------------------------------------------------------------
# Eq. 3/4: the ranking pass
# ----------------------------------------------------------------------


@given(
    batch=st.lists(
        st.tuples(queries, st.integers(min_value=1, max_value=12), masks),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_ranking_pass_equals_select_candidates(batch):
    """Ragged k across mask buckets: every row's arrays, and the
    candidates built from them, equal the sequential matcher bit for bit."""
    matcher = BatchMatcher(FDB, cache_size=0)
    rows = matcher.match_rows(
        [MatchRequest(fingerprint=q, k=k, active_aps=m) for q, k, m in batch]
    )
    for (query, k, mask), row in zip(batch, rows):
        expected = select_candidates(FDB, query, k, mask)
        ranked = [(c.location_id, c.dissimilarity) for c in expected]
        assert candidates_from_ranked(ranked) == expected
        assert list(row.candidates) == expected
        assert row.ids.tolist() == [c.location_id for c in expected]
        assert _hex(row.dissimilarities) == _hex(c.dissimilarity for c in expected)
        assert _hex(row.probabilities) == _hex(c.probability for c in expected)
        assert _hex(c.probability for c in row.candidates) == _hex(
            c.probability for c in expected
        )


def test_ranking_rejects_a_non_positive_k():
    matcher = BatchMatcher(FDB)
    query = FDB.fingerprint_of(LOCATION_IDS[0])
    with pytest.raises(ValueError, match="k must be >= 1"):
        matcher.match_batch([MatchRequest(fingerprint=query, k=0)])


# ----------------------------------------------------------------------
# Eq. 6: the transition pass
# ----------------------------------------------------------------------


def _padded(rows):
    width = max(len(row) for row in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    valid = np.zeros((len(rows), width), dtype=bool)
    for r, row in enumerate(rows):
        ids[r, : len(row)] = row
        valid[r, : len(row)] = True
    return ids, valid


@given(
    rows=st.lists(
        st.tuples(end_rows, priors, motions, speed_states), min_size=1, max_size=5
    )
)
@settings(max_examples=120, deadline=None)
def test_transition_rows_equal_set_transition_probability(rows):
    evaluator = TransitionEvaluator(MDB, CONFIG, set_cache_size=0)
    ids, valid = _padded([ends for ends, _, _, _ in rows])
    values, doubtful = evaluator.evaluate_batch(
        ids,
        [prior for _, prior, _, _ in rows],
        [motion.direction_deg for _, _, motion, _ in rows],
        [motion.offset_m for _, _, motion, _ in rows],
        [scale for _, _, _, (scale, _) in rows],
        [dwell for _, _, _, (_, dwell) in rows],
        end_valid=valid,
    )
    assert not doubtful.any()
    for r, (ends, prior, motion, (scale, dwell)) in enumerate(rows):
        expected = [
            set_transition_probability(
                MDB,
                prior,
                end,
                motion,
                CONFIG,
                1.0 if scale is None else scale,
                dwell,
            )
            for end in ends
        ]
        assert _hex(values[r, : len(ends)]) == _hex(expected)
        assert not values[r, len(ends) :].any()


@given(ends=end_rows, prior=priors, motion=motions, speed=speed_states)
@settings(max_examples=60, deadline=None)
def test_evaluate_is_the_single_row_pass(ends, prior, motion, speed):
    scale, dwell = speed
    evaluator = TransitionEvaluator(MDB, CONFIG)
    values = evaluator.evaluate(prior, ends, motion, scale, dwell)
    expected = [
        set_transition_probability(
            MDB, prior, end, motion, CONFIG, 1.0 if scale is None else scale, dwell
        )
        for end in ends
    ]
    assert _hex(values) == _hex(expected)


def test_a_row_the_reference_raises_on_is_doubtful():
    evaluator = TransitionEvaluator(MDB, CONFIG)
    motion = MotionMeasurement(direction_deg=10.0, offset_m=2.0)
    prior = [(LOCATION_IDS[0], 0.5), (LOCATION_IDS[1], 0.5)]
    ends = np.array([[LOCATION_IDS[1], LOCATION_IDS[2]]] * 2)
    _, doubtful = evaluator.evaluate_batch(
        ends, [prior, prior], [10.0, 10.0], [2.0, 2.0], [1.0, -1.0], [None, None]
    )
    assert doubtful.tolist() == [False, True]
    with pytest.raises(ValueError, match="width must be positive"):
        set_transition_probability(MDB, prior, LOCATION_IDS[1], motion, CONFIG, -1.0)
    with pytest.raises(ValueError, match="width must be positive"):
        evaluator.evaluate(prior, ends[1].tolist(), motion, beta_scale=-1.0)
    # With no positive prior entry the reference evaluates nothing.
    _, doubtful = evaluator.evaluate_batch(
        ends[:1], [[(LOCATION_IDS[0], 0.0)]], [10.0], [2.0], [-1.0], [None]
    )
    assert not doubtful.any()


# ----------------------------------------------------------------------
# Eq. 7: the fusion pass
# ----------------------------------------------------------------------

tie_values = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0 / 3.0])
candidate_rows = st.lists(
    st.tuples(
        st.sampled_from(LOCATION_IDS),
        st.floats(min_value=0.0, max_value=40.0),
        st.one_of(tie_values, st.floats(min_value=0.0, max_value=1.0)),
        st.one_of(tie_values, st.floats(min_value=0.0, max_value=1.0)),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda entry: entry[0],
)


def _candidate_row(row):
    return CandidateRow(
        np.array([lid for lid, _, _, _ in row], dtype=np.int64),
        np.array([d for _, d, _, _ in row]),
        np.array([p for _, _, p, _ in row]),
    )


@given(
    rows=st.lists(
        st.tuples(candidate_rows, st.booleans(), st.booleans()),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=150, deadline=None)
def test_fusion_rows_equal_localizer_evaluate(rows):
    """Zero support, exact ties, ragged rows, motion and no motion."""
    sets = [_candidate_row(row) for row, _, _ in rows]
    posteriors = TickPosteriors(sets)
    fused = [r for r, (_, has_motion, _) in enumerate(rows) if has_motion]
    if fused:
        width = posteriors.ids.shape[1]
        transitions = np.zeros((len(fused), width))
        for i, r in enumerate(fused):
            values = [t for _, _, _, t in rows[r][0]]
            transitions[i, : len(values)] = values
        posteriors.fuse(
            np.array(fused), transitions, np.zeros(len(fused), dtype=bool)
        )
    motion = MotionMeasurement(direction_deg=0.0, offset_m=1.0)
    for r, (row, has_motion, shed) in enumerate(rows):
        localizer = MoLocLocalizer(FDB, MDB, CONFIG)
        localizer.seed_candidates([(LOCATION_IDS[0], 1.0)])
        use_motion = has_motion and not shed
        expected = localizer.evaluate(
            list(sets[r].candidates),
            motion if use_motion else None,
            [t for _, _, _, t in row] if use_motion else None,
        )
        got = posteriors.estimate(r, wifi_only=shed)
        assert _estimate_bits(got) == _estimate_bits(expected)


def test_fusion_declines_rows_it_cannot_vouch_for():
    finite = _candidate_row([(1, 1.0, 0.5, 0.5), (2, 2.0, 0.5, 0.5)])
    nan_dissimilarity = _candidate_row([(1, math.nan, 0.5, 0.0), (2, 2.0, 0.5, 0.0)])
    posteriors = TickPosteriors([finite, nan_dissimilarity, finite, finite])
    posteriors.fuse(
        np.array([0, 2, 3]),
        np.array([[0.5, 0.25], [math.inf, 0.25], [0.5, 0.25]]),
        np.array([False, False, True]),
    )
    assert posteriors.estimate(0) is not None
    assert posteriors.estimate(1) is None
    assert posteriors.estimate(2) is None  # non-finite weight
    assert posteriors.estimate(3) is None  # doubtful Eq. 6 row
    # Shed to Eq. 4, a row's Eq. 6 values no longer matter.
    assert posteriors.estimate(2, wifi_only=True) is not None
    assert posteriors.estimate(3, wifi_only=True) is not None
