"""One tick mixing every path through the Eq. 4/6/7 array passes.

The batched engine ranks, scores and fuses a whole tick at once; each
session then adopts its row.  This tick puts every kind of row side by
side — a watchdog-widened k=24 next to k=12, a dead-AP mask, a coasting
session, a same-interval trust repair, speed-adaptive scoring, faults
injected at ``match`` and at ``complete``, and a ``LogicalClock`` tick
budget that sheds part of the tick — and requires every fix and every
session state to equal the sequential reference.

The shed set follows from where the engine reads the clock: once at
the tick's start, once when completion starts, then once per
motion-assisted completion, in event order.  With one second per reading
and a 4.5 s budget, the fourth such completion is the first one shed.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.io.serialize import fix_to_dict
from repro.motion.pedestrian import BodyProfile
from repro.robustness.health import FaultType, ServingMode
from repro.robustness.service import ResilientMoLocService
from repro.robustness.trust import ApTrustMonitor
from repro.serving import BatchedServingEngine, IntervalEvent, LogicalClock
from repro.serving.benchmark import build_session_services
from repro.sim.evaluation import multi_session_workload

N_SESSIONS = 10
WARMUP_TICKS = 4
BUDGET_S = 4.5
FIRST_SHED = 3  # readings: start, completion start, then 2, 3, 4 <= 4.5


@pytest.fixture()
def world(small_study):
    config = replace(small_study.config, speed_adaptive=True)
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    workload = multi_session_workload(
        small_study.test_traces, N_SESSIONS, corpus_size=None, stagger_ticks=0
    )

    def services():
        return build_session_services(
            workload,
            fingerprint_db,
            motion_db,
            config,
            make_service=lambda trace: ResilientMoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=config,
                plan=small_study.scenario.plan,
                trust=ApTrustMonitor(fingerprint_db.n_aps),
            ),
        )

    engine_services = services()
    engine = BatchedServingEngine(
        fingerprint_db,
        motion_db,
        config,
        clock=LogicalClock(auto_advance_s=1.0),
    )
    for session_id in sorted(engine_services):
        engine.add_session(session_id, engine_services[session_id])
    return engine, services(), workload


def _state(service) -> str:
    return json.dumps(service.state_dict(), sort_keys=True)


def _fix(fix) -> str:
    return json.dumps(fix_to_dict(fix), sort_keys=True)


def test_mixed_tick_equals_the_sequential_reference(world):
    engine, reference, workload = world
    sessions = sorted(workload.sessions)
    widened, dead, coasting, liar, match_fault, complete_fault = sessions[:6]

    def events_of(index):
        events = []
        for interval in workload.ticks[index]:
            scan = list(interval.scan)
            if interval.session_id == dead:
                scan[5] = -120.0  # below the floor every scan: a dead AP
            events.append(IntervalEvent(interval.session_id, scan, interval.imu))
        return events

    for index in range(WARMUP_TICKS):
        outcome = engine.tick_detailed(events_of(index))
        assert not outcome.faulted and not outcome.shed
        for event, fix in zip(events_of(index), outcome.fixes):
            want = reference[event.session_id].on_interval(event.scan, event.imu)
            assert _fix(fix) == _fix(want)

    # The mixed tick.
    for services in (engine.sessions.get(widened).service, reference[widened]):
        state = services.state_dict()
        state["widen_next"] = True
        services.load_state_dict(state)
    events = []
    for event in events_of(WARMUP_TICKS):
        if event.session_id == coasting:
            event = replace(event, scan=None)
        elif event.session_id == liar:
            scan = list(event.scan)
            scan[0] += 45.0
            event = replace(event, scan=scan)
        events.append(event)

    def injector(phase, session_id):
        if (phase, session_id) in {("match", match_fault), ("complete", complete_fault)}:
            raise RuntimeError(f"injected {phase} fault")

    engine.fault_injector = injector
    engine.tick_budget_s = BUDGET_S
    outcome = engine.tick_detailed(events)
    engine.fault_injector = None
    engine.tick_budget_s = None

    expected_fixes = {}
    eligible = []
    for event in events:
        service = reference[event.session_id]
        prepared = service.prepare_interval(event.scan, event.imu)
        if event.session_id in (match_fault, complete_fault):
            continue  # prepared, then faulted: no completion
        if prepared.motion is not None and prepared.fingerprint is not None:
            eligible.append(event.session_id)
            if len(eligible) > FIRST_SHED:
                prepared.motion = None
                prepared.mode = ServingMode.WIFI_ONLY
                prepared.faults.append(FaultType.DEADLINE_SHED)
        expected_fixes[event.session_id] = service.complete_interval(prepared)

    assert list(outcome.shed) == eligible[FIRST_SHED:]
    assert 0 < len(outcome.shed) < len(eligible)
    assert [(f.session_id, f.phase) for f in outcome.faulted] == [
        (match_fault, "match"),
        (complete_fault, "complete"),
    ]
    fixes = dict(zip((e.session_id for e in events), outcome.fixes))
    for session_id in sessions:
        want = expected_fixes.get(session_id)
        if want is None:
            assert fixes[session_id] is None
        else:
            assert _fix(fixes[session_id]) == _fix(want)
        assert _state(engine.sessions.get(session_id).service) == _state(
            reference[session_id]
        )

    # Every kind of row really was in the tick.
    assert len(fixes[widened].estimate.candidates) == 24
    assert len(fixes[sessions[6]].estimate.candidates) == 12
    assert FaultType.DEAD_AP in fixes[dead].health.faults
    assert fixes[coasting].health.mode is ServingMode.DEAD_RECKONING
    assert FaultType.ROGUE_AP_MASKED in fixes[liar].health.faults
    assert any(
        fixes[sid].estimate.used_motion
        for sid in eligible[:FIRST_SHED]
    )
    assert any(
        reference[sid].speed_estimator.beta_scale != 1.0 for sid in sessions
    )

    # The next tick carries the widened, repaired and shed state on.
    outcome = engine.tick_detailed(events_of(WARMUP_TICKS + 1))
    assert set(outcome.quarantined) == {match_fault, complete_fault}
    for event, fix in zip(events_of(WARMUP_TICKS + 1), outcome.fixes):
        if event.session_id in outcome.quarantined:
            continue
        want = reference[event.session_id].on_interval(event.scan, event.imu)
        assert _fix(fix) == _fix(want)
        assert _state(engine.sessions.get(event.session_id).service) == _state(
            reference[event.session_id]
        )
