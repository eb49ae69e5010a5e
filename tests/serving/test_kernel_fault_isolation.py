"""A malformed IMU segment in a batched tick costs only its own session.

The engine runs one IMU kernel pass over the whole tick before any
session is prepared.  A segment the pass declines must fall back to the
per-segment path inside its own session's fault barrier: that session
is faulted, or served, exactly as the sequential service handles the
same input, every other session's fix equals ``on_interval``, and the
``prepare`` fault-injection seam still fires once per session.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.io.serialize import fix_to_dict
from repro.robustness.health import FaultType
from repro.serving import BatchedServingEngine, IntervalEvent
from repro.serving.benchmark import build_session_services
from repro.sim.evaluation import multi_session_workload


@pytest.fixture()
def world(small_study):
    fingerprint_db = small_study.fingerprint_db(6)
    motion_db, _ = small_study.motion_db(6)
    workload = multi_session_workload(
        small_study.test_traces, 6, corpus_size=None, stagger_ticks=0
    )

    def services():
        return build_session_services(
            workload, fingerprint_db, motion_db, small_study.config
        )

    engine = BatchedServingEngine(fingerprint_db, motion_db, small_study.config)
    for session_id, service in services().items():
        engine.add_session(session_id, service)
    return engine, services(), workload


def _malformed(imu, how):
    if how == "strings":
        samples = np.array(["x"] * len(imu.accel.samples))
    else:
        samples = imu.accel.samples.copy()
        samples[len(samples) // 2] = np.nan
    return replace(imu, accel=replace(imu.accel, samples=samples))


def test_malformed_segment_is_isolated_to_its_session(world):
    engine, reference, workload = world
    sessions = sorted(workload.sessions)
    raising, degraded = sessions[0], sessions[1]
    injected = []
    engine.fault_injector = lambda phase, session_id: injected.append(
        (phase, session_id)
    )

    for index, tick in enumerate(workload.ticks[:4]):
        events = []
        for interval in tick:
            imu = interval.imu
            if index == 2 and imu is not None:
                if interval.session_id == raising:
                    imu = _malformed(imu, "strings")
                elif interval.session_id == degraded:
                    imu = _malformed(imu, "nan")
            events.append(
                IntervalEvent(interval.session_id, interval.scan, imu)
            )
        del injected[:]
        outcome = engine.tick_detailed(events)

        prepared = [sid for phase, sid in injected if phase == "prepare"]
        assert sorted(prepared) == sorted(
            e.session_id for e in events if e.session_id not in outcome.quarantined
        )
        fixes = dict(zip((e.session_id for e in events), outcome.fixes))
        for event in events:
            service = reference[event.session_id]
            if index == 2 and event.session_id == raising:
                with pytest.raises(ValueError):
                    service.on_interval(event.scan, event.imu)
                assert fixes[raising] is None
                assert [f.session_id for f in outcome.faulted] == [raising]
                assert outcome.faulted[0].phase == "prepare"
                continue
            if index > 2 and event.session_id == raising:
                continue  # quarantined after the fault
            want = service.on_interval(event.scan, event.imu)
            assert fix_to_dict(fixes[event.session_id]) == fix_to_dict(want)
        if index == 2:
            assert degraded in outcome.served
            assert FaultType.IMU_DROPOUT in fixes[degraded].health.faults
