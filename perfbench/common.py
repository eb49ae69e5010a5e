"""Shared pieces of the serving benchmark: inputs, checks, statistics.

The deployment (site survey, AP layout, crowdsourced training walks) is
fixed, as it is for a building that is already surveyed.  The traffic is
what the ``--seed`` argument generates: every session replays its own
independently generated walk.  The program under test only ever sees
the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serving import (
    BatchedServingEngine,
    IntervalEvent,
    build_session_services,
    fix_stream_checksum,
    machine_speed_probe,
)
from repro.sim.crowdsource import generate_traces
from repro.sim.evaluation import MultiSessionWorkload, multi_session_workload
from repro.sim.experiments import Study
from repro.sim.scenario import build_scenario

DEPLOYMENT_SEED = 7
"""The surveyed building every run serves (the paper's seed-7 hall)."""

TRAINING_WALKS = 150
"""Crowdsourced walks the motion database is built from (paper volume)."""

N_APS = 6
SLO_S = 0.25
"""The per-interval latency limit (the ingress SLO, ``SLO_P99_S``)."""


class CheckFailed(RuntimeError):
    """A correctness check of the benchmark failed: the run is invalid."""


@dataclass
class Deployment:
    """The fixed building: survey, plan, and crowdsourced training walks."""

    scenario: object
    training: list
    config: object

    @property
    def plan(self):
        return self.scenario.plan


def build_deployment() -> Deployment:
    """The surveyed hall plus its training walks (not timed as set-up)."""
    scenario = build_scenario(seed=DEPLOYMENT_SEED)
    training = generate_traces(
        scenario, TRAINING_WALKS, np.random.default_rng([DEPLOYMENT_SEED, 10])
    )
    study = Study(scenario=scenario, training_traces=training, test_traces=[])
    return Deployment(scenario=scenario, training=training, config=study.config)


def generate_walks(deployment: Deployment, seed: int, n: int, stream: int) -> list:
    """``n`` independently generated test walks drawn from ``seed``."""
    return generate_traces(
        deployment.scenario,
        n,
        np.random.default_rng([seed, stream]),
        start_time_s=3600.0,
    )


def distinct_workload(walks: Sequence) -> MultiSessionWorkload:
    """One session per walk, every session starting at tick 0."""
    return multi_session_workload(walks, len(walks), corpus_size=None)


def build_motion_db(deployment: Deployment):
    """Crowdsource the motion database from the training walks."""
    study = Study(
        scenario=deployment.scenario,
        training_traces=deployment.training,
        test_traces=[],
        config=deployment.config,
    )
    fingerprint_db = study.fingerprint_db(N_APS)
    motion_db, _ = study.motion_db(N_APS)
    return fingerprint_db, motion_db


def build_services(deployment: Deployment, workload, fingerprint_db, motion_db):
    """One calibrated resilient service per session."""
    return build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        deployment.config,
        resilient=True,
        plan=deployment.plan,
    )


def tick_events(workload: MultiSessionWorkload) -> List[List[IntervalEvent]]:
    """The engine events of every tick (inputs, built before timing)."""
    return [
        [
            IntervalEvent(
                session_id=interval.session_id,
                scan=interval.scan,
                imu=interval.imu,
                sequence=interval.sequence,
            )
            for interval in tick
        ]
        for tick in workload.ticks
    ]


def ground_truth(workload: MultiSessionWorkload) -> Dict[str, List[int]]:
    """Per session, the true location of each interval's scan."""
    return {
        session_id: [trace.true_start] + [hop.true_to for hop in trace.hops]
        for session_id, trace in workload.sessions.items()
    }


def new_engine(deployment: Deployment, fingerprint_db, motion_db, services):
    """A batched engine with every session admitted."""
    engine = BatchedServingEngine(fingerprint_db, motion_db, deployment.config)
    for session_id, service in services.items():
        engine.add_session(session_id, service)
    return engine


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def stream_checksums(streams: Dict[str, Sequence[object]]) -> Dict[str, str]:
    """Per-session bit-level fix-stream checksums."""
    return {sid: fix_stream_checksum(stream) for sid, stream in streams.items()}


def combined_checksum(checksums: Dict[str, str]) -> str:
    """One checksum over every session's stream checksum."""
    digest = hashlib.sha256()
    for session_id in sorted(checksums):
        digest.update(f"{session_id}={checksums[session_id]};".encode())
    return digest.hexdigest()


def require_equal(got: object, want: object, what: str) -> None:
    """Fail the run unless ``got == want``."""
    if got != want:
        raise CheckFailed(f"{what}: {str(got)[:80]} != {str(want)[:80]}")


def require_streams_equal(
    got: Dict[str, Sequence[object]],
    want: Dict[str, Sequence[object]],
    what: str,
) -> str:
    """Fail unless two sets of fix streams agree bit for bit.

    Returns the combined checksum.
    """
    got_sums, want_sums = stream_checksums(got), stream_checksums(want)
    if got_sums != want_sums:
        differing = sorted(
            sid
            for sid in set(got_sums) | set(want_sums)
            if got_sums.get(sid) != want_sums.get(sid)
        )
        raise CheckFailed(
            f"{what}: {len(differing)} session streams differ "
            f"(first: {differing[:3]})"
        )
    return combined_checksum(got_sums)


def accuracy_of(plan, truth: Dict[str, List[int]], streams) -> Tuple[float, float, int]:
    """``(share of exact fixes, mean error in metres, fixes scored)``."""
    exact = 0
    errors: List[float] = []
    for session_id, fixes in streams.items():
        for true_id, fix in zip(truth[session_id], fixes):
            location_id = getattr(fix, "estimate", fix).location_id
            exact += location_id == true_id
            errors.append(plan.distance_between(true_id, location_id))
    if not errors:
        raise CheckFailed("no fixes to score")
    return exact / len(errors), float(np.mean(errors)), len(errors)


# ----------------------------------------------------------------------
# Statistics and timing
# ----------------------------------------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """A quantile of raw samples (linear interpolation), never of buckets."""
    if not len(samples):
        raise CheckFailed("quantile of an empty sample")
    return float(np.quantile(np.asarray(samples, dtype=float), q))


def median(values: Sequence[float]) -> float:
    if not values:
        raise CheckFailed("median of an empty sample")
    return float(statistics.median(values))


def mean(values) -> float:
    """Arithmetic mean of an iterable; 0 when it is empty."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def typical_ticks(passes: Sequence[Sequence[float]]) -> List[float]:
    """Per tick index, the median duration across passes.

    Every pass serves the same ticks, so a host stall that lands on one
    pass's tick 5 does not move the typical pass; a change that makes
    every tick 5 slower does.
    """
    widths = {len(durations) for durations in passes}
    if len(widths) != 1:
        raise CheckFailed(f"passes served different tick counts: {widths}")
    return [median(column) for column in zip(*passes)]


class quiet_gc:
    """Collect set-up garbage, then keep the collector out of a timed region."""

    def __enter__(self):
        gc.collect()
        gc.disable()
        return self

    def __exit__(self, *exc):
        gc.enable()
        return False


class frozen_heap:
    """Keep set-up objects out of the collector while a server runs.

    The benchmark process also holds every input and reference result;
    a real server process would not, so the collector of the server
    under test should not have to scan them.
    """

    def __enter__(self):
        gc.collect()
        gc.freeze()
        return self

    def __exit__(self, *exc):
        gc.unfreeze()
        return False


def machine_record() -> Dict[str, object]:
    """The machine a run's numbers come from, with its speed yardstick."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "run_on_cpus": sorted(os.sched_getaffinity(0)),
        "machine_speed_probe_s": machine_speed_probe(),
    }


class Yardstick:
    """A fixed kernel timed between the run's timed segments.

    A small shared host changes speed by up to 2x within seconds (a busy
    neighbour on the same core), so raw times of one workload spread by
    a fifth or more from run to run.  The kernel scores a vector against
    a small table the way a k-NN match does (small numpy array
    operations, a dict, a sort, interpreter arithmetic), and is sampled
    between ticks and around drives, so its samples see the host at the
    same instants as the program does.  :meth:`scale` is
    ``REFERENCE_S`` over the median sample of a segment: multiply a time
    measured in that segment by it to get the time at the reference
    speed.  The kernel uses no code of the program, so a change to the
    program moves the scaled figures and not the yardstick.
    """

    REFERENCE_S = 1.1e-3
    """A typical median time of the kernel on the host this benchmark was
    written on (2 CPUs of a shared x86-64 host, Python 3.11): scaled
    figures read as times on a host that runs the kernel this fast."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._vectors = [rng.normal(size=6) for _ in range(60)]
        self._table = rng.normal(size=(40, 6))
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns its duration in seconds."""
        started = time.perf_counter()
        total = 0.0
        for index, vector in enumerate(self._vectors):
            delta = self._table - vector
            weights = np.exp(-(delta * delta).sum(axis=1))
            best = int(np.argmax(weights))
            match = {"id": index, "best": best, "score": float(weights[best])}
            total += match["score"] * 0.5 + len(sorted(match))
            for i in range(60):
                total += i * 1e-9
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def scale(self, since: int = 0) -> float:
        """Reference time over the median of the samples from ``since`` on.

        Take ``since = len(yardstick.samples)`` before a timed segment
        that samples the yardstick as it goes, and scale the segment's
        times by what this returns after it: the phase the host was in
        during that segment cancels.
        """
        return self.REFERENCE_S / median(self.samples[since:])

    def record(self) -> Dict[str, object]:
        return {
            "yardstick_samples": len(self.samples),
            "yardstick_median_s": median(self.samples),
            "yardstick_scale": self.scale(),
        }


class Clock:
    """The run's measurement window."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline
