"""The closed-loop workloads: ``distinct-walks`` and ``epoch-churn``.

Every session replays its own walk; all sessions start at tick 0 and the
harness feeds the batched engine one tick at a time (closed loop: the
next tick waits for the previous one).  Each measured pass sets the
deployment up from scratch, serves the ticks batched through
``BatchedServingEngine``, then serves the same intervals again one
``on_interval`` call at a time; the two fix streams must agree bit for
bit, and every pass must reproduce the first pass's checksum.  The
yardstick is sampled between ticks, so each serve's times can be scaled
to the reference speed by the samples taken while it ran.

``epoch-churn`` serves the same shape against an ``EpochalDatabase``:
after every tick the harness folds that tick's scans, attributed to
their ground-truth locations, into the next epoch and flips the engine
to it.  The sequential replay flips the same epochs, and the final epoch
checksum must equal an independent ``apply_updates`` fold.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.db.epochs import (
    EpochalDatabase,
    Observation,
    apply_updates,
    database_checksum,
)
from repro.sim.evaluation import MultiSessionWorkload

from common import (
    SLO_S,
    CheckFailed,
    Clock,
    Yardstick,
    accuracy_of,
    build_motion_db,
    build_services,
    distinct_workload,
    generate_walks,
    ground_truth,
    mean,
    median,
    new_engine,
    quantile,
    quiet_gc,
    require_equal,
    require_streams_equal,
    tick_events,
    typical_ticks,
)
from spans import LayerTrace

SESSIONS = 272
"""Concurrent sessions: 8 independently generated sets of 34 test walks."""

WARMUP_SESSIONS = 34

RECONCILE_TOLERANCE = 0.05
"""Largest share of the traced serving wall clock the layer spans may
leave unaccounted (harness bookkeeping between ticks) before the traced
run fails."""

BYPASSED = ("ingress.", "cluster.", "generator.")
"""Layers a closed-loop run never enters; their per-layer figures are 0."""


@dataclass
class Inputs:
    workload: object
    events: list
    truth: Dict[str, List[int]]
    updates: Optional[list]

    @property
    def n_intervals(self) -> int:
        return sum(len(tick) for tick in self.events)


def make_inputs(deployment, seed: int, sessions: int, churn: bool) -> Inputs:
    """Seeded walks, their tick events, and (for churn) per-tick updates."""
    workload = distinct_workload(generate_walks(deployment, seed, sessions, 11))
    truth = ground_truth(workload)
    updates = None
    if churn:
        updates = [
            [
                Observation(
                    location_id=truth[interval.session_id][interval.sequence],
                    rss=interval.scan,
                )
                for interval in tick
            ]
            for tick in workload.ticks
        ]
    return Inputs(workload, tick_events(workload), truth, updates)


@dataclass
class Pass:
    """One pass's raw times, and the yardstick scale of each timed segment."""

    setup: Dict[str, float]
    batched_ticks: List[float]
    batched_latencies: List[float]
    batched_wall_s: float
    batched_served: List[int]
    sequential_ticks: List[float]
    batched_scale: float
    sequential_scale: float
    served: int
    attempted: int
    checksum: str
    streams: Dict[str, list] = field(repr=False)
    epoch_checksum: Optional[str] = None

    def scaled_batched(self) -> List[float]:
        return [t * self.batched_scale for t in self.batched_ticks]

    def scaled_latencies(self) -> List[float]:
        return [t * self.batched_scale for t in self.batched_latencies]

    def scaled_sequential(self) -> List[float]:
        return [t * self.sequential_scale for t in self.sequential_ticks]


def _setup(deployment, inputs: Inputs, churn: bool):
    started = time.perf_counter()
    fingerprint_db, motion_db = build_motion_db(deployment)
    built_db = time.perf_counter()
    services = build_services(deployment, inputs.workload, fingerprint_db, motion_db)
    built_services = time.perf_counter()
    database = EpochalDatabase(fingerprint_db) if churn else fingerprint_db
    engine = new_engine(deployment, database, motion_db, services)
    done = time.perf_counter()
    setup = {
        "motion_db_s": built_db - started,
        "services_s": built_services - built_db,
        "engine_s": done - built_services,
        "shards_s": 0.0,
    }
    return setup, fingerprint_db, motion_db, engine


def _serve_batched(engine, inputs: Inputs, yardstick: Yardstick):
    """Serve every tick batched; flip an epoch after each tick for churn.

    The yardstick is sampled between ticks; its time is left out of the
    serving wall clock.  Returns the times with the segment's scale.
    """
    durations: List[float] = []
    latencies: List[float] = []
    streams: Dict[str, list] = {sid: [] for sid in inputs.workload.sessions}
    served: List[int] = []
    first = len(yardstick.samples)
    yardstick_s = yardstick.sample()
    loop_started = time.perf_counter()
    for index, events in enumerate(inputs.events):
        started = time.perf_counter()
        outcome = engine.tick_detailed(events)
        answered = time.perf_counter()
        if inputs.updates is not None:
            engine.advance_epoch(inputs.updates[index])
        durations.append(time.perf_counter() - started)
        latencies.append(answered - started)
        served.append(len(outcome.served))
        for event, fix in zip(events, outcome.fixes):
            streams[event.session_id].append(fix)
        yardstick_s += yardstick.sample()
    wall_s = time.perf_counter() - loop_started - yardstick_s
    return durations, latencies, wall_s, streams, served, yardstick.scale(first)


def _serve_sequential(services, fingerprint_db, inputs: Inputs, yardstick: Yardstick):
    """The same intervals one ``on_interval`` call at a time."""
    epochal = None if inputs.updates is None else EpochalDatabase(fingerprint_db)
    durations: List[float] = []
    streams: Dict[str, list] = {sid: [] for sid in inputs.workload.sessions}
    first = len(yardstick.samples)
    yardstick.sample()
    for index, events in enumerate(inputs.events):
        started = time.perf_counter()
        for event in events:
            streams[event.session_id].append(
                services[event.session_id].on_interval(event.scan, event.imu)
            )
        if epochal is not None:
            snapshot = epochal.advance_epoch(inputs.updates[index])
            for service in services.values():
                service.localizer.fingerprint_db = snapshot.database
        durations.append(time.perf_counter() - started)
        yardstick.sample()
    return durations, streams, epochal, yardstick.scale(first)


def _independent_fold(fingerprint_db, updates) -> str:
    database = fingerprint_db
    for batch in updates:
        database = apply_updates(database, batch)
    return database_checksum(database)


def run_pass(
    deployment,
    inputs: Inputs,
    churn: bool,
    yardstick: Yardstick,
    trace: Optional[LayerTrace] = None,
    corrupt: Optional[str] = None,
) -> Pass:
    setup, fingerprint_db, motion_db, engine = _setup(deployment, inputs, churn)
    with quiet_gc():
        if trace is None:
            batched = _serve_batched(engine, inputs, yardstick)
        else:
            with trace:
                batched = _serve_batched(engine, inputs, yardstick)
    durations, latencies, wall_s, streams, served, batched_scale = batched
    services = build_services(deployment, inputs.workload, fingerprint_db, motion_db)
    with quiet_gc():
        sequential_ticks, sequential_streams, epochal, sequential_scale = _serve_sequential(
            services, fingerprint_db, inputs, yardstick
        )
    if corrupt == "batched-stream":
        first = next(iter(streams))
        streams[first] = streams[first][:-1] + [None]
    checksum = require_streams_equal(
        streams, sequential_streams, "batched vs sequential fix streams"
    )
    epoch_checksum = None
    if churn:
        want = _independent_fold(fingerprint_db, inputs.updates)
        got = engine.epochal_db.checksum
        if corrupt == "epoch-checksum":
            got = got[::-1]
        require_equal(got, want, "engine epoch vs independent apply_updates fold")
        require_equal(epochal.checksum, want, "sequential replay epoch vs fold")
        require_equal(engine.epoch_id, len(inputs.updates), "epochs flipped")
        epoch_checksum = got
    return Pass(
        setup=setup,
        batched_ticks=durations,
        batched_latencies=latencies,
        batched_wall_s=wall_s,
        batched_served=served,
        sequential_ticks=sequential_ticks,
        batched_scale=batched_scale,
        sequential_scale=sequential_scale,
        served=sum(served),
        attempted=inputs.n_intervals,
        checksum=checksum,
        streams=streams,
        epoch_checksum=epoch_checksum,
    )


def _scaled(workload: MultiSessionWorkload, n_sessions: int) -> MultiSessionWorkload:
    """The first ``n_sessions`` sessions of a workload (warm-up slices)."""
    keep = set(list(workload.sessions)[:n_sessions])
    return dataclasses.replace(
        workload,
        sessions={sid: t for sid, t in workload.sessions.items() if sid in keep},
        ticks=[[i for i in tick if i.session_id in keep] for tick in workload.ticks],
    )


def _warm_up(deployment, inputs: Inputs, churn: bool) -> None:
    """One untimed pass over a slice: imports, allocator, lazy set-up."""
    workload = _scaled(inputs.workload, WARMUP_SESSIONS)
    warm = Inputs(workload, tick_events(workload), inputs.truth, inputs.updates)
    run_pass(deployment, warm, churn, Yardstick())


def run(
    deployment,
    seed: int,
    seconds: float,
    traced: bool,
    churn: bool,
    sessions: int = SESSIONS,
    min_passes: int = 3,
    corrupt: Optional[str] = None,
):
    """Measure one closed-loop workload; returns ``(metrics, record, attempted, failed)``."""
    inputs = make_inputs(deployment, seed, sessions, churn)
    _warm_up(deployment, inputs, churn)
    trace = LayerTrace() if traced else None
    yardstick = Yardstick()
    clock = Clock(seconds)
    passes: List[Pass] = []
    traced_flags: List[bool] = []
    while len(passes) < min_passes or not clock.expired():
        # Traced runs alternate traced and untraced passes so the
        # tracing overhead is measured on the same host phase.
        use_trace = traced and len(passes) % 2 == 1
        passes.append(
            run_pass(
                deployment, inputs, churn, yardstick, trace if use_trace else None, corrupt
            )
        )
        traced_flags.append(use_trace)
        require_equal(passes[-1].checksum, passes[0].checksum, "fix streams across passes")
        if len(passes) > 1:
            passes[-1].streams = {}  # equal to the first pass's; free them

    n = inputs.n_intervals
    attempted = sum(p.attempted for p in passes)
    served = sum(p.served for p in passes)
    accuracy, mean_error_m, scored = accuracy_of(
        deployment.plan, inputs.truth, passes[0].streams
    )
    widths = [len(events) for events in inputs.events]
    record = {
        "passes": len(passes),
        "intervals_per_pass": n,
        "sessions": len(inputs.workload.sessions),
        "ticks": len(inputs.events),
        "checksum": passes[0].checksum,
        "epoch_checksum": passes[0].epoch_checksum,
        "accuracy": accuracy,
        "mean_error_m": mean_error_m,
        "fixes_scored": scored,
        "batched_tick_s": [p.batched_ticks for p in passes],
        "sequential_tick_s": [p.sequential_ticks for p in passes],
        "batched_scale": [p.batched_scale for p in passes],
        "sequential_scale": [p.sequential_scale for p in passes],
        **yardstick.record(),
    }
    setup = {key: median([p.setup[key] for p in passes]) for key in passes[0].setup}

    if not traced:
        # Every time is scaled to the yardstick's reference speed by the
        # scale of the segment it was measured in; set-up directly
        # precedes the batched segment.
        latencies = [p.scaled_latencies() for p in passes]
        typical = typical_ticks(latencies)
        samples = [tick_s for width, tick_s in zip(widths, typical) for _ in range(width)]
        in_slo = sum(
            count
            for p, scaled in zip(passes, latencies)
            for count, tick_s in zip(p.batched_served, scaled)
            if tick_s <= SLO_S
        )
        batched_s = sum(typical_ticks([p.scaled_batched() for p in passes]))
        sequential_s = sum(typical_ticks([p.scaled_sequential() for p in passes]))
        setup_s = median([sum(p.setup.values()) * p.batched_scale for p in passes])
        record["latency_samples"] = len(samples)
        record["unscaled"] = {
            "setup_s": sum(setup.values()),
            "throughput_ips": n / sum(typical_ticks([p.batched_ticks for p in passes])),
            "sequential_ips": n / sum(typical_ticks([p.sequential_ticks for p in passes])),
        }
        metrics = {
            "setup_s": setup_s,
            "throughput_ips": n / batched_s,
            "sequential_ips": n / sequential_s,
            "latency_p50_ms": quantile(samples, 0.50) * 1e3,
            "latency_p99_ms": quantile(samples, 0.99) * 1e3,
            "slo_met_share": in_slo / attempted,
            "served_share": served / attempted,
            "accuracy": accuracy,
        }
        return metrics, record, attempted, attempted - served

    traced_passes = [p for p, t in zip(passes, traced_flags) if t]
    traced_time = sum(typical_ticks([p.scaled_batched() for p in traced_passes]))
    untraced = [p for p, t in zip(passes, traced_flags) if not t]
    untraced_time = sum(typical_ticks([p.scaled_batched() for p in untraced]))
    wall_s = sum(p.batched_wall_s for p in traced_passes)
    unaccounted = (wall_s - trace.covered_s()) / wall_s
    negative = trace.negative_self_spans()
    if negative:
        raise CheckFailed(f"negative self time in spans {negative}")
    if abs(unaccounted) > RECONCILE_TOLERANCE:
        raise CheckFailed(
            f"layers leave {unaccounted:.1%} of wall clock unaccounted "
            f"(tolerance {RECONCILE_TOLERANCE:.0%})"
        )
    metrics = trace.layer_metrics(n * len(traced_passes))
    # Every tick after the first follows a flip on epoch-churn.
    post_flip = (
        [tick_s for p in traced_passes for tick_s in p.batched_latencies[1:]]
        if churn
        else []
    )
    metrics.update(
        {
            "epochs.post_flip_tick_ms": mean(post_flip) * 1e3,
            "setup.motion_db_s": setup["motion_db_s"],
            "setup.services_s": setup["services_s"],
            "setup.engine_s": setup["engine_s"],
            "setup.shards_s": setup["shards_s"],
            "localizer.mean_error_m": mean_error_m,
            "trace.overhead_ratio": traced_time / untraced_time - 1.0,
            "trace.unaccounted_ratio": unaccounted,
            "latency.samples": float(n),
        }
    )
    record["traced_passes"] = len(traced_passes)
    return metrics, record, attempted, attempted - served
