"""Traced runs: self time per layer, from timing wrappers the benchmark installs.

Nothing inside the program is changed.  For the traced run the benchmark
wraps the public functions each layer exposes (the engine tick, the
service phases, the sanitizer, the matcher, ...) with a timer; a span's
*self* time is its duration minus the spans that ran inside it on the
same thread, so the self times of all spans add up to the time the
outermost spans covered.  The rest of the measured wall clock is
reported as unaccounted.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.ingress.server as ingress_module
import repro.motion.heading as heading_module
import repro.robustness.service as resilient_module
import repro.service as service_module
import repro.serving.engine as engine_module
from repro.robustness.sanitizer import ScanSanitizer
from repro.robustness.service import ResilientMoLocService
from repro.robustness.watchdog import DivergenceWatchdog
from repro.serving import BatchedServingEngine, BatchMatcher, TransitionEvaluator
from repro.service import MoLocService

from common import mean

OnExit = Callable[[tuple, object, float], None]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[float] = []
        self.table: Optional[Dict[str, List[float]]] = None
        self.last: Dict[str, float] = {}


class SpanRecorder:
    """Per-thread span stacks merged into one table of calls and times.

    Each thread owns its table, so shard executor threads never race on
    a shared counter; :meth:`totals` merges them.
    """

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._tables: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()

    def _table(self) -> Dict[str, List[float]]:
        state = self._state
        if state.table is None:
            state.table = {}
            with self._lock:
                self._tables.append(state.table)
        return state.table

    def last(self, name: str) -> float:
        """This thread's most recent duration of span ``name``."""
        return self._state.last.get(name, 0.0)

    def wrap(self, name: str, fn: Callable, on_exit: Optional[OnExit] = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_exit(args, result, seconds)``
        runs after each successful call."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = self._state
            table = self._table()
            stack = state.stack
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                inner = stack.pop()
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                state.last[name] = elapsed
            if on_exit is not None:
                on_exit(args, result, elapsed)
            return result

        return timed

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{span: (calls, total seconds, self seconds)}`` over all threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, total, own) in list(table.items()):
                    row = merged.setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += total
                    row[2] += own
        return {name: tuple(row) for name, row in merged.items()}


class LayerTrace:
    """The layer spans of one traced run, plus what they saw.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.engines: Dict[int, object] = {}
        self.matchers: Dict[int, object] = {}
        self.evaluators: Dict[int, object] = {}
        self.match_queries = 0
        self.ticks: List[Tuple[int, float, Dict[str, float]]] = []
        self.flips: List[Tuple[int, float]] = []
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # -- what the wrappers observe ------------------------------------

    def _on_tick(self, args, outcome, elapsed) -> None:
        engine, events = args[0], args[1]
        with self._lock:
            self.engines[id(engine)] = engine
            self.evaluators[id(engine.transitions)] = engine.transitions
            self.ticks.append((len(events), elapsed, engine.last_tick_phases))

    def _on_flip(self, args, snapshot, elapsed) -> None:
        updates = args[1] if len(args) > 1 else None
        with self._lock:
            self.flips.append((0 if updates is None else len(updates), elapsed))

    def _on_match(self, args, result, elapsed) -> None:
        matcher, requests = args[0], args[1]
        with self._lock:
            self.matchers[id(matcher)] = matcher
            self.match_queries += len(requests)

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_exit: Optional[OnExit] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(name, original, on_exit))

    def __enter__(self) -> "LayerTrace":
        patch = self._patch
        patch(BatchedServingEngine, "tick_detailed", "engine.tick", self._on_tick)
        patch(BatchedServingEngine, "advance_epoch", "epochs.flip", self._on_flip)
        patch(ResilientMoLocService, "prepare_interval", "service.prepare")
        patch(ResilientMoLocService, "complete_interval", "service.complete")
        patch(MoLocService, "extract_motion", "motion.extract")
        patch(ScanSanitizer, "sanitize", "robustness.sanitize")
        patch(engine_module, "check_imu", "robustness.imu_check")
        patch(resilient_module, "check_imu", "robustness.imu_check")
        patch(service_module, "count_steps_csc", "motion.step_count")
        patch(service_module, "fused_course_from_segment", "motion.heading")
        patch(heading_module, "course_from_readings", "motion.heading")
        patch(DivergenceWatchdog, "observe", "robustness.watchdog")
        patch(BatchMatcher, "match_batch", "match", self._on_match)
        patch(TransitionEvaluator, "evaluate", "transitions")
        # The ingress server's own wire codec: request decode before the
        # accept stamp, reply encode after the answer stamp.
        for name in ("decode_message", "event_from_dict", "fix_to_dict", "encode_message"):
            patch(ingress_module, name, "ingress.codec")
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def wrap_shard(self, shard, on_rpc: OnExit) -> None:
        """Time one shard transport's ``request`` as the cluster RPC span."""
        shard.request = self.recorder.wrap("cluster.rpc", shard.request, on_rpc)

    # -- reporting ------------------------------------------------------

    def layer_metrics(self, intervals: int) -> Dict[str, float]:
        """Per-layer figures over everything recorded since the last reset."""
        totals = self.recorder.totals()

        def own_us(name: str) -> float:
            return totals.get(name, (0, 0.0, 0.0))[2] / intervals * 1e6

        phase_s: Dict[str, float] = {}
        for _, _, phases in self.ticks:
            for phase, seconds in phases.items():
                phase_s[phase] = phase_s.get(phase, 0.0) + seconds
        widths = [width for width, _, _ in self.ticks]
        tick_s = [seconds for _, seconds, _ in self.ticks]

        def hits_lookups(owners, hits: str, misses: str) -> Tuple[int, int]:
            hit = sum(o.metrics.counter(hits).value for o in owners.values())
            miss = sum(o.metrics.counter(misses).value for o in owners.values())
            return hit, hit + miss

        engines = self.engines
        est = hits_lookups(
            engines, "engine.estimate_cache.hits", "engine.estimate_cache.misses"
        )
        motion = hits_lookups(engines, "engine.memo.motion_hits", "engine.memo.motion_misses")
        imu = hits_lookups(engines, "engine.memo.imu_hits", "engine.memo.imu_misses")
        transition_hits, transition_lookups = hits_lookups(
            self.evaluators, "transitions.set_cache_hits", "transitions.set_cache_misses"
        )
        match_hits = sum(
            m.cache_hits + m.coalesced_hits for m in self.matchers.values()
        )
        match_calls = totals.get("match", (0, 0.0, 0.0))
        transition_calls = totals.get("transitions", (0, 0.0, 0.0))

        def ratio(hits: float, lookups: float) -> float:
            return hits / lookups if lookups else 0.0

        flip_updates = [n for n, _ in self.flips]
        flip_s = [s for _, s in self.flips]
        return {
            "engine.tick_ms": mean(tick_s) * 1e3,
            "engine.batch_size": mean(widths),
            "engine.prepare_us": phase_s.get("prepare", 0.0) / intervals * 1e6,
            "engine.match_us": phase_s.get("match", 0.0) / intervals * 1e6,
            "engine.transitions_us": phase_s.get("transitions", 0.0) / intervals * 1e6,
            "engine.complete_us": phase_s.get("complete", 0.0) / intervals * 1e6,
            "engine.self_us": own_us("engine.tick"),
            "engine.estimate_cache_hit_ratio": ratio(*est),
            "engine.estimate_cache_lookups": float(est[1]),
            "engine.motion_memo_hit_ratio": ratio(*motion),
            "engine.motion_memo_lookups": float(motion[1]),
            "engine.imu_memo_hit_ratio": ratio(*imu),
            "engine.imu_memo_lookups": float(imu[1]),
            "service.prepare_us": own_us("service.prepare"),
            "service.complete_us": own_us("service.complete"),
            "motion.extract_us": own_us("motion.extract"),
            "robustness.sanitize_us": own_us("robustness.sanitize"),
            "robustness.imu_check_us": own_us("robustness.imu_check"),
            "motion.step_count_us": own_us("motion.step_count"),
            "motion.heading_us": own_us("motion.heading"),
            "robustness.watchdog_us": own_us("robustness.watchdog"),
            "match.us_per_query": (
                match_calls[1] / self.match_queries * 1e6 if self.match_queries else 0.0
            ),
            "match.cache_hit_ratio": ratio(match_hits, self.match_queries),
            "match.cache_lookups": float(self.match_queries),
            "transitions.us_per_call": (
                transition_calls[1] / transition_calls[0] * 1e6
                if transition_calls[0]
                else 0.0
            ),
            "transitions.cache_hit_ratio": ratio(transition_hits, transition_lookups),
            "transitions.cache_lookups": float(transition_lookups),
            "epochs.flip_ms": mean(flip_s) * 1e3,
            "epochs.updates_per_flip": mean(flip_updates),
        }

    def covered_s(self) -> float:
        """Seconds the outermost spans covered (the sum of all self times)."""
        totals = self.recorder.totals()
        return sum(row[2] for row in totals.values() if row[0])

    def negative_self_spans(self) -> List[str]:
        """Spans whose self time came out negative (a mis-nested wrapper)."""
        return [
            name
            for name, (_, _, own) in self.recorder.totals().items()
            if own < -1e-6
        ]

