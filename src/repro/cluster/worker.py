"""The shard worker: one serving engine behind a JSON message loop.

A :class:`ShardWorker` owns one
:class:`~repro.serving.engine.BatchedServingEngine` plus the durable
files that make it kill-anywhere recoverable — a
:class:`~repro.serving.checkpoint.WriteAheadLog` and a checkpoint file
— and exposes everything through :meth:`ShardWorker.handle_line`: one
versioned JSON request line in, one versioned JSON response line out
(:mod:`repro.cluster.messages`).  The worker is transport-agnostic on
purpose: :class:`~repro.cluster.transport.LocalShard` calls
``handle_line`` in-process and :class:`~repro.cluster.transport.ProcessShard`
calls it from a spawned child's receive loop, and because both push
every message through the same encode/decode pair, the in-process
transport is an honest double for the multiprocess one.

Durability discipline (the same one the engine-level kill-at-every-tick
test proves exact):

* every ``tick`` request is appended to the WAL *before* serving, so a
  crash mid-tick loses no input.  The record is the request line the
  worker received, byte for byte (a dict handed to
  :meth:`ShardWorker.handle` is encoded once for it), so events reach
  the log without a second encode.  It is logged only after the tick
  index and events validate, so a refused tick leaves no record;
* the checkpoint file is rewritten (atomically: temp file + ``rename``)
  after every membership change — session admission, migration handoff,
  restore — *before* the response is sent, and every
  ``checkpoint_every`` ticks as a replay-shortening optimization;
* on construction, a worker that finds its checkpoint file recovers
  itself: restore the checkpoint, replay the WAL tail
  (:func:`~repro.serving.checkpoint.recover_engine`).  Supervised
  respawn is therefore just "build the worker again from the same
  spec".

Re-delivery after recovery: when the coordinator re-sends the tick a
dead worker never answered, the tick index is *at or below* the
recovered engine's (the WAL replay already served it).  The worker
routes that request through
:meth:`~repro.serving.engine.BatchedServingEngine.replay_tick`, which
answers every sequenced event idempotently from the duplicate cache
without advancing the durable tick index — bitwise the same fixes,
no timeline drift.

Observability: every tick request observes ``shard.decode_s`` (request
line to validated events) and every logged tick ``shard.wal_append_s``
(the durable append) into the engine's registry, which the ``metrics``
op returns.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List

from ..db.epochs import EpochSnapshot, update_from_dict
from ..serving.checkpoint import (
    WriteAheadLog,
    event_from_dict,
    recover_engine,
)
from ..serving.clock import LogicalClock
from ..serving.engine import BatchedServingEngine, require_distinct_sessions
from ..service import MoLocService
from .bootstrap import build_engine
from .messages import (
    ClusterWireError,
    decode_message,
    encode_message,
    outcome_to_dict,
)

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard: an engine, its durable files, and a message handler.

    Args:
        spec: A :func:`~repro.cluster.bootstrap.shard_spec` dict.  The
            worker recovers itself from the spec's checkpoint file and
            WAL when the checkpoint file exists (a respawn); otherwise
            it starts empty (first boot).

    Attributes:
        shut_down: True once a ``shutdown`` request has been answered
            (the process transport's receive loop exits on it).
    """

    def __init__(self, spec: Dict[str, object]) -> None:
        self.spec = spec
        self.shard_id: str = spec["shard_id"]
        self._checkpoint_path = Path(spec["checkpoint_path"])
        self._checkpoint_every = int(spec["checkpoint_every"])
        self._staged_epoch: "EpochSnapshot | None" = None
        engine, make_service = build_engine(spec)
        self.engine: BatchedServingEngine = engine
        self._h_decode = engine.metrics.histogram("shard.decode_s")
        self._h_wal_append = engine.metrics.histogram("shard.wal_append_s")
        self._make_service: Callable[[str], MoLocService] = make_service
        self.recovered_ticks = 0
        self.shut_down = False
        self.recovered = self._checkpoint_path.exists()
        self.wal = WriteAheadLog(spec["wal_path"], fsync=bool(spec["fsync"]))
        if self.recovered:
            with self._checkpoint_path.open("r", encoding="utf-8") as handle:
                checkpoint = json.load(handle)
            self.recovered_ticks = recover_engine(
                self.engine, checkpoint, self.wal, self._make_service
            )

    # ------------------------------------------------------------------
    # Durable checkpoint
    # ------------------------------------------------------------------

    def write_checkpoint(self) -> None:
        """Atomically persist the engine's current checkpoint.

        The engine's own encoding goes to disk in one write: the
        streaming ``json.dump`` would encode the document a second time
        in thousands of small writes.
        """
        encoded = self.engine.encode_checkpoint()
        tmp = self._checkpoint_path.with_suffix(
            self._checkpoint_path.suffix + ".tmp"
        )
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._checkpoint_path)

    def close(self) -> None:
        """Release the WAL file handle (clean shutdown only)."""
        self.wal.close()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One request line in, one response line out (never raises).

        Errors — malformed messages, unknown ops, engine rejections —
        come back as ``{"ok": false, "error": ...}`` responses, so a
        bad request cannot take the worker (and every session it
        hosts) down with it.  A ``tick`` line is handed through to the
        tick handler, which logs it verbatim as the WAL record.
        """
        try:
            started_s = time.perf_counter()
            request = decode_message(line)
            if request.get("op") == "tick":
                response = self._handle_tick(request, line, started_s)
            else:
                response = self.handle(request)
        except Exception as error:  # noqa: BLE001 - the loop must survive
            response = {"ok": False, "error": repr(error)}
        return encode_message(response)

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one decoded request to its operation."""
        op = request.get("op")
        if op == "ping":
            return {
                "ok": True,
                "shard_id": self.shard_id,
                "tick": self.engine.tick_index,
                "sessions": self.engine.sessions.session_ids,
                "recovered": self.recovered,
                "recovered_ticks": self.recovered_ticks,
            }
        if op == "add_session":
            record = self.engine.load_session(
                request["entry"], self._make_service
            )
            self.write_checkpoint()
            return {"ok": True, "session_id": record.session_id}
        if op == "remove_session":
            self.engine.remove_session(request["session_id"])
            self.write_checkpoint()
            return {"ok": True}
        if op == "tick":
            # No received line to log: encode the request once for it.
            line = encode_message(request)
            return self._handle_tick(request, line, time.perf_counter())
        if op == "handoff":
            return self._handle_handoff(request)
        if op == "restore":
            self.engine.restore(request["checkpoint"], self._make_service)
            self.write_checkpoint()
            return {"ok": True, "tick": self.engine.tick_index}
        if op == "checkpoint":
            self.write_checkpoint()
            return {"ok": True, "path": str(self._checkpoint_path)}
        if op == "metrics":
            return {"ok": True, "metrics": self.engine.metrics_snapshot()}
        if op == "advance_clock":
            # Deterministic deployments drive their shard engines'
            # logical clocks over the wire, so deadline behavior can be
            # scripted (and reproduced) across any process boundary.
            clock = self.engine.clock
            if not isinstance(clock, LogicalClock):
                raise ClusterWireError(
                    f"shard {self.shard_id!r} runs a wall clock; "
                    "advance_clock requires a spec with clock='logical'"
                )
            return {"ok": True, "now_s": clock.advance(float(request["dt_s"]))}
        if op == "epoch_status":
            epochal = self.engine.epochal_db
            status: Dict[str, object] = {
                "ok": True,
                "epochal": epochal is not None,
                "epoch": self.engine.epoch_id,
            }
            if epochal is not None:
                status["snapshot"] = epochal.current.to_dict()
            return status
        if op == "epoch_prepare":
            return self._handle_epoch_prepare(request)
        if op == "epoch_commit":
            return self._handle_epoch_commit(request)
        if op == "epoch_abort":
            target = int(request["target"])
            if (
                self._staged_epoch is not None
                and self._staged_epoch.epoch_id == target
            ):
                self._staged_epoch = None
            return {"ok": True, "epoch": self.engine.epoch_id}
        if op == "shutdown":
            self.shut_down = True
            return {"ok": True, "bye": True}
        raise ClusterWireError(f"unknown cluster op {op!r}")

    def _require_epochal(self):
        epochal = self.engine.epochal_db
        if epochal is None:
            raise ClusterWireError(
                f"shard {self.shard_id!r} serves a frozen database; epoch "
                "ops require a spec with epochal=true"
            )
        return epochal

    def _handle_epoch_prepare(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Phase one of the cluster flip: stage epoch N+1, prove it.

        Pure — no durable or serving state changes, so a prepare that
        never commits (straggler timeout, checksum disagreement) leaves
        the shard exactly where it was.  Idempotent under supervised
        re-delivery: a target this shard already committed (it recovered
        past the flip) answers with the committed checksum.
        """
        epochal = self._require_epochal()
        target = int(request["target"])
        if target <= self.engine.epoch_id:
            committed = epochal.snapshot(target)
            return {
                "ok": True,
                "epoch": self.engine.epoch_id,
                "checksum": committed.checksum,
                "committed": True,
            }
        if target != self.engine.epoch_id + 1:
            raise ClusterWireError(
                f"shard {self.shard_id!r} at epoch {self.engine.epoch_id} "
                f"cannot prepare epoch {target}; only the next epoch is "
                "valid"
            )
        updates = [update_from_dict(entry) for entry in request["updates"]]
        staged = epochal.stage(updates)
        self._staged_epoch = staged
        return {
            "ok": True,
            "epoch": self.engine.epoch_id,
            "checksum": staged.checksum,
            "committed": False,
        }

    def _handle_epoch_commit(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Phase two: durably log the flip, then serve the new epoch.

        The commit carries the update batch, so a worker respawned
        between prepare and commit (its staged snapshot died with it)
        re-stages and commits in one step.  Idempotent: an
        already-committed target just re-proves its checksum.  The WAL
        record is appended *before* the flip is applied — a kill between
        the two replays the flip on recovery.
        """
        epochal = self._require_epochal()
        target = int(request["target"])
        checksum = str(request["checksum"])
        if target <= self.engine.epoch_id:
            committed = epochal.snapshot(target)
            if committed.checksum != checksum:
                raise ClusterWireError(
                    f"shard {self.shard_id!r} committed epoch {target} as "
                    f"{committed.checksum[:12]}… but the coordinator "
                    f"expects {checksum[:12]}…; refusing to split-brain"
                )
            return {"ok": True, "epoch": self.engine.epoch_id}
        updates = [update_from_dict(entry) for entry in request["updates"]]
        staged = self._staged_epoch
        if staged is None or staged.epoch_id != target:
            staged = epochal.stage(updates)
        if staged.checksum != checksum:
            raise ClusterWireError(
                f"shard {self.shard_id!r} staged epoch {target} as "
                f"{staged.checksum[:12]}… but the coordinator expects "
                f"{checksum[:12]}…; aborting the flip"
            )
        self.wal.append_epoch(
            self.engine.tick_index, target, checksum, updates
        )
        self.engine.adopt_epoch(staged)
        self._staged_epoch = None
        self.write_checkpoint()
        return {"ok": True, "epoch": self.engine.epoch_id}

    def _handle_tick(
        self, request: Dict[str, object], line: str, started_s: float
    ) -> Dict[str, object]:
        """Validate, log ``line`` verbatim, then serve one tick request
        (``started_s``: ``time.perf_counter()`` when decoding began)."""
        tick = int(request["tick"])
        events = [event_from_dict(entry) for entry in request["events"]]
        require_distinct_sessions(events)
        self._h_decode.observe(time.perf_counter() - started_s)
        current = self.engine.tick_index
        if tick == current:
            # The coordinator is re-delivering the tick this worker (or
            # its predecessor) served but never acknowledged: answer
            # idempotently without advancing the durable index.
            outcome = self.engine.replay_tick(events)
            replayed = True
        elif tick == current + 1:
            # The line is a WAL tick record as it stands: the wire's
            # {"v": 1} is also WAL_FORMAT_VERSION, so a wire version
            # bump must teach WriteAheadLog.records the new one.
            appended_s = time.perf_counter()
            self.wal.append_line(line)
            self._h_wal_append.observe(time.perf_counter() - appended_s)
            outcome = self.engine.tick_detailed(events)
            replayed = False
            if self._checkpoint_every and tick % self._checkpoint_every == 0:
                self.write_checkpoint()
        else:
            raise ClusterWireError(
                f"shard {self.shard_id!r} at tick {current} cannot serve "
                f"tick {tick}; only the next tick or a re-delivery of the "
                "current one is valid"
            )
        return {
            "ok": True,
            "tick": self.engine.tick_index,
            "replayed": replayed,
            "outcome": outcome_to_dict(outcome),
        }

    def _handle_handoff(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        session_ids: List[str] = list(request["session_ids"])
        entries = [
            self.engine.checkpoint_session(session_id)
            for session_id in session_ids
        ]
        for session_id in session_ids:
            self.engine.remove_session(session_id)
        self.write_checkpoint()
        return {"ok": True, "entries": entries}
