"""Shard transports: the same worker, in-process or in a child process.

Both transports speak the identical request/response protocol — one
versioned JSON line each way, handled by
:meth:`~repro.cluster.worker.ShardWorker.handle_line`:

* :class:`LocalShard` hosts the worker in the coordinator's process.
  Every message still round-trips through
  :func:`~repro.cluster.messages.encode_message` /
  :func:`~repro.cluster.messages.decode_message`, so the in-process
  double exercises the full serialization path and the deterministic
  cluster tests prove the wire format itself, not just the engines
  behind it.  ``kill()`` simulates a crash by discarding the live
  worker while its durable files survive — exactly the state a killed
  process leaves behind.
* :class:`ProcessShard` spawns the worker with the ``spawn``
  multiprocessing context (a cold interpreter: nothing inherited by
  fork, the same deployment a container gets) and ships lines over a
  pipe as raw UTF-8 bytes (``send_bytes``/``recv_bytes`` — no pickled
  objects on the wire).  ``kill()`` is a real ``SIGKILL``.

Either way, a dead shard raises :class:`ShardDown` on use, and
``respawn()`` rebuilds the worker from the same spec — the worker's own
checkpoint + WAL recovery does the rest (see
:mod:`repro.cluster.worker`).
"""

from __future__ import annotations

import json
import multiprocessing
from typing import Dict, Optional

from .messages import ClusterWireError, decode_message, encode_message
from .worker import ShardWorker

__all__ = ["ShardDown", "LocalShard", "ProcessShard"]

_SPAWN = multiprocessing.get_context("spawn")

# Seconds to wait for a spawned worker's hello (database rebuild plus
# recovery replay happen before it); generous because CI machines are
# slow, but bounded so a wedged child fails the supervisor loudly
# instead of hanging it.
_SPAWN_TIMEOUT_S = 120.0


class ShardDown(RuntimeError):
    """The shard's worker is dead (killed, crashed, or never spawned)."""


def _check_reply(reply: Dict[str, object]) -> Dict[str, object]:
    if not reply.get("ok"):
        raise ClusterWireError(
            f"shard request failed: {reply.get('error', 'unknown error')}"
        )
    return reply


class LocalShard:
    """An in-process shard: deterministic tests, honest wire format.

    Args:
        spec: The shard's :func:`~repro.cluster.bootstrap.shard_spec`.
        start: Build the worker now (True) or leave the shard down
            until :meth:`respawn`.
    """

    def __init__(self, spec: Dict[str, object], start: bool = True) -> None:
        self.spec = spec
        self.shard_id: str = spec["shard_id"]
        self._worker: Optional[ShardWorker] = None
        if start:
            self._worker = ShardWorker(spec)

    def is_alive(self) -> bool:
        """Whether the shard currently has a live worker."""
        return self._worker is not None

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request/response round trip through the wire format.

        Raises:
            ShardDown: if the worker is dead.
            ClusterWireError: for a worker-side error response.
        """
        if self._worker is None:
            raise ShardDown(f"shard {self.shard_id!r} is down")
        line = self._worker.handle_line(encode_message(payload))
        return _check_reply(decode_message(line))

    def kill(self) -> None:
        """Simulate a crash: drop the worker, keep its durable files.

        Deliberately skips the worker's clean ``close()`` — a crashed
        process never closes anything either; the WAL's per-append
        flush discipline is what recovery relies on.
        """
        self._worker = None

    def respawn(self) -> None:
        """Rebuild the worker from the spec (it recovers itself).

        Raises:
            ShardDown: if the shard is still alive (kill it first).
        """
        if self._worker is not None:
            raise ShardDown(
                f"shard {self.shard_id!r} is still alive; refusing to respawn"
            )
        self._worker = ShardWorker(self.spec)

    def shutdown(self) -> None:
        """Clean stop: flush and close the worker's files."""
        if self._worker is None:
            return
        self.request({"op": "shutdown"})
        self._worker.close()
        self._worker = None


def _shard_main(conn: object, spec_json: str) -> None:
    """The spawned child's loop: build (or recover) a worker, serve lines.

    Module-level so the ``spawn`` context can import it by reference;
    the spec crosses as a JSON string and every subsequent message as
    UTF-8 bytes — the child never unpickles anything.
    """
    worker = ShardWorker(json.loads(spec_json))
    conn.send_bytes(
        encode_message(
            {
                "ok": True,
                "op": "hello",
                "shard_id": worker.shard_id,
                "tick": worker.engine.tick_index,
                "recovered": worker.recovered,
                "recovered_ticks": worker.recovered_ticks,
            }
        ).encode("utf-8")
    )
    try:
        while True:
            try:
                line = conn.recv_bytes().decode("utf-8")
            except EOFError:
                break
            reply = worker.handle_line(line)
            conn.send_bytes(reply.encode("utf-8"))
            if worker.shut_down:
                break
    finally:
        worker.close()


class ProcessShard:
    """A shard in a spawned child process, one JSON line per message.

    Args:
        spec: The shard's :func:`~repro.cluster.bootstrap.shard_spec`.
            Must be JSON-compatible (it is shipped as a JSON string).
        start: Spawn now (True) or leave the shard down until
            :meth:`respawn`.
        receive_timeout_s: How long :meth:`receive`/:meth:`request`
            wait for the child's reply before declaring it *wedged*.
            A wedged child — alive but not making progress (paused,
            deadlocked, livelocked) — is escalated exactly like a dead
            one: the child is SIGKILLed so the supervisor's normal
            respawn-and-redeliver recovery applies, instead of the
            whole coordinator tick stalling behind one stuck pipe.
            Defaults to the spawn timeout (120 s).
    """

    def __init__(
        self,
        spec: Dict[str, object],
        start: bool = True,
        receive_timeout_s: Optional[float] = None,
    ) -> None:
        if receive_timeout_s is not None and receive_timeout_s <= 0:
            raise ValueError(
                "receive_timeout_s must be positive or None, got "
                f"{receive_timeout_s}"
            )
        self.spec = spec
        self.shard_id: str = spec["shard_id"]
        self.receive_timeout_s = (
            _SPAWN_TIMEOUT_S if receive_timeout_s is None else receive_timeout_s
        )
        self._process: Optional[object] = None
        self._conn: Optional[object] = None
        self.hello: Optional[Dict[str, object]] = None
        if start:
            self._start()

    def _start(self) -> None:
        parent_conn, child_conn = _SPAWN.Pipe()
        process = _SPAWN.Process(
            target=_shard_main,
            args=(child_conn, json.dumps(self.spec, sort_keys=True)),
            name=f"shard-{self.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        # The hello waits out the full spawn budget regardless of the
        # (possibly much shorter) receive timeout: database rebuild and
        # recovery replay legitimately take a while on a cold start.
        self.hello = _check_reply(
            decode_message(self._recv(timeout_s=_SPAWN_TIMEOUT_S))
        )

    def _recv(self, timeout_s: Optional[float] = None) -> str:
        timeout_s = self.receive_timeout_s if timeout_s is None else timeout_s
        if not self._conn.poll(timeout_s):
            # The child is alive but not answering — wedged, not dead.
            # SIGKILL it so is_alive() goes false and the supervisor's
            # respawn-and-redeliver path (built for crashed workers)
            # handles the escalation; without the kill, respawn() would
            # refuse to replace a still-running process and the whole
            # tick would stay stuck behind this one pipe.
            if self._process is not None:
                self._process.kill()
                self._process.join()
            self._teardown()
            raise ShardDown(
                f"shard {self.shard_id!r} did not respond within "
                f"{timeout_s:.3g}s; killed the wedged worker"
            )
        try:
            return self._conn.recv_bytes().decode("utf-8")
        except (EOFError, ConnectionError, OSError) as error:
            raise ShardDown(
                f"shard {self.shard_id!r} died mid-conversation: {error!r}"
            ) from error

    def is_alive(self) -> bool:
        """Whether the child process is currently running."""
        return self._process is not None and self._process.is_alive()

    def send(self, payload: Dict[str, object]) -> None:
        """First half of :meth:`request`: write without awaiting the reply.

        The coordinator uses the split-phase pair to dispatch one tick
        to every child *before* collecting any reply, so subprocess
        workers serve the tick concurrently instead of in turn.  Every
        ``send`` must be matched by exactly one :meth:`receive` before
        the next ``send``.

        Raises:
            ShardDown: if the child is dead or the pipe is broken.
        """
        if not self.is_alive():
            raise ShardDown(f"shard {self.shard_id!r} is down")
        try:
            self._conn.send_bytes(encode_message(payload).encode("utf-8"))
        except (BrokenPipeError, ConnectionError, OSError) as error:
            raise ShardDown(
                f"shard {self.shard_id!r} pipe is broken: {error!r}"
            ) from error

    def receive(self) -> Dict[str, object]:
        """Second half of :meth:`request`: block for the pending reply.

        Raises:
            ShardDown: if the child dies before answering.
            ClusterWireError: for a worker-side error response.
        """
        return _check_reply(decode_message(self._recv()))

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request/response round trip over the pipe.

        Raises:
            ShardDown: if the child is dead or dies mid-request.
            ClusterWireError: for a worker-side error response.
        """
        self.send(payload)
        return self.receive()

    def kill(self) -> None:
        """SIGKILL the child — no cleanup, no flush, a true crash."""
        if self._process is not None:
            self._process.kill()
            self._process.join()
        self._teardown()

    def respawn(self) -> None:
        """Spawn a fresh child from the same spec (it recovers itself).

        Raises:
            ShardDown: if the shard is still alive (kill it first).
        """
        if self.is_alive():
            raise ShardDown(
                f"shard {self.shard_id!r} is still alive; refusing to respawn"
            )
        self._teardown()
        self._start()

    def shutdown(self) -> None:
        """Clean stop: ask the child to exit, then join it."""
        if not self.is_alive():
            self._teardown()
            return
        try:
            self.request({"op": "shutdown"})
        except ShardDown:
            pass
        self._process.join(timeout=_SPAWN_TIMEOUT_S)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._teardown()

    def _teardown(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None
        self._process = None
