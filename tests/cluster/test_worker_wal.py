"""A shard's WAL tick record is the tick request line it received.

The worker validates a tick (index, one event per session), logs the
received line verbatim, then serves.  These tests pin that record
format, its replay next to the older ``{"v", "tick", "events"}`` lines,
the refusals that must leave no trace (a line break in the line, a
session named twice), and the per-tick decode/append histograms.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterWireError, encode_message, fresh_session_entry
from repro.cluster.core import ShardTicker
from repro.cluster.worker import ShardWorker
from repro.serving import build_session_services
from repro.serving.checkpoint import WriteAheadLog, event_to_dict

from cluster_helpers import events_of, make_shards


def _admitted_shard(world, tmp_path):
    """One LocalShard hosting every workload session; no periodic
    checkpoints, so recovery replays every logged tick."""
    fingerprint_db, motion_db, config, workload = world
    shard = make_shards(world, tmp_path, 1, checkpoint_every=0)[0]
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    for session_id in sorted(services):
        shard.request(
            {
                "op": "add_session",
                "entry": fresh_session_entry(session_id, services[session_id]),
            }
        )
    return shard


def _tick_request(tick, events):
    return {
        "op": "tick",
        "tick": tick,
        "events": [event_to_dict(event) for event in events],
    }


def _wal_lines(tmp_path):
    return (tmp_path / "shard-0.wal").read_text(encoding="utf-8").splitlines()


def _checkpoint_text(shard):
    return json.dumps(shard._worker.engine.checkpoint(), sort_keys=True)


def _fixes(reply):
    """The reply's fixes as serialized (bit-exact float encoding)."""
    return json.dumps(reply["outcome"]["fixes"], sort_keys=True)


def test_tick_record_is_the_received_line(world, tmp_path, monkeypatch):
    received = []
    handle_line = ShardWorker.handle_line

    def recording(worker, line):
        received.append(line)
        return handle_line(worker, line)

    monkeypatch.setattr(ShardWorker, "handle_line", recording)
    shard = _admitted_shard(world, tmp_path)
    ticker = ShardTicker(shard)
    received.clear()
    for tick in world[3].ticks[:3]:
        ticker.tick(events_of(tick))
    shard.shutdown()

    assert len(received) == 4  # three ticks, then the shutdown
    assert _wal_lines(tmp_path) == received[:3]


def test_legacy_and_request_line_records_replay_in_order(world, tmp_path):
    """A WAL whose first tick was written by ``WriteAheadLog.append``
    (the pre-request-line format) and whose later ticks are request
    lines recovers the shard bitwise."""
    shard = _admitted_shard(world, tmp_path)
    ticks = [events_of(tick) for tick in world[3].ticks[:3]]
    for index, events in enumerate(ticks, start=1):
        shard.request(_tick_request(index, events))
    served = _checkpoint_text(shard)
    shard.kill()

    lines = _wal_lines(tmp_path)
    assert all(json.loads(line)["op"] == "tick" for line in lines)
    legacy = tmp_path / "legacy.wal"
    with WriteAheadLog(legacy, fsync=False) as wal:
        wal.append(1, ticks[0])
    (tmp_path / "shard-0.wal").write_text(
        legacy.read_text(encoding="utf-8") + "\n".join(lines[1:]) + "\n",
        encoding="utf-8",
    )
    with WriteAheadLog(tmp_path / "shard-0.wal", fsync=False) as wal:
        assert [tick for tick, _ in wal.replay()] == [1, 2, 3]

    shard.respawn()
    assert shard.request({"op": "ping"})["recovered_ticks"] == 3
    assert _checkpoint_text(shard) == served
    shard.shutdown()


@pytest.mark.parametrize("linebreak", ["\n", "\r"])
def test_tick_line_with_a_line_break_is_refused(world, tmp_path, linebreak):
    shard = _admitted_shard(world, tmp_path)
    worker = shard._worker
    events = events_of(world[3].ticks[0])
    line = encode_message(_tick_request(1, events))
    broken = line.replace(', "tick": 1', f",{linebreak}\"tick\": 1")
    assert broken != line
    wal_before = (tmp_path / "shard-0.wal").read_bytes()

    reply = json.loads(worker.handle_line(broken))

    assert reply["ok"] is False
    assert "line break" in reply["error"]
    assert (tmp_path / "shard-0.wal").read_bytes() == wal_before
    assert worker.engine.tick_index == 0
    assert json.loads(worker.handle_line(line))["ok"] is True
    assert _wal_lines(tmp_path) == [line]
    shard.shutdown()


def test_refused_duplicate_session_tick_leaves_no_trace(world, tmp_path):
    """A tick naming one session twice is refused before it is logged
    or moves the tick index; the corrected tick is served as new, and
    a kill plus respawn recovers the same state and fixes."""
    ticks = [events_of(tick) for tick in world[3].ticks[:4]]
    shard = _admitted_shard(world, tmp_path / "refused")
    reference = _admitted_shard(world, tmp_path / "reference")
    for shard_ in (shard, reference):
        shard_.request(_tick_request(1, ticks[0]))
    wal_path = tmp_path / "refused" / "shard-0.wal"
    wal_before = wal_path.read_bytes()

    doubled = ticks[1] + ticks[1][:1]
    with pytest.raises(ClusterWireError, match="appears twice"):
        shard.request(_tick_request(2, doubled))
    assert wal_path.read_bytes() == wal_before
    assert shard.request({"op": "ping"})["tick"] == 1

    for index in (2, 3):
        got = shard.request(_tick_request(index, ticks[index - 1]))
        want = reference.request(_tick_request(index, ticks[index - 1]))
        assert got["replayed"] is False
        assert got["tick"] == index
        assert _fixes(got) == _fixes(want)

    shard.kill()
    shard.respawn()
    assert shard.request({"op": "ping"})["recovered_ticks"] == 3
    assert _checkpoint_text(shard) == _checkpoint_text(reference)
    got = shard.request(_tick_request(4, ticks[3]))
    want = reference.request(_tick_request(4, ticks[3]))
    assert _fixes(got) == _fixes(want)
    shard.shutdown()
    reference.shutdown()


def test_metrics_op_reports_decode_and_wal_append(world, tmp_path):
    shard = _admitted_shard(world, tmp_path)
    ticks = [events_of(tick) for tick in world[3].ticks[:2]]
    shard.request(_tick_request(1, ticks[0]))
    shard.request(_tick_request(2, ticks[1]))
    # A re-delivery is decoded but answered without a new record.
    assert shard.request(_tick_request(2, ticks[1]))["replayed"] is True

    metrics = shard.request({"op": "metrics"})["metrics"]
    histograms = metrics["engine"]["histograms"]
    shard.shutdown()

    assert histograms["shard.decode_s"]["count"] == 3
    assert histograms["shard.wal_append_s"]["count"] == 2
    assert histograms["shard.wal_append_s"]["sum"] > 0.0
