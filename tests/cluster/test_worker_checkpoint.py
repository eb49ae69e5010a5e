"""A shard's durable checkpoint is the engine's own encoding, written once.

``BatchedServingEngine`` already encodes the whole checkpoint to fill
the ``checkpoint.bytes`` histogram; the worker writes that string, so
the file is byte-for-byte ``json.dumps(checkpoint, sort_keys=True)``
and each write observes the histogram exactly once.
"""

from __future__ import annotations

import json

from repro.cluster import fresh_session_entry, shard_spec
from repro.cluster.worker import ShardWorker
from repro.serving import build_session_services
from repro.serving.checkpoint import event_to_dict

from cluster_helpers import events_of


def _histogram_count(engine) -> int:
    histograms = engine.metrics_snapshot()["engine"]["histograms"]
    return histograms["checkpoint.bytes"]["count"]


def test_checkpoint_file_is_the_engine_encoding(world, tmp_path):
    fingerprint_db, motion_db, config, workload = world
    worker = ShardWorker(
        shard_spec(
            "shard-0",
            fingerprint_db,
            motion_db,
            config,
            wal_path=tmp_path / "shard-0.wal",
            checkpoint_path=tmp_path / "shard-0.ckpt",
            checkpoint_every=0,
        )
    )
    services = build_session_services(
        workload, fingerprint_db, motion_db, config, resilient=True
    )
    for session_id in sorted(services):
        response = worker.handle(
            {
                "op": "add_session",
                "entry": fresh_session_entry(session_id, services[session_id]),
            }
        )
        assert response["ok"], response
    for index, tick in enumerate(workload.ticks[:4], start=1):
        response = worker.handle(
            {
                "op": "tick",
                "tick": index,
                "events": [event_to_dict(event) for event in events_of(tick)],
            }
        )
        assert response["ok"], response

    engine = worker.engine
    before = _histogram_count(engine)
    worker.write_checkpoint()
    assert _histogram_count(engine) == before + 1

    written = (tmp_path / "shard-0.ckpt").read_bytes()
    expected = json.dumps(engine.checkpoint(), sort_keys=True)
    assert written == expected.encode("utf-8")
    assert json.loads(written)["tick_index"] == 4
