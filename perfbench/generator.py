"""Open-loop load generator: one process, a fixed schedule, few connections.

Reads one JSON document from standard input::

    {"host": "127.0.0.1", "port": 4711, "connections": 2,
     "arrivals": [[due_offset_s, lane, "<request line>"], ...]}

and sends each request line on connection ``lane`` at ``start +
due_offset_s`` without waiting for earlier answers, so the offered load
never adapts to the server.  Replies are matched by their ``id`` echo,
which must be the arrival's index.  Each request is timed from its *due*
instant, so a generator that falls behind (or a server that stalls the
socket) shows up in the latency and in the reported lateness.

Writes one JSON document to standard output::

    {"start": t0, "records": [[due, sent, answered, "<reply line>"], ...],
     "duplicates": 0}

with times on the host's monotonic clock (``time.perf_counter``) and
``answered``/reply ``null`` for an arrival that got no answer before the
timeout, and the count of replies that answered an arrival a second
time.  Uses only the standard library.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

LEAD_S = 0.05
"""Delay before the first due instant, so connecting is not timed."""

TIMEOUT_S = 120.0


async def _replay(document: dict) -> dict:
    arrivals = document["arrivals"]
    n = len(arrivals)
    streams = [
        await asyncio.open_connection(
            document["host"], document["port"], limit=1 << 24
        )
        for _ in range(document["connections"])
    ]
    records = [[0.0, 0.0, None, None] for _ in range(n)]
    remaining = [0] * len(streams)
    duplicates = [0]
    for _, lane, _ in arrivals:
        remaining[lane] += 1

    async def read(lane: int, reader: asyncio.StreamReader) -> None:
        while remaining[lane]:
            line = await reader.readline()
            if not line:
                return
            answered = time.perf_counter()
            text = line.decode("utf-8").strip()
            slot = int(json.loads(text)["id"])
            if records[slot][2] is None:
                records[slot][2] = answered
                records[slot][3] = text
                remaining[lane] -= 1
            else:
                duplicates[0] += 1

    readers = [
        asyncio.ensure_future(read(lane, reader))
        for lane, (reader, _) in enumerate(streams)
    ]
    try:
        start = time.perf_counter() + LEAD_S
        for slot, (offset_s, lane, line) in enumerate(arrivals):
            due = start + offset_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[lane][1]
            records[slot][0] = due
            records[slot][1] = time.perf_counter()
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
        await asyncio.wait_for(
            asyncio.gather(*readers, return_exceptions=True), TIMEOUT_S
        )
    except asyncio.TimeoutError:
        pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            writer.close()
    return {"start": start, "records": records, "duplicates": duplicates[0]}


def main() -> int:
    document = json.load(sys.stdin)
    result = asyncio.run(_replay(document))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
