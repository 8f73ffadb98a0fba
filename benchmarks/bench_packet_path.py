"""Loopback packet-path throughput: stock asyncio vs the batched fast path.

ISSUE 8's headline measurement. Two UDP transports echo small datagrams
over loopback with a fixed in-flight window; throughput counts both
directions (each round trip moves two datagrams). The batched backend
drains/flushes up to ``batch_size`` datagrams per recvmmsg/sendmmsg
syscall and decodes from reused receive buffers, so on Linux it must
clear both acceptance bars by a wide margin:

* ``>= 3x`` the asyncio backend's msgs/s on the same machine, and
* ``>= 100k`` msgs/s absolute.

Both are asserted here when recvmmsg is available, and the published
``packet_path.json`` feeds the regression gate (``packet_msgs_per_sec``
per backend plus the ``batched_vs_asyncio`` ratio — see regression.py).
Where mmsg syscalls are unavailable the batched backend runs its
portable per-datagram fallback and only the directional comparison is
reported, not asserted.
"""

import pytest

from benchmarks.conftest import publish
from repro.harness.packetbench import run_packet_bench_suite
from repro.transport.fastudp import mmsg_available

DURATION = 0.5
REPS = 3
PAYLOAD_SIZE = 64
WINDOW = 256

MIN_RATIO = 3.0
MIN_BATCHED_MSGS_PER_SEC = 100_000.0


def batched_vs_asyncio(rows):
    asyncio_rate = rows["asyncio"]["msgs_per_sec"]
    batched_rate = rows["batched"]["msgs_per_sec"]
    return batched_rate / asyncio_rate if asyncio_rate else float("inf")


def render(rows):
    """The published table, as a pure function of the published JSON (a
    tier-1 test holds the committed ``packet_path.txt`` to it)."""
    shape = next(iter(rows.values()))
    return (
        "PACKET PATH THROUGHPUT — loopback echo, "
        f"{shape['payload_size']}B payloads, window={shape['window']}, "
        f"best of {shape['reps']}x{shape['duration']:.1f}s\n"
        + "\n".join(
            "  {label:8s} {rate:>10,.0f} msgs/s  unreturned={loss}  "
            "send_batch={sb:.1f}  recv_batch={rb:.1f}  mmsg={mmsg}".format(
                label=backend,
                rate=row["msgs_per_sec"],
                loss=row["loss"],
                sb=row["avg_send_batch"],
                rb=row["avg_recv_batch"],
                mmsg="yes" if row["uses_mmsg"] else "no",
            )
            for backend, row in rows.items()
        )
        + f"\n  batched vs asyncio: {batched_vs_asyncio(rows):.2f}x"
    )


@pytest.mark.benchmark(group="transport")
def test_packet_path_throughput(benchmark):
    backends = ["asyncio", "batched"]

    rows = benchmark.pedantic(
        lambda: run_packet_bench_suite(
            backends,
            duration=DURATION,
            payload_size=PAYLOAD_SIZE,
            window=WINDOW,
            reps=REPS,
            isolate=True,  # fresh interpreter per rep; see packetbench docs
        ),
        rounds=1,
        iterations=1,
    )

    asyncio_rate = rows["asyncio"]["msgs_per_sec"]
    batched_rate = rows["batched"]["msgs_per_sec"]
    ratio = batched_vs_asyncio(rows)
    assert asyncio_rate > 0 and batched_rate > 0

    if mmsg_available():
        assert rows["batched"]["uses_mmsg"], "Linux run must use recvmmsg"
        assert ratio >= MIN_RATIO, (
            f"batched/asyncio = {ratio:.2f}x, below the {MIN_RATIO:.0f}x bar"
        )
        assert batched_rate >= MIN_BATCHED_MSGS_PER_SEC, (
            f"batched path at {batched_rate:,.0f} msgs/s, below "
            f"{MIN_BATCHED_MSGS_PER_SEC:,.0f}"
        )
        # Batching must actually happen, not just not-hurt.
        assert rows["batched"]["avg_send_batch"] > 1.0
        assert rows["batched"]["avg_recv_batch"] > 1.0

    publish("packet_path", render(rows), raw=rows)
