"""Reliable-channel behaviour under injected transport faults.

Lifeguard's evaluation substrate (memberlist under Consul) leans on a
TCP side channel for push/pull sync and the fallback probe; this
benchmark measures our pooled reliable channel on real loopback sockets
under three regimes, via the fault proxy from ``tests/transport``:

* **clean** — a healthy peer: every frame should ride one pooled
  connection (``conns_opened`` stays at 1).
* **delay** — the peer accepts slowly (models congestion); latency grows
  but nothing is lost and no reconnect storm starts.
* **churn** — established connections are killed and the next connect is
  dropped every few messages (models a flapping peer); retry/backoff
  must recover and deliver the bulk of the traffic with bounded
  reconnects.

Delivered fraction, latency, connections opened and retries are
reported per regime, so a pooling or backoff regression is visible as a
number, not an anecdote.
"""

import asyncio

import pytest

from benchmarks.conftest import publish
from repro.config import SwimConfig
from repro.transport.udp import UdpTransport, parse_address
from tests.transport.fault_injection import TcpFaultProxy

N_MESSAGES = 40
SEND_SPACING = 0.01
CHURN_EVERY = 5


def _config() -> SwimConfig:
    return SwimConfig(
        reliable_connect_timeout=0.5,
        reliable_connect_retries=3,
        reliable_backoff_base=0.02,
        reliable_backoff_max=0.1,
        reliable_idle_timeout=5.0,
    )


async def _run_mode(mode: str) -> dict:
    loop = asyncio.get_running_loop()
    receiver = await UdpTransport.create(config=_config())
    recv_times = {}
    receiver.bind(lambda p, s, r: recv_times.setdefault(p, loop.time()))
    host, port = parse_address(receiver.local_address)
    proxy = TcpFaultProxy(host, port)
    await proxy.start()
    if mode == "delay":
        proxy.accept_delay = 0.02
    sender = await UdpTransport.create(config=_config())

    send_times = {}
    for i in range(N_MESSAGES):
        if mode == "churn" and i % CHURN_EVERY == 0:
            await proxy.kill_active_connections()
            proxy.drop_next_connections = 1
        payload = b"msg-%03d" % i
        send_times[payload] = loop.time()
        sender.send(proxy.address, payload, reliable=True)
        await asyncio.sleep(SEND_SPACING)
    await asyncio.sleep(1.0)

    latencies = sorted(
        recv_times[p] - send_times[p] for p in send_times if p in recv_times
    )
    stats = sender.stats
    row = {
        "delivered": len(latencies),
        "sent": N_MESSAGES,
        "mean_ms": (sum(latencies) / len(latencies) * 1000) if latencies else None,
        "max_ms": (latencies[-1] * 1000) if latencies else None,
        "conns_opened": stats.get("conns_opened"),
        "conns_reused": stats.get("conns_reused"),
        "retries": stats.get("reliable_connect_retries"),
        "send_failures": stats.get("reliable_send_failed"),
    }
    await proxy.stop()
    await sender.close()
    await receiver.close()
    return row


@pytest.mark.benchmark(group="transport")
def test_reliable_channel_under_faults(benchmark):
    def sweep():
        rows = {}
        for mode in ("clean", "delay", "churn"):
            rows[mode] = asyncio.run(_run_mode(mode))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    clean = rows["clean"]
    assert clean["delivered"] == clean["sent"], "clean loopback must not drop"
    assert clean["conns_opened"] == 1, "clean traffic must ride one pooled conn"
    churn = rows["churn"]
    assert churn["delivered"] >= churn["sent"] * 0.5, "churn recovery too lossy"
    assert churn["conns_opened"] > 1, "churn must force reconnects"

    publish("transport_faults", rows)
