"""Loopback UDP echo throughput harness for the transport backends.

One client and one echo server on localhost, raw datagrams (no SWIM
protocol on top): the client keeps a fixed window of packets in flight
and counts completed round trips for a wall-clock duration. This
isolates exactly what the backend controls — syscall count, event-loop
wakeups, per-packet allocation — which is why the same harness backs
both ``python -m repro packetbench`` and
``benchmarks/bench_packet_path.py`` (whose ``packet_path.json`` output
is regression-gated).

UDP loopback may drop under pressure; a refill task tops the window
back up, so a burst of losses costs throughput but never stalls the
run. Reported ``msgs_per_sec`` counts both directions of completed
round trips (the conservative measure: a dropped packet contributes
nothing).

**Isolation.** ``isolate=True`` runs every rep in a fresh Python
subprocess (pyperf-style). This matters more than it sounds: the stock
asyncio datagram path allocates a 256 KiB buffer per ``recvfrom``, and
whether glibc serves those from a warm heap or from fresh ``mmap``
pages (64 page faults each) depends on the *allocator history of the
host process* — the same benchmark can read 3x faster inside a pytest
run than from a fresh interpreter. A fresh subprocess per rep pins the
measurement to the reproducible fresh-process regime; the batched
backend is indifferent either way because its buffers are preallocated
once. See docs/PERFORMANCE.md for the numbers.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import TRANSPORT_BACKEND_NAMES, SwimConfig
from repro.transport.fastudp import create_udp_transport


async def _echo_round(
    backend: str,
    duration: float,
    payload_size: int,
    batch_size: int,
    window: int,
) -> Dict[str, object]:
    config = SwimConfig(
        transport_backend=backend, transport_batch_size=batch_size
    )
    server = await create_udp_transport(config=config)
    client = await create_udp_transport(config=config)
    loop = asyncio.get_running_loop()
    payload = bytes(payload_size)
    counts = {"tx": 0, "rx": 0}
    done: asyncio.Future = loop.create_future()
    deadline = loop.time() + duration
    server_addr = server.local_address

    def on_server(data, source, reliable):
        # data may be a memoryview into a reused receive slot; both
        # backends' send paths copy (or consume) it synchronously.
        server.send(source, data)

    def on_client(data, source, reliable):
        counts["rx"] += 1
        if loop.time() < deadline:
            client.send(server_addr, payload)
            counts["tx"] += 1
        elif not done.done():
            done.set_result(None)

    server.bind(on_server)
    client.bind(on_client)

    async def refill():
        # Losses shrink the in-flight window; top it back up every tick
        # so the run measures throughput, not stall recovery.
        while not done.done():
            await asyncio.sleep(0.05)
            if loop.time() >= deadline:
                if not done.done():
                    done.set_result(None)
                return
            for _ in range(window - (counts["tx"] - counts["rx"])):
                client.send(server_addr, payload)
                counts["tx"] += 1

    start = loop.time()
    for _ in range(window):
        client.send(server_addr, payload)
        counts["tx"] += 1
    refill_task = loop.create_task(refill())
    try:
        await asyncio.wait_for(done, duration + 5.0)
    finally:
        refill_task.cancel()
        elapsed = max(loop.time() - start, 1e-9)
        await client.close()
        await server.close()

    stats = client.stats
    send_calls = stats.get("udp_send_syscalls")
    recv_calls = stats.get("udp_recv_syscalls")
    sent_dgrams = sum(
        size * n for (d, size), n in stats.batches.items() if d == "send"
    )
    recv_dgrams = sum(
        size * n for (d, size), n in stats.batches.items() if d == "recv"
    )
    round_trips = counts["rx"]
    return {
        "backend": backend,
        "uses_mmsg": bool(getattr(getattr(client, "pump", None), "uses_mmsg", False)),
        "duration": duration,
        "elapsed": elapsed,
        "payload_size": payload_size,
        "batch_size": batch_size,
        "window": window,
        "sent": counts["tx"],
        "round_trips": round_trips,
        "loss": counts["tx"] - round_trips,
        "msgs_per_sec": (round_trips * 2) / elapsed,
        "client_send_syscalls": send_calls,
        "client_recv_syscalls": recv_calls,
        "avg_send_batch": sent_dgrams / send_calls if send_calls else 0.0,
        "avg_recv_batch": recv_dgrams / recv_calls if recv_calls else 0.0,
    }


def _run_one_isolated(
    backend: str,
    duration: float,
    payload_size: int,
    batch_size: int,
    window: int,
) -> Dict[str, object]:
    """One rep in a fresh interpreter; returns its parsed JSON result."""
    program = (
        "import json, sys\n"
        "from repro.harness.packetbench import run_packet_bench\n"
        "r = run_packet_bench(*json.loads(sys.argv[1]))\n"
        "print(json.dumps(r))\n"
    )
    params = json.dumps(
        [backend, duration, payload_size, batch_size, window, 1, False]
    )
    env = dict(os.environ)
    pkg_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root if not existing else pkg_root + os.pathsep + existing
    )
    proc = subprocess.run(
        [sys.executable, "-c", program, params],
        capture_output=True,
        text=True,
        env=env,
        timeout=duration * 4 + 60,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"isolated packetbench rep failed (backend={backend}): "
            f"{proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_packet_bench(
    backend: str = "asyncio",
    duration: float = 1.0,
    payload_size: int = 64,
    batch_size: int = 32,
    window: int = 256,
    reps: int = 1,
    isolate: bool = False,
) -> Dict[str, object]:
    """Run the loopback echo benchmark; best-of-``reps`` throughput.

    Creates its own event loop, so it must be called from synchronous
    code. With ``isolate=True``
    each rep runs in a fresh interpreter subprocess instead (see the
    module docstring for why the host process's heap history would
    otherwise skew the stock-asyncio baseline).
    """
    if backend not in TRANSPORT_BACKEND_NAMES:
        known = ", ".join(TRANSPORT_BACKEND_NAMES)
        raise ValueError(f"backend must be one of: {known}")
    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, reps)):
        if isolate:
            result = _run_one_isolated(
                backend, duration, payload_size, batch_size, window
            )
        else:
            loop = asyncio.new_event_loop()
            try:
                result = loop.run_until_complete(
                    _echo_round(
                        backend, duration, payload_size, batch_size, window
                    )
                )
            finally:
                loop.close()
        if best is None or result["msgs_per_sec"] > best["msgs_per_sec"]:
            best = result
    assert best is not None
    best["reps"] = max(1, reps)
    best["isolated"] = isolate
    return best


def run_packet_bench_suite(
    backends: List[str],
    duration: float = 1.0,
    payload_size: int = 64,
    batch_size: int = 32,
    window: int = 256,
    reps: int = 1,
    isolate: bool = False,
) -> Dict[str, Dict[str, object]]:
    """Run :func:`run_packet_bench` per backend, keyed by backend name."""
    return {
        backend: run_packet_bench(
            backend,
            duration=duration,
            payload_size=payload_size,
            batch_size=batch_size,
            window=window,
            reps=reps,
            isolate=isolate,
        )
        for backend in backends
    }
