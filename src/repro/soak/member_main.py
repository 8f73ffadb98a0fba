"""Entry point for one soak-harness member process (``repro member``).

The :class:`~repro.soak.launcher.SoakLauncher` spawns one of these per
cluster member. The process:

1. builds a Lifeguard :class:`~repro.config.SwimConfig` from the CLI
   flags (ephemeral UDP and admin ports by default, so dozens of members
   share one host without port planning);
2. creates a real :class:`~repro.transport.udp.UdpMember` and prints a
   single machine-readable *ready line* on stdout —
   ``{"event": "ready", "address": ..., "admin": ..., "pid": ...}`` —
   which is how the launcher learns the ports the kernel actually chose;
3. starts the protocol, joins the given seed addresses, and runs until
   SIGTERM/SIGINT;
4. with ``--fault-plan PATH``, arms the plan in that file on its
   transport via :meth:`~repro.transport.udp.UdpTransport.set_fault_plan`
   (before it starts, if the file already exists) and then watches the
   file, arming each new version: the launcher writes each member's
   :class:`~repro.faults.FaultPlan` only once the cluster has converged
   and the chaos epoch is known;
5. self-terminates if its parent launcher dies (``--parent-pid``), so a
   crashed harness never strands orphan members on the host.

Everything after the ready line on stdout is free-form logging; the
launcher tees it into the member's log file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal

from repro.config import SwimConfig
from repro.faults import FaultPlan

#: How often the fault-plan watcher and parent-liveness checks run (s).
_WATCH_INTERVAL = 0.25


def build_config(args: argparse.Namespace) -> SwimConfig:
    """The member's protocol config; shared with tests for parity."""
    probe_timeout = min(0.5, args.probe_interval / 2.0)
    overrides: dict = dict(
        probe_interval=args.probe_interval,
        probe_timeout=probe_timeout,
        admin_port=args.admin_port,
        admin_host=args.admin_host,
    )
    return SwimConfig.lifeguard(
        alpha=args.alpha, beta=args.beta, **overrides
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The member process's flag set (the ``repro member`` sub-parser)."""
    parser.add_argument("--name", required=True, help="member name")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind interface (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="UDP/TCP port (default: 0 = ephemeral)")
    parser.add_argument("--admin-port", type=int, default=0,
                        help="admin API port (default: 0 = ephemeral)")
    parser.add_argument("--admin-host", default="127.0.0.1",
                        help="admin API interface (default: 127.0.0.1)")
    parser.add_argument("--join", action="append", default=[],
                        metavar="HOST:PORT",
                        help="seed address to join (repeatable)")
    parser.add_argument("--probe-interval", type=float, default=0.5,
                        help="base probe interval, seconds (default: 0.5)")
    parser.add_argument("--alpha", type=float, default=5.0,
                        help="suspicion alpha (default: 5)")
    parser.add_argument("--beta", type=float, default=6.0,
                        help="suspicion beta (default: 6)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for this member (default: 0)")
    parser.add_argument("--fault-plan", metavar="PATH",
                        help="fault-plan JSON file (repro.faults), armed "
                             "at startup if present and whenever rewritten")
    parser.add_argument("--parent-pid", type=int, default=0,
                        help="exit when this process is no longer the "
                             "parent (orphan protection)")


def _arm_plan(path: str, transport) -> float:
    """Arm the plan in ``path`` on ``transport``; return the file's mtime."""
    mtime = os.stat(path).st_mtime
    plan = FaultPlan.load(path)
    transport.set_fault_plan(plan)
    print(
        f"fault plan armed: {len(plan.windows)} window(s), "
        f"epoch={plan.epoch:.3f}",
        flush=True,
    )
    return mtime


async def _watch_plan(path: str, transport, armed_mtime: float) -> None:
    """Poll ``path``; arm each new plan version on ``transport``."""
    while True:
        await asyncio.sleep(_WATCH_INTERVAL)
        try:
            if os.stat(path).st_mtime != armed_mtime:
                armed_mtime = _arm_plan(path, transport)
        except (OSError, ValueError, KeyError):
            pass  # not there yet or partially written; retried next poll


async def _watch_parent(parent_pid: int, stop: asyncio.Event) -> None:
    while not stop.is_set():
        await asyncio.sleep(_WATCH_INTERVAL)
        if os.getppid() != parent_pid:
            stop.set()
            try:
                print("parent launcher died; exiting", flush=True)
            except OSError:
                pass  # stdout pipe died with the launcher
            return


async def _amain(args: argparse.Namespace) -> int:
    import random

    from repro.transport.udp import UdpMember

    config = build_config(args)
    member = await UdpMember.create(
        args.name,
        config,
        host=args.host,
        port=args.port,
        rng=random.Random(args.seed),
    )
    print(
        json.dumps(
            {
                "event": "ready",
                "name": args.name,
                "address": member.address,
                "admin": member.admin_address,
                "pid": os.getpid(),
            },
            separators=(",", ":"),
        ),
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    tasks = []
    if args.fault_plan:
        armed = -1.0
        if os.path.exists(args.fault_plan):
            armed = _arm_plan(args.fault_plan, member.transport)
        tasks.append(
            asyncio.ensure_future(
                _watch_plan(args.fault_plan, member.transport, armed)
            )
        )
    member.start()
    if args.join:
        member.join(list(args.join))
    if args.parent_pid:
        tasks.append(asyncio.ensure_future(_watch_parent(args.parent_pid, stop)))
    try:
        await stop.wait()
    finally:
        for task in tasks:
            task.cancel()
        await member.stop()
    return 0


def run(args: argparse.Namespace) -> int:
    """``repro member`` entry point; returns a process exit code."""
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - signal race on teardown
        return 0
