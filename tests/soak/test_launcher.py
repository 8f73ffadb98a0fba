"""Launcher lifecycle against real member subprocesses (localhost)."""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.soak.launcher import SoakLauncher
from repro.faults import FaultEntry, FaultPlan, FaultSchedule, FaultWindow


@pytest.fixture
def launcher(tmp_path):
    instance = SoakLauncher(
        run_dir=str(tmp_path / "run"),
        probe_interval=0.2,
        alpha=2.0,
        stagger=0.02,
        ready_timeout=20.0,
    )
    yield instance
    instance.terminate_all()


def test_spawn_ready_kill_reap(launcher):
    members = launcher.spawn_all(3)
    assert [record.name for record in members] == ["m000", "m001", "m002"]
    addresses = launcher.addresses()
    assert len(set(addresses)) == 3 and all(addresses)
    assert all(record.admin_address for record in members)
    assert all(record.alive for record in members)

    # The admin API answers on the ephemeral port the ready line named.
    info = json.loads(
        urllib.request.urlopen(
            members[0].admin_url + "/info", timeout=5
        ).read()
    )
    assert info["admin"]["address"] == members[0].admin_address

    assert launcher.kill(1)
    deadline = time.time() + 5
    while time.time() < deadline and not launcher.reap():
        time.sleep(0.05)
    assert members[1].state == "killed"
    assert not members[1].alive
    # Killing an already-dead member is a no-op, not an error.
    assert not launcher.kill(1)

    launcher.terminate_all()
    assert all(not record.alive for record in members)
    for record in (members[0], members[2]):
        assert record.process.returncode == 0  # clean SIGTERM exit


def test_pause_and_resume(launcher):
    members = launcher.spawn_all(2)
    assert launcher.pause(1)
    assert members[1].state == "paused"
    assert members[1].alive  # stopped, not gone
    assert launcher.resume(1)
    assert members[1].state == "running"


def test_fault_plan_delivery_arms_live_transport(launcher):
    launcher.spawn_all(2)
    schedule = FaultSchedule((
        FaultEntry("loss", 0.0, 5.0, rate=0.5, members=("m001",)),
    ))
    written = launcher.write_fault_plans(schedule, epoch=time.time())
    assert set(written) == {1}
    plan_path = written[1]
    assert os.path.exists(plan_path)
    # The member's watcher logs when it arms the plan.
    record = launcher.members[1]
    deadline = time.time() + 5
    armed = False
    while time.time() < deadline and not armed:
        with open(record.log_path, encoding="utf-8") as handle:
            armed = "fault plan armed" in handle.read()
        time.sleep(0.1)
    assert armed, "member never armed the delivered fault plan"


def _member_env():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return env


def test_existing_fault_plan_is_armed_before_join_and_rewrites_rearm(tmp_path):
    """A plan file present at startup is armed before the member joins,
    and the same watcher arms every later version of it."""
    import queue
    import socket
    import subprocess
    import sys
    import threading

    # A stand-in seed: the member's join is a reliable (TCP) sync offer to
    # it, which the plan's partition window must fail before it connects.
    seed = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    seed.bind(("127.0.0.1", 0))
    seed.listen(4)
    seed.settimeout(1.5)
    seed_address = "127.0.0.1:%d" % seed.getsockname()[1]
    plan_path = str(tmp_path / "m.plan.json")
    FaultPlan(
        windows=(FaultWindow("partition", 0.0, 60.0, peers=(seed_address,)),),
        epoch=time.time(),
    ).dump(plan_path)

    member = subprocess.Popen(
        [sys.executable, "-m", "repro", "member", "--name", "m",
         "--probe-interval", "0.2", "--fault-plan", plan_path,
         "--join", seed_address],
        stdout=subprocess.PIPE, text=True, env=_member_env(),
    )
    lines: "queue.Queue[str]" = queue.Queue()
    reader = threading.Thread(
        target=lambda: [lines.put(line) for line in member.stdout], daemon=True
    )
    reader.start()
    try:
        assert json.loads(lines.get(timeout=20))["event"] == "ready"
        assert lines.get(timeout=5).startswith("fault plan armed: 1 window(s)")
        with pytest.raises(socket.timeout):
            seed.accept()  # the join never reached the seed

        rewritten = tmp_path / "next.plan.json"
        FaultPlan(
            windows=(
                FaultWindow("loss", 0.0, 5.0, rate=0.5),
                FaultWindow("loss", 5.0, 10.0, rate=0.25),
            ),
            epoch=time.time(),
        ).dump(str(rewritten))
        os.replace(rewritten, plan_path)
        assert lines.get(timeout=5).startswith("fault plan armed: 2 window(s)")
    finally:
        seed.close()
        member.terminate()
        member.wait(timeout=10)
        reader.join(timeout=5)
        member.stdout.close()


def test_ready_timeout_surfaces_log_path(tmp_path):
    broken = SoakLauncher(
        run_dir=str(tmp_path), ready_timeout=0.5, python="/bin/false"
    )
    with pytest.raises(RuntimeError, match="not ready"):
        broken.spawn_all(1)


def test_member_self_exits_when_parent_dies():
    """Orphan protection: --parent-pid members notice launcher death."""
    import subprocess
    import sys

    # A throwaway parent that spawns one member and then dies.
    script = (
        "import os, subprocess, sys, time\n"
        "proc = subprocess.Popen([\n"
        f"    {sys.executable!r}, '-m', 'repro', 'member',\n"
        "    '--name', 'orphan', '--probe-interval', '0.2',\n"
        "    '--parent-pid', str(os.getpid())],\n"
        "    stdout=subprocess.PIPE, text=True)\n"
        "proc.stdout.readline()\n"
        "print(proc.pid, flush=True)\n"
        "time.sleep(30)\n"
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env=_member_env(),
    )
    member_pid = int(parent.stdout.readline())
    parent.send_signal(signal.SIGKILL)
    parent.wait()
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.kill(member_pid, 0)
        except ProcessLookupError:
            return  # member exited on its own
        time.sleep(0.1)
    os.kill(member_pid, signal.SIGKILL)
    pytest.fail("orphaned member did not self-exit")
