"""What a test may not leave behind: sockets, child processes and
``/dev/shm`` segments (what ``benchmarks/perf`` asserts after every rep,
lifted into tier 1).

``tests/transport``, ``tests/zones`` and ``tests/soak`` import
:func:`nothing_leaked` into their ``conftest.py``, which makes it autouse
there. A module whose fixture outlives a test overrides ``nothing_leaked``
with a plain ``yield`` and wraps the fixture in
:func:`assert_nothing_leaked` instead (``test_hostile_streams.py``).
Everything is read from ``/proc``; where there is none, nothing is
checked.
"""

import contextlib
import gc
import os

import pytest


def open_sockets():
    """Descriptors of this process that are sockets, as ``{fd: inode
    link}``; ``None`` where there is no ``/proc`` to ask."""
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return None
    sockets = {}
    for fd in fds:
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if link.startswith("socket:"):
            sockets[int(fd)] = link
    return sockets


def child_processes():
    """Direct children of this process, zombies included, as ``{pid:
    command line}``. ``multiprocessing``'s resource tracker is not one:
    it starts with the first shared-memory segment and lives as long as
    the interpreter."""
    me = str(os.getpid())
    children = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
            # "pid (comm) state ppid ..."; comm may contain spaces.
            if stat.rpartition(")")[2].split()[1] != me:
                continue
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:  # exited while we were looking
            continue
        if b"resource_tracker" not in cmdline:
            children[int(pid)] = cmdline.replace(b"\0", b" ").decode(errors="replace")
    return children


def shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _mapped_elsewhere(segments, family):
    """The ``segments`` some process outside ``family`` has mapped:
    ``/dev/shm`` is the one place here shared with whatever else the
    machine runs, and another session's live ring is not this test's
    leak."""
    foreign = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        if int(pid) in family:
            continue
        try:
            with open(f"/proc/{pid}/maps") as handle:
                maps = handle.read()
        except OSError:
            continue
        foreign.update(name for name in segments if f"/dev/shm/{name}" in maps)
    return foreign


@contextlib.contextmanager
def assert_nothing_leaked():
    """No socket is open, no child process exists and no shared-memory
    segment is present at exit that was not there at entry."""
    sockets = open_sockets()
    if sockets is None:
        yield
        return
    children, segments = child_processes(), shm_segments()
    yield
    gc.collect()
    children_now = child_processes()
    leaked = {
        "sockets left open": {
            fd: link for fd, link in open_sockets().items() if sockets.get(fd) != link
        },
        "child processes left": {
            pid: cmd for pid, cmd in children_now.items() if pid not in children
        },
    }
    new_segments = shm_segments() - segments
    if new_segments:
        new_segments -= _mapped_elsewhere(new_segments, {os.getpid(), *children_now})
    leaked["/dev/shm segments left"] = sorted(new_segments)
    assert not any(leaked.values()), {k: v for k, v in leaked.items() if v}


@pytest.fixture(autouse=True)
def nothing_leaked():
    """Every test leaves the process's sockets, children and shared
    memory as it found them."""
    with assert_nothing_leaked():
        yield
