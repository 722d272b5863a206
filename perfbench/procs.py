"""Process hygiene: run each workload in its own process group, reap it all.

Every workload run is a child started in a new session, so the child, the
serving shards it forks, any ``ProcessPoolExecutor`` workers, the load
client and multiprocessing's ``resource_tracker`` share one process group.
The supervisor makes itself a child subreaper, so descendants orphaned by
the child's exit are re-parented to it and can be reaped here instead of
lingering as zombies.  A run is clean only when the group is empty without
having to be signalled.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time

PR_SET_CHILD_SUBREAPER = 36
SHM_DIR = "/dev/shm"


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``prctl``); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_exited() -> None:
    """Collect the exit status of every exited child (orphans included)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def group_members(pgid: int) -> list[int]:
    """Pids of live (non-zombie) processes in process group ``pgid``."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        except PermissionError:
            pass
        return [pgid]
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) >= 3 and int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid: int, *, grace_s: float = 10.0, kill_s: float = 10.0) -> bool:
    """Wait until group ``pgid`` is empty; TERM, then KILL, what lingers.

    Returns True when every member exited within ``grace_s`` on its own,
    False when any had to be signalled.  Raises ``RuntimeError`` if a
    member is still alive after the KILL.
    """
    deadline = time.monotonic() + grace_s
    clean = True
    stage = 0
    while True:
        reap_exited()
        if not group_members(pgid):
            return clean
        if time.monotonic() >= deadline:
            if stage == 2:
                raise RuntimeError(
                    f"processes {group_members(pgid)} of group {pgid} "
                    "survived SIGKILL"
                )
            clean = False
            stage += 1
            _signal_group(pgid, signal.SIGTERM if stage == 1 else signal.SIGKILL)
            deadline = time.monotonic() + (2.0 if stage == 1 else kill_s)
        time.sleep(0.02)


def run_in_group(
    cmd, *, timeout_s: float, grace_s: float = 10.0, **popen_kwargs
) -> tuple[int, bool, bool]:
    """Run ``cmd`` in a new process group and reap every descendant.

    Returns ``(returncode, timed_out, clean)``.  Descendants get
    ``grace_s`` after ``cmd`` exits to finish on their own.  On timeout,
    on an exception here (for example an interrupt) and after a normal
    exit alike, nothing started by ``cmd`` is alive when this returns.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **popen_kwargs)
    timed_out = False
    try:
        try:
            returncode = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            timed_out = True
            _signal_group(proc.pid, signal.SIGKILL)
            returncode = proc.wait()
    except BaseException:
        _signal_group(proc.pid, signal.SIGKILL)
        proc.wait()
        reap_group(proc.pid, grace_s=0.0)
        raise
    clean = reap_group(proc.pid, grace_s=0.0 if timed_out else grace_s)
    return returncode, timed_out, clean and not timed_out


def shm_entries() -> set[str]:
    """Names currently in the POSIX shared-memory directory."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def remove_shm(names) -> None:
    for name in names:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
