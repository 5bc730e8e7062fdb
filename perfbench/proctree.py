"""CPU time and peak memory of a process and all of its descendants, read
from ``/proc`` (Linux). The Ray processes a local ``ray.init`` starts (GCS,
raylet, agents, workers) all descend from the caller, so one walk covers the
whole job without a sampler thread."""

from __future__ import annotations

import os
import signal
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _ppids() -> dict[int, int]:
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended while we walked
            continue
        # comm may hold spaces or parens; the fields after it are fixed
        out[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def tree(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppids().items():
        children.setdefault(ppid, []).append(pid)
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children.get(pid, ()))
    return pids


def _stat(pid: int) -> list[str] | None:
    """The fields of /proc/<pid>/stat after the command name (the first is
    the state), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants(root: int) -> list[tuple[int, str]]:
    """(pid, start time) of every live descendant of ``root``."""
    out = []
    for pid in tree(root)[1:]:
        fields = _stat(pid)
        if fields is not None:
            out.append((pid, fields[19]))
    return out


def _running(pid: int, start: str) -> bool:
    fields = _stat(pid)
    if fields is None or fields[19] != start:
        return False
    if fields[0] == "Z":
        try:
            os.waitpid(pid, os.WNOHANG)  # reap it if it is our child
        except ChildProcessError:
            pass
        return False
    return True


def stop(procs: list[tuple[int, str]], grace_s: float = 3.0) -> None:
    """Wait until every process in ``procs`` has ended; after ``grace_s``
    send SIGTERM to those still running, and SIGKILL after as long again."""
    deadline = time.monotonic() + grace_s
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid, start in procs:
                if _running(pid, start):
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
            deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            procs = [p for p in procs if _running(*p)]
            if not procs:
                return
            time.sleep(0.05)


def cpu_s(root: int) -> float:
    """user+sys CPU seconds of ``root`` and its live descendants, including
    the children each has already reaped."""
    ticks = 0
    for pid in tree(root):
        fields = _stat(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (stat fields 14-17)
            ticks += sum(int(x) for x in fields[11:15])
    return ticks / _TICKS


def reset_peaks(root: int) -> None:
    """Set the VmHWM of ``root`` and its descendants back to their current
    resident set (``clear_refs`` code 5), so the next read is the peak
    since now."""
    for pid in tree(root):
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:  # the process ended while we walked
            continue


def peak_rss_mb(root: int) -> float:
    """Sum of VmHWM (peak resident set) over ``root`` and its descendants."""
    kb = 0
    for pid in tree(root):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024
