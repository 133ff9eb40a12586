"""Resource probes read from ``/proc/<pid>``, and the child-process registry
the watchdog kills."""

from __future__ import annotations

import os
from typing import Set

#: pids of running children; the watchdog kills these before bailing out
CHILDREN: Set[int] = set()

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def status_kb(pid: int, key: str) -> float:
    """A ``kB`` line of ``/proc/<pid>/status``, such as ``VmHWM``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(key)


def io_field(pid: int, key: str) -> int:
    """A counter of ``/proc/<pid>/io``, such as ``wchar``."""
    with open(f"/proc/{pid}/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)
