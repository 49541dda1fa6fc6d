"""Host-noise and process readings from ``/proc``.

Steal time and the measured process's CPU per op are recorded beside
every run so that a slow run can be told apart from a slow program.
They are never used to drop or reweight runs.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """Cumulative CPU steal of the host, summed over its CPUs."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a process (all threads) so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # The command name may contain spaces; fields resume after ')'.
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a running process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
