"""User-space instructions retired by a process, from the CPU's counters.

The benchmark's gated work metric.  Unlike wall or CPU time, the count
does not change when a shared host runs slower (the reference host's
speed drifted by 1.8x within a quarter of an hour) or takes the core
away: a cold 20 s pattern costs 289.5M instructions +-0.1% whatever the
host does.  Read through Linux ``perf_event_open``; where the kernel or
hypervisor exposes no instruction counter the benchmark cannot measure
and stops.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}  # perf_event_open
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_READ_TIMES = 1 | 2  # value, time enabled, time running
# attr flags: inherit (1 << 1), exclude_kernel (1 << 5), exclude_hv (1 << 6)
_FLAGS = (1 << 1) | (1 << 5) | (1 << 6)


class _Attr(ctypes.Structure):
    # struct perf_event_attr, first published size (PERF_ATTR_SIZE_VER0).
    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
    ]


class InstructionCounter:
    """Counts the user-space instructions of every thread of ``pid``.

    One counter per thread that exists when it is opened; each inherits
    to the threads that thread starts later (their counts join when they
    exit).  :meth:`read` returns the total so far.
    """

    def __init__(self, pid: int) -> None:
        number = _SYSCALL.get(platform.machine())
        if number is None:
            raise RuntimeError(f"no perf_event_open on {platform.machine()}")
        self._libc = ctypes.CDLL(None, use_errno=True)
        self._fds: "list[int]" = []
        try:
            for tid in sorted(int(t) for t in os.listdir(f"/proc/{pid}/task")):
                attr = _Attr(
                    type=_PERF_TYPE_HARDWARE,
                    size=ctypes.sizeof(_Attr),
                    config=_PERF_COUNT_HW_INSTRUCTIONS,
                    read_format=_READ_TIMES,
                    flags=_FLAGS,
                )
                fd = self._libc.syscall(number, ctypes.byref(attr), tid, -1, -1, 0)
                if fd < 0:
                    err = ctypes.get_errno()
                    raise RuntimeError(
                        f"cannot count instructions of thread {tid}: "
                        f"{os.strerror(err)} (perf_event_open)"
                    )
                self._fds.append(fd)
        except BaseException:
            self.close()
            raise

    def read(self) -> float:
        """Instructions so far, scaled up if the counter was multiplexed."""
        total = 0.0
        for fd in self._fds:
            value, enabled, running = struct.unpack("3Q", os.read(fd, 24))
            total += value * enabled / running if running else 0.0
        return total

    def close(self) -> None:
        while self._fds:
            os.close(self._fds.pop())
