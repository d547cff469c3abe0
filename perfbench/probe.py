"""Machine-speed probes for calibrating host times.

On a shared machine the speed available to one process drifts by tens
of percent over seconds, as other tenants come and go. Right before
every unit of timed work the benchmark runs a fixed probe of the same
kind of work, and scales the unit's time by the probe's nominal time
over its measured time. A calibrated time reads as host seconds at a
fixed reference speed: drift of the machine cancels, while a change to
the package's code does not touch the probes.

Two kinds, because interpreter speed and memory bandwidth drift apart:
"python" (64-bit integer mixing, a nested call, struct pack/unpack: what
the runtime and scalar transforms are made of) and "numpy" (uint64
vector arithmetic over 8 MiB arrays, the size of a batch chunk)."""

import struct
import time
from contextlib import contextmanager

# Median probe times on the reference machine (x86-64, 2 vCPUs, Python
# 3.11, numpy 2.4): a calibrated second is a second at that speed.
NOMINAL_S = {"python": 0.0050, "numpy": 0.0150}

_PY_ITERS = 4000
_NP_WORDS = 1 << 20
_D = struct.Struct("<d")
_Q = struct.Struct("<Q")
_M = (1 << 64) - 1


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _probe_python():
    pack, unpack = _D.pack, _Q.unpack
    z = 0x243F6A8885A308D3
    acc = 0
    t0 = time.perf_counter()
    for _ in range(_PY_ITERS):
        z = _mix((z + 0x9E3779B97F4A7C15) & _M)
        acc ^= unpack(pack((z >> 11) * 2.0 ** -53))[0]
    dt = time.perf_counter() - t0
    if acc == 0:  # consume the result; never true for this stream
        raise AssertionError("probe stream degenerated")
    return dt


def _probe_numpy():
    import numpy as np

    u = np.uint64
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        z = np.arange(1, _NP_WORDS + 1, dtype=np.uint64) * u(0x9E3779B97F4A7C15)
        z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
        n = int(np.count_nonzero((z ^ (z >> u(31))) & u(1)))
    dt = time.perf_counter() - t0
    if n == 0:
        raise AssertionError("probe stream degenerated")
    return dt


PROBES = {"python": _probe_python, "numpy": _probe_numpy}


def slowdown(kind="python"):
    """How much slower than the reference the machine runs now."""
    return PROBES[kind]() / NOMINAL_S[kind]


class Stopwatch:
    """Times units of work, each one calibrated by the mean slowdown of
    the probes of its kind right before and right after it. Use it as a
    context manager; leaving the block takes the last unit's after-probe."""

    def __init__(self):
        self.host_s = 0.0  # as measured
        self.calibrated_s = 0.0
        self._pending = None  # (host seconds, kind, slowdown before)

    def _settle(self, kind, slow_after):
        dt, pkind, slow_before = self._pending
        slow = (slow_before + slow_after) / 2 if pkind == kind else slow_before
        self.calibrated_s += dt / slow
        self._pending = None

    @contextmanager
    def unit(self, kind="python"):
        slow = slowdown(kind)
        if self._pending is not None:
            self._settle(kind, slow)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.host_s += dt
            self._pending = (dt, kind, slow)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pending is not None:
            kind = self._pending[1]
            self._settle(kind, slowdown(kind))

    @property
    def slowdown(self):
        """Host over calibrated time: the units' mean slowdown."""
        return self.host_s / self.calibrated_s if self.calibrated_s else 1.0
