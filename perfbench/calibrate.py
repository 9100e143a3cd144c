"""Machine-speed calibration, interleaved with every timed loop.

The CPU this benchmark was tuned on (a 2-core virtual machine) changes
speed by up to a factor of two, both from one second to the next and over
minutes, as neighbours come and go. The process is not descheduled: its
CPU time equals its wall time and steal time stays under 1 %; it simply
runs slower. A fixed ``derive_key_chain`` loop ran at 1,260 to 2,090 calls
per second in consecutive one-second slices there.

Two fixed kernels are timed in short probes spread through every
measurement window: one builds a TDEA cipher and encrypts through the
``cryptography`` backend, one is plain interpreter work. Their code lives
here, so a change to the program does not change them. Their speed over
the window relative to nominal rates is the window's machine speed
factor, 1.0 at nominal speed. Each window's rate is divided by its factor.
Each latency is multiplied by the mean factor of the two probes around
it, about 0.1 s apart, and each set-up time by that of the probes just
before and just after it. The speed changes within a second: a factor
sampled only at window boundaries tracked the program's rate visibly
worse, and a latency median scaled by its window's factor still drifted
with the machine speed. Results thus read as if the machine ran at its
nominal speed; the unscaled figures are printed beside them.

On that machine, over 60 paired slices, the standard deviation of the log
of a 0.4 s window rate fell from 0.095 to 0.041 for ``derive_key_chain``
and from 0.103 to 0.035 for ``run_simulation`` (FIXED) once divided by the
factor; each kernel alone correlated 0.88 to 0.96 with the program's rate.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives.ciphers import Cipher, modes

# kernel calls per second at nominal speed, measured on the reference machine
NOMINAL = {"cipher": 10_000.0, "interpreter": 22_000.0}

_KEY = bytes(range(24))
_BLOCK = bytes(8)


def _cipher_kernel() -> bytes:
    acc = _BLOCK
    for _ in range(4):
        enc = Cipher(TripleDES(_KEY), modes.ECB()).encryptor()
        acc = bytes(a ^ b for a, b in zip(enc.update(acc) + enc.finalize(), _BLOCK))
    return acc


def _interpreter_kernel() -> int:
    table = {}
    acc = 0
    for i in range(300):
        acc += i * i % 7
        table[i & 31] = acc
    return acc


KERNELS = {"cipher": _cipher_kernel, "interpreter": _interpreter_kernel}


def _rate_ratio(name: str, slice_ns: int) -> tuple[int, int, float]:
    """Run one kernel for ``slice_ns``: calls, time spent, rate / nominal rate."""
    kernel = KERNELS[name]
    calls = 0
    start = perf_counter_ns()
    while True:
        kernel()
        calls += 1
        elapsed = perf_counter_ns() - start
        if elapsed >= slice_ns:
            break
    return calls, elapsed, calls * 1e9 / elapsed / NOMINAL[name]


class SpeedMeter:
    """Kernel probes accumulated since the last ``factor`` call."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.calls = dict.fromkeys(KERNELS, 0)
        self.ns = dict.fromkeys(KERNELS, 0)

    def probe(self, slice_ns: int) -> tuple[int, float]:
        """Run every kernel for an equal share of ``slice_ns``.

        Returns the time spent and this probe's own speed factor.
        """
        spent, logs = 0, []
        for name in KERNELS:
            calls, elapsed, ratio = _rate_ratio(name, slice_ns // len(KERNELS))
            self.calls[name] += calls
            self.ns[name] += elapsed
            spent += elapsed
            logs.append(math.log(ratio))
        return spent, math.exp(sum(logs) / len(logs))

    def factor(self) -> float:
        """Geometric mean of rate / nominal rate over the probes since the last call."""
        logs = [math.log(self.calls[k] * 1e9 / self.ns[k] / NOMINAL[k]) for k in KERNELS]
        self._reset()
        return math.exp(sum(logs) / len(logs))
