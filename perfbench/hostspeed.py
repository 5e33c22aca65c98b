"""Host speed: a fixed piece of CPU work, timed between steps.

On a shared VM the host runs the vCPUs at speeds that differ by up to 1.7x,
for seconds to minutes at a time, so whole runs of the same code read 30%
apart. Between steps the run times ``reference_s`` on its main thread; a
step and its operations get the host speed measured around them, and the
end-to-end latencies and rates are scaled by it to a host on which the
reference takes ``REF_NOMINAL_S``.

The reference is timed in the main thread's own CPU time, so time the
thread spends descheduled (the program's other threads running, or waiting
for the GIL) does not count: a program change that keeps the CPU busy in
the background slows the steps but not the reference, and still shows.
"""

from __future__ import annotations

import base64
import time

import numpy as np

# Thread CPU time of one reference on a 2-vCPU VM in its usual, slower state.
REF_NOMINAL_S = 1.4e-3
REF_EVERY_S = 0.25  # at most one reference sample per this much wall time
REF_REPS = 3  # a sample is the fastest of this many references

_LOOP = 10_000
_BYTES = bytes(range(256)) * 256
_MATRIX = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096


def reference_s() -> float:
    """Thread CPU time of a fixed mix of interpreter loop, bytes codec and a
    small matrix product, the kinds of work the workloads do."""
    t0 = time.thread_time()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    base64.b64decode(base64.b64encode(_BYTES))
    m = _MATRIX
    for _ in range(4):
        m = m @ _MATRIX
    return time.thread_time() - t0


def host_speed() -> float:
    """``REF_NOMINAL_S`` over the fastest of ``REF_REPS`` references: above 1
    on a host running faster than nominal."""
    return REF_NOMINAL_S / min(reference_s() for _ in range(REF_REPS))


class SpeedTrack:
    """Gives each step and operation of a session the host speed around it.

    ``after_step`` samples the speed once ``REF_EVERY_S`` has passed since the
    last sample (or when forced); the steps and operations since then get the
    mean of the samples before and after them.
    """

    def __init__(self):
        self.speed = host_speed()
        self.at = time.perf_counter()
        self.step_speeds: list[float] = []
        self.op_speeds: list[float] = []
        self.samples = [self.speed]

    def after_step(self, steps: int, ops: int, force: bool = False) -> None:
        if not force and time.perf_counter() - self.at < REF_EVERY_S:
            return
        speed = host_speed()
        mean = (self.speed + speed) / 2
        self.step_speeds += [mean] * (steps - len(self.step_speeds))
        self.op_speeds += [mean] * (ops - len(self.op_speeds))
        self.speed, self.at = speed, time.perf_counter()
        self.samples.append(speed)
