"""Machine-speed calibration of the timed metrics.

On a shared machine the speed a process gets drifts with its neighbours'
load: on the 2-vCPU box this was tuned on, the same computation took between
1x and 2x its best time, in phases from seconds to several minutes long.
A run's best or median time then says more about the phase it fell in than
about the program.

So every timed sample is bracketed by a probe, a short fixed computation that
does not touch nepritz and has the same mix as the program: an interpreted
loop of small complex LAPACK solves plus one 64 x 64 complex SVD, about half
the time each, so that the probe feels both a slower interpreter and a
contended cache.  A sample is reported at reference speed,

    sample_s * REF_PROBE_S / (mean of the probe times before and after it),

that is, as the time it would have taken on a machine where one probe takes
``REF_PROBE_S``.  A program change moves the sample and not the probes, so
the scaled figure moves with it; a change of machine speed moves both.

The probes are only valid if nothing else in the process runs while they
do; ``Probe.foreign_cpu_s`` sums the CPU time that other threads of the
process used during probes, and the caller refuses a run in which it is not
negligible.
"""

from __future__ import annotations

import time

import numpy as np

# one probe's time at reference speed: the typical probe time on the 2-vCPU
# shared x86-64 machine the benchmark was tuned on (OpenBLAS, 1 thread)
REF_PROBE_S = 1.2e-3
PROBE_REPEATS = 3
_SOLVES = 40
_rng = np.random.default_rng(12345)
_SMALL = [(_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))) for _ in range(8)]
_RHS = np.ones(6, dtype=complex)
_MID = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def _reference_work() -> complex:
    acc = 0j
    for i in range(_SOLVES):
        acc += np.linalg.solve(_SMALL[i % len(_SMALL)], _RHS)[0] * (1.0 + i)
    return acc + np.linalg.svd(_MID, compute_uv=False)[0]


class Probe:
    """Measures the speed the process gets now; keeps the foreign-CPU sum."""

    def __init__(self) -> None:
        self.foreign_cpu_s = 0.0
        self.probe_s = 0.0
        _reference_work()  # first-call costs stay out of the first probe

    def __call__(self) -> float:
        """Seconds of the fastest of PROBE_REPEATS runs of the reference work."""
        best = float("inf")
        cpu0, own0, wall0 = time.process_time(), time.thread_time(), time.perf_counter()
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
        self.foreign_cpu_s += (time.process_time() - cpu0) - (time.thread_time() - own0)
        self.probe_s += time.perf_counter() - wall0
        return best

    def contaminated(self) -> bool:
        """Other threads used more than 5% of the probes' own time."""
        return self.foreign_cpu_s > 0.05 * self.probe_s + 1e-3


def at_reference_speed(sample_s: float, probe_before: float, probe_after: float) -> float:
    return sample_s * REF_PROBE_S / (0.5 * (probe_before + probe_after))
