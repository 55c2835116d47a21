"""The machine's speed, sampled between ops, to put op times on one scale.

The 2-vCPU shared host the bounds were set on ran, for stretches of seconds
to minutes, at anything between its full speed and half of it, and process
CPU time moved with wall time: a raw op time there measures the neighbours
as much as the program.  So before every op, outside the timed region, the
harness times a fixed kernel that does the same kind of work as the
workload's ops, and scales the op's wall time by ``REFERENCE[kind] /
kernel wall time`` (the mean of the samples around the op), and its CPU
time likewise by the kernel's CPU time: the op time the same machine
would show in the state in which the kernel takes its reference time.
The kernels live here, outside the package, so a change to the package
never changes them; a slower program still reads slower.  Raw times are
kept beside the scaled ones in the run record.

Two kernels, because the host's slowdowns hit them differently (on that
host, scaling a 512-body op by the interpreter kernel left its spread as it
was, while the pairwise kernel cut it tenfold):

- ``interp``: small-array numpy calls through the interpreter, the cost of
  N = 3 work (cc_search, rigid_orbit);
- ``pairwise``: 512 x 512 pairwise arrays from a small matrix product, the
  cost of the N = 512 force kernel (cluster_step).

geodesic_count, whose ops run on the package's thread pool, is not scaled:
neither the interpreter kernel nor the same kernel on a thread pool like
the one ``enumerate_geodesic_h`` makes tracked it.  Both swung more than
the moulton ops did, and made their spread over ten runs wider, not
narrower.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel (wall, CPU) seconds on the reference machine (2-vCPU Intel Xeon
# VM, Python 3.11, numpy 2.4, OpenBLAS 0.3) in its usual, slowed state;
# they only fix the unit of the scaled times.
# The pairwise kernel's matrix product runs on OpenBLAS's threads, so on
# an otherwise idle machine its CPU time is twice its wall time.
REFERENCE = {"interp": (1.5e-3, 1.5e-3), "pairwise": (4.5e-3, 9.0e-3)}
# Kernel runs in one sample between two ops: about 15 ms.
REPS = {"interp": 10, "pairwise": 3}
# One sample is noisy (the machine's spells of a few ms), while the
# machine's speed drifts over seconds, so an op is scaled by the mean of
# the ten samples around it.
HALF_WINDOW = 5
# A set-up is mostly imports and input generation on one thread, so it is
# scaled by the interp kernel, run for about 0.15 s.
SETUP_KIND, SETUP_REPS = "interp", 100

_A = np.random.default_rng(0).normal(size=(3, 4))
_X = np.random.default_rng(0).normal(size=(512, 4))


def _interp() -> float:
    s = 0.0
    for _ in range(200):
        b = _A * 1.0001
        s += float(np.sum(b * b))
    return s


def _pairwise() -> float:
    g = _X @ _X.T
    return float((np.sqrt(np.abs(g) + 1.0) * g).sum())


KERNELS = {"interp": _interp, "pairwise": _pairwise}


def kernel_s(kind: str, reps: int | None = None) -> tuple:
    """The mean wall and process CPU time of ``reps`` runs of the kernel, in
    seconds: a mean, not a median, because the op it stands for also runs
    through the machine's brief fast and slow spells in proportion.  The
    two differ for the pairwise kernel, whose BLAS threads run side by
    side."""
    fn = KERNELS[kind]
    reps = reps or REPS[kind]
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(reps):
        fn()
    t1, c1 = time.perf_counter(), time.process_time()
    return (t1 - t0) / reps, (c1 - c0) / reps


def scales(kind: str, samples, half: int = HALF_WINDOW) -> list:
    """Per-op (wall, CPU) scale factors from kernel samples (wall, CPU)
    taken before each op and one after the last: op k (between samples k
    and k + 1) is scaled by the reference time over the mean of the
    ``2 * half`` samples around it, fewer at either end of the run.  Wall
    time is scaled by the kernel's wall time, CPU time by its CPU time."""
    ref_wall, ref_cpu = REFERENCE[kind]
    out = []
    for k in range(len(samples) - 1):
        window = samples[max(0, k + 1 - half):k + 1 + half]
        out.append((ref_wall * len(window) / sum(w for w, _ in window),
                    ref_cpu * len(window) / sum(c for _, c in window)))
    return out
