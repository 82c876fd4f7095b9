"""A fixed calibration loop that measures how fast the machine runs now.

The benchmark's host switches between a fast and a slow state for minutes
at a time: the same plans take up to 40 % longer in the slow one. A run of
under a minute sits in one state, so a longer run does not average the
states away. The benchmark processes therefore run this loop between plans,
about once every ``EVERY_S`` seconds, and run.py scales the run's plan
times by ``NOMINAL_S`` over the loop's median time in the run. A change of
machine speed slows the loop and the planner alike and largely cancels; a
change of the planner's own cost does not, because the loop never calls
qorsim. Interpreter start and imports follow the loop too loosely, so
set-up has a calibration of its own: just before it starts each benchmark
process, run.py times a fresh interpreter that imports numpy, the same kind
of work as set-up, and it scales set-up times by ``IMPORT_NOMINAL_S`` over
the median of those.

The loop does the kind of work a plan does: Python-level control flow over
small complex numpy operations, as in a Monte Carlo trial's memory decay,
and Kraus sums over operators lifted by ``np.kron``, as in the span
channel stack.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

import numpy as np

# Median time of one sample() on the machine described in README.md, in its
# fast state; reported timings are in seconds of a machine that runs the
# loop this fast.
NOMINAL_S = 0.045

# Median time of import_sample() in the fast state of the machine
# described in README.md.
IMPORT_NOMINAL_S = 0.16

# Seconds between samples; the samples owed after a long plan run back to
# back, so that sampling takes the same share of every workload's run.
EVERY_S = 0.5

_HALF_I = np.eye(2) / 2.0
_KRAUS = (
    math.sqrt(0.97) * np.eye(2, dtype=complex),
    math.sqrt(0.01) * np.array([[0, 1], [1, 0]], dtype=complex),
    math.sqrt(0.01) * np.array([[0, -1j], [1j, 0]], dtype=complex),
    math.sqrt(0.01) * np.array([[1, 0], [0, -1]], dtype=complex),
)


def loop(steps: int = 200) -> float:
    rng = np.random.default_rng(12345)
    rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    acc = 0.0
    for _ in range(steps):
        k = int(rng.geometric(0.3))
        lam = math.exp(-0.05 * k)
        reduced = np.einsum("ijik->jk", rho.reshape(2, 2, 2, 2))
        rho = lam * rho + (1.0 - lam) * np.kron(_HALF_I, reduced)
        out = np.zeros((4, 4), dtype=complex)
        for op in _KRAUS:
            lifted = np.kron(np.kron(np.eye(1), op), np.eye(2))
            out += lifted @ rho @ lifted.conj().T
        rho = (out + out.conj().T) / 2
        if rng.random() < 0.5:
            acc += float(np.real(np.trace(rho)))
    return acc


def sample() -> float:
    """Wall time of one loop(), with the garbage collector held off so that
    collecting the plan's garbage is not charged to the machine."""
    gc.collect()
    gc.disable()
    try:
        t = time.perf_counter()
        loop()
        return time.perf_counter() - t
    finally:
        gc.enable()


def import_sample(cwd: str) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - t
