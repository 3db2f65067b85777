"""How fast the host runs a fixed reference kernel right now.

The machines this benchmark runs on are shared: the same pass can take
twice as long for tens of seconds when the host is busy, in process CPU
time as much as in wall time.  run.py times this kernel before and
after every pass and reports pass times scaled to REFERENCE_SECONDS, about the
kernel's median time on the machine the baseline was recorded on, so that
a slow stretch of the host slows kernel and pass alike and cancels out.

After a pass the kernel runs for a tenth of the pass's time, so that a
long pass is set against a long enough sample of the host's speed.  The
kernel is the benchmark's own code with the program's mix of work:
a Python loop of 4x4 complex matrix products (RK4 stepping), 4x4
Hermitian eigensystems and square roots (concurrence), 16x16 singular
value decompositions (steady states) and float formatting (CSV output).
Nothing in the program under test runs inside it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the median of reference_seconds() on a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4 with OpenBLAS).  Fixed: changing it rescales every reported time.
REFERENCE_SECONDS = 0.1

_rng = np.random.default_rng(20241111)
_H4 = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H4 = _H4 + _H4.conj().T
_U4 = np.linalg.qr(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))[0]
_M16 = _rng.standard_normal((16, 16))
_VALUES = _rng.standard_normal(8000)


def reference_seconds(budget: float = 0.0) -> float:
    """Mean seconds of the reference kernel, run back to back for `budget` seconds (at least once)."""
    runs, start = 0, perf_counter()
    while runs == 0 or perf_counter() - start < budget:
        _kernel()
        runs += 1
    return (perf_counter() - start) / runs


def _kernel() -> None:
    rho = np.eye(4, dtype=complex) / 4.0
    for _ in range(3000):
        rho = _U4 @ rho @ _U4.conj().T + 0.01 * (_H4 @ rho - rho @ _H4)
        rho = rho / np.trace(rho)
    for _ in range(600):
        w, v = np.linalg.eigh(_H4)
        (v * np.sqrt(np.abs(w))) @ v.conj().T
    for _ in range(120):
        np.linalg.svd(_M16)
    ",".join(f"{x:.17g}" for x in _VALUES)
