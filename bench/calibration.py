"""Calibration kernel: fixed work timed beside every measurement.

The speed of a shared host drifts by up to a factor of two within minutes
as other tenants load it, and it moves every timing alike. The benchmark
therefore times this kernel, which never changes, right before and after
each invocation and scales the invocation's CPU time by
``NOMINAL_S / kernel time``. A reported time is the CPU time the work would
take on a host where the kernel takes exactly ``NOMINAL_S``; a change to
ringwalk moves it, a change in host load mostly does not. Raw CPU times are
kept beside the scaled ones in the result file.

The kernel mixes the two kinds of work ringwalk does: small numpy calls on
a 9-qubit state (axis moves and an 8x8 matrix product, as in a gate
application) and Python-level formatting. It shares no code with ringwalk.
Changing it changes every scaled number, so it is versioned.
"""

from __future__ import annotations

import json
import time

import numpy as np

VERSION = 1
NOMINAL_S = 0.004

_QUBITS = 9
_TARGETS = ((0, 4, 8), (3, 1, 7), (8, 2, 5), (6, 7, 0), (2, 3, 4))
_MATRIX = np.linalg.qr(np.arange(64, dtype=float).reshape(8, 8) % 7 + np.eye(8))[0].astype(np.complex128)
_STATE = np.exp(1j * np.arange(2**_QUBITS)) / np.sqrt(2**_QUBITS)


def kernel() -> float:
    psi = _STATE
    for k in range(150):
        targets = list(_TARGETS[k % len(_TARGETS)])
        block = np.moveaxis(psi.reshape((2,) * _QUBITS), targets, range(3)).reshape(8, -1)
        psi = np.ascontiguousarray(
            np.moveaxis((_MATRIX @ block).reshape((2,) * _QUBITS), range(3), targets)
        ).reshape(-1)
        psi = psi * 0.999
    rows = {format(i, "09b"): f"{abs(v) ** 2:.12g}" for i, v in enumerate(psi)}
    return float(len(json.dumps(rows, sort_keys=True)))


def measure() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start
