"""Gate matrices: ideal and published effective multiqubit gates, the
tunable-accuracy parametric family, and the shift gate the executor runs
at each rank.

A gate is a plain complex array: a CkZ gate is its 1-D diagonal of
length 2^rank and a CkX gate is a dense (2^rank, 2^rank) matrix, controls
first, target last. Effective CkZ gates have one (magnitude, phase) pair
per Hamming weight of the control/target string. Phases are stored as
fractions of pi, so an entry is ``mag * exp(1j * pi * frac)``. ckx holds
the whole effective-gate policy: which matrix a shift gate of a given
rank runs as, with gate errors on or off.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_INVSQRT2 = 1.0 / math.sqrt(2.0)

# Per-weight (magnitude, phase/pi) pairs of the published effective CkZ,
# by k, indexed by Hamming weight 0..k+1. Weight 0 is exactly 1 in every case.
_EFF_WEIGHTS = {
    1: ((1.0, 0.0), (0.9990, 0.9906), (0.9986, 1.0)),
    2: ((1.0, 0.0), (0.9981, 0.9845), (0.9973, 0.9934), (0.9963, 0.9911)),
    3: ((1.0, 0.0), (0.997947, -0.995), (0.996286, 0.984), (0.994391, 0.981), (0.990724, 0.981)),
}

# Linear drift rates of the weight-1 coefficients with pulse-shaping effort a.
_ALPHA_SLOPE = 0.0001
_PHI_SLOPE = 0.0010


def _ry(theta: float) -> np.ndarray:
    """Real RY(theta) matrix; the ideal walk and the executor's coin use it."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


# The target's layer in ckx_from_ckz, which puts X on each control.
_Z = np.diag(np.array([1, -1], dtype=np.complex128))
ZHZ = _Z @ (_INVSQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)) @ _Z
ZHZ.flags.writeable = False


def ideal_ckz(k: int) -> np.ndarray:
    """Ideal k-controlled Z: +1 on the all-zeros string, -1 on every other.

    Equal to 2|0...0><0...0| - I, which is the symmetric convention where
    any qubit can be read as the target.
    """
    if k < 1:
        raise ValueError("need at least one control")
    diag = -np.ones(2 ** (k + 1), dtype=np.complex128)
    diag[0] = 1.0
    return diag


def effective_ckz(k: int, a: float | None = None) -> np.ndarray:
    """Diagonal of the published effective CkZ (k = 1, 2 or 3), or of CZ or
    CCZ at pulse-shaping effort ``a >= 0``.

    Under effort the weight-1 magnitude grows as ``min(alpha0 + 0.0001 a, 1)``
    and its phase fraction as ``min(phi0 + 0.0010 a, 1)``. Higher-weight
    entries keep their a = 0 ratios to the weight-1 entry, clamped at 1, so
    the whole diagonal converges to the ideal gate and then stays there.
    C3Z has no published tuning curve.
    """
    if k not in _EFF_WEIGHTS:
        raise ValueError(f"no published effective C{k}Z; k is 1, 2 or 3")
    weights = _EFF_WEIGHTS[k]
    if a is not None:
        if a < 0:
            raise ValueError("effort parameter a must be nonnegative")
        if k == 3:
            raise ValueError("the tuning family covers CZ and CCZ, not C3Z")
        alpha1_0, phi1_0 = weights[1]
        alpha1 = min(alpha1_0 + _ALPHA_SLOPE * a, 1.0)
        phi1 = min(phi1_0 + _PHI_SLOPE * a, 1.0)
        weights = ((1.0, 0.0),) + tuple((min(mag0 * (alpha1 / alpha1_0), 1.0), min(frac0 * (phi1 / phi1_0), 1.0))
                                        for mag0, frac0 in weights[1:])
    mags, fracs = np.array(weights).T
    per_weight = mags * np.exp(1j * math.pi * fracs)
    return per_weight[[bin(idx).count("1") for idx in range(2 ** (k + 1))]]


def ckx_from_ckz(ckz: np.ndarray) -> np.ndarray:
    """Build CkX (controls first, target last) from a diagonal CkZ.

    Conjugates by X on every control and by the ZHZ composite on the
    target. ZHZ maps |0> to the |-> axis, so the all-zeros projector of
    the CkZ becomes the |1...1>|-><...| projector of a CkX, up to the
    global -1 left over from the 2*pi z rotations used to realize the
    X layer natively; that sign is folded in so the ideal case lands
    exactly on the textbook CkX.
    """
    rank = ckz.size.bit_length() - 1
    if rank < 2 or ckz.shape != (2**rank,):
        raise ValueError(f"ckx_from_ckz needs the diagonal of a CkZ of rank >= 2, got shape {ckz.shape}")
    half = 2 ** (rank - 1)
    flip = np.zeros((half, half))  # X on every control: ones on the anti-diagonal
    flip.reshape(-1)[half - 1 : half * half - 1 : half - 1] = 1.0
    layer = (flip[:, None, :, None] * ZHZ[None, :, None, :]).reshape(2**rank, 2**rank)  # np.kron's bits
    # layer * ckz is layer @ np.diag(ckz) to the bit: each entry is one product with a real entry of layer.
    return -((layer * ckz) @ layer)


def ckx(rank: int, a: float | None = None, effective: bool = True) -> np.ndarray:
    """Read-only matrix of a shift gate on rank wires: X, or CkX with k = rank - 1.

    With effective set, a multiqubit gate is the CkX built from the
    published effective C(rank-1)Z: CZ and CCZ at effort a where it is
    given, C3Z at its fixed matrix. Otherwise it is the exact permutation
    swapping the last two basis states, which at rank 1 is X. Only CZ and
    CCZ read a, so every other gate is built once for all efforts.
    """
    return _ckx(rank, a if effective and 2 <= rank <= 3 else None, effective)


@lru_cache(maxsize=256)  # keyed on effort, and a sweep may draw efforts at random
def _ckx(rank: int, a: float | None, effective: bool) -> np.ndarray:
    if effective and rank >= 2:
        matrix = ckx_from_ckz(effective_ckz(rank - 1, a))
    else:
        dim = 2**rank
        matrix = np.zeros((dim, dim), dtype=np.complex128)
        matrix.reshape(-1)[: (dim - 2) * (dim + 1) : dim + 1] = 1.0  # the identity on all but the last two states
        matrix[dim - 2, dim - 1] = matrix[dim - 1, dim - 2] = 1.0
    matrix.setflags(write=False)
    return matrix


def gate_fidelity(effective: np.ndarray, ideal: np.ndarray) -> float:
    """Fidelity of an effective CkZ diagonal against its ideal counterpart.

    Computed as |Tr(U_eff^dag U_ideal)|^2 / 4^rank over the diagonals. This
    equals the squared overlap that the ideal and effective outputs of a
    uniform superposition would have, and it is invariant under shared
    single-qubit conjugation, so an X/ZHZ-constructed CkX scores the same
    as the CkZ it came from.
    """
    dim = len(ideal)
    if effective.shape != ideal.shape or ideal.shape != (dim,):
        raise ValueError(f"gate shapes {effective.shape} and {ideal.shape} are not two diagonals of one rank")
    overlap = np.sum(np.conj(effective) * ideal)
    return float(abs(overlap) ** 2) / dim**2
