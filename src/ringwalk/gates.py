"""Gate matrices: ideal primitives, published effective multiqubit gates,
and the tunable-accuracy parametric family.

Effective CkZ gates are diagonal with one (magnitude, phase) pair per
Hamming weight of the control/target string. Phases are stored as
fractions of pi, so an entry is ``mag * exp(1j * pi * frac)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_INVSQRT2 = 1.0 / math.sqrt(2.0)

# Per-weight (magnitude, phase/pi) pairs for the published effective gates,
# indexed by Hamming weight 0..k+1. Weight 0 is exactly 1 in every case.
_CZ_EFF_WEIGHTS = ((1.0, 0.0), (0.9990, 0.9906), (0.9986, 1.0))
_CCZ_EFF_WEIGHTS = ((1.0, 0.0), (0.9981, 0.9845), (0.9973, 0.9934), (0.9963, 0.9911))
_C3Z_EFF_WEIGHTS = (
    (1.0, 0.0),
    (0.997947, -0.995),
    (0.996286, 0.984),
    (0.994391, 0.981),
    (0.990724, 0.981),
)

# Linear drift rates of the weight-1 coefficients with pulse-shaping effort a.
_ALPHA_SLOPE = 0.0001
_PHI_SLOPE = 0.0010


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """A unitary or effective (subunitary) gate on ``rank`` qubits.

    Diagonal gates keep only their diagonal; ``matrix`` densifies on
    demand. ``is_effective`` marks gates that may shrink total probability.
    """

    label: str
    rank: int
    is_effective: bool = False
    diagonal: np.ndarray | None = None
    dense: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        dim = 2**self.rank
        if self.diagonal is None and self.dense is None:
            raise ValueError("gate needs either a diagonal or a dense matrix")
        if self.diagonal is not None and self.diagonal.shape != (dim,):
            raise ValueError(f"diagonal length {self.diagonal.shape} != {dim}")
        if self.dense is not None and self.dense.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.dense.shape} != ({dim}, {dim})")

    @property
    def matrix(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return np.diag(self.diagonal)


def _ry(theta: float) -> np.ndarray:
    """Real RY(theta) matrix; the ideal walk and the executor's coin use it."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def ideal_gate(name: str, theta: float | None = None) -> GateMatrix:
    """Ideal single-qubit gate by name: H, X, Z, Ry (needs theta), Rz2pi."""
    if name == "Ry":
        if theta is None:
            raise ValueError("Ry requires an angle")
        return GateMatrix(f"RY({theta:.12g})", 1, dense=_ry(theta).astype(np.complex128))
    if theta is not None:
        raise ValueError(f"{name} takes no angle")
    if name == "H":
        return GateMatrix("H", 1, dense=_INVSQRT2 * np.array([[1, 1], [1, -1]], dtype=np.complex128))
    if name == "X":
        return GateMatrix("X", 1, dense=np.array([[0, 1], [1, 0]], dtype=np.complex128))
    if name == "Z":
        return GateMatrix("Z", 1, diagonal=np.array([1, -1], dtype=np.complex128))
    if name == "Rz2pi":
        # A full 2*pi z rotation is -I on a spin-1/2 system.
        return GateMatrix("RZ2PI", 1, diagonal=np.array([-1, -1], dtype=np.complex128))
    raise ValueError(f"unknown gate name {name!r}")


def ideal_ckz(k: int) -> GateMatrix:
    """Ideal k-controlled Z: +1 on the all-zeros string, -1 on every other.

    Equal to 2|0...0><0...0| - I, which is the symmetric convention where
    any qubit can be read as the target.
    """
    if k < 1:
        raise ValueError("need at least one control")
    diag = -np.ones(2 ** (k + 1), dtype=np.complex128)
    diag[0] = 1.0
    return GateMatrix(f"C{k}Z", k + 1, diagonal=diag)


def _diagonal_from_weights(weights: tuple[tuple[float, float], ...]) -> np.ndarray:
    rank = len(weights) - 1
    diag = np.empty(2**rank, dtype=np.complex128)
    for idx in range(2**rank):
        mag, frac = weights[bin(idx).count("1")]
        diag[idx] = mag * np.exp(1j * math.pi * frac)
    return diag


def cz_eff() -> GateMatrix:
    """Published effective CZ with per-weight magnitude and phase damping."""
    return GateMatrix("CZ_eff", 2, is_effective=True, diagonal=_diagonal_from_weights(_CZ_EFF_WEIGHTS))


def ccz_eff() -> GateMatrix:
    """Published effective CCZ."""
    return GateMatrix("CCZ_eff", 3, is_effective=True, diagonal=_diagonal_from_weights(_CCZ_EFF_WEIGHTS))


def c3z_eff() -> GateMatrix:
    """Published effective C3Z (four-qubit native gate)."""
    return GateMatrix("C3Z_eff", 4, is_effective=True, diagonal=_diagonal_from_weights(_C3Z_EFF_WEIGHTS))


def param_gate(kind: str, a: float) -> GateMatrix:
    """Effective CZ or CCZ at pulse-shaping effort ``a >= 0``.

    The weight-1 magnitude grows as ``min(alpha0 + 0.0001 a, 1)`` and its
    phase fraction as ``min(phi0 + 0.0010 a, 1)``. Higher-weight entries
    keep their a = 0 ratios to the weight-1 entry, clamped at 1, so the
    whole diagonal converges to the ideal gate and then stays there.
    """
    if a < 0:
        raise ValueError("effort parameter a must be nonnegative")
    if kind == "CZ":
        base = _CZ_EFF_WEIGHTS
    elif kind == "CCZ":
        base = _CCZ_EFF_WEIGHTS
    else:
        raise ValueError(f"parametric family covers CZ and CCZ, not {kind!r}")
    alpha1_0, phi1_0 = base[1]
    alpha1 = min(alpha1_0 + _ALPHA_SLOPE * a, 1.0)
    phi1 = min(phi1_0 + _PHI_SLOPE * a, 1.0)
    weights = [(1.0, 0.0)]
    for mag0, frac0 in base[1:]:
        weights.append(
            (min(mag0 * (alpha1 / alpha1_0), 1.0), min(frac0 * (phi1 / phi1_0), 1.0))
        )
    rank = len(base) - 1
    return GateMatrix(
        f"{kind}(a={a:.12g})",
        rank,
        is_effective=True,
        diagonal=_diagonal_from_weights(tuple(weights)),
    )


def ckx_from_ckz(ckz: GateMatrix) -> GateMatrix:
    """Build CkX (controls first, target last) from a diagonal CkZ.

    Conjugates by X on every control and by the ZHZ composite on the
    target. ZHZ maps |0> to the |-> axis, so the all-zeros projector of
    the CkZ becomes the |1...1>|-><...| projector of a CkX, up to the
    global -1 left over from the 2*pi z rotations used to realize the
    X layer natively; that sign is folded in so the ideal case lands
    exactly on the textbook CkX.
    """
    if ckz.diagonal is None:
        raise ValueError("ckx_from_ckz needs a diagonal CkZ-type gate")
    k = ckz.rank - 1
    if k < 1:
        raise ValueError("need rank >= 2")
    x = ideal_gate("X").matrix
    zhz = ideal_gate("Z").matrix @ ideal_gate("H").matrix @ ideal_gate("Z").matrix
    layer = np.array([[1.0]], dtype=np.complex128)
    for _ in range(k):
        layer = np.kron(layer, x)
    layer = np.kron(layer, zhz)
    dense = -(layer @ np.diag(ckz.diagonal) @ layer)
    return GateMatrix(
        f"C{k}X" + ("_eff" if ckz.is_effective else ""),
        ckz.rank,
        is_effective=ckz.is_effective,
        dense=dense,
    )


def gate_fidelity(effective: GateMatrix, ideal: GateMatrix) -> float:
    """Fidelity of an effective gate against its ideal counterpart.

    Computed as |Tr(U_eff^dag U_ideal)|^2 / 4^rank. For diagonal gates this
    equals the squared overlap that the ideal and effective outputs of a
    uniform superposition would have, and it is invariant under shared
    single-qubit conjugation, so an X/ZHZ-constructed CkX scores the same
    as the CkZ it came from.
    """
    if effective.rank != ideal.rank:
        raise ValueError(
            f"rank mismatch: {effective.label} is rank {effective.rank}, "
            f"{ideal.label} is rank {ideal.rank}"
        )
    dim = 2**ideal.rank
    if effective.diagonal is not None and ideal.diagonal is not None:
        overlap = np.sum(np.conj(effective.diagonal) * ideal.diagonal)
    else:
        overlap = np.trace(effective.matrix.conj().T @ ideal.matrix)
    return float(abs(overlap) ** 2) / dim**2


def equivalent_two_qubit_fidelity(fidelity: float, count: int) -> float:
    """Per-gate fidelity of ``count`` equal two-qubit gates with the same product."""
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 < fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside (0, 1]")
    return fidelity ** (1.0 / count)
