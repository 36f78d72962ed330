"""Dense statevector engine with subnormalized (trace-decaying) states.

Qubit order is big-endian throughout: qubit 0 is the most significant bit
of a basis index, so ``new_basis_state(3, "110")`` puts qubits 0 and 1 in
state 1. States are plain value objects; every operation returns a fresh
StateVector and never mutates its input.

A gate reaches its target qubits through a gate plan: the basis indices of
the state laid out as a (2^r, 2^(n-r)) array whose row is the target bits
and whose column is the rest. ``amps[plan] = M @ amps[plan]`` applies the
gate, so the executor can run a compiled step in place on one flat array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .gates import GateMatrix


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over ``2**qubit_count`` big-endian basis states."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be at least 1")
        if self.amplitudes.shape != (2**self.qubit_count,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"expected {2**self.qubit_count}"
            )


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Unnormalized probabilities for a subset of qubits.

    ``values[i]`` is the probability of the big-endian bitstring of ``i``
    over ``qubits`` in the order given. The values sum to the total
    probability of the state they came from, which may be below 1 for
    subnormalized states; no renormalization is ever applied.
    """

    qubits: tuple[int, ...]
    values: np.ndarray

    def as_dict(self) -> dict[str, float]:
        width = len(self.qubits)
        return {format(i, f"0{width}b"): float(v) for i, v in enumerate(self.values)}

    def total(self) -> float:
        return float(np.sum(self.values))


def new_basis_state(qubit_count: int, bits: str) -> StateVector:
    """Return |bits> with amplitude 1, e.g. new_basis_state(3, "010")."""
    if len(bits) != qubit_count or any(b not in "01" for b in bits):
        raise ValueError(f"bits {bits!r} is not a {qubit_count}-bit string")
    amps = np.zeros(2**qubit_count, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps, qubit_count)


def _check_targets(qubit_count: int, targets: tuple[int, ...]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits in {targets}")
    for q in targets:
        if not 0 <= q < qubit_count:
            raise ValueError(f"target qubit {q} out of range for {qubit_count} qubits")


@lru_cache(maxsize=256)  # every walk the simulator admits needs under 60 plans
def gate_plan(qubit_count: int, targets: tuple[int, ...]) -> np.ndarray:
    """Read-only (2^r, 2^(n-r)) array of basis indices for a gate on ``targets``.

    Row i holds the indices whose target bits, in the order given, spell
    i; each row lists the other qubits' values in ascending order. It is
    the index array moved through the same axis shuffle a gate would be.
    """
    _check_targets(qubit_count, targets)
    r = len(targets)
    indices = np.arange(2**qubit_count).reshape((2,) * qubit_count)
    plan = np.ascontiguousarray(np.moveaxis(indices, targets, range(r)).reshape(2**r, -1))
    plan.flags.writeable = False
    return plan


def apply_gate(state: StateVector, gate: GateMatrix, targets: Sequence[int]) -> StateVector:
    """Apply a rank-r gate to the given target qubits (controls included).

    For controlled gates the convention is controls first, target last,
    matching the row ordering of the gate matrix itself.
    """
    targets = tuple(targets)
    if len(targets) != gate.rank:
        raise ValueError(f"gate acts on {gate.rank} qubits, got targets {targets}")
    plan = gate_plan(state.qubit_count, targets)
    amps = state.amplitudes.copy()
    if gate.diagonal is not None:
        amps[plan] = gate.diagonal[:, None] * amps[plan]
    else:
        amps[plan] = gate.matrix @ amps[plan]
    return StateVector(amps, state.qubit_count)


def scale_amplitudes(state: StateVector, factor: float) -> StateVector:
    """Multiply every amplitude by a real factor in [0, 1] (scalar damping)."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"scale factor {factor} outside [0, 1]")
    return StateVector(state.amplitudes * factor, state.qubit_count)


def marginal_probabilities(state: StateVector, qubits: Iterable[int]) -> ProbabilityTable:
    """Probability table over ``qubits``, tracing out everything else.

    The result is left unnormalized so probability lost to damping stays
    visible to downstream metrics.
    """
    subset = tuple(qubits)
    _check_targets(state.qubit_count, subset)
    n = state.qubit_count
    probs = np.abs(state.amplitudes.reshape((2,) * n)) ** 2
    keep = set(subset)
    summed = np.sum(probs, axis=tuple(ax for ax in range(n) if ax not in keep))
    # Axes of `summed` are the kept qubits in index order; put them in
    # the caller's requested order.
    order = sorted(range(len(subset)), key=lambda i: subset[i])
    inverse = np.argsort(order)
    summed = np.transpose(summed, axes=inverse)
    return ProbabilityTable(subset, np.ascontiguousarray(summed).reshape(-1))


def total_probability(state: StateVector) -> float:
    return float(np.sum(np.abs(state.amplitudes) ** 2))
