"""Dense statevector kernels on flat, subnormalized amplitude arrays.

A state on n qubits is a plain complex array of 2^n amplitudes. Qubit
order is big-endian throughout: qubit 0 is the most significant bit of a
basis index, so |110> on 3 qubits is index 0b110. A gate is a dense
(2^r, 2^r) array, controls first, target last. apply_gate,
scale_amplitudes and marginal_probabilities return fresh arrays and never
change their input.

A gate reaches its target qubits through a gate plan: the basis indices of
the state laid out as a (2^r, 2^(n-r)) array whose row is the target bits
and whose column is the rest. ``amps[plan] = M @ amps[plan]`` applies the
gate. chain_plans turns a run of gate plans into gathers that read each
pass's input out of the previous pass's output, so only the last scatters.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


def _qubit_count(amps: np.ndarray) -> int:
    n = amps.size.bit_length() - 1
    if n < 1 or amps.shape != (2**n,):
        raise ValueError(f"amplitude array of shape {amps.shape} is not a state of one or more qubits")
    return n


def _check_targets(qubit_count: int, targets: tuple[int, ...]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits in {targets}")
    for q in targets:
        if not 0 <= q < qubit_count:
            raise ValueError(f"target qubit {q} out of range for {qubit_count} qubits")


@lru_cache(maxsize=256)  # the default tolerance table, shift blocks and coin folds included, needs 63 plans
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


@lru_cache(maxsize=64)  # one entry per compiled shape and step count; about 180 KB for the 44-pass 9-qubit step
def chain_plans(qubit_count: int, wires: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
    """Read-only gathers for passes on ``wires`` in order, each in its gate plan's shape.

    A pass's output is in its gate plan's layout: flat entry j is the
    amplitude of basis index plan.flat[j]. Gather k indexes pass k - 1's
    flat output to give pass k's input as ``amps[gate_plan(...)]`` would;
    gather 0 is the first plan, for a state in basis order.
    ``state[gate_plan(n, wires[-1])] = out`` puts the last output back.
    """
    plans = [gate_plan(qubit_count, targets) for targets in wires]
    gathers = plans[:1]
    order = np.arange(2**qubit_count)
    for previous, plan in zip(plans, plans[1:]):
        position = np.empty_like(order)
        position[previous.reshape(-1)] = order
        gather = position[plan]
        gather.flags.writeable = False
        gathers.append(gather)
    return tuple(gathers)


def apply_gate(amps: np.ndarray, gate: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a dense rank-r gate to the given target qubits (controls included).

    For controlled gates the convention is controls first, target last,
    matching the row ordering of the gate matrix itself.
    """
    targets = tuple(targets)
    if gate.shape != (2 ** len(targets),) * 2:
        raise ValueError(f"gate of shape {gate.shape} does not act on targets {targets}")
    plan = gate_plan(_qubit_count(amps), targets)
    out = amps.copy()
    out[plan] = gate @ out[plan]
    return out


def scale_amplitudes(amps: np.ndarray, factor: float) -> np.ndarray:
    """Multiply every amplitude by a real factor in [0, 1] (scalar damping)."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"scale factor {factor} outside [0, 1]")
    return amps * factor


def marginal_probabilities(amps: np.ndarray, qubits: int) -> np.ndarray:
    """Probabilities of the leading ``qubits`` qubits, tracing out the rest.

    Entry i is the probability that those qubits spell i big-endian. The
    result is left unnormalized so probability lost to damping stays
    visible to downstream metrics.
    """
    n = _qubit_count(amps)
    if not 1 <= qubits <= n:
        raise ValueError(f"cannot keep {qubits} leading qubits of {n}")
    return (np.abs(amps) ** 2).reshape(2**qubits, -1).sum(1)
