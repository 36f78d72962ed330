"""Reference executors for run_noisy and run_ideal, one step at a time.

run_noisy_stepwise compiles each step with build_step_circuit, coin
angles and all, and runs its ops one by one through apply_gate, each
returning a fresh amplitude array, with the scalar channels multiplied
into the running factor in circuit order. It does the same arithmetic as run_noisy, so run_noisy
must match it exactly; it shares none of run_noisy's compile-once and
in-place machinery, and resolves each gate itself from the gate library
and its own exact CkX permutation rather than through run_noisy's
resolver. It reads each step out as that step ends, where run_noisy
reads its steps out in batches.

run_ideal_stepwise is run_ideal's walk with the coin built afresh and
the position marginal summed at every step, where run_ideal builds each
distinct coin once and sums every step's marginal after the walk.

gate_plan_moveaxis and fused_block_eye are gate_plan and shift_passes'
block build in the form they first took: the index array moved by
np.moveaxis, and a block started from np.eye with each gate applied by
@. The library's cheaper forms must give the same arrays.
"""

import numpy as np

from ringwalk import noise as noiselib
from ringwalk.circuits import MoveMarker, build_step_circuit
from ringwalk.gates import _ry, ckx, ckx_from_ckz, effective_ckz
from ringwalk.simulate import apply_gate, marginal_probabilities, scale_amplitudes

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)  # the one-wire shift gate
X.flags.writeable = False
IDEAL = noiselib.NoiseParams(gate_errors=False, passive=False, spam=False)  # exact gates, no scalar channels


def total_probability(amps):
    return float(np.sum(np.abs(amps) ** 2))


def resolve(op, gate_set, gate_errors):
    """Dense matrix for one compiled gate: RY from its angle, X and CkX by label."""
    if op.label == "RY":
        return _ry(op.theta).astype(np.complex128)
    if op.label == "X":
        return X
    k = int(op.label[1:-1])  # "C{k}X"
    if gate_errors:
        return ckx_from_ckz(effective_ckz(k, gate_set.param_a if k < 3 else None))  # C3Z has no tuning curve
    dense = np.eye(2 ** (k + 1), dtype=np.complex128)
    dense[[-2, -1]] = dense[[-1, -2]]
    return dense


def run_noisy_stepwise(spec, gate_set, noise):
    """Per step: (noisy position marginal, scalar factor, total probability)."""
    circuits = [build_step_circuit(spec, gate_set, t) for t in range(spec.steps)]
    n_q = circuits[0].qubit_count
    state = np.zeros(2**n_q, dtype=np.complex128)
    state[0] = 1.0
    running_factor = noiselib.state_prep_factor(noise, n_q)
    read = noiselib.readout_factor(noise, n_q)
    move = noiselib.movement_factor(noise, n_q)
    out = []
    for circuit in circuits:
        for op in circuit.ops:
            if isinstance(op, MoveMarker):
                if noise.moves_per_step is None:
                    running_factor *= move
                continue
            state = apply_gate(state, resolve(op, gate_set, noise.gate_errors), op.targets)
            if len(op.targets) >= 2:
                running_factor *= noiselib.idle_factor(noise, n_q, len(op.targets))
        if noise.moves_per_step is not None:
            running_factor *= move**noise.moves_per_step
        scalar_factor = running_factor * read
        snapshot = scale_amplitudes(state, scalar_factor)
        out.append((marginal_probabilities(snapshot, spec.position_qubits), scalar_factor,
                    total_probability(snapshot)))
    return out


def run_ideal_stepwise(spec):
    """(steps, nodes) ideal position marginals, each step's coin built and read out on its own."""
    moves = np.array((-1, 1) if spec.coin_qubits == 1 else (0, -1, 0, 1))
    rows = (np.arange(spec.node_count)[:, None] - moves) % spec.node_count
    cols = np.arange(len(moves))
    psi = np.zeros((spec.node_count, len(moves)))
    psi[0, 0] = 1.0
    tables = np.empty((spec.steps, spec.node_count))
    for t in range(spec.steps):
        coin = _ry(spec.theta_schedule[t])
        if spec.coin_qubits == 2:
            coin = np.kron(coin, _ry(spec.phi_schedule[t]))
        psi = (psi @ coin.T)[rows, cols]
        tables[t] = np.sum(psi**2, axis=1)
    return tables


def gate_plan_moveaxis(qubit_count, targets):
    """gate_plan's (2^r, 2^(n-r)) index array, its target axes moved to the front by np.moveaxis."""
    r = len(targets)
    indices = np.arange(2**qubit_count).reshape((2,) * qubit_count)
    return np.ascontiguousarray(np.moveaxis(indices, targets, range(r)).reshape(2**r, -1))


def fused_block_eye(wires, pass_gates, gate_set, gate_errors):
    """A fused pass's matrix: the 2^w identity as a flat 2w-qubit state, each gate of the pass applied by @."""
    matrix = np.eye(2 ** len(wires), dtype=np.complex128)
    flat = matrix.reshape(-1)
    for targets in pass_gates:
        plan = gate_plan_moveaxis(2 * len(wires), tuple(wires.index(q) for q in targets))
        flat[plan] = ckx(len(targets), gate_set.param_a, gate_errors) @ flat[plan]
    return matrix
