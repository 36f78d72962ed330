"""Reference step compiler on gate objects.

This is the compiler as it stood before it moved to target tuples: every
gate a GateApplication, every move point a MoveMarker, and the circuit's
ops one tuple of both. ringwalk.circuits.build_step_circuit must produce
the same ops (through Circuit.ops), the same qubit count and the same
ancillas; tests/test_circuits.py checks that. serialize prints either
circuit as text, one line per op. count_multiqubit_gates_loop is the
census as a loop over the shift's CkX gates, the form
ringwalk.circuits.count_multiqubit_gates had before it read a prefix
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ringwalk.circuits import (
    GateApplication,
    MoveMarker,
    NativeGateSet,
    WalkSpec,
    _ladder_shape,
    ancilla_requirement,
)

CircuitOp = GateApplication | MoveMarker


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    ops: tuple[CircuitOp, ...]
    ancilla_indices: tuple[int, ...] = ()


def serialize(circuit) -> str:
    """A circuit (this module's or ringwalk's) as text: its qubit count, its
    ancillas, then one GATE or MOVE line per op, RY angles to 12 digits."""
    lines = [f"QUBITS {circuit.qubit_count}"]
    if circuit.ancilla_indices:
        lines.append("ANCILLAS " + " ".join(str(q) for q in circuit.ancilla_indices))
    for op in circuit.ops:
        if isinstance(op, MoveMarker):
            lines.append("MOVE")
        else:
            label = f"RY({op.theta:.12g})" if op.label == "RY" else op.label
            lines.append(f"GATE {label} " + " ".join(str(q) for q in op.targets))
    return "\n".join(lines) + "\n"


def build_coin(spec: WalkSpec, step_index: int) -> tuple[GateApplication, ...]:
    """Coin layer for one step: RY(theta) on c1, and RY(phi) on c2 if lazy."""
    if not 0 <= step_index < spec.steps:
        raise ValueError(f"step_index {step_index} outside schedule")
    c1 = spec.coin_indices[0]
    ops = [GateApplication("RY", (c1,), theta=spec.theta_schedule[step_index])]
    if spec.coin_qubits == 2:
        ops.append(GateApplication("RY", (spec.coin_indices[1],), theta=spec.phi_schedule[step_index]))
    return tuple(ops)


def build_shift_abstract(spec: WalkSpec) -> tuple[GateApplication, ...]:
    """Coin-conditioned shift, before rank bounding (see ringwalk.circuits)."""
    n = spec.position_qubits
    coins = spec.coin_indices
    c1 = coins[0]

    def cascade() -> list[GateApplication]:
        out = []
        for j in range(1, n + 1):
            controls = tuple(range(j, n)) + coins
            k = len(controls)
            out.append(GateApplication(f"C{k}X", controls + (j - 1,)))
        return out

    ops: list[GateApplication] = list(cascade())
    decrement = cascade()
    ops.append(GateApplication("X", (c1,)))
    for j in range(2, n + 1):
        ops.append(GateApplication("X", (j - 1,)))
    ops.append(decrement[0])
    for j in range(2, n + 1):
        ops.append(GateApplication("X", (j - 1,)))
        ops.append(decrement[j - 1])
    ops.append(GateApplication("X", (c1,)))
    return tuple(ops)


def decompose_ckx(k: int, max_rank: int) -> tuple[tuple[GateApplication, ...], int]:
    """Rewrite a CkX as a ladder of gates of rank <= max_rank (see ringwalk.circuits)."""
    if k < 1:
        raise ValueError("need at least one control")
    if max_rank < 3:
        raise ValueError("decomposition needs native rank >= 3")
    if k + 1 <= max_rank:
        return (GateApplication(f"C{k}X", tuple(range(k + 1))),), 0

    rho = max_rank
    width = rho - 2
    m, q = _ladder_shape(k, rho)
    target = k
    anc = [k + 1 + i for i in range(m)]

    rungs: list[GateApplication] = []
    for j in range(m):
        controls = tuple(range(width * j, width * (j + 1)))
        sink = target if j == 0 else anc[j - 1]
        rungs.append(GateApplication(f"C{rho - 1}X", controls + (anc[j], sink)))
    deep_controls = tuple(range(width * m, k))
    assert len(deep_controls) == q and 2 <= q <= rho - 1
    rungs.append(GateApplication(f"C{q}X", deep_controls + (anc[m - 1],)))

    half = rungs[::-1] + rungs[1:-1]  # gm..g0 then g1..gm-1
    return tuple(half + half), m


def _with_move_markers(ops: Iterable[CircuitOp]) -> tuple[CircuitOp, ...]:
    """Insert a MoveMarker before each multiqubit gate whose wires are not
    already covered by the previous multiqubit gate."""
    out: list[CircuitOp] = []
    previous: set[int] | None = None
    for op in ops:
        if isinstance(op, GateApplication) and len(op.targets) >= 2:
            wires = set(op.targets)
            if previous is not None and not wires.issubset(previous):
                out.append(MoveMarker())
            previous = wires
        out.append(op)
    return tuple(out)


def build_step_circuit(spec: WalkSpec, gates: NativeGateSet, step_index: int) -> Circuit:
    """Compile one full walk step (coin + shift) to the native gate set."""
    pool = ancilla_requirement(spec.position_qubits, spec.coin_qubits, gates.max_rank)
    n_data = spec.data_qubit_count
    ancillas = tuple(range(n_data, n_data + pool))

    compiled: list[CircuitOp] = list(build_coin(spec, step_index))
    for op in build_shift_abstract(spec):
        rank = len(op.targets)
        if rank <= gates.max_rank:
            compiled.append(op)
            continue
        local_ops, used = decompose_ckx(rank - 1, gates.max_rank)
        wire_map = dict(enumerate(op.targets))
        for i in range(used):
            wire_map[rank + i] = ancillas[i]
        for local in local_ops:
            compiled.append(GateApplication(local.label, tuple(wire_map[w] for w in local.targets)))

    return Circuit(
        qubit_count=n_data + pool,
        ops=_with_move_markers(compiled),
        ancilla_indices=ancillas,
    )


def count_multiqubit_gates_loop(position_qubits: int, coin_qubits: int, max_rank: int) -> dict[int, int]:
    """Per-step census of multiqubit gates after rank bounding, one CkX at a time."""
    if max_rank < 3:
        raise ValueError("native rank must be at least 3")
    counts: dict[int, int] = {}
    for j in range(1, position_qubits + 1):
        k = position_qubits - j + coin_qubits
        # Each CkX appears once in the increment and once in the decrement.
        if k + 1 <= max_rank:
            counts[k + 1] = counts.get(k + 1, 0) + 2
            continue
        m, q = _ladder_shape(k, max_rank)
        counts[max_rank] = counts.get(max_rank, 0) + 2 * (2 + 4 * (m - 1))
        counts[q + 1] = counts.get(q + 1, 0) + 2 * 2
    return dict(sorted(counts.items()))
