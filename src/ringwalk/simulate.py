"""Step-by-step walk execution, Hellinger state fidelity, tolerance
reports, and the composite-fidelity gate-set comparison.

run_ideal evolves the walk from its definition (a coin at every node,
then a roll of each coin column around the ring) and shares no code with
the compiler. run_noisy is the only circuit executor: it compiles each
step to a native gate set, evolves the state under the gates alone, and
multiplies the scalar noise channels into one logged factor that it
applies to each per-step readout snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gates as gatelib
from . import noise as noiselib
from .circuits import (
    GateApplication,
    MoveMarker,
    NativeGateSet,
    WalkSpec,
    build_step_circuit,
    ckx_rank,
    count_multiqubit_gates,
)
from .statevector import (
    ProbabilityTable,
    apply_gate,
    marginal_probabilities,
    new_basis_state,
    scale_amplitudes,
    total_probability,
)

MAX_SIMULATED_POSITION_QUBITS = 4
MAX_SIMULATED_QUBITS = 12


class UnsupportedSizeError(ValueError):
    """Raised when a walk is too large to simulate at desk scale."""


@dataclass(frozen=True)
class StepRecord:
    step: int
    ideal_positions: ProbabilityTable
    noisy_positions: ProbabilityTable
    fidelity: float
    total_probability: float
    scalar_factor: float


@dataclass(frozen=True)
class RunResult:
    spec: WalkSpec
    gate_set: NativeGateSet
    noise: noiselib.NoiseParams
    steps: tuple[StepRecord, ...]

    @property
    def fidelities(self) -> tuple[float, ...]:
        return tuple(rec.fidelity for rec in self.steps)


@dataclass(frozen=True)
class ToleranceReport:
    """steps_within_tolerance per tolerance for one walk and gate set."""

    position_qubits: int
    coin_qubits: int
    max_rank: int
    steps_within: dict[float, int]


@dataclass(frozen=True)
class TransitionEntry:
    position_qubits: int
    rank_low: int
    rank_high: int
    counts_low: dict[int, int]
    counts_high: dict[int, int]
    per_set: tuple[tuple[tuple[float, ...], float, float, float], ...]

    @property
    def mean_percent_increase(self) -> float:
        return sum(row[3] for row in self.per_set) / len(self.per_set)


@dataclass(frozen=True)
class CompositeReport:
    entries: tuple[TransitionEntry, ...]


def _check_simulable(spec: WalkSpec, total_qubits: int | None = None) -> None:
    if spec.position_qubits > MAX_SIMULATED_POSITION_QUBITS:
        raise UnsupportedSizeError(
            f"simulation supports rings up to 2^{MAX_SIMULATED_POSITION_QUBITS} nodes; "
            f"got 2^{spec.position_qubits} (counting still works at this size)"
        )
    if total_qubits is not None and total_qubits > MAX_SIMULATED_QUBITS:
        raise UnsupportedSizeError(
            f"walk needs {total_qubits} qubits, above the desk-scale bound {MAX_SIMULATED_QUBITS}"
        )


@lru_cache(maxsize=None)
def _ideal_ckx_matrix(rank: int) -> np.ndarray:
    """Exact permutation matrix for a CkX (controls first, target last)."""
    dim = 2**rank
    mat = np.eye(dim, dtype=np.complex128)
    mat[[dim - 2, dim - 1]] = mat[[dim - 1, dim - 2]]
    return mat


@lru_cache(maxsize=None)
def _ideal_label_gate(label: str, theta: float | None) -> gatelib.GateMatrix:
    rank = ckx_rank(label)
    if rank is not None:
        return gatelib.GateMatrix(label, rank, dense=_ideal_ckx_matrix(rank))
    if label == "RY":
        return gatelib.ideal_gate("Ry", theta)
    if label == "X":
        return gatelib.ideal_gate("X")
    raise ValueError(f"unknown gate label {label!r}")


@lru_cache(maxsize=None)
def _effective_ckx(rank: int, gate_set: NativeGateSet) -> gatelib.GateMatrix:
    return gatelib.ckx_from_ckz(gate_set.effective_ckz(rank - 1))


def _resolve(op: GateApplication, gate_set: NativeGateSet, gate_errors: bool) -> gatelib.GateMatrix:
    if gate_errors and op.rank >= 2:
        return _effective_ckx(op.rank, gate_set)
    return _ideal_label_gate(op.label, op.theta)


def _ry(theta: float) -> np.ndarray:
    half = theta / 2.0
    return np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])


def run_ideal(spec: WalkSpec) -> list[ProbabilityTable]:
    """Ideal per-step position marginals from the walk's definition.

    The state is a real (nodes, coin values) array started at node 0,
    coin 0, with coin values big-endian over the coin qubits. A step
    applies the coin at every node, then rolls each coin column around the
    ring: the 1-qubit coin steps down on 0 and up on 1; the lazy coin
    (c1 c2) rests while c2 = 0, else steps up on c1 = 1 and down on c1 = 0.
    """
    _check_simulable(spec)
    moves = (-1, 1) if spec.coin_qubits == 1 else (0, -1, 0, 1)
    psi = np.zeros((spec.node_count, len(moves)))
    psi[0, 0] = 1.0
    tables = []
    for t in range(spec.steps):
        coin = _ry(spec.theta_schedule[t])
        if spec.coin_qubits == 2:
            coin = np.kron(coin, _ry(spec.phi_schedule[t]))
        psi = psi @ coin.T
        psi = np.stack([np.roll(psi[:, c], shift) for c, shift in enumerate(moves)], axis=1)
        tables.append(ProbabilityTable(spec.position_indices, np.sum(psi**2, axis=1)))
    return tables


def run_noisy(spec: WalkSpec, gate_set: NativeGateSet, noise: noiselib.NoiseParams) -> RunResult:
    """Compile each step to the native gate set and execute with noise.

    Gate errors swap in the effective matrices for every multiqubit gate.
    The scalar channels are real factors that commute with every gate, so
    the state evolves under the gates alone and the channels accumulate in
    one running factor: SPAM preparation loss once, idle-qubit damping
    during each multiqubit gate, all-qubit damping at each movement marker
    (or moves_per_step times per step). Each per-step readout snapshot is
    the state scaled by that factor times the readout loss. Fidelity
    compares the snapshot's position marginal against run_ideal at the
    same step.
    """
    circuits = [build_step_circuit(spec, gate_set, t) for t in range(spec.steps)]
    n_q = circuits[0].qubit_count
    _check_simulable(spec, n_q)
    ideal_tables = run_ideal(spec)

    state = new_basis_state(n_q, "0" * n_q)
    running_factor = noiselib.state_prep_factor(noise, n_q)
    read = noiselib.readout_factor(noise, n_q)
    move = noiselib.movement_factor(noise, n_q)

    records = []
    for t, circuit in enumerate(circuits):
        for op in circuit.ops:
            if isinstance(op, MoveMarker):
                if noise.moves_per_step is None:
                    running_factor *= move
                continue
            state = apply_gate(state, _resolve(op, gate_set, noise.gate_errors_enabled), op.targets)
            if op.rank >= 2:
                running_factor *= noiselib.idle_factor(noise, n_q, op.rank)
        if noise.moves_per_step is not None:
            running_factor *= move**noise.moves_per_step

        scalar_factor = running_factor * read
        snapshot = scale_amplitudes(state, scalar_factor)
        table = marginal_probabilities(snapshot, spec.position_indices)
        records.append(
            StepRecord(
                step=t + 1,
                ideal_positions=ideal_tables[t],
                noisy_positions=table,
                fidelity=hellinger_fidelity(ideal_tables[t], table),
                total_probability=total_probability(snapshot),
                scalar_factor=scalar_factor,
            )
        )
    return RunResult(spec=spec, gate_set=gate_set, noise=noise, steps=tuple(records))


def hellinger_fidelity(p: ProbabilityTable, q: ProbabilityTable) -> float:
    """State fidelity (1 - H^2)^2 between unnormalized probability tables.

    H^2 is half the squared Euclidean distance between the square-root
    vectors. No renormalization: probability lost to damping lowers the
    fidelity, which is the point.
    """
    if len(p.values) != len(q.values):
        raise ValueError("tables cover different key domains")
    pv = np.asarray(p.values, dtype=float)
    qv = np.asarray(q.values, dtype=float)
    if np.any(pv < 0) or np.any(qv < 0):
        raise ValueError("probability tables cannot hold negative entries")
    h2 = 0.5 * float(np.sum((np.sqrt(pv) - np.sqrt(qv)) ** 2))
    return (1.0 - h2) ** 2


def steps_within_tolerance(fidelities: Sequence[float], tolerance: float) -> int:
    """Length of the longest prefix with every fidelity >= tolerance."""
    if len(fidelities) == 0:
        raise ValueError("need at least one fidelity")
    count = 0
    for f in fidelities:
        if f < tolerance:
            break
        count += 1
    return count


TOLERANCES = (0.99, 0.999, 0.9999)


def tolerance_report(result: RunResult, tolerances: Sequence[float] = TOLERANCES) -> ToleranceReport:
    fids = result.fidelities
    return ToleranceReport(
        position_qubits=result.spec.position_qubits,
        coin_qubits=result.spec.coin_qubits,
        max_rank=result.gate_set.max_rank,
        steps_within={tol: steps_within_tolerance(fids, tol) for tol in tolerances},
    )


def composite_fidelity(counts: dict[int, int], fidelities: dict[int, float]) -> float:
    """Product of per-rank gate fidelities raised to their usage counts."""
    out = 1.0
    for rank, count in counts.items():
        if rank not in fidelities:
            raise ValueError(f"no fidelity supplied for rank-{rank} gates")
        out *= fidelities[rank] ** count
    return out


DEFAULT_COMPARISON_NS = (5, 10, 15, 20)
DEFAULT_FIDELITY_SETS = (
    (0.993, 0.992, 0.991),
    (0.999, 0.995, 0.99),
    (0.99993, 0.99992, 0.99991),
)
DEFAULT_TRANSITIONS = ((3, 4), (4, 5))


def gate_set_comparison(
    n_list: Sequence[int] = DEFAULT_COMPARISON_NS,
    fidelity_sets: Sequence[Sequence[float]] = DEFAULT_FIDELITY_SETS,
    transitions: Sequence[tuple[int, int]] = DEFAULT_TRANSITIONS,
) -> CompositeReport:
    """Composite-fidelity gain from raising the native rank bound.

    Each fidelity set lists F(CCZ-level), F(C3Z-level), F(C4Z-level), i.e.
    ranks 3, 4, 5 in order, and must be non-increasing (wider gates are
    never better). Each transition raises the bound from low to high, so
    3 <= low < high. Counts come from the 2q-coin walk census, which only
    uses gates of rank 3 and up, matching the composite product's range.
    """
    sets = [tuple(s) for s in fidelity_sets]
    for s in sets:
        if len(s) != 3:
            raise ValueError(f"fidelity set {s} must list ranks 3, 4, 5")
        if any(not 0 < f <= 1 for f in s):
            raise ValueError(f"fidelity set {s} outside (0, 1]")
        if s[0] < s[1] or s[1] < s[2]:
            raise ValueError(f"fidelity set {s} increases with rank")
    for low, high in transitions:
        if not 3 <= low < high:
            raise ValueError(f"transitions entry {low}->{high} needs 3 <= low < high")

    entries = []
    for n in n_list:
        spec = WalkSpec(n, 2, (math.pi / 2,), (math.pi / 2,), 1)
        for low, high in transitions:
            counts_low = count_multiqubit_gates(spec, low)
            counts_high = count_multiqubit_gates(spec, high)
            rows = []
            for s in sets:
                by_rank = {3: s[0], 4: s[1], 5: s[2]}
                f_low = composite_fidelity(counts_low, by_rank)
                f_high = composite_fidelity(counts_high, by_rank)
                rows.append((s, f_low, f_high, (f_high - f_low) / f_low * 100.0))
            entries.append(
                TransitionEntry(
                    position_qubits=n,
                    rank_low=low,
                    rank_high=high,
                    counts_low=counts_low,
                    counts_high=counts_high,
                    per_set=tuple(rows),
                )
            )
    return CompositeReport(entries=tuple(entries))
