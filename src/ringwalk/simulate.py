"""Step-by-step walk execution, Hellinger state fidelity, tolerance
reports, and the composite-fidelity gate-set comparison.

run_ideal evolves the walk from its definition (a coin at every node,
then a roll of each coin column around the ring) and shares no code with
the compiler. run_noisy is the only circuit executor. Steps of one walk
differ only in their coin angles, so it compiles the step once
(compile_step), fuses the shift into dense blocks where the walk's steps
pay for them (shift_blocks), and then per step re-emits only the coin
layer and runs the shift in place on one flat amplitude array. The state
evolves under the gates alone; the scalar noise channels multiply into
one logged factor. Each step's state is copied into a buffer of at most
READOUT_AMPLITUDES amplitudes, which is read out a batch of steps at a
time, so a walk's readout is one set of arrays with a row per step
(RunResult) at a few numpy calls per batch rather than per step.
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
    Circuit,
    MoveMarker,
    NativeGateSet,
    WalkSpec,
    build_step_circuit,
    count_multiqubit_gates,
)
from .statevector import gate_plan
from .statevector import apply_gate, marginal_probabilities, scale_amplitudes  # noqa: F401 -- bound here for tracers

MAX_SIMULATED_POSITION_QUBITS = 4
MAX_SIMULATED_QUBITS = 12
FUSED_MAX_WIRES = 5
CALL_AMPLITUDES = 650  # one numpy call's overhead, as the amplitudes a gate pass moves in that time
READOUT_AMPLITUDES = 2**16  # amplitudes run_noisy holds between readouts (1 MiB)


class UnsupportedSizeError(ValueError):
    """Raised when a walk is too large to simulate at desk scale."""


@dataclass(frozen=True, eq=False)
class RunResult:
    """One walk's readout: row t is step t + 1, positions are (steps, nodes), the rest (steps,)."""

    spec: WalkSpec
    gate_set: NativeGateSet
    noise: noiselib.NoiseParams
    ideal_positions: np.ndarray
    noisy_positions: np.ndarray
    fidelities: np.ndarray
    total_probability: np.ndarray
    scalar_factor: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledStep:
    """A checked step circuit for one walk shape at one rank bound.

    The compiler's output depends on the spec only through its qubit
    counts and coin angles, so one step-0 circuit serves every step of
    every walk with the same (position qubits, coin qubits, max rank):
    its leading coin layer is re-emitted per step, the shift after it is
    reused as it stands.
    """

    shape: tuple[int, int, int]
    circuit: Circuit


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


@lru_cache(maxsize=256)  # keyed on gate sets, and a sweep may draw efforts at random
def shift_matrix(rank: int, gate_set: NativeGateSet, gate_errors: bool) -> np.ndarray:
    """Read-only matrix of a shift gate (X or CkX, controls first, target last).

    With gate errors a multiqubit gate is the effective CkX built from the
    gate set's C(rank-1)Z; otherwise it is the exact permutation swapping
    the last two basis states, which at rank 1 is X.
    """
    if gate_errors and rank >= 2:
        matrix = gatelib.ckx_from_ckz(gate_set.effective_ckz(rank - 1))
    else:
        dim = 2**rank
        matrix = np.eye(dim, dtype=np.complex128)
        matrix[[dim - 2, dim - 1]] = matrix[[dim - 1, dim - 2]]
    matrix.setflags(write=False)
    return matrix


Block = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]  # (wires, its gates' targets in circuit order)


def _pays_back(steps: int, gates: int, wires: int, qubit_count: int) -> bool:
    """Whether a block of gates saves, over the walk, the passes its build costs.

    Per step it saves gates - 1 passes over the 2^n state; its build costs
    about 2 * gates passes over 4^w entries. A pass also pays one numpy call.
    """
    saved = steps * (gates - 1) * (2**qubit_count + CALL_AMPLITUDES)
    return saved >= 2 * gates * (4**wires + CALL_AMPLITUDES)


@lru_cache(maxsize=64)  # one entry per compiled shape and step count
def shift_blocks(qubit_count: int, gates: tuple[tuple[int, ...], ...], steps: int) -> tuple[Block, ...]:
    """Split the shift's gates, in circuit order, into runs on at most FUSED_MAX_WIRES wires.

    A run that pays back within the walk is one block on its sorted wires;
    each gate of any other run is a block of its own on its own targets.
    """
    runs: list[list[tuple[int, ...]]] = [[]]
    for targets in gates:
        if len(set().union(*runs[-1], targets)) > FUSED_MAX_WIRES:
            runs.append([])
        runs[-1].append(targets)
    blocks: list[Block] = []
    for run in runs:
        wires = tuple(sorted(set().union(*run)))
        fused = _pays_back(steps, len(run), len(wires), qubit_count)
        blocks += [(wires, tuple(run))] if fused else [(targets, (targets,)) for targets in run]
    return tuple(blocks)


@lru_cache(maxsize=64)  # per plan, gate set and flag: each sweep effort builds its own
def block_matrices(blocks: tuple[Block, ...], gate_set: NativeGateSet, gate_errors: bool) -> tuple[np.ndarray, ...]:
    """Read-only matrix of each block on its wires, in their order.

    A lone gate is its shift_matrix. A run's gates go through
    gate_plan(2w, local targets) over the 2^w identity taken as a flat
    2w-qubit state, whose leading w qubits are the block's wires.
    """
    matrices = []
    for wires, gates in blocks:
        if len(gates) == 1:
            matrices.append(shift_matrix(len(wires), gate_set, gate_errors))
            continue
        block = np.eye(2 ** len(wires), dtype=np.complex128)
        flat = block.reshape(-1)
        for targets in gates:
            plan = gate_plan(2 * len(wires), tuple(wires.index(q) for q in targets))
            flat[plan] = shift_matrix(len(targets), gate_set, gate_errors) @ flat[plan]
        block.setflags(write=False)
        matrices.append(block)
    return tuple(matrices)


def run_ideal(spec: WalkSpec) -> np.ndarray:
    """Ideal position marginals from the walk's definition, one row per step.

    Returns a read-only (steps, nodes) array, so every walk run against
    the same spec can share it.

    The state is a real (nodes, coin values) array started at node 0,
    coin 0, with coin values big-endian over the coin qubits. A step
    applies the coin at every node, then rolls each coin column around the
    ring: the 1-qubit coin steps down on 0 and up on 1; the lazy coin
    (c1 c2) rests while c2 = 0, else steps up on c1 = 1 and down on c1 = 0.
    Each distinct (theta, phi) coin is built once. Each step's readout is
    its state's squared amplitudes summed over the coin values, taken for
    every step in one call after the walk.
    """
    _check_simulable(spec)
    moves = np.array((-1, 1) if spec.coin_qubits == 1 else (0, -1, 0, 1))
    # Rolling column c by moves[c] is one gather: row i takes row i - moves[c].
    rows = (np.arange(spec.node_count)[:, None] - moves) % spec.node_count
    cols = np.arange(len(moves))
    schedules = (spec.theta_schedule, spec.phi_schedule)[: spec.coin_qubits]
    coins = {}
    for angles in set(zip(*schedules)):
        coin = gatelib._ry(angles[0])
        if spec.coin_qubits == 2:
            coin = np.kron(coin, gatelib._ry(angles[1]))
        coins[angles] = coin.T
    psi = np.zeros((spec.node_count, len(moves)))
    psi[0, 0] = 1.0
    states = np.empty((spec.steps, spec.node_count, len(moves)))
    for t, angles in enumerate(zip(*schedules)):
        psi = states[t] = (psi @ coins[angles])[rows, cols]
    tables = np.sum(states**2, axis=2)
    tables.flags.writeable = False
    return tables


def compile_step(spec: WalkSpec, gate_set: NativeGateSet) -> CompiledStep:
    """Compile step 0 of the walk once for every step.

    Checks the ring size before compiling and the total qubit count after.
    """
    _check_simulable(spec)
    circuit = build_step_circuit(spec, gate_set, 0)
    _check_simulable(spec, circuit.qubit_count)
    return CompiledStep((spec.position_qubits, spec.coin_qubits, gate_set.max_rank), circuit)


def run_noisy(
    spec: WalkSpec,
    gate_set: NativeGateSet,
    noise: noiselib.NoiseParams,
    *,
    ideal_tables: np.ndarray | None = None,
    compiled: CompiledStep | None = None,
) -> RunResult:
    """Execute the walk compiled to the native gate set, with noise.

    The step is compiled once (compile_step, unless a CompiledStep for
    the same walk shape and rank bound is passed) and its shift resolved
    to (matrix, gate plan) pairs: dense blocks where a run of gates pays
    back over spec.steps (shift_blocks), else gates by rank (shift_matrix).
    Blocks round in another order, so results may move in the last bits.
    Each step re-emits only the coin RY layer, built once per distinct
    angle in the schedules, and runs the shift in place on one flat
    amplitude array. Gate errors swap in the effective multiqubit gates.

    The scalar channels are real factors that commute with every gate, so
    the state evolves under the gates alone and the channels accumulate in
    one running factor: SPAM preparation loss once, idle-qubit damping
    during each multiqubit gate, all-qubit damping at each movement marker
    (or moves_per_step times per step). A step's factors are multiplied in
    one at a time in circuit order. Each step's readout is the state
    scaled by that factor times the readout loss: its total probability
    and its position marginal, one row of a (steps, nodes) array. The
    position qubits are the leading wires, so the marginal sums each run
    of 2^(n - position qubits) consecutive probabilities. The step's
    state is copied into a buffer of READOUT_AMPLITUDES // 2^n rows (at
    least one), and a full buffer, or the last partial one, is scaled and
    read out in one pass. After the walk one Hellinger pass compares every
    row against run_ideal's; callers running one spec several times may
    pass its run_ideal array.
    """
    if ideal_tables is not None and np.shape(ideal_tables) != (spec.steps, spec.node_count):
        raise ValueError(f"ideal tables of shape {np.shape(ideal_tables)} for a {spec.steps}-step walk "
                         f"on {spec.node_count} nodes")
    if compiled is None:
        compiled = compile_step(spec, gate_set)
    elif compiled.shape != (spec.position_qubits, spec.coin_qubits, gate_set.max_rank):
        raise ValueError(f"compiled step for shape {compiled.shape} does not fit this walk and gate set")
    if ideal_tables is None:
        ideal_tables = run_ideal(spec)

    n_q = compiled.circuit.qubit_count
    coin_ops = compiled.circuit.ops[: spec.coin_qubits]
    shift_ops = compiled.circuit.ops[spec.coin_qubits :]
    read = noiselib.readout_factor(noise, n_q)
    move = noiselib.movement_factor(noise, n_q)
    gates = []
    step_factors = []
    for op in shift_ops:
        if isinstance(op, MoveMarker):
            if noise.moves_per_step is None:
                step_factors.append(move)
            continue
        gates.append(op.targets)
        if op.rank >= 2:
            step_factors.append(noiselib.idle_factor(noise, n_q, op.rank))
    if noise.moves_per_step is not None:
        step_factors.append(move**noise.moves_per_step)
    blocks = shift_blocks(n_q, tuple(gates), spec.steps)
    shift = [(matrix, gate_plan(n_q, wires))
             for matrix, (wires, _) in zip(block_matrices(blocks, gate_set, noise.gate_errors_enabled), blocks)]
    schedules = (spec.theta_schedule, spec.phi_schedule)[: spec.coin_qubits]
    coin = [(schedule, gate_plan(n_q, op.targets)) for schedule, op in zip(schedules, coin_ops)]
    rotations = {theta: gatelib._ry(theta).astype(np.complex128) for theta in set().union(*schedules)}

    amps = np.zeros(2**n_q, dtype=np.complex128)
    amps[0] = 1.0
    running_factor = noiselib.state_prep_factor(noise, n_q)
    batch = max(1, READOUT_AMPLITUDES // amps.size)
    states = np.empty((min(batch, spec.steps), amps.size), dtype=np.complex128)
    noisy = np.empty((spec.steps, spec.node_count))
    totals = np.empty(spec.steps)
    scalar_factors = np.empty(spec.steps)
    start = 0
    for t in range(spec.steps):
        for schedule, plan in coin:
            amps[plan] = rotations[schedule[t]] @ amps[plan]
        for matrix, plan in shift:
            amps[plan] = matrix @ amps[plan]
        for factor in step_factors:
            running_factor *= factor

        scalar_factors[t] = running_factor * read
        states[t - start] = amps
        stop = t + 1
        if stop - start == len(states) or stop == spec.steps:
            probs = np.abs(states[: stop - start] * scalar_factors[start:stop, None]) ** 2
            totals[start:stop] = probs.sum(1)
            noisy[start:stop] = probs.reshape(stop - start, spec.node_count, -1).sum(2)
            start = stop
    return RunResult(spec, gate_set, noise, ideal_tables, noisy, hellinger_fidelity(ideal_tables, noisy),
                     totals, scalar_factors)


def hellinger_fidelity(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """State fidelity (1 - H^2)^2 between unnormalized distributions.

    Compares p and q along their last axis, so (steps, nodes) arrays give
    one fidelity per step. H^2 is half the squared Euclidean distance
    between the square-root vectors. No renormalization: probability lost
    to damping lowers the fidelity, which is the point.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distributions of shapes {p.shape} and {q.shape} do not match")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probability tables cannot hold negative entries")
    h2 = 0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2, axis=-1)
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
    3 <= low < high <= 5. Each n is a ring exponent in [2, 20]. Counts come
    from the 2q-coin walk census, which only uses gates of rank 3 and up,
    matching the composite product's range. Every argument is checked
    before the first census.
    """
    sets = [tuple(s) for s in fidelity_sets]
    if not sets:
        raise ValueError("fidelity_sets must list at least one set")
    for s in sets:
        if len(s) != 3:
            raise ValueError(f"fidelity set {s} must list ranks 3, 4, 5")
        if any(not 0 < f <= 1 for f in s):
            raise ValueError(f"fidelity set {s} outside (0, 1]")
        if s[0] < s[1] or s[1] < s[2]:
            raise ValueError(f"fidelity set {s} increases with rank")
    for low, high in transitions:
        if not 3 <= low < high <= 5:
            raise ValueError(f"transitions entry {low}->{high} needs 3 <= low < high <= 5")
    for n in n_list:
        if not 2 <= n <= 20:
            raise ValueError(f"n_list entry {n} outside [2, 20]")

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
                if f_low == 0:
                    raise ValueError(
                        f"fidelity set {s} at n = {n}: composite fidelity under G({low}) underflows to 0"
                    )
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
