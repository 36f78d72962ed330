"""Step-by-step walk execution, Hellinger state fidelity, steps within
tolerance, and the composite-fidelity gate-set comparison.

A state on n qubits is a flat complex array of 2^n amplitudes, qubits
big-endian: qubit 0 is the most significant bit of a basis index, so
|110> on 3 qubits is index 0b110. A gate is a dense (2^r, 2^r) matrix,
controls first, target last, and reaches its targets through a gate
plan (gate_plan): the state's basis indices as a (2^r, 2^(n-r)) array
whose row is the target bits and whose column is the rest, so
``amps[plan] = M @ amps[plan]`` applies it. apply_gate, scale_amplitudes
and marginal_probabilities are per-gate reference kernels on such
arrays, each returning a fresh array; the walk path never calls them.

run_ideal evolves the walk from its definition (a coin at every node,
then a roll of each coin column around the ring) and shares no code with
the compiler; it is cached per walk. run_noisy is the only circuit
executor. It admits a walk whose compiled step, ancillas included, fits
in MAX_SIMULATED_QUBITS. Steps of one walk differ only in their coin
angles, so it compiles step 0 once (build_step_circuit, its shift cached
per walk shape) and keeps its shift as the compiler's target tuples (no
gate objects are built). shift_passes plans that shift's passes straight
from the tuples, move markers included, fusing runs of gates into dense
blocks where the walk's steps pay for them, and builds each pass's
matrix for a gate set from gates.ckx. A fresh process plans each walk
on cache misses, and a short walk can cost more to plan than to run, so
the plans, gathers and blocks are built in forms that take few numpy
calls and give the bits of the plain forms (np.moveaxis, np.eye, @) the
tests keep. run_noisy folds the coin's RY
layer into the first pass where the walk's distinct coin angles pay for
that, and then per step runs one matrix per pass, its passes chained
through gathers (chain_plans) so that only the last scatters, into the
step's row of a buffer of at most READOUT_AMPLITUDES amplitudes; a step
of one pass over every wire in order is one product straight into that
row. The state evolves under the gates alone; the scalar noise channels
multiply into one logged factor. The buffer is read out a batch of steps
at a time: each batch's rows are scored once by hellinger_fidelity, and
an early stop checked on those scores, so a walk's readout is one set of
arrays with a row per step (RunResult) at a few numpy calls per batch
rather than per step. A long walk's state decays under the gates; between
batches it is scaled back up by a power of two (_rescale) long before it
nears the subnormal range, and the readout takes that power back off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import gates as gatelib
from . import noise as noiselib
from .circuits import (MAX_POSITION_QUBITS, NativeGateSet, WalkSpec, ancilla_requirement, build_step_circuit,
                       count_multiqubit_gates)

MAX_SIMULATED_QUBITS = 9  # 2^9 amplitudes: the 2^4 lazy walk at G(3), ancillas included
FUSED_MAX_WIRES = 5
CALL_AMPLITUDES = 650  # one numpy call's overhead, as the amplitudes a gate pass moves in that time
READOUT_AMPLITUDES = 2**16  # amplitudes run_noisy holds between readouts (1 MiB)
STOP_CHECK_CALLS = 15  # numpy calls one batch's readout and early-stop check make
RESCALE_BELOW = 2.0**-256  # a peak |amplitude| below this is scaled back up between readouts, far above subnormals


class UnsupportedSizeError(ValueError):
    """Raised when a walk is too large to simulate at desk scale."""


@dataclass(frozen=True, eq=False)
class RunResult:
    """One walk's readout: row t is step t + 1, positions are (steps, nodes), the rest (steps,).

    A walk stopped early (run_noisy's stop_below) has fewer rows than spec.steps.
    """

    spec: WalkSpec
    ideal_positions: np.ndarray
    noisy_positions: np.ndarray
    fidelities: np.ndarray
    total_probability: np.ndarray
    scalar_factor: np.ndarray


def _check_simulable(qubits: int) -> None:
    if qubits > MAX_SIMULATED_QUBITS:
        raise UnsupportedSizeError(f"simulation supports walks of up to {MAX_SIMULATED_QUBITS} qubits; "
                                   f"this walk needs {qubits} (counting still works at this size)")


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
    the index array moved through the same axis shuffle a gate would be:
    one transpose of its 2x...x2 view, the targets first and the other
    qubits after them, then one C-order copy, the array np.moveaxis gives
    in half the time.
    """
    _check_targets(qubit_count, targets)
    rest = [q for q in range(qubit_count) if q not in targets]
    indices = np.arange(2**qubit_count).reshape((2,) * qubit_count).transpose(*targets, *rest)
    plan = np.ascontiguousarray(indices.reshape(2 ** len(targets), -1))
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
    position = np.empty_like(order)  # every entry is rewritten for each pass: a plan holds every index once
    for previous, plan in zip(plans, plans[1:]):
        position[previous.reshape(-1)] = order
        gather = position[plan]
        gather.flags.writeable = False
        gathers.append(gather)
    return tuple(gathers)


def _pays_back(steps: int, gates: int, wires: int, qubit_count: int, builds: int = 1) -> bool:
    """Whether a block of gates saves, over the walk, the passes its builds cost.

    Per step it saves gates - 1 passes over the 2^n state; each of its
    builds costs about 2 * gates passes over 4^w entries. A pass also pays
    one numpy call.
    """
    saved = steps * (gates - 1) * (2**qubit_count + CALL_AMPLITUDES)
    return saved >= builds * 2 * gates * (4**wires + CALL_AMPLITUDES)


@lru_cache(maxsize=64)  # per compiled shape, step count, gate set and flag: each sweep effort builds its own
def shift_passes(qubit_count: int, shift: tuple[tuple[int, ...] | None, ...], steps: int, gate_set: NativeGateSet,
                 gate_errors: bool) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """The compiled shift's gate passes in order, each (wires, read-only matrix on the wires).

    The shift's gates (its move markers, None, skipped) are split, in
    circuit order, into runs on at most FUSED_MAX_WIRES wires. A gate's
    matrix is gates.ckx of its rank, effective with gate errors. A run that
    pays back within the walk is one pass on its sorted wires, running a
    block built by running its gates through gate_plan(2w, local targets)
    over the 2^w identity taken as a flat 2w-qubit state, whose leading w
    qubits are the wires; each gate of any other run is a pass of its own.
    The identity is zeros with every (2^w + 1)th flat entry set, and each
    gate is applied with ndarray.dot: the bits of np.eye and @, for less
    call overhead.
    """
    runs: list[tuple[set[int], list[tuple[int, ...]]]] = []  # (the run's wires, its gates)
    for targets in filter(None, shift):
        if not runs or len(runs[-1][0].union(targets)) > FUSED_MAX_WIRES:
            runs.append((set(), []))
        runs[-1][0].update(targets)
        runs[-1][1].append(targets)
    passes = []
    for wire_set, run in runs:
        wires = tuple(sorted(wire_set))
        if not _pays_back(steps, len(run), len(wires), qubit_count):
            passes += [(targets, gatelib.ckx(len(targets), gate_set.param_a, gate_errors)) for targets in run]
            continue
        dim = 2 ** len(wires)
        matrix = np.zeros((dim, dim), dtype=np.complex128)
        flat = matrix.reshape(-1)
        flat[:: dim + 1] = 1.0
        for targets in run:
            plan = gate_plan(2 * len(wires), tuple(wires.index(q) for q in targets))
            flat[plan] = gatelib.ckx(len(targets), gate_set.param_a, gate_errors).dot(flat[plan])
        matrix.setflags(write=False)
        passes.append((wires, matrix))
    return tuple(passes)


# Bounded: a tolerance run holds 6 walks, each run at both rank bounds, and
# the largest table, 10,000 steps on 64 nodes, is 5.1 MB.
@lru_cache(maxsize=8)
def run_ideal(spec: WalkSpec) -> np.ndarray:
    """Ideal position marginals from the walk's definition, one row per step.

    Returns a read-only (steps, nodes) array, cached per spec, so every
    walk of the spec shares one array. The state, 2^(data qubits) entries,
    is bounded by MAX_SIMULATED_QUBITS.

    The state is a real (nodes, coin values) array started at node 0,
    coin 0, with coin values big-endian over the coin qubits. A step
    applies the coin at every node, then rolls each coin column around the
    ring: the 1-qubit coin steps down on 0 and up on 1; the lazy coin
    (c1 c2) rests while c2 = 0, else steps up on c1 = 1 and down on c1 = 0.
    Each distinct (theta, phi) coin is built once, and a step is one
    product with its coin and one flat gather that rolls the columns. Each
    step's readout is its state's squared amplitudes summed over the coin
    values, taken for every step in one call after the walk.
    """
    _check_simulable(spec.data_qubit_count)
    moves = (-1, 1) if spec.coin_qubits == 1 else (0, -1, 0, 1)
    size = spec.node_count * len(moves)
    # Rolling column c by moves[c] is one flat gather: entry (i, c) takes entry
    # (i - moves[c], c), whose flat index is i * len(moves) + c - moves[c] * len(moves), modulo size.
    roll = (np.arange(size).reshape(-1, len(moves)) - [m * len(moves) for m in moves]) % size
    coins = {}
    for angles in set(zip(*spec.coin_schedules)):
        coin = gatelib._ry(angles[0])
        if spec.coin_qubits == 2:  # np.kron's bits, in one product
            coin = (coin[:, None, :, None] * gatelib._ry(angles[1])[None, :, None, :]).reshape(4, 4)
        coins[angles] = coin.T
    psi = np.zeros(roll.shape)
    psi[0, 0] = 1.0
    states = np.empty((spec.steps, *roll.shape))
    for t, angles in enumerate(zip(*spec.coin_schedules)):
        psi = states[t] = psi.dot(coins[angles]).take(roll)
    tables = (states**2).sum(2)
    tables.flags.writeable = False
    return tables


def run_noisy(spec: WalkSpec, gate_set: NativeGateSet, noise: noiselib.NoiseParams, *,
              stop_below: float | None = None) -> RunResult:
    """Execute the walk compiled to the native gate set, with noise.

    It checks the walk's width, data qubits plus ancilla_requirement,
    against MAX_SIMULATED_QUBITS before compiling anything, then compiles
    step 0 once (build_step_circuit) and plans its shift as passes
    (shift_passes): dense blocks where a run of gates pays back over
    spec.steps, else gates one by one, each gate's matrix gates.ckx of its
    rank, effective with gate errors. Blocks round in another order, so
    results may move in the last bits. The first pass holds every coin
    wire, so where _pays_back finds that it pays, charging one build per
    distinct coin-angle tuple in the schedules, the coin RY layer on
    spec.coin_indices is folded into it: each step then runs the shift
    alone, its first pass's matrix times that step's coin layer. Otherwise
    each step runs the coin layer's RY matrices, built once per distinct
    angle tuple, then the shift. The passes are chained (chain_plans):
    each gathers its input out of the previous pass's output, multiplied
    by ndarray.dot (the same bits as @, with less call overhead), and only
    the last scatters, into the step's row of the readout buffer. A step
    that is one pass over every wire in order, as the fused steps of 3 to
    5 qubits are once their coin is folded, gathers and scatters through
    the identity, so it is one ndarray.dot into that row instead.

    The scalar channels are real factors that commute with every gate, so
    the state evolves under the gates alone and the channels accumulate in
    one running factor: SPAM preparation loss once, idle-qubit damping
    during each multiqubit gate (one factor per rank, the length of its
    target tuple), all-qubit damping at each move marker (None in the
    shift), or moves_per_step times per step. One math.prod per step
    multiplies its factors in, left to right in circuit order. Each step's
    readout is the state scaled by that factor times the readout loss: its
    total probability and its position marginal, one row of a (steps,
    nodes) array. The position qubits are the leading wires, so the
    marginal sums each run of 2^(n - position qubits) consecutive
    probabilities. The buffer holds READOUT_AMPLITUDES // 2^n rows (at
    least one), and a full buffer, or the last partial one, is scaled,
    read out and scored in one pass: one hellinger_fidelity call compares
    the batch's rows against run_ideal's cached array, so each row is
    scored once.

    Between batches, _rescale multiplies a state whose peak |amplitude|
    is below RESCALE_BELOW by a power of two 2^-e, and the walk sums those
    exponents e into scale_exponent: later batches are read out with their
    scalar factors times 2^scale_exponent (np.ldexp), so each readout
    product rounds as the unscaled walk's did, or underflows to 0 on both
    where the scaled factor is subnormal. RunResult.scalar_factor holds
    them unscaled.

    With stop_below, the walk stops after the first step whose fidelity
    is below it; the result holds the steps up to that one. Each batch's
    scores are its stop check, and a batch then holds as many steps as
    cost no more than its readout and check (STOP_CHECK_CALLS numpy
    calls, in _pays_back's pass-cost model). Everything else, the fused
    blocks and the coin fold included, is planned for spec.steps, so the
    rows are the full walk's.
    """
    _check_simulable(spec.data_qubit_count + ancilla_requirement(spec.position_qubits, spec.coin_qubits,
                                                                 gate_set.max_rank))
    compiled = build_step_circuit(spec, gate_set, 0)
    ideal_tables = run_ideal(spec)

    n_q = compiled.qubit_count
    steps = spec.steps
    read = noiselib.readout_factor(noise, n_q)
    move = noiselib.movement_factor(noise, n_q)
    marked = noise.moves_per_step is None  # movement counted at the shift's markers
    step_factors, idle = [], {}
    for targets in compiled.shift:
        if targets is None:
            if marked:
                step_factors.append(move)
        elif (rank := len(targets)) >= 2:
            if rank not in idle:
                idle[rank] = noiselib.idle_factor(noise, n_q, rank)
            step_factors.append(idle[rank])
    if not marked:
        step_factors.append(move**noise.moves_per_step)
    pass_wires, shift = zip(*shift_passes(n_q, compiled.shift, steps, gate_set, noise.gate_errors))
    coin_indices = spec.coin_indices
    angle_tuples = set(zip(*spec.coin_schedules))
    step_matrices = {}
    first = pass_wires[0]  # holds every coin wire: the step's first gate is controlled on all of them
    if _pays_back(steps, len(coin_indices) + 1, len(first), n_q, len(angle_tuples)):
        # The first pass's matrix times the RY layer: each RY acts on its wire's column bit of it.
        plans = [gate_plan(2 * len(first), (len(first) + first.index(wire),)) for wire in coin_indices]
        for angles in angle_tuples:
            folded = shift[0].copy()
            flat = folded.reshape(-1)
            for plan, theta in zip(plans, angles):
                flat[plan] = gatelib._ry(theta).T.dot(flat[plan])
            step_matrices[angles] = (folded, *shift[1:])
        coin_wires = ()
    else:
        coin_wires = tuple((wire,) for wire in coin_indices)
        for angles in angle_tuples:
            step_matrices[angles] = (*(gatelib._ry(theta).astype(np.complex128) for theta in angles), *shift)
    gathers = chain_plans(n_q, coin_wires + pass_wires)
    last_plan = gate_plan(n_q, pass_wires[-1])
    one_pass = coin_wires + pass_wires == (tuple(range(n_q)),)

    state = np.zeros(2**n_q, dtype=np.complex128)
    state[0] = 1.0
    scale_exponent = 0  # the state is the walk's times 2^-scale_exponent
    running_factor = noiselib.state_prep_factor(noise, n_q)
    batch = max(1, READOUT_AMPLITUDES // state.size)
    if stop_below is not None:
        step_cost = len(gathers) * (state.size + CALL_AMPLITUDES)
        batch = min(batch, max(1, STOP_CHECK_CALLS * CALL_AMPLITUDES // step_cost))
    states = np.empty((min(batch, steps), state.size), dtype=np.complex128)
    nodes = spec.node_count
    noisy = np.empty((steps, nodes))
    totals = np.empty(steps)
    fidelities = np.empty(steps)
    scalar_factors = np.empty(steps)
    start = 0
    for t, angles in enumerate(zip(*spec.coin_schedules)):
        row = states[t - start]
        if one_pass:
            # dot's out= must not be its input. The previous step's state is another row: a one-pass step
            # has at most FUSED_MAX_WIRES wires, so the buffer holds every step or at least 14 rows (the
            # fewest stop_below leaves, at 2^5 amplitudes).
            step_matrices[angles][0].dot(state.reshape(-1, 1), out=row.reshape(-1, 1))
        else:
            amps = state
            for matrix, gather in zip(step_matrices[angles], gathers):
                amps = matrix.dot(amps.reshape(-1)[gather])
            row[last_plan] = amps
        state = row
        running_factor = math.prod(step_factors, start=running_factor)

        scalar_factors[t] = running_factor * read
        stop = t + 1
        if stop - start == len(states) or stop == steps:
            factors = scalar_factors[start:stop, None]
            if scale_exponent:
                factors = np.ldexp(factors, scale_exponent)
            probs = np.abs(states[: stop - start] * factors) ** 2
            probs.sum(1, out=totals[start:stop])
            probs.reshape(stop - start, nodes, -1).sum(2, out=noisy[start:stop])
            fidelities[start:stop] = hellinger_fidelity(ideal_tables[start:stop], noisy[start:stop])
            if stop_below is not None:
                below = fidelities[start:stop] < stop_below
                first_below = int(below.argmax())
                if below[first_below]:
                    stop = start + first_below + 1
                    break
            start = stop
            if stop < steps:
                scale_exponent += _rescale(state, totals[stop - 1], factors[-1, 0])
    arrays = ideal_tables, noisy, fidelities, totals, scalar_factors
    return RunResult(spec, *(a[:stop] if stop < steps else a for a in arrays))


def _rescale(state: np.ndarray, total: float, factor: float) -> int:
    """Scale ``state`` up in place if its peak |amplitude| is below RESCALE_BELOW; return the exponent e taken off.

    e is the peak's binary exponent, so the peak lands in [1/2, 1) (a
    subnormal peak stops short, as 2^1023 is the largest power of two a
    float holds); e is 0 where the state is left alone. Multiplying by
    2^-e is exact in the normal range. ``total`` is the state's total
    probability as read out with ``factor``: a total of at least 2^n
    (RESCALE_BELOW * factor)^2 puts the peak at RESCALE_BELOW or above,
    so the peak is looked at only where it may have fallen below, or
    where that bar underflows to 0.
    """
    if 0 < state.size * (RESCALE_BELOW * factor) ** 2 <= total:
        return 0
    peak = np.abs(state).max()
    if peak >= RESCALE_BELOW:
        return 0
    exponent = max(math.frexp(peak)[1], -1023)
    state *= 2.0**-exponent
    return exponent


def _qubit_count(amps: np.ndarray) -> int:
    n = amps.size.bit_length() - 1
    if n < 1 or amps.shape != (2**n,):
        raise ValueError(f"amplitude array of shape {amps.shape} is not a state of one or more qubits")
    return n


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


def hellinger_fidelity(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """State fidelity (1 - H^2)^2 between unnormalized distributions.

    Compares p and q along their last axis, so (steps, nodes) arrays give
    one fidelity per step. H^2 is half the squared Euclidean distance
    between the square-root vectors. No renormalization: probability lost
    to damping lowers the fidelity, which is the point. It also sets a
    floor: against a normalized p, a q that has lost all its probability
    gives H^2 = 1/2 and so f = 0.25, not 0.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distributions of shapes {p.shape} and {q.shape} do not match")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("probability tables cannot hold negative entries")
    h2 = 0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(-1)
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
) -> list[tuple]:
    """Composite-fidelity gain from raising the native rank bound.

    Returns one (n, low, high, counts_low, counts_high, rows) tuple per
    ring exponent n and transition low->high, n-major. counts_* are the
    per-rank gate counts of one step under G(low) and G(high); rows holds
    one (fidelity set, f_low, f_high, percent increase) per set.

    Each fidelity set lists F(CCZ-level), F(C3Z-level), F(C4Z-level), i.e.
    ranks 3, 4, 5 in order, and must be non-increasing (wider gates are
    never better). Each transition raises the bound from low to high, so
    3 <= low < high <= 5. Each n is a ring exponent in
    [2, MAX_POSITION_QUBITS]. Counts come from the 2q-coin walk census,
    which only uses gates of rank 3 and up, matching the composite
    product's range. Every argument is checked before the first census.
    """
    sets = [tuple(s) for s in fidelity_sets]
    if not sets:
        raise ValueError("fidelity_sets must list at least one set")
    if not n_list:
        raise ValueError("n_list must list at least one ring exponent")
    if not transitions:
        raise ValueError("transitions must list at least one low->high pair")
    for s in sets:
        if len(s) != 3:
            raise ValueError(f"fidelity_sets entry {s} must list ranks 3, 4, 5")
        if any(not 0 < f <= 1 for f in s):
            raise ValueError(f"fidelity_sets entry {s} outside (0, 1]")
        if s[0] < s[1] or s[1] < s[2]:
            raise ValueError(f"fidelity_sets entry {s} increases with rank")
    for low, high in transitions:
        if not 3 <= low < high <= 5:
            raise ValueError(f"transitions entry {low}->{high} needs 3 <= low < high <= 5")
    for n in n_list:
        if not 2 <= n <= MAX_POSITION_QUBITS:
            raise ValueError(f"n_list entry {n} outside [2, {MAX_POSITION_QUBITS}]")

    ranks = sorted({rank for transition in transitions for rank in transition})
    by_rank = [dict(zip((3, 4, 5), s)) for s in sets]
    entries = []
    for n in n_list:
        census = {rank: count_multiqubit_gates(n, 2, rank) for rank in ranks}  # G(4) serves both 3->4 and 4->5
        # One product per rank and set: G(4)'s is f_high of 3->4 and f_low of 4->5.
        products = {rank: [composite_fidelity(counts, f) for f in by_rank] for rank, counts in census.items()}
        for low, high in transitions:
            rows = []
            for s, f_low, f_high in zip(sets, products[low], products[high]):
                if f_low == 0:
                    raise ValueError(
                        f"fidelity_sets entry {s} at n = {n}: composite fidelity under G({low}) underflows to 0"
                    )
                rows.append((s, f_low, f_high, (f_high - f_low) / f_low * 100.0))
            entries.append((n, low, high, census[low], census[high], rows))
    return entries
