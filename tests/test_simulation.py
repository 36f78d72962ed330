import hashlib
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import run_ideal_dense_oracle
from shared import ADMITTED_SHAPES
from stepwise_reference import (
    IDEAL,
    X,
    fused_block_eye,
    gate_plan_moveaxis,
    run_ideal_stepwise,
    run_noisy_stepwise,
)
from ringwalk import noise as noiselib
from ringwalk import simulate
from ringwalk.circuits import (
    NativeGateSet,
    WalkSpec,
    _compiled_shift,
    build_step_circuit,
    count_multiqubit_gates,
    uniform_spec,
)
from ringwalk.cli import ExperimentConfig, cmd_composite, cmd_tolerance
from ringwalk.simulate import (
    DEFAULT_FIDELITY_SETS,
    FUSED_MAX_WIRES,
    TOLERANCES,
    UnsupportedSizeError,
    apply_gate,
    chain_plans,
    composite_fidelity,
    gate_plan,
    gate_set_comparison,
    hellinger_fidelity,
    run_ideal,
    run_noisy,
    shift_passes,
    steps_within_tolerance,
)
from ringwalk.gates import ckx, ckx_from_ckz, effective_ckz, ideal_ckz


FULL = noiselib.NoiseParams()


# ------------------------------------------------------------ ideal walk


@pytest.mark.parametrize("n,nc", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_circuit_walk_matches_dense_matrix_oracle(n, nc):
    spec = uniform_spec(n, nc, steps=6)
    via_circuits = run_ideal(spec)
    via_matrices = run_ideal_dense_oracle(spec)
    assert via_circuits.shape == via_matrices.shape == (6, 2**n)
    assert np.max(np.abs(via_circuits - via_matrices)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("schedule", ["random", "alternating", "one-step"])
def test_ideal_walk_matches_stepwise_reference(n, nc, schedule):
    spec = {"random": random_spec(n, nc, 9, 10 * n + nc), "alternating": alternating_spec(n, nc, 9),
            "one-step": random_spec(n, nc, 1, 10 * n + nc)}[schedule]
    assert np.array_equal(run_ideal(spec), run_ideal_stepwise(spec))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)), min_size=1, max_size=40))
def test_ideal_lazy_walk_matches_kron_reference_for_any_angles(n, angles):
    # run_ideal builds each lazy coin as one outer product of the two RY
    # matrices, the stepwise reference with np.kron: the bits must agree.
    spec = WalkSpec(n, 2, tuple(theta for theta, _ in angles), tuple(phi for _, phi in angles))
    assert np.array_equal(run_ideal(spec), run_ideal_stepwise(spec))


def test_ideal_walk_conserves_probability():
    for table in run_ideal(uniform_spec(3, 2, steps=8)):
        assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_lazy_walk_rests_on_even_support():
    # One step from node 0 with a balanced lazy coin: half the weight
    # stays home, the rest splits between the two neighbours.
    probs = run_ideal(uniform_spec(3, 2, steps=1))[0]
    assert probs[0b000] == pytest.approx(0.5, abs=1e-12)
    assert probs[0b001] == pytest.approx(0.25, abs=1e-12)
    assert probs[0b111] == pytest.approx(0.25, abs=1e-12)


def test_simulation_size_guard():
    # run_ideal bounds its own state, 2^(data qubits) entries; run_noisy
    # bounds the compiled step, ancillas included, before it compiles, so
    # the oversized shape never enters the shift cache.
    with pytest.raises(UnsupportedSizeError, match="up to 9 qubits; this walk needs 10 "):
        run_ideal(uniform_spec(9, 1, steps=1))
    run_ideal(uniform_spec(8, 1, steps=1))  # 9 data qubits
    misses = _compiled_shift.cache_info().misses
    with pytest.raises(UnsupportedSizeError, match="up to 9 qubits; this walk needs 11 "):
        run_noisy(uniform_spec(5, 2, steps=1), NativeGateSet(3), FULL)
    assert _compiled_shift.cache_info().misses == misses
    assert issubclass(UnsupportedSizeError, ValueError)


# ------------------------------------------------------------- hellinger


def test_hellinger_identical_tables():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    assert hellinger_fidelity(p, p) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**16 - 1))
def test_hellinger_closed_form_for_scaled_tables(s, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(8)
    p /= p.sum()
    expected = (1.0 - 0.5 * (1.0 - s) ** 2) ** 2
    assert hellinger_fidelity(p, s**2 * p) == pytest.approx(expected, abs=1e-12)


def test_hellinger_input_validation():
    p = np.array([0.5, 0.5])
    q = np.array([0.25] * 4)
    with pytest.raises(ValueError):
        hellinger_fidelity(p, q)
    bad = np.array([0.5, -0.1])
    with pytest.raises(ValueError):
        hellinger_fidelity(p, bad)
    rows = np.full((3, 2), 0.5)
    with pytest.raises(ValueError):
        hellinger_fidelity(rows, np.full((3, 4), 0.25))  # same step count, another ring
    with pytest.raises(ValueError):
        hellinger_fidelity(rows, np.vstack([rows[:2], bad]))


def test_hellinger_passes_nan_through():
    # NaN is not negative: its row's fidelity is NaN and the other rows are
    # compared as usual, while a negative entry beside a NaN still raises.
    q = np.full((2, 2), 0.5)
    fidelities = hellinger_fidelity(np.array([[np.nan, 0.5], [0.5, 0.5]]), q)
    assert np.isnan(fidelities[0]) and fidelities[1] == 1.0
    with pytest.raises(ValueError):
        hellinger_fidelity(np.array([[np.nan, -0.1], [0.5, 0.5]]), q)
    with pytest.raises(ValueError):
        hellinger_fidelity(q, np.array([[0.5, 0.5], [-0.1, np.nan]]))


@pytest.mark.parametrize("coin_qubits", [1, 2])
def test_fidelity_floor_is_a_quarter(coin_qubits):
    # The tables are not renormalized: against a normalized p, a q that has
    # lost all its probability has H^2 = 1/2, so f reads 0.25, not 0.
    p = np.array([0.5, 0.25, 0.125, 0.125])
    assert hellinger_fidelity(p, np.zeros(4)) == pytest.approx(0.25, abs=1e-15)
    vanishing = noiselib.NoiseParams(t1_seconds=1e-300)
    result = run_noisy(uniform_spec(2, coin_qubits, steps=5), NativeGateSet(3), vanishing)
    assert np.array_equal(result.total_probability, np.zeros(5))
    assert result.fidelities == pytest.approx(np.full(5, 0.25), abs=1e-15)


@pytest.mark.parametrize("nodes", [2, 4, 8, 16])
def test_hellinger_per_step_rows_match_row_by_row(nodes):
    rng = np.random.default_rng(nodes)
    p = rng.random((21, nodes))
    p /= p.sum(axis=1, keepdims=True)
    q = p * rng.uniform(0.5, 1.0, p.shape)
    fidelities = hellinger_fidelity(p, q)
    assert fidelities.shape == (21,)
    assert np.array_equal(fidelities, [hellinger_fidelity(a, b) for a, b in zip(p, q)])


def test_steps_within_tolerance_is_prefix_length():
    fids = [0.999, 0.99, 0.995, 0.9, 0.999]
    assert steps_within_tolerance(fids, 0.99) == 3
    assert steps_within_tolerance(fids, 0.995) == 1
    assert steps_within_tolerance(fids, 0.9999) == 0
    assert steps_within_tolerance([1.0, 1.0], 0.99) == 2
    with pytest.raises(ValueError):
        steps_within_tolerance([], 0.99)


# ------------------------------------------------------------ noisy walk


def test_disabled_noise_reproduces_ideal_walk():
    spec = uniform_spec(2, 2, steps=5)
    result = run_noisy(spec, NativeGateSet(3), IDEAL)
    assert result.noisy_positions.shape == result.ideal_positions.shape == (5, 4)
    assert result.fidelities.shape == result.total_probability.shape == result.scalar_factor.shape == (5,)
    assert np.allclose(result.fidelities, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(result.total_probability, 1.0, rtol=0, atol=1e-12)
    assert np.all(result.scalar_factor == 1.0)


@pytest.mark.parametrize("rho", [3, 4])
def test_gate_errors_only_remove_population(rho):
    result = run_noisy(uniform_spec(2, 2, steps=4), NativeGateSet(rho), FULL)
    assert np.all(result.total_probability <= result.scalar_factor**2 + 1e-12)


def test_scalar_only_noise_loses_exactly_the_scalar():
    spec = uniform_spec(2, 2, steps=4)
    params = noiselib.NoiseParams(gate_errors=False)
    result = run_noisy(spec, NativeGateSet(3), params)
    assert result.total_probability == pytest.approx(result.scalar_factor**2, rel=1e-12)


def test_zero_moves_beat_the_marker_schedule():
    spec = uniform_spec(2, 2, steps=3)
    frozen = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(moves_per_step=0))
    marked = run_noisy(spec, NativeGateSet(3), FULL)
    assert frozen.scalar_factor[-1] > marked.scalar_factor[-1]


def random_spec(n, nc, steps, seed):
    # Distinct coin angles at every step, so reusing any step's coin for
    # another would show.
    rng = np.random.default_rng(seed)
    return WalkSpec(n, nc, tuple(rng.uniform(0.1, math.pi, steps)),
                    tuple(rng.uniform(0.1, math.pi, steps)) if nc == 2 else None)


def alternating_spec(n, nc, steps):
    # Theta alternates every step and phi every other step, so four coins
    # recur and neither angle alone tells which one a step needs.
    theta = tuple((0.7, 2.3)[t % 2] for t in range(steps))
    phi = tuple((1.1, 0.4)[t // 2 % 2] for t in range(steps))
    return WalkSpec(n, nc, theta, phi if nc == 2 else None)


def shift_gates(n, nc, rho):
    """(qubit count, compiled shift, its gates' targets in circuit order) of the compiled step."""
    compiled = build_step_circuit(uniform_spec(n, nc, steps=1), NativeGateSet(rho), 0)
    return compiled.qubit_count, compiled.shift, tuple(targets for targets in compiled.shift if targets is not None)


def gates_by_pass(passes, gates, gate_errors, param_a=None):
    """Each pass's gates, read back in circuit order.

    A lone pass is one gate on its own targets, running its rank's ckx; a
    fused pass takes the next gates whose targets lie inside its wires.
    """
    rest = list(gates)
    by_pass = []
    for wires, matrix in passes:
        if rest and wires == rest[0] and np.array_equal(matrix, ckx(len(wires), param_a, gate_errors)):
            taken = 1
        else:
            taken = next((i for i, targets in enumerate(rest) if not set(targets) <= set(wires)), len(rest))
            assert taken >= 2 and wires == tuple(sorted(wires))
        by_pass.append(tuple(rest[:taken]))
        del rest[:taken]
    assert not rest
    return by_pass


def block_reference(wires, pass_gates, gate_errors):
    """The pass's gates applied one by one to each column of the 2^w identity."""
    columns = np.eye(2 ** len(wires), dtype=np.complex128)
    for targets in pass_gates:
        local = tuple(wires.index(q) for q in targets)
        columns = np.array([apply_gate(column, ckx(len(targets), None, gate_errors), local) for column in columns])
    return columns.T


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
def test_shift_block_plan_invariants(n, nc, rho):
    n_q, shift, gates = shift_gates(n, nc, rho)
    coins = set(range(n, n + nc))
    # run_noisy folds the coin into the first block: the step's first gate
    # is controlled on every coin wire, so that block holds them all.
    assert coins <= set(gates[0])
    for steps in (1, 4, 8, 21, 150):
        for gate_errors in (False, True):
            passes = shift_passes(n_q, shift, steps, NativeGateSet(rho), gate_errors)
            by_pass = gates_by_pass(passes, gates, gate_errors)
            assert coins <= set(passes[0][0])
            assert sum(by_pass, ()) == gates
            for (wires, matrix), pass_gates in zip(passes, by_pass, strict=True):
                assert len(wires) <= FUSED_MAX_WIRES
                assert set(wires) == set().union(*pass_gates)
                assert matrix.shape == (2 ** len(wires),) * 2 and not matrix.flags.writeable
                if len(pass_gates) > 1:
                    assert np.max(np.abs(matrix - block_reference(wires, pass_gates, gate_errors))) < 1e-14
            if steps == 1:
                assert list(map(len, by_pass)) == [1] * len(gates)
    if (n, nc, rho) == (4, 2, 3):
        assert n_q == 9 and len(gates) == 58
        assert [len(shift_passes(n_q, shift, steps, NativeGateSet(rho), True)) for steps in (4, 8, 21)] == [44, 20, 20]


@pytest.mark.parametrize("n,nc,rho", sorted(ADMITTED_SHAPES))
def test_plans_and_blocks_match_their_first_forms_bit_for_bit(n, nc, rho, monkeypatch):
    # gate_plan's one transpose and the block build's strided diagonal and
    # ndarray.dot give the arrays np.moveaxis, np.eye and @ gave: every plan a
    # walk asks for, C-contiguous and read-only, and every block it fuses.
    keys = set()
    monkeypatch.setattr(simulate, "gate_plan", lambda *key: keys.add(key) or gate_plan(*key))
    n_q, shift, gates = shift_gates(n, nc, rho)
    for steps in (1, 4, 8, 21):
        for gate_set, gate_errors in ((NativeGateSet(rho), True), (NativeGateSet(rho), False),
                                      (NativeGateSet(rho, param_a=13.0), True)):
            shift_passes.cache_clear()
            chain_plans.cache_clear()  # so that both build again, and ask for every plan they use
            run_noisy(uniform_spec(n, nc, steps=steps), gate_set, noiselib.NoiseParams(gate_errors=gate_errors))
            passes = shift_passes(n_q, shift, steps, gate_set, gate_errors)
            for (wires, matrix), pass_gates in zip(passes, gates_by_pass(passes, gates, gate_errors, gate_set.param_a)):
                if len(pass_gates) > 1:
                    assert np.array_equal(matrix, fused_block_eye(wires, pass_gates, gate_set, gate_errors))
    assert {(n_q, targets) for targets in gates} <= keys
    for key in keys:
        plan, reference = gate_plan(*key), gate_plan_moveaxis(*key)
        assert np.array_equal(plan, reference) and plan.dtype == reference.dtype
        assert plan.flags.c_contiguous and not plan.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
def test_step_chain_gathers_are_permutations(n, nc, rho):
    rng = np.random.default_rng(100 * n + 10 * nc + rho)
    for steps in (1, 4, 8, 21):
        with pytest.MonkeyPatch.context() as patch:
            seen = watch(patch, DEFAULT)
            run_noisy(uniform_spec(n, nc, steps=steps), NativeGateSet(rho), FULL)
        n_q, wires = seen.qubit_count, seen.wires
        gathers = chain_plans(n_q, wires)
        assert len(gathers) == len(wires)
        for gather, targets in zip(gathers, wires):
            assert gather.shape == gate_plan(n_q, targets).shape
            assert np.array_equal(np.sort(gather, axis=None), np.arange(2**n_q))
            assert not gather.flags.writeable
        # Identity passes through the whole chain, then the last pass's
        # scatter, give the state back as it was.
        state = rng.standard_normal(2**n_q) + 1j * rng.standard_normal(2**n_q)
        amps = state
        for gather in gathers:
            amps = np.eye(len(gather), dtype=np.complex128) @ amps.reshape(-1)[gather]
        back = np.empty_like(state)
        back[gate_plan(n_q, wires[-1])] = amps
        assert np.array_equal(back, state)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_exact_shift_gate_is_the_ideal_ckx(rank):
    exact = ckx(rank, 13.0, effective=False)
    assert np.allclose(exact, ckx_from_ckz(ideal_ckz(rank - 1)), rtol=0, atol=1e-12)
    swapped = np.eye(2**rank, dtype=np.complex128)  # the identity with its last two rows swapped, to the bit
    swapped[[-2, -1]] = swapped[[-1, -2]]
    assert np.array_equal(exact.view(np.uint64), swapped.view(np.uint64))
    effective = ckx(rank, 13.0)
    assert np.array_equal(effective, ckx_from_ckz(effective_ckz(rank - 1, 13.0 if rank < 4 else None)))
    assert effective.shape == (2**rank, 2**rank)
    # A tuned CZ or CCZ differs from the published one; C3Z has no tuning curve.
    assert np.array_equal(effective, ckx(rank)) == (rank == 4)
    assert not exact.flags.writeable and not effective.flags.writeable


def test_rank_one_shift_gate_is_x_with_or_without_gate_errors():
    for effective in (False, True):
        assert np.array_equal(ckx(1, effective=effective), X)


@pytest.mark.parametrize("n,nc,rho", [(2, 1, 3), (3, 2, 3), (4, 2, 4)])
def test_compiled_step_is_the_step_zero_circuit(n, nc, rho, monkeypatch):
    spec, gate_set = WalkSpec(n, nc, (0.4,) * 3, (1.1,) * 3 if nc == 2 else None), NativeGateSet(rho)
    calls = []
    monkeypatch.setattr(simulate, "build_step_circuit", lambda *args: calls.append(args) or build_step_circuit(*args))
    run_noisy(spec, gate_set, FULL)
    assert calls == [(spec, gate_set, 0)]  # one compile per walk, of step 0
    compiled = build_step_circuit(spec, gate_set, 0)
    # The shift reads only the walk's shape: another schedule shares its tuple.
    other = build_step_circuit(WalkSpec(n, nc, (2.0,) * 5, (0.3,) * 5 if nc == 2 else None), gate_set, 0)
    assert other.shift is compiled.shift and other.coin_angles != compiled.coin_angles


def test_walks_of_one_spec_share_the_ideal_array_and_the_shift():
    spec = uniform_spec(3, 2, steps=4)
    ideal = run_ideal(spec)
    assert ideal.shape == (4, 8) and not ideal.flags.writeable
    with pytest.raises(ValueError):
        ideal[0, 0] = 0.5
    tuned = NativeGateSet(3, param_a=13.0)
    assert run_noisy(spec, tuned, FULL).ideal_positions is ideal  # one array serves every walk of the spec
    assert run_noisy(spec, NativeGateSet(4), FULL).ideal_positions is ideal
    assert build_step_circuit(spec, NativeGateSet(3), 0).shift is build_step_circuit(spec, tuned, 0).shift


def test_fidelity_decreases_with_worse_preparation():
    spec = uniform_spec(2, 2, steps=2)
    mild = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(eps_init=0.001))
    harsh = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(eps_init=0.02))
    assert harsh.fidelities[0] < mild.fidelities[0] < 1.0


def test_noisy_marginal_total_matches_probability():
    result = run_noisy(uniform_spec(3, 1, steps=4), NativeGateSet(3), FULL)
    assert result.noisy_positions.sum(axis=1) == pytest.approx(result.total_probability, rel=1e-12)
    assert result.ideal_positions.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)


# ------------------------------------------------- executor equivalences
#
# Each of run_noisy's shortcuts (fused shift blocks, the folded coin,
# batched readout, the early stop and the one-pass step) promises the
# numbers of a plainer path. A row of the table below names a walk, two
# paths to run it along and the rule the two readouts must meet. The runner
# forces each path through run_noisy's seams and checks that every forcing
# took effect, so a row whose paths differ cannot pass because both sides
# ran the same code.

# A rule: (readout arrays equal bit for bit, readout arrays within 1e-12).
READOUT = ("ideal_positions", "noisy_positions", "fidelities", "total_probability", "scalar_factor")
BIT_FOR_BIT = (READOUT, ())
AS_STEPWISE = (("noisy_positions", "scalar_factor", "total_probability"), ())  # run_noisy_stepwise's tuple order
TO_ROUNDING = (("scalar_factor",), ("noisy_positions", "fidelities", "total_probability"))  # sums reordered


class Walk(NamedTuple):
    spec: WalkSpec
    gate_set: NativeGateSet = NativeGateSet(3)
    noise: noiselib.NoiseParams = FULL
    stop_below: float | Callable[[np.ndarray], float] | None = None  # a callable reads it off the first full walk


class Path(NamedTuple):
    """How run_noisy runs a walk, and what it must be seen to do; None forces and checks nothing."""

    fused: bool | None = None  # True: fewer shift passes than gates; False: a pass per gate, the coin unfolded
    folds: bool | None = None  # the coin-fold decision run_noisy must record
    unfolded: bool | None = None  # the fold forced off, so the coin runs a pass per wire
    rows: int | None = None  # readout batches of this many rows
    stop_every: int | None = None  # a stop check every this many steps
    one_pass: bool | None = None  # the step is one pass over every wire in order; False: run as gather and scatter
    fresh_caches: bool | None = None  # run_ideal's and _compiled_shift's caches cleared first
    cut: bool | None = None  # the full walk, cut to the rows the first path's stop leaves
    stepwise: bool | None = None  # run_noisy_stepwise, cut as the full walk is
    rescaled: bool | None = None  # RESCALE_BELOW = 2, above the peaks: each readout but the last looks and may rescale


class Row(NamedTuple):
    walk: Walk
    first: Path  # a run_noisy path that runs the stop itself: a callable stop_below reads its full walk
    second: Path
    rule: tuple[tuple[str, ...], tuple[str, ...]] = BIT_FOR_BIT


DEFAULT, FUSED, UNFUSED, UNFOLDED = Path(), Path(fused=True), Path(fused=False), Path(unfolded=True)
FRESH, CUT, STEPWISE = Path(fresh_caches=True), Path(cut=True), Path(stepwise=True)


class UnequalWires(tuple):
    """Wires equal to no other tuple, so run_noisy never finds its step one pass over every wire in order."""

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return False


def watch(patch, path):
    """Force ``path`` on run_noisy's seams; record the shift's gates and pass count, the step's chained
    (qubit count, pass wires), the coin-fold decisions, the steps each readout batch scores and the
    exponents each rescale takes off."""
    seen = SimpleNamespace(folds=[], batches=[], exponents=[])
    pays_back, passes, chain, score, rescale = (simulate._pays_back, shift_passes, chain_plans, hellinger_fidelity,
                                                simulate._rescale)

    def deciding(*args):
        if len(args) < 5:  # only the coin fold's call passes a fifth argument, its build count
            return path.fused is not False and pays_back(*args)
        seen.folds.append(path.fused is not False and not path.unfolded and pays_back(*args))
        return seen.folds[-1]

    def planning(qubit_count, shift, *rest):
        # An unfused plan bypasses the cache, so it neither reads a fused plan nor leaves one behind.
        planned = (passes.__wrapped__ if path.fused is False else passes)(qubit_count, shift, *rest)
        seen.gates, seen.passes = tuple(filter(None, shift)), len(planned)
        if path.one_pass is False:
            (wires, matrix), *others = planned
            planned = ((UnequalWires(wires), matrix), *others)
        return planned

    def chaining(*args):
        seen.qubit_count, seen.wires = args
        return chain(*args)

    def scoring(p, q):
        seen.batches.append(len(p))
        return score(p, q)

    def rescaling(*args):
        seen.exponents.append(rescale(*args))
        return seen.exponents[-1]

    if path.rescaled:
        patch.setattr(simulate, "RESCALE_BELOW", 2.0)
    for name, seam in dict(_pays_back=deciding, shift_passes=planning, chain_plans=chaining,
                           hellinger_fidelity=scoring, _rescale=rescaling).items():
        patch.setattr(simulate, name, seam)
    return seen


def run_path(walk, path, stop_below):
    """``walk`` along ``path``: its readout arrays by name, its full walk's fidelities (None for the stepwise
    reference) and stop_below, read off those fidelities where it is a callable."""
    spec, gate_set, noise, _ = walk
    if path.stepwise:
        steps = run_noisy_stepwise(spec, gate_set, noise)
        return dict(zip(AS_STEPWISE[0], map(np.array, zip(*steps)))), None, stop_below
    with pytest.MonkeyPatch.context() as patch:
        qubit_count = build_step_circuit(spec, gate_set, 0).qubit_count
        if path.rows:
            patch.setattr(simulate, "READOUT_AMPLITUDES", path.rows * 2**qubit_count)
        if path.fresh_caches:
            run_ideal.cache_clear()
            _compiled_shift.cache_clear()
        seen = watch(patch, path)
        result = run_noisy(spec, gate_set, noise)
        coin_passes = tuple((wire,) for wire in spec.coin_indices)
        every_wire = (tuple(range(qubit_count)),)
        took_effect = {
            "fused": seen.passes < len(seen.gates) if path.fused else seen.wires == coin_passes + seen.gates,
            "folds": seen.folds == [path.folds],
            "unfolded": seen.folds == [False] and seen.wires[: len(coin_passes)] == coin_passes,
            "one_pass": seen.wires == every_wire if path.one_pass
                        else tuple(map(tuple, seen.wires)) == every_wire != seen.wires,
            "fresh_caches": run_ideal.cache_info().misses == _compiled_shift.cache_info().misses == 1,
            "rescaled": any(seen.exponents),
        }
        for name, held in took_effect.items():
            assert getattr(path, name) is None or held, f"{name}={getattr(path, name)} took no effect"
        full = result.fidelities
        if callable(stop_below):
            stop_below = stop_below(full)
        stopped = stop_below is not None and not path.cut
        if stopped:
            if path.stop_every:  # so many steps cost what one batch's readout and stop check cost
                step_cost = len(seen.wires) * (2**qubit_count + simulate.CALL_AMPLITUDES)
                patch.setattr(simulate, "STOP_CHECK_CALLS", -(-path.stop_every * step_cost // simulate.CALL_AMPLITUDES))
            seen.batches.clear()
            result = run_noisy(spec, gate_set, noise, stop_below=stop_below)
        # One score per batch, up to the one holding the stop; unforced, a walk without a stop fills the buffer.
        if batch := path.stop_every or path.rows or not stopped and simulate.READOUT_AMPLITUDES // 2**qubit_count:
            assert seen.batches == [min(batch, spec.steps - first) for first in range(0, len(result.fidelities), batch)]
        return {name: getattr(result, name) for name in READOUT}, full, stop_below


def assert_walks_agree(row):
    """Run the row's walk along both paths and compare their readouts by the row's rule."""
    first, full, stop_below = run_path(row.walk, row.first, row.walk.stop_below)
    second = run_path(row.walk, row.second, stop_below)[0]
    below = np.flatnonzero(full < stop_below) if stop_below is not None else []
    steps_run = below[0] + 1 if len(below) else row.walk.spec.steps
    if row.second.cut or row.second.stepwise:
        second = {name: array[:steps_run] for name, array in second.items()}
    for side in (first, second):
        assert {len(array) for array in side.values()} == {steps_run}
    exact, close = row.rule
    for name in exact:
        assert np.array_equal(first[name], second[name]), name
    for name in close:
        np.testing.assert_allclose(first[name], second[name], rtol=0, atol=1e-12, equal_nan=False, err_msg=name)


def just_above(step):
    """A stop_below that stops a walk whose fidelity falls every step at ``step``."""
    def stop_below(fidelities):
        assert np.all(np.diff(fidelities) < 0)
        return np.nextafter(fidelities[step - 1], 1.0)
    return stop_below


def stops_early(bound):
    """``bound`` as a stop_below, checked to stop the walk before its last step."""
    def stop_below(fidelities):
        assert fidelities[:-1].min() < bound
        return bound
    return stop_below


NOISES = {"full": FULL, "two-moves": noiselib.NoiseParams(moves_per_step=2), "ideal": IDEAL}
SHAPES = [(n, nc, rho) for n in (2, 3, 4) for nc in (1, 2) for rho in (3, 4)]
# The admitted shapes whose step, its coin folded, is one fused pass over every wire.
ONE_PASS_SHAPES = [(2, 1, 3), (2, 1, 4), (2, 2, 3), (2, 2, 4), (3, 1, 3), (3, 1, 4)]


def table_test(rows):
    """A test that runs each row of {case ID: row} through assert_walks_agree, or a lone row as a test without cases."""
    if isinstance(rows, Row):
        def test():
            assert_walks_agree(rows)
        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(row):
        assert_walks_agree(row)
    return test


# The equivalence table: each test below is a table_test of its rows.

# The unfused path does the stepwise reference's arithmetic in the same order.
test_compiled_once_matches_stepwise_reference = table_test({
    f"{key}-{rho}-{nc}": Row(Walk(random_spec(3, nc, 6, 10 * nc + rho), NativeGateSet(rho), noise),
                             UNFUSED, STEPWISE, AS_STEPWISE)
    for nc in (1, 2) for rho in (3, 4) for key, noise in NOISES.items()
})
test_scalar_factor_audit = table_test({
    f"{rho}": Row(Walk(uniform_spec(2, 2, steps=4), NativeGateSet(rho)), UNFUSED, STEPWISE, AS_STEPWISE)
    for rho in (3, 4)
})
test_moves_per_step_override = table_test(Row(Walk(uniform_spec(2, 2, steps=3), noise=NOISES["two-moves"]),
                                              UNFUSED, STEPWISE, AS_STEPWISE))
# A buffer of four states reads the 6-step walk out as 4 steps, then 2; each batch scores its own rows,
# to the bits of the walk read out in one batch.
test_batched_readout_matches_stepwise_reference = table_test({
    f"{nc}{suffix}": Row(Walk(random_spec(3, nc, 6, 50 + nc)), Path(fused=fused, rows=4), *other)
    for nc in (1, 2)
    for suffix, fused, other in (("", False, (STEPWISE, AS_STEPWISE)), ("-whole", None, (DEFAULT,)))
})
# Blocks change the summation order, so the two paths agree to rounding.
test_fused_shift_matches_unfused = table_test({
    f"{key}-{rho}-{nc}-{n}": Row(Walk(random_spec(n, nc, 8, 100 * n + 10 * nc + rho),
                                      NativeGateSet(rho, param_a=13.0 if key == "a13" else None), noise),
                                 FUSED, UNFUSED, TO_ROUNDING)
    for n, nc, rho in SHAPES
    for key, noise in {**NOISES, "no-gate-errors": noiselib.NoiseParams(gate_errors=False), "a13": FULL}.items()
})
# The folded block sums in another order, so the two agree to rounding. A fresh angle every step would
# cost a build a step, so a random schedule never folds and runs the unfolded path's bits.
test_folded_coin_matches_unfolded = table_test({
    f"{schedule}-{key}-{rho}-{nc}-{n}": Row(
        Walk({"uniform": uniform_spec(n, nc, steps=30), "alternating": alternating_spec(n, nc, 30),
              "random": random_spec(n, nc, 30, 100 * n + 10 * nc + rho)}[schedule], NativeGateSet(rho), noise),
        Path(folds=schedule != "random"), UNFOLDED, BIT_FOR_BIT if schedule == "random" else TO_ROUNDING)
    for n, nc, rho in SHAPES for key, noise in NOISES.items() for schedule in ("uniform", "alternating", "random")
})
test_folded_coin_is_not_built_for_fresh_angles_every_step = table_test({
    f"{rho}-{nc}": Row(Walk(random_spec(2, nc, 150, 300 + 10 * nc + rho), NativeGateSet(rho)),
                       Path(folds=False), UNFOLDED)
    for nc in (1, 2) for rho in (3, 4)
})
# 7 steps checked in batches of 1 and 3 steps, and as one whole-walk batch. Fidelity falls every step of
# this walk, so a bound just above step 5's stops the walk there, inside the batches of 3 and of 7; a
# bound of 0 never stops it.
test_stop_batches_match_stepwise_reference = table_test({
    f"{stop}-{batch}-{nc}": Row(Walk(random_spec(3, nc, 7, 70 + nc), stop_below=just_above(stop) if stop else 0.0),
                                Path(fused=False, stop_every=batch), STEPWISE, AS_STEPWISE)
    for nc in (1, 2) for batch in (1, 3, 7) for stop in (None, 5)
})
# Each ID without a suffix stops at the median fidelity, checking every 5 steps.
test_batched_stop_returns_the_rows_of_a_stepwise_stop = table_test({
    f"{n}-{nc}-{rho}" + ("" if (key, batch) == ("median", 5) else f"-{key}-{batch}"): Row(
        Walk(random_spec(n, nc, 12, 200 + 10 * n + nc), NativeGateSet(rho), stop_below=bound),
        Path(stop_every=batch), Path(stop_every=1))
    for n, nc, rho in [(2, 1, 3), (2, 2, 4), (3, 2, 3), (4, 2, 3)]
    for key, bound in (("zero", 0.0), ("median", np.median), ("one", 1.0)) for batch in (2, 5, 12)
})
# A uniform coin folds into the shift's first pass, so a step runs no coin pass: a stop check every k
# steps counts only the passes that run. Each ID without a suffix stops at the median fidelity.
test_folded_walk_stop_batches_hold_the_steps_asked_for = table_test({
    f"{batch}-{n}-{nc}{suffix}": Row(Walk(uniform_spec(n, nc, steps=12), stop_below=bound),
                                     Path(folds=True, stop_every=batch), CUT)
    for n, nc in [(2, 1), (3, 1), (3, 2), (4, 2)] for batch in (1, 3, 12)
    for suffix, bound in (("", np.median), ("-zero", 0.0))
})
# The one-call step multiplies into its readout row with out=; a buffer of 2 or 3 rows puts each step's
# input and output rows next to each other across batch boundaries. A stopped walk reads out in the
# batches its stop checks set. Each ID without a suffix stops at the median fidelity.
test_one_pass_step_matches_gather_scatter_step = table_test({
    f"{key}-{schedule}-{n}-{nc}-{rho}{suffix}": Row(
        Walk(uniform_spec(n, nc, steps=30) if schedule == "uniform" else alternating_spec(n, nc, 30),
             NativeGateSet(rho), stop_below=bound),
        Path(one_pass=True, rows=rows), Path(one_pass=False, rows=rows))
    for n, nc, rho in ONE_PASS_SHAPES for schedule in ("uniform", "alternating")
    for key, rows in (("rows2", 2), ("rows3", 3), ("rows-default", None))
    for suffix, bound in (("", np.median), ("-no-stop", None))
})
# cmd_tolerance stops each walk at its first step below the lowest tolerance, and every one of these
# stops early. The ID without a suffix is the 2^4 lazy walk.
test_stopped_tolerance_walks_are_prefixes_of_full_walks = table_test({
    f"{rho}" + ("" if (n, nc) == (4, 2) else f"-{n}-{nc}"): Row(
        Walk(uniform_spec(n, nc, steps=21), NativeGateSet(rho), stop_below=stops_early(min(TOLERANCES))),
        DEFAULT, CUT)
    for rho in (3, 4) for nc in (1, 2) for n in (2, 3, 4)
})
# Rescaled after every step's readout, the state is the walk's times a power of two that each step's
# factor takes back off before the readout: the bits of the walk that never rescales. A uniform coin's
# peak |amplitude| swings across 1/2, so every walk here rescales by 2 or 1/2. A median stop puts the
# stop check before the rescale at each step. Vanishing noise zeroes the factor, so its total bounds
# nothing and the rescale must look at the peak.
test_rescaled_state_reads_out_the_plain_walk = table_test({
    f"{key}-{n}-{nc}-{rho}{suffix}": Row(
        Walk(uniform_spec(n, nc, steps=30), NativeGateSet(rho), noise, stop_below=bound),
        Path(rescaled=True, rows=1, stop_every=every), Path(rows=1, stop_every=every))
    for n, nc, rho in SHAPES
    for key, noise in {**NOISES, "vanishing": noiselib.NoiseParams(t1_seconds=1e-300)}.items()
    for suffix, bound, every in (("", None, None), ("-median", np.median, 1)) if bound is None or key == "full"
})
# A walk run from cleared caches fills them, and the same walk read from them has its bits.
test_shared_compiled_step_and_ideal_tables = table_test(Row(
    Walk(uniform_spec(3, 2, steps=4), NativeGateSet(3, param_a=13.0)), FRESH, DEFAULT))
test_runs_are_deterministic = table_test(Row(Walk(uniform_spec(2, 2, steps=5)), DEFAULT, DEFAULT))


# md5 of the five readout arrays of the 7,500-step 2^4 lazy G(3) walk under default noise, recorded before
# run_noisy rescaled its state, by the OpenBLAS kernel that ran it: each kernel family rounds the BLAS
# products its own way (ROADMAP item 9).
LONG_WALK_DIGESTS = {
    "166c61a288c7283738e2ec1817cc7e89": "SkylakeX",
    "3ee6247dd9a4a16521d1284a4f69ab62": "Haswell, also the one Zen gets",
    "daa22a3339ec2fa44f117888b7ece20b": "Sandybridge and Prescott",
}


def test_long_walk_rescales_to_its_own_bits_and_holds_no_subnormal(monkeypatch):
    # The state's peak |amplitude| falls below RESCALE_BELOW a few times in these steps. The rescaled walk
    # has the bits of the walk that never rescales, and the bits it had before rescaling existed; at every
    # readout boundary no part of any amplitude is subnormal.
    spec = uniform_spec(4, 2, steps=7500)
    smallest, exponents = [], []
    rescale = simulate._rescale

    def recording(state, *args):
        parts = np.abs(state.view(np.float64))
        smallest.append(parts[parts != 0].min())
        exponents.append(rescale(state, *args))
        return exponents[-1]

    monkeypatch.setattr(simulate, "_rescale", recording)
    rescaled = run_noisy(spec, NativeGateSet(3), FULL)
    taken = [e for e in exponents if e]
    assert taken and max(taken) <= math.log2(simulate.RESCALE_BELOW) + 1
    assert min(smallest) >= np.finfo(np.float64).tiny
    monkeypatch.setattr(simulate, "RESCALE_BELOW", 0.0)
    plain = run_noisy(spec, NativeGateSet(3), FULL)
    digest = hashlib.md5()
    for name in READOUT:
        assert np.array_equal(getattr(rescaled, name), getattr(plain, name)), name
        digest.update(getattr(rescaled, name).tobytes())
    assert digest.hexdigest() in LONG_WALK_DIGESTS


# --------------------------------------------------------------- reports


def test_tolerance_report_matches_recount():
    rows = cmd_tolerance(ExperimentConfig(steps=8)).payload["rows"]
    assert len(rows) == 12
    for row in rows:
        spec = uniform_spec(row["position_qubits"], row["coin_qubits"], steps=8)
        fids = run_noisy(spec, NativeGateSet(row["max_rank"]), FULL).fidelities
        assert row["steps_within"] == {f"{tol:.12g}": steps_within_tolerance(fids, tol) for tol in TOLERANCES}
        counts = list(row["steps_within"].values())
        assert counts == sorted(counts, reverse=True)


def test_composite_fidelity_product():
    counts = {3: 2, 4: 3}
    fids = {3: 0.99, 4: 0.98}
    assert composite_fidelity(counts, fids) == pytest.approx(0.99**2 * 0.98**3, rel=1e-14)
    assert composite_fidelity({}, fids) == 1.0
    with pytest.raises(ValueError):
        composite_fidelity({5: 1}, fids)


def test_gate_set_comparison_structure(monkeypatch):
    census = []
    counted = simulate.count_multiqubit_gates
    monkeypatch.setattr(simulate, "count_multiqubit_gates",
                        lambda n, coin_qubits, rank: census.append((n, rank)) or counted(n, coin_qubits, rank))
    entries = gate_set_comparison(n_list=(4, 5))
    # G(4) serves both default transitions and is counted once per ring.
    assert census == [(4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5)]
    # Default composite on rings of 2^2 to 2^20 nodes, as the bench runs it: one census per ring and rank
    # bound, n-major, all through simulate's global, where the bench's work counter and tracer count them.
    census.clear()
    cmd_composite(ExperimentConfig(n_list=tuple(range(2, 21))))
    monkeypatch.undo()
    assert census == [(n, rank) for n in range(2, 21) for rank in (3, 4, 5)]
    # n-major: 2 ring sizes x 2 transitions
    assert [entry[:3] for entry in entries] == [(4, 3, 4), (4, 4, 5), (5, 3, 4), (5, 4, 5)]
    for n, low, high, counts_low, counts_high, rows in entries:
        assert counts_low == count_multiqubit_gates(n, 2, low)
        assert counts_high == count_multiqubit_gates(n, 2, high)
        assert [row[0] for row in rows] == list(DEFAULT_FIDELITY_SETS)
        for fid_set, f_low, f_high, pct in rows:
            by_rank = {3: fid_set[0], 4: fid_set[1], 5: fid_set[2]}
            assert f_low == pytest.approx(composite_fidelity(counts_low, by_rank), rel=1e-12)
            assert f_high == pytest.approx(composite_fidelity(counts_high, by_rank), rel=1e-12)
            assert pct == pytest.approx((f_high - f_low) / f_low * 100.0, rel=1e-12)


def test_gate_set_comparison_validates_fidelity_sets():
    with pytest.raises(ValueError):
        gate_set_comparison(fidelity_sets=((0.99, 0.98),))
    with pytest.raises(ValueError):
        gate_set_comparison(fidelity_sets=((0.99, 0.0, 0.98),))
    with pytest.raises(ValueError):
        gate_set_comparison(fidelity_sets=((0.99, 0.995, 0.99),))
    with pytest.raises(ValueError, match="at least one"):
        gate_set_comparison(fidelity_sets=())
    # 0.5**1522 underflows to 0, so the percent increase has no denominator.
    with pytest.raises(ValueError, match=r"^fidelity_sets entry \(0\.5, 0\.4, 0\.3\) at n = 20: .* underflows to 0$"):
        gate_set_comparison(n_list=(20,), fidelity_sets=((0.5, 0.4, 0.3),))
    for transition in ((4, 3), (3, 3), (2, 4)):
        with pytest.raises(ValueError):
            gate_set_comparison(n_list=(5,), transitions=(transition,))
    ok = gate_set_comparison(n_list=(5,), fidelity_sets=DEFAULT_FIDELITY_SETS)
    assert len(ok) == 2
