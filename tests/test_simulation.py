import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import run_ideal_dense_oracle
from stepwise_reference import (
    IDEAL,
    X,
    fused_block_eye,
    gate_plan_moveaxis,
    run_ideal_stepwise,
    run_noisy_stepwise,
)
from test_cli import ADMITTED_SHAPES
from ringwalk import noise as noiselib
from ringwalk import simulate
from ringwalk.circuits import (
    GateApplication,
    NativeGateSet,
    WalkSpec,
    _compiled_shift,
    build_step_circuit,
    count_multiqubit_gates,
    uniform_spec,
)
from ringwalk.cli import ExperimentConfig, cmd_tolerance
from ringwalk.simulate import (
    DEFAULT_FIDELITY_SETS,
    FUSED_MAX_WIRES,
    TOLERANCES,
    RunResult,
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
def test_scalar_factor_audit(rho):
    spec = uniform_spec(2, 2, steps=4)
    result = run_noisy(spec, NativeGateSet(rho), FULL)
    # The stepwise reference multiplies the same factors in the same order.
    assert result.scalar_factor.tolist() == [s for _, s, _ in run_noisy_stepwise(spec, NativeGateSet(rho), FULL)]
    # Effective gates only remove additional population.
    assert np.all(result.total_probability <= result.scalar_factor**2 + 1e-12)


def test_scalar_only_noise_loses_exactly_the_scalar():
    spec = uniform_spec(2, 2, steps=4)
    params = noiselib.NoiseParams(gate_errors=False)
    result = run_noisy(spec, NativeGateSet(3), params)
    assert result.total_probability == pytest.approx(result.scalar_factor**2, rel=1e-12)


def test_moves_per_step_override():
    spec = uniform_spec(2, 2, steps=3)
    fixed = noiselib.NoiseParams(moves_per_step=2)
    result = run_noisy(spec, NativeGateSet(3), fixed)
    assert result.scalar_factor.tolist() == [s for _, s, _ in run_noisy_stepwise(spec, NativeGateSet(3), fixed)]
    # Zero moves must beat the marker-driven schedule.
    frozen = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(moves_per_step=0))
    marked = run_noisy(spec, NativeGateSet(3), FULL)
    assert frozen.scalar_factor[-1] > marked.scalar_factor[-1]


@contextlib.contextmanager
def never_fused(monkeypatch):
    """Run the shift gate by gate: no run of gates pays back its block."""
    shift_passes.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_pays_back", lambda *args: False)
        try:
            yield
        finally:
            shift_passes.cache_clear()


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


@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
@pytest.mark.parametrize("noise", [FULL, noiselib.NoiseParams(moves_per_step=2), IDEAL],
                         ids=["full", "two-moves", "ideal"])
def test_compiled_once_matches_stepwise_reference(nc, rho, noise, monkeypatch):
    # The unfused path does the reference's arithmetic in the same order.
    assert_matches_stepwise_reference(random_spec(3, nc, 6, 10 * nc + rho), NativeGateSet(max_rank=rho), noise,
                                      monkeypatch)


@pytest.mark.parametrize("nc", [1, 2])
def test_batched_readout_matches_stepwise_reference(nc, monkeypatch):
    # A buffer of four states reads the 6-step walk out as 4 steps, then 2.
    # Each batch scores its own rows, and the walk read out in one batch
    # scores them to the same bits.
    spec = random_spec(3, nc, 6, 50 + nc)
    gate_set = NativeGateSet(max_rank=3)
    sizes = checked_batches(monkeypatch)
    whole = run_noisy(spec, gate_set, FULL)
    monkeypatch.setattr(simulate, "READOUT_AMPLITUDES", 4 * 2 ** build_step_circuit(spec, gate_set, 0).qubit_count)
    batched = run_noisy(spec, gate_set, FULL)
    assert sizes == [6, 4, 2]
    assert np.array_equal(batched.fidelities, whole.fidelities)
    assert_matches_stepwise_reference(spec, gate_set, FULL, monkeypatch)


def assert_matches_stepwise_reference(spec, gate_set, noise, monkeypatch):
    with never_fused(monkeypatch):
        result = run_noisy(spec, gate_set, noise)
    reference = run_noisy_stepwise(spec, gate_set, noise)
    assert len(result.noisy_positions) == len(result.scalar_factor) == len(reference) == spec.steps
    for positions, factor, total, (table, scalar_factor, total_probability) in zip(
            result.noisy_positions, result.scalar_factor, result.total_probability, reference):
        assert np.array_equal(positions, table)
        assert factor == scalar_factor
        assert total == total_probability


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
@pytest.mark.parametrize("noise,param_a", [
    (FULL, None), (noiselib.NoiseParams(moves_per_step=2), None), (IDEAL, None),
    (noiselib.NoiseParams(gate_errors=False), None), (FULL, 13.0),
], ids=["full", "two-moves", "ideal", "no-gate-errors", "a13"])
def test_fused_shift_matches_unfused(n, nc, rho, noise, param_a, monkeypatch):
    # Blocks change the summation order, so the two paths agree to rounding.
    steps = 8
    spec = random_spec(n, nc, steps, 100 * n + 10 * nc + rho)
    gate_set = NativeGateSet(max_rank=rho, param_a=param_a)
    n_q, shift, gates = shift_gates(n, nc, rho)
    assert len(shift_passes(n_q, shift, steps, gate_set, noise.gate_errors)) < len(gates)
    fused = run_noisy(spec, gate_set, noise)
    with never_fused(monkeypatch):
        unfused = run_noisy(spec, gate_set, noise)
    for name in ("noisy_positions", "fidelities", "total_probability"):
        assert np.max(np.abs(getattr(fused, name) - getattr(unfused, name))) < 1e-12
    assert np.array_equal(fused.scalar_factor, unfused.scalar_factor)


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


def recorded_folds(monkeypatch, allow=True):
    """Record run_noisy's coin-fold decisions; with allow=False it never folds.

    Only the fold's _pays_back call passes a fifth argument, its build
    count; shift_passes' calls go through unchanged.
    """
    decisions = []
    pays_back = simulate._pays_back

    def deciding(*args):
        if len(args) < 5:
            return pays_back(*args)
        decisions.append(allow and pays_back(*args))
        return decisions[-1]

    monkeypatch.setattr(simulate, "_pays_back", deciding)
    return decisions


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
@pytest.mark.parametrize("noise", [FULL, noiselib.NoiseParams(moves_per_step=2), IDEAL],
                         ids=["full", "two-moves", "ideal"])
@pytest.mark.parametrize("schedule", ["uniform", "alternating", "random"])
def test_folded_coin_matches_unfolded(n, nc, rho, noise, schedule, monkeypatch):
    # The folded block sums in another order, so the two agree to rounding.
    # A fresh angle every step would cost a build a step, so random never folds.
    steps = 30
    spec = {"uniform": uniform_spec(n, nc, steps=steps), "alternating": alternating_spec(n, nc, steps),
            "random": random_spec(n, nc, steps, 100 * n + 10 * nc + rho)}[schedule]
    gate_set = NativeGateSet(max_rank=rho)
    with monkeypatch.context() as patch:
        decisions = recorded_folds(patch)
        folded = run_noisy(spec, gate_set, noise)
    assert decisions == [schedule != "random"]
    with monkeypatch.context() as patch:
        decisions = recorded_folds(patch, allow=False)
        unfolded = run_noisy(spec, gate_set, noise)
    assert decisions == [False]
    for name in ("noisy_positions", "fidelities", "total_probability"):
        assert np.max(np.abs(getattr(folded, name) - getattr(unfolded, name))) < 1e-12
    assert np.array_equal(folded.scalar_factor, unfolded.scalar_factor)


@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
def test_folded_coin_is_not_built_for_fresh_angles_every_step(nc, rho, monkeypatch):
    decisions = recorded_folds(monkeypatch)
    run_noisy(random_spec(2, nc, 150, 300 + 10 * nc + rho), NativeGateSet(max_rank=rho), FULL)
    assert decisions == [False]


def step_wires(spec, gate_set):
    """(qubit count, each pass's wires in order), from the one chain_plans call run_noisy makes for the walk.

    A walk that folds its coin runs no coin pass; one that does not runs a
    pass per coin wire before the shift's.
    """
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "chain_plans", lambda *args: calls.append(args) or chain_plans(*args))
        run_noisy(spec, gate_set, FULL)
    (call,) = calls
    return call


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
def test_step_chain_gathers_are_permutations(n, nc, rho):
    rng = np.random.default_rng(100 * n + 10 * nc + rho)
    for steps in (1, 4, 8, 21):
        n_q, wires = step_wires(uniform_spec(n, nc, steps=steps), NativeGateSet(rho))
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


def force_stop_batch(monkeypatch, spec, gate_set, steps):
    """Set STOP_CHECK_CALLS so run_noisy checks a stop every ``steps`` steps."""
    n_q, wires = step_wires(spec, gate_set)
    step_cost = len(wires) * (2**n_q + simulate.CALL_AMPLITUDES)
    monkeypatch.setattr(simulate, "STOP_CHECK_CALLS", -(-steps * step_cost // simulate.CALL_AMPLITUDES))


def checked_batches(monkeypatch):
    """Record the number of steps each readout batch of run_noisy scores, and so checks for a stop."""
    sizes = []
    hellinger = simulate.hellinger_fidelity

    def recording(p, q):
        sizes.append(len(p))
        return hellinger(p, q)

    monkeypatch.setattr(simulate, "hellinger_fidelity", recording)
    return sizes


@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("batch", [1, 3, 7])
@pytest.mark.parametrize("stop_step", [None, 5])
def test_stop_batches_match_stepwise_reference(nc, batch, stop_step, monkeypatch):
    # 7 steps checked in batches of 1 and 3 steps, and as one whole-walk
    # batch. Fidelity falls every step of this walk, so a bound just above
    # step 5's stops the walk there, inside the batches of 3 and of 7; a
    # bound of 0 never stops it.
    spec = random_spec(3, nc, 7, 70 + nc)
    gate_set = NativeGateSet(max_rank=3)
    reference = run_noisy_stepwise(spec, gate_set, FULL)
    sizes = checked_batches(monkeypatch)
    with never_fused(monkeypatch):
        full = run_noisy(spec, gate_set, FULL)
        stop_below = 0.0 if stop_step is None else np.nextafter(full.fidelities[stop_step - 1], 1.0)
        force_stop_batch(monkeypatch, spec, gate_set, batch)
        sizes.clear()
        result = run_noisy(spec, gate_set, FULL, stop_below=stop_below)
    steps_run = stop_step or spec.steps
    assert np.all(np.diff(full.fidelities) < 0)
    assert len(result.scalar_factor) == steps_run
    # One check per batch up to the one holding the stop; no row is scored again.
    assert sizes == [min(batch, spec.steps - first) for first in range(0, steps_run, batch)]
    for positions, factor, total, (table, scalar_factor, total_probability) in zip(
            result.noisy_positions, result.scalar_factor, result.total_probability, reference[:steps_run]):
        assert np.array_equal(positions, table)
        assert factor == scalar_factor
        assert total == total_probability


@pytest.mark.parametrize("n,nc,rho", [(2, 1, 3), (2, 2, 4), (3, 2, 3), (4, 2, 3)])
def test_batched_stop_returns_the_rows_of_a_stepwise_stop(n, nc, rho, monkeypatch):
    spec = random_spec(n, nc, 12, 200 + 10 * n + nc)
    gate_set = NativeGateSet(max_rank=rho)
    full = run_noisy(spec, gate_set, FULL)
    for stop_below in (0.0, float(np.median(full.fidelities)), 1.0):
        force_stop_batch(monkeypatch, spec, gate_set, 1)
        stepwise = run_noisy(spec, gate_set, FULL, stop_below=stop_below)
        for batch in (2, 5, 12):
            force_stop_batch(monkeypatch, spec, gate_set, batch)
            batched = run_noisy(spec, gate_set, FULL, stop_below=stop_below)
            for name in ("ideal_positions", "noisy_positions", "fidelities", "total_probability", "scalar_factor"):
                assert np.array_equal(getattr(batched, name), getattr(stepwise, name))


@pytest.mark.parametrize("n,nc", [(2, 1), (3, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("batch", [1, 3, 12])
def test_folded_walk_stop_batches_hold_the_steps_asked_for(n, nc, batch, monkeypatch):
    # A uniform coin folds into the shift's first pass, so a step runs no
    # coin pass; force_stop_batch must count only the passes that run.
    spec = uniform_spec(n, nc, steps=12)
    gate_set = NativeGateSet(max_rank=3)
    decisions = recorded_folds(monkeypatch)
    full = run_noisy(spec, gate_set, FULL)
    assert decisions == [True]
    sizes = checked_batches(monkeypatch)
    for stop_below in (0.0, float(np.median(full.fidelities))):
        force_stop_batch(monkeypatch, spec, gate_set, batch)
        sizes.clear()
        result = run_noisy(spec, gate_set, FULL, stop_below=stop_below)
        steps_run = int(np.argmax(full.fidelities < stop_below)) + 1 if stop_below else spec.steps
        assert sizes == [min(batch, spec.steps - first) for first in range(0, steps_run, batch)]
        for name in ("ideal_positions", "noisy_positions", "fidelities", "total_probability", "scalar_factor"):
            assert np.array_equal(getattr(result, name), getattr(full, name)[:steps_run])


class UnequalWires(tuple):
    """Wires equal to no other tuple, so run_noisy never finds its step one pass over every wire in order."""

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return False


def gather_scatter_step(monkeypatch):
    """Make run_noisy run even a one-pass step as a gather, a product and a scatter into the readout row."""
    passes = simulate.shift_passes

    def unequal_first_wires(*args):
        (wires, matrix), *rest = passes(*args)
        return ((UnequalWires(wires), matrix), *rest)

    monkeypatch.setattr(simulate, "shift_passes", unequal_first_wires)


# Every admitted shape whose step, its coin folded, is one fused pass over all its wires.
@pytest.mark.parametrize("n,nc,rho", [(2, 1, 3), (2, 1, 4), (2, 2, 3), (2, 2, 4), (3, 1, 3), (3, 1, 4)])
@pytest.mark.parametrize("schedule", ["uniform", "alternating"])
@pytest.mark.parametrize("rows", [2, 3, None], ids=["rows2", "rows3", "rows-default"])
def test_one_pass_step_matches_gather_scatter_step(n, nc, rho, schedule, rows, monkeypatch):
    # The one-call step multiplies into its readout row with out=; a buffer
    # of 2 or 3 rows puts each step's input and output rows next to each
    # other across batch boundaries. A stop_below run reads out in the
    # batches its stop checks set.
    steps = 30
    spec = uniform_spec(n, nc, steps=steps) if schedule == "uniform" else alternating_spec(n, nc, steps)
    gate_set = NativeGateSet(max_rank=rho)
    n_q, wires = step_wires(spec, gate_set)
    assert wires == (tuple(range(n_q)),)
    if rows is not None:
        monkeypatch.setattr(simulate, "READOUT_AMPLITUDES", rows * 2**n_q)
    full = run_noisy(spec, gate_set, FULL)
    median = float(np.median(full.fidelities))
    for stop_below, steps_run in ((None, steps), (median, int(np.argmax(full.fidelities < median)) + 1)):
        one_call = run_noisy(spec, gate_set, FULL, stop_below=stop_below)
        with monkeypatch.context() as patch:
            gather_scatter_step(patch)
            assert step_wires(spec, gate_set)[1] != (tuple(range(n_q)),)
            reference = run_noisy(spec, gate_set, FULL, stop_below=stop_below)
        assert len(one_call.fidelities) == steps_run
        for name in ("ideal_positions", "noisy_positions", "fidelities", "total_probability", "scalar_factor"):
            assert np.array_equal(getattr(one_call, name), getattr(reference, name))


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


def test_shared_compiled_step_and_ideal_tables():
    # Walks of one spec share one read-only ideal array and one shift tuple,
    # with the bits of a walk run after both caches are cleared.
    spec = uniform_spec(3, 2, steps=4)
    ideal = run_ideal(spec)
    assert ideal.shape == (4, 8) and not ideal.flags.writeable
    with pytest.raises(ValueError):
        ideal[0, 0] = 0.5
    tuned = NativeGateSet(3, param_a=13.0)
    shared = run_noisy(spec, tuned, FULL)
    assert shared.ideal_positions is ideal  # one array serves every walk of the spec
    assert run_noisy(spec, NativeGateSet(4), FULL).ideal_positions is ideal
    shift = build_step_circuit(spec, tuned, 0).shift
    assert build_step_circuit(spec, NativeGateSet(3), 0).shift is shift
    run_ideal.cache_clear()
    _compiled_shift.cache_clear()
    alone = run_noisy(spec, tuned, FULL)
    assert alone.ideal_positions is not ideal and build_step_circuit(spec, tuned, 0).shift is not shift
    for name in ("ideal_positions", "noisy_positions", "fidelities", "total_probability", "scalar_factor"):
        assert np.array_equal(getattr(shared, name), getattr(alone, name))


def test_fidelity_decreases_with_worse_preparation():
    spec = uniform_spec(2, 2, steps=2)
    mild = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(eps_init=0.001))
    harsh = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(eps_init=0.02))
    assert harsh.fidelities[0] < mild.fidelities[0] < 1.0


def test_noisy_marginal_total_matches_probability():
    result = run_noisy(uniform_spec(3, 1, steps=4), NativeGateSet(3), FULL)
    assert result.noisy_positions.sum(axis=1) == pytest.approx(result.total_probability, rel=1e-12)
    assert result.ideal_positions.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)


def test_runs_are_deterministic():
    spec = uniform_spec(2, 2, steps=5)
    a = run_noisy(spec, NativeGateSet(3), FULL)
    b = run_noisy(spec, NativeGateSet(3), FULL)
    assert np.array_equal(a.fidelities, b.fidelities)
    assert np.array_equal(a.scalar_factor, b.scalar_factor)


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


@pytest.mark.parametrize("max_rank", [3, 4])
def test_stopped_tolerance_walks_are_prefixes_of_full_walks(max_rank):
    # cmd_tolerance stops each walk at its first step below the lowest
    # tolerance; the steps it ran must be the full walk's, bit for bit.
    stopped_early = 0
    for coin_qubits in (1, 2):
        for position_qubits in (2, 3, 4):
            spec = uniform_spec(position_qubits, coin_qubits, steps=21)
            full = run_noisy(spec, NativeGateSet(max_rank), FULL)
            stopped = run_noisy(spec, NativeGateSet(max_rank), FULL, stop_below=min(TOLERANCES))
            below = np.flatnonzero(full.fidelities < min(TOLERANCES))
            steps_run = below[0] + 1 if below.size else spec.steps
            stopped_early += steps_run < spec.steps
            assert stopped.spec == spec
            for name in ("ideal_positions", "noisy_positions", "fidelities", "total_probability", "scalar_factor"):
                assert np.array_equal(getattr(stopped, name), getattr(full, name)[:steps_run])
            for tol in TOLERANCES:
                assert steps_within_tolerance(stopped.fidelities, tol) == steps_within_tolerance(full.fidelities, tol)
    assert stopped_early == 6


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
    monkeypatch.undo()
    # G(4) serves both default transitions and is counted once per ring.
    assert census == [(4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5)]
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
