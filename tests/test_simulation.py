import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import run_ideal_dense_oracle
from stepwise_reference import run_ideal_stepwise, run_noisy_stepwise
from ringwalk import noise as noiselib
from ringwalk import simulate
from ringwalk.circuits import (
    GateApplication,
    MoveMarker,
    NativeGateSet,
    WalkSpec,
    build_step_circuit,
    count_multiqubit_gates,
    uniform_spec,
)
from ringwalk.simulate import (
    DEFAULT_FIDELITY_SETS,
    FUSED_MAX_WIRES,
    TOLERANCES,
    CompositeReport,
    RunResult,
    UnsupportedSizeError,
    block_matrices,
    compile_step,
    composite_fidelity,
    gate_set_comparison,
    hellinger_fidelity,
    run_ideal,
    run_noisy,
    shift_blocks,
    shift_matrix,
    steps_within_tolerance,
    tolerance_report,
)
from ringwalk.gates import X, ckx_from_ckz, ideal_ckz


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
    with pytest.raises(UnsupportedSizeError):
        run_ideal(uniform_spec(5, 1, steps=1))
    with pytest.raises(UnsupportedSizeError):
        run_noisy(uniform_spec(5, 2, steps=1), NativeGateSet(3), FULL)
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
    result = run_noisy(spec, NativeGateSet(3), noiselib.IDEAL)
    assert result.noisy_positions.shape == result.ideal_positions.shape == (5, 4)
    assert result.fidelities.shape == result.total_probability.shape == result.scalar_factor.shape == (5,)
    assert np.allclose(result.fidelities, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(result.total_probability, 1.0, rtol=0, atol=1e-12)
    assert np.all(result.scalar_factor == 1.0)


def expected_scalars(spec, gate_set, noise):
    """Recompute the logged scalar factor from the compiled circuits."""
    n_q = build_step_circuit(spec, gate_set, 0).qubit_count
    running = noiselib.state_prep_factor(noise, n_q)
    read = noiselib.readout_factor(noise, n_q)
    move = noiselib.movement_factor(noise, n_q)
    out = []
    for t in range(spec.steps):
        for op in build_step_circuit(spec, gate_set, t).ops:
            if isinstance(op, MoveMarker):
                if noise.moves_per_step is None:
                    running *= move
            elif op.rank >= 2:
                running *= noiselib.idle_factor(noise, n_q, op.rank)
        if noise.moves_per_step is not None:
            running *= move**noise.moves_per_step
        out.append(running * read)
    return out


@pytest.mark.parametrize("rho", [3, 4])
def test_scalar_factor_audit(rho):
    spec = uniform_spec(2, 2, steps=4)
    result = run_noisy(spec, NativeGateSet(rho), FULL)
    assert result.scalar_factor == pytest.approx(expected_scalars(spec, NativeGateSet(rho), FULL), rel=1e-13)
    # Effective gates only remove additional population.
    assert np.all(result.total_probability <= result.scalar_factor**2 + 1e-12)


def test_scalar_only_noise_loses_exactly_the_scalar():
    spec = uniform_spec(2, 2, steps=4)
    params = noiselib.NoiseParams(gate_errors_enabled=False)
    result = run_noisy(spec, NativeGateSet(3), params)
    assert result.total_probability == pytest.approx(result.scalar_factor**2, rel=1e-12)


def test_moves_per_step_override():
    spec = uniform_spec(2, 2, steps=3)
    fixed = noiselib.NoiseParams(moves_per_step=2)
    result = run_noisy(spec, NativeGateSet(3), fixed)
    assert result.scalar_factor == pytest.approx(expected_scalars(spec, NativeGateSet(3), fixed), rel=1e-13)
    # Zero moves must beat the marker-driven schedule.
    frozen = run_noisy(spec, NativeGateSet(3), noiselib.NoiseParams(moves_per_step=0))
    marked = run_noisy(spec, NativeGateSet(3), FULL)
    assert frozen.scalar_factor[-1] > marked.scalar_factor[-1]


@contextlib.contextmanager
def never_fused(monkeypatch):
    """Run the shift gate by gate: no run of gates pays back its block."""
    shift_blocks.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_pays_back", lambda *args: False)
        try:
            yield
        finally:
            shift_blocks.cache_clear()


def random_spec(n, nc, steps, seed):
    # Distinct coin angles at every step, so reusing any step's coin for
    # another would show.
    rng = np.random.default_rng(seed)
    return WalkSpec(n, nc, tuple(rng.uniform(0.1, math.pi, steps)),
                    tuple(rng.uniform(0.1, math.pi, steps)) if nc == 2 else None, steps)


def alternating_spec(n, nc, steps):
    # Theta alternates every step and phi every other step, so four coins
    # recur and neither angle alone tells which one a step needs.
    theta = tuple((0.7, 2.3)[t % 2] for t in range(steps))
    phi = tuple((1.1, 0.4)[t // 2 % 2] for t in range(steps))
    return WalkSpec(n, nc, theta, phi if nc == 2 else None, steps)


def shift_gates(n, nc, rho):
    """(qubit count, shift gate targets in circuit order) of the compiled step."""
    circuit = compile_step(uniform_spec(n, nc, steps=1), NativeGateSet(rho)).circuit
    return circuit.qubit_count, tuple(op.targets for op in circuit.ops[nc:] if not isinstance(op, MoveMarker))


@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
@pytest.mark.parametrize("noise", [FULL, noiselib.NoiseParams(moves_per_step=2), noiselib.IDEAL],
                         ids=["full", "two-moves", "ideal"])
def test_compiled_once_matches_stepwise_reference(nc, rho, noise, monkeypatch):
    # The unfused path does the reference's arithmetic in the same order.
    assert_matches_stepwise_reference(random_spec(3, nc, 6, 10 * nc + rho), NativeGateSet(max_rank=rho), noise,
                                      monkeypatch)


@pytest.mark.parametrize("nc", [1, 2])
def test_batched_readout_matches_stepwise_reference(nc, monkeypatch):
    # A buffer of four states reads the 6-step walk out as 4 steps, then 2.
    spec = random_spec(3, nc, 6, 50 + nc)
    gate_set = NativeGateSet(max_rank=3)
    monkeypatch.setattr(simulate, "READOUT_AMPLITUDES", 4 * 2 ** compile_step(spec, gate_set).circuit.qubit_count)
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
    (FULL, None), (noiselib.NoiseParams(moves_per_step=2), None), (noiselib.IDEAL, None),
    (noiselib.NoiseParams(gate_errors_enabled=False), None), (FULL, 13.0),
], ids=["full", "two-moves", "ideal", "no-gate-errors", "a13"])
def test_fused_shift_matches_unfused(n, nc, rho, noise, param_a, monkeypatch):
    # Blocks change the summation order, so the two paths agree to rounding.
    steps = 8
    spec = random_spec(n, nc, steps, 100 * n + 10 * nc + rho)
    gate_set = NativeGateSet(max_rank=rho, param_a=param_a)
    n_q, gates = shift_gates(n, nc, rho)
    assert len(shift_blocks(n_q, gates, steps)) < len(gates)
    fused = run_noisy(spec, gate_set, noise)
    with never_fused(monkeypatch):
        unfused = run_noisy(spec, gate_set, noise)
    for name in ("noisy_positions", "fidelities", "total_probability"):
        assert np.max(np.abs(getattr(fused, name) - getattr(unfused, name))) < 1e-12
    assert np.array_equal(fused.scalar_factor, unfused.scalar_factor)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
def test_shift_block_plan_invariants(n, nc, rho):
    n_q, gates = shift_gates(n, nc, rho)
    for steps in (1, 4, 8, 21):
        blocks = shift_blocks(n_q, gates, steps)
        assert sum((block_gates for _, block_gates in blocks), ()) == gates
        for wires, block_gates in blocks:
            assert len(wires) <= FUSED_MAX_WIRES
            assert set(wires) == set().union(*block_gates)
        for gate_errors in (False, True):
            matrices = block_matrices(blocks, NativeGateSet(rho), gate_errors)
            assert [m.shape for m in matrices] == [(2 ** len(wires),) * 2 for wires, _ in blocks]
            assert not any(m.flags.writeable for m in matrices)
        if steps == 1:
            assert blocks == tuple((targets, (targets,)) for targets in gates)
    if (n, nc, rho) == (4, 2, 3):
        assert n_q == 9 and len(gates) == 58
        assert [len(shift_blocks(n_q, gates, steps)) for steps in (4, 8, 21)] == [44, 20, 20]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_exact_shift_gate_is_the_ideal_ckx(rank):
    gate_set = NativeGateSet(max_rank=4, param_a=13.0)
    exact = shift_matrix(rank, gate_set, False)
    assert np.allclose(exact, ckx_from_ckz(ideal_ckz(rank - 1)), rtol=0, atol=1e-12)
    effective = shift_matrix(rank, gate_set, True)
    assert np.array_equal(effective, ckx_from_ckz(gate_set.effective_ckz(rank - 1)))
    assert not exact.flags.writeable and not effective.flags.writeable


def test_rank_one_shift_gate_is_x_with_or_without_gate_errors():
    for gate_errors in (False, True):
        assert np.array_equal(shift_matrix(1, NativeGateSet(), gate_errors), X)


def test_shared_compiled_step_and_ideal_tables():
    spec = uniform_spec(3, 2, steps=4)
    compiled = compile_step(spec, NativeGateSet(3))
    ideal = run_ideal(spec)
    assert ideal.shape == (4, 8) and not ideal.flags.writeable
    with pytest.raises(ValueError):
        ideal[0, 0] = 0.5
    tuned = NativeGateSet(3, param_a=13.0)
    shared = run_noisy(spec, tuned, FULL, ideal_tables=ideal, compiled=compiled)
    alone = run_noisy(spec, tuned, FULL)
    assert shared.ideal_positions is ideal  # one array serves every walk that shares it
    assert np.array_equal(shared.ideal_positions, alone.ideal_positions)
    for name in ("noisy_positions", "fidelities", "total_probability", "scalar_factor"):
        assert np.array_equal(getattr(shared, name), getattr(alone, name))
    with pytest.raises(ValueError):
        run_noisy(spec, NativeGateSet(4), FULL, compiled=compiled)
    with pytest.raises(ValueError):
        run_noisy(uniform_spec(3, 1, steps=4), NativeGateSet(3), FULL, compiled=compiled)
    with pytest.raises(ValueError):
        run_noisy(spec, tuned, FULL, ideal_tables=ideal[:3])
    # Another ring with the same step count: caught before the walk runs.
    with pytest.raises(ValueError, match="ideal tables of shape"):
        run_noisy(spec, tuned, FULL, ideal_tables=run_ideal(uniform_spec(2, 2, steps=4)), compiled=compiled)


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
    result = run_noisy(uniform_spec(2, 2, steps=21), NativeGateSet(3), FULL)
    report = tolerance_report(result)
    assert report.position_qubits == 2
    assert report.coin_qubits == 2
    assert report.max_rank == 3
    assert tuple(report.steps_within) == TOLERANCES
    fids = result.fidelities
    for tol, steps in report.steps_within.items():
        assert steps == steps_within_tolerance(fids, tol)
    counts = list(report.steps_within.values())
    assert counts == sorted(counts, reverse=True)


def test_composite_fidelity_product():
    counts = {3: 2, 4: 3}
    fids = {3: 0.99, 4: 0.98}
    assert composite_fidelity(counts, fids) == pytest.approx(0.99**2 * 0.98**3, rel=1e-14)
    assert composite_fidelity({}, fids) == 1.0
    with pytest.raises(ValueError):
        composite_fidelity({5: 1}, fids)


def test_gate_set_comparison_structure():
    report = gate_set_comparison(n_list=(4, 5))
    assert isinstance(report, CompositeReport)
    assert len(report.entries) == 4  # 2 ring sizes x 2 transitions
    for entry in report.entries:
        spec = uniform_spec(entry.position_qubits, 2, steps=1)
        assert entry.counts_low == count_multiqubit_gates(spec, entry.rank_low)
        assert entry.counts_high == count_multiqubit_gates(spec, entry.rank_high)
        for fid_set, f_low, f_high, pct in entry.per_set:
            by_rank = {3: fid_set[0], 4: fid_set[1], 5: fid_set[2]}
            assert f_low == pytest.approx(composite_fidelity(entry.counts_low, by_rank), rel=1e-12)
            assert f_high == pytest.approx(composite_fidelity(entry.counts_high, by_rank), rel=1e-12)
            assert pct == pytest.approx((f_high - f_low) / f_low * 100.0, rel=1e-12)
        assert entry.mean_percent_increase == pytest.approx(
            sum(r[3] for r in entry.per_set) / len(entry.per_set), rel=1e-12
        )


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
    with pytest.raises(ValueError, match=r"fidelity set \(0\.5, 0\.4, 0\.3\) at n = 20"):
        gate_set_comparison(n_list=(20,), fidelity_sets=((0.5, 0.4, 0.3),))
    for transition in ((4, 3), (3, 3), (2, 4)):
        with pytest.raises(ValueError):
            gate_set_comparison(n_list=(5,), transitions=(transition,))
    ok = gate_set_comparison(n_list=(5,), fidelity_sets=DEFAULT_FIDELITY_SETS)
    assert len(ok.entries) == 2
