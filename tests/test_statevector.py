"""Statevector engine tests against a dense kron-built oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwalk.gates import GateMatrix, ideal_gate
from ringwalk.statevector import (
    ProbabilityTable,
    StateVector,
    apply_gate,
    gate_plan,
    marginal_probabilities,
    new_basis_state,
    scale_amplitudes,
    total_probability,
)


def dense_embed(gate: np.ndarray, targets, n):
    """Embed a gate into an n-qubit operator the slow, obvious way.

    Builds the full 2^n x 2^n matrix entry by entry from bit fiddling, so
    it shares nothing with apply_gate's axis shuffling.
    """
    r = len(targets)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        colbits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        gcol = 0
        for t in targets:
            gcol = (gcol << 1) | colbits[t]
        for grow in range(2**r):
            rowbits = colbits[:]
            for i, t in enumerate(targets):
                rowbits[t] = (grow >> (r - 1 - i)) & 1
            row = 0
            for b in rowbits:
                row = (row << 1) | b
            out[row, col] += gate[grow, gcol]
    return out


def random_state(rng, n):
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, n)


def test_apply_gate_matches_dense_embedding():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for r in range(1, min(n, 4) + 1):
            for _ in range(4):
                mat = rng.standard_normal((2**r, 2**r)) + 1j * rng.standard_normal((2**r, 2**r))
                gate = GateMatrix("T", r, dense=mat)
                targets = tuple(rng.permutation(n)[:r])
                state = random_state(rng, n)
                before = state.amplitudes.copy()
                got = apply_gate(state, gate, targets).amplitudes
                want = dense_embed(mat, targets, n) @ state.amplitudes
                assert np.allclose(got, want, atol=1e-12)
                assert np.array_equal(state.amplitudes, before)  # the input state is untouched


def test_gate_plans_are_cached_and_read_only():
    plan = gate_plan(4, (2, 0))
    assert plan is gate_plan(4, (2, 0))
    assert plan.shape == (4, 4)
    assert not plan.flags.writeable
    with pytest.raises(ValueError):
        plan[0, 0] = 1
    # Row i lists the indices whose bits on (q2, q0) spell i.
    assert sorted(plan.ravel()) == list(range(16))
    for row, indices in enumerate(plan):
        for index in indices:
            assert ((index >> 1) & 1, (index >> 3) & 1) == (row >> 1, row & 1)


def test_apply_diagonal_gate_matches_dense_path():
    rng = np.random.default_rng(3)
    diag = np.exp(1j * rng.standard_normal(4)) * rng.uniform(0.5, 1.0, 4)
    as_diag = GateMatrix("D", 2, diagonal=diag)
    as_dense = GateMatrix("D", 2, dense=np.diag(diag))
    state = random_state(rng, 4)
    for targets in [(0, 1), (3, 1), (2, 0)]:
        a = apply_gate(state, as_diag, targets).amplitudes
        b = apply_gate(state, as_dense, targets).amplitudes
        assert np.allclose(a, b, atol=1e-14)


def test_big_endian_convention():
    # Qubit 0 is the most significant bit: flipping it moves |000> to |100>.
    state = new_basis_state(3, "000")
    flipped = apply_gate(state, ideal_gate("X"), (0,))
    assert flipped.amplitudes[0b100] == 1.0
    assert new_basis_state(3, "110").amplitudes[0b110] == 1.0


def test_new_basis_state_rejects_bad_bits():
    with pytest.raises(ValueError):
        new_basis_state(3, "01")
    with pytest.raises(ValueError):
        new_basis_state(2, "02")


def test_apply_gate_rejects_bad_targets():
    state = new_basis_state(2, "00")
    x = ideal_gate("X")
    with pytest.raises(ValueError):
        apply_gate(state, x, (2,))
    with pytest.raises(ValueError):
        apply_gate(state, x, (0, 1))
    cz = GateMatrix("CZ", 2, diagonal=np.array([1, 1, 1, -1], dtype=complex))
    with pytest.raises(ValueError):
        apply_gate(state, cz, (0, 0))


def test_scale_amplitudes_bounds():
    state = new_basis_state(1, "0")
    assert scale_amplitudes(state, 0.5).amplitudes[0] == 0.5
    with pytest.raises(ValueError):
        scale_amplitudes(state, 1.5)
    with pytest.raises(ValueError):
        scale_amplitudes(state, -0.1)


def test_marginal_ordering_and_values():
    # |psi> = a|00> + b|01> + c|10> + d|11> on (q0, q1); ask for (q1, q0).
    amps = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, 2)
    table = marginal_probabilities(state, (1, 0))
    p = np.abs(amps) ** 2
    want = np.array([p[0], p[2], p[1], p[3]])  # q1 now the high bit
    assert np.allclose(table.values, want)
    assert table.qubits == (1, 0)
    keys = list(table.as_dict())
    assert keys == ["00", "01", "10", "11"]


def test_marginal_of_everything_is_probabilities():
    rng = np.random.default_rng(11)
    state = random_state(rng, 3)
    table = marginal_probabilities(state, (0, 1, 2))
    assert np.allclose(table.values, np.abs(state.amplitudes) ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_unitary_preserves_total_probability(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    target = int(rng.integers(n))
    theta = float(rng.uniform(-np.pi, np.pi))
    rotated = apply_gate(state, ideal_gate("Ry", theta), (target,))
    assert total_probability(rotated) == pytest.approx(total_probability(state), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_scaling_squares_into_probability(n, factor, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    scaled = scale_amplitudes(state, factor)
    assert total_probability(scaled) == pytest.approx(factor**2 * total_probability(state), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_marginal_total_matches_state_norm(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    state = scale_amplitudes(state, 0.9)
    subset = tuple(int(q) for q in rng.permutation(n)[: max(1, n // 2)])
    table = marginal_probabilities(state, subset)
    assert table.total() == pytest.approx(total_probability(state), abs=1e-12)
    assert np.all(table.values >= 0)


def test_probability_table_total():
    table = ProbabilityTable((0,), np.array([0.25, 0.5]))
    assert table.total() == pytest.approx(0.75)
