"""Gate plans, chained gathers and the per-gate kernels, tested against a dense kron-built oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise_reference import X, total_probability
from ringwalk.gates import _ry
from ringwalk.simulate import apply_gate, chain_plans, gate_plan, marginal_probabilities, scale_amplitudes


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
    return amps


def test_apply_gate_matches_dense_embedding():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for r in range(1, min(n, 4) + 1):
            for _ in range(4):
                mat = rng.standard_normal((2**r, 2**r)) + 1j * rng.standard_normal((2**r, 2**r))
                targets = tuple(rng.permutation(n)[:r])
                state = random_state(rng, n)
                before = state.copy()
                got = apply_gate(state, mat, targets)
                want = dense_embed(mat, targets, n) @ state
                assert np.allclose(got, want, atol=1e-12)
                assert np.array_equal(state, before)  # the input state is untouched


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**16 - 1))
def test_chained_passes_match_gate_by_gate(n, passes, seed):
    # The chain reads each pass's input out of the previous pass's output;
    # the same matrices meet the same inputs, so every bit matches.
    rng = np.random.default_rng(seed)
    wires = tuple(tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, min(n, 4) + 1)])
                  for _ in range(passes))
    gathers = chain_plans(n, wires)
    assert chain_plans(n, wires) is gathers
    state = random_state(rng, n)
    want = state.copy()
    amps = state
    for targets, gather in zip(wires, gathers):
        mat = rng.standard_normal((2 ** len(targets),) * 2) + 1j * rng.standard_normal((2 ** len(targets),) * 2)
        plan = gate_plan(n, targets)
        assert gather.shape == plan.shape and not gather.flags.writeable
        assert np.array_equal(np.sort(gather, axis=None), np.arange(2**n))
        want[plan] = mat @ want[plan]
        amps = mat @ amps.reshape(-1)[gather]
    got = np.empty_like(state)
    got[gate_plan(n, wires[-1])] = amps
    assert np.array_equal(got, want)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=2**16 - 1))
def test_dot_matches_matmul_on_executor_shapes(r, log_m, seed):
    # The executor's passes use ndarray.dot, the stepwise reference and
    # apply_gate use @; the exact comparisons between them need the same bits.
    rng = np.random.default_rng(seed)
    dim, m = 2**r, 2**log_m
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    amps = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
    assert np.array_equal(mat.dot(amps), mat @ amps)
    # run_ideal: a real (nodes, coin values) state times the transposed coin.
    nodes, values = 2 ** rng.integers(2, 5), 2 ** rng.integers(1, 3)
    psi = rng.standard_normal((nodes, values))
    coin = rng.standard_normal((values, values)).T
    assert np.array_equal(psi.dot(coin), psi @ coin)


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def test_big_endian_convention():
    # Qubit 0 is the most significant bit: flipping it moves |000> to |100>.
    flipped = apply_gate(basis_state(3, 0b000), X, (0,))
    assert flipped[0b100] == 1.0
    assert np.array_equal(apply_gate(flipped, X, (1,)), basis_state(3, 0b110))


def test_apply_gate_rejects_bad_targets():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_gate(state, X, (2,))
    with pytest.raises(ValueError):
        apply_gate(state, X, (0, 1))
    cz = np.diag(np.array([1, 1, 1, -1], dtype=complex))
    with pytest.raises(ValueError):
        apply_gate(state, cz, (0, 0))
    with pytest.raises(ValueError):
        apply_gate(np.ones(3, dtype=complex), X, (0,))


def test_scale_amplitudes_bounds():
    state = basis_state(1, 0)
    assert scale_amplitudes(state, 0.5)[0] == 0.5
    with pytest.raises(ValueError):
        scale_amplitudes(state, 1.5)
    with pytest.raises(ValueError):
        scale_amplitudes(state, -0.1)


def test_marginal_ordering_and_values():
    # |psi> over (q0, q1, q2) = index bits; keep (q0, q1), trace out q2.
    amps = np.arange(1, 9, dtype=complex)
    amps /= np.linalg.norm(amps)
    p = np.abs(amps) ** 2
    want = np.array([p[0] + p[1], p[2] + p[3], p[4] + p[5], p[6] + p[7]])  # q0 the high bit
    assert np.allclose(marginal_probabilities(amps, 2), want)
    assert np.allclose(marginal_probabilities(amps, 1), [want[:2].sum(), want[2:].sum()])
    for qubits in (0, 4):
        with pytest.raises(ValueError):
            marginal_probabilities(amps, qubits)


def test_marginal_of_everything_is_probabilities():
    rng = np.random.default_rng(11)
    state = random_state(rng, 3)
    assert np.allclose(marginal_probabilities(state, 3), np.abs(state) ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_unitary_preserves_total_probability(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    target = int(rng.integers(n))
    theta = float(rng.uniform(-np.pi, np.pi))
    rotated = apply_gate(state, _ry(theta).astype(np.complex128), (target,))
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
    table = marginal_probabilities(state, max(1, n // 2))
    assert np.sum(table) == pytest.approx(total_probability(state), abs=1e-12)
    assert np.all(table >= 0)
