"""Compiler tests.

Every structural claim is checked against an independent oracle: shift
cascades and CkX ladders are pure bit permutations, so a tiny classical
bit simulator (flip the target iff all controls are set) decides
correctness without touching the statevector engine. The compiler works
on target tuples (None for a move marker); its whole output, as gate
objects, is also checked against the object compiler in
circuit_reference.py, whose serialize pins two compiled steps as text.
"""

import math

import numpy as np
import pytest

import circuit_reference
from stepwise_reference import X
from ringwalk import circuits
from ringwalk.circuits import (
    Circuit,
    GateApplication,
    MoveMarker,
    NativeGateSet,
    WalkSpec,
    _compiled_shift,
    _with_move_markers,
    ancilla_requirement,
    build_shift_abstract,
    build_step_circuit,
    count_multiqubit_gates,
    decompose_ckx,
    uniform_spec,
)
from ringwalk.gates import _ry, ckx_from_ckz, ideal_ckz
from ringwalk.simulate import apply_gate


def run_classically(ops, bits):
    """Trace X / CkX target tuples over classical bits; markers (None) are ignored."""
    bits = list(bits)
    for targets in ops:
        if targets is None:
            continue
        *controls, target = targets
        if all(bits[c] for c in controls):  # an X has no controls
            bits[target] ^= 1
    return tuple(bits)


def int_to_bits(value, width):
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits):
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


# ---------------------------------------------------------------- shift


@pytest.mark.parametrize("n", [2, 3])
def test_shift_permutation_one_coin(n):
    ops = build_shift_abstract(n, 1)
    size = 2**n
    for x in range(size):
        for coin in (0, 1):
            before = int_to_bits(x, n) + (coin,)
            after = run_classically(ops, before)
            expected = (x + 1) % size if coin == 1 else (x - 1) % size
            assert bits_to_int(after[:n]) == expected
            assert after[n] == coin


@pytest.mark.parametrize("n", [2, 3])
def test_shift_permutation_lazy_coin(n):
    ops = build_shift_abstract(n, 2)
    size = 2**n
    for x in range(size):
        for c1 in (0, 1):
            for c2 in (0, 1):
                before = int_to_bits(x, n) + (c1, c2)
                after = run_classically(ops, before)
                if c2 == 0:
                    expected = x
                elif c1 == 1:
                    expected = (x + 1) % size
                else:
                    expected = (x - 1) % size
                assert bits_to_int(after[:n]) == expected
                assert after[n:] == (c1, c2)


@pytest.mark.parametrize("n,nc", [(2, 1), (3, 1), (4, 2)])
def test_shift_has_2n_bit_flips_and_paired_cascades(n, nc):
    ops = build_shift_abstract(n, nc)
    flips = [targets for targets in ops if len(targets) == 1]
    assert len(flips) == 2 * n
    ranks = sorted(len(targets) for targets in ops if len(targets) > 1)
    expected = sorted(2 * [n - j + nc + 1 for j in range(1, n + 1)])
    assert ranks == expected


def test_shift_second_coin_is_never_flipped():
    c2 = uniform_spec(3, 2, steps=1).coin_indices[1]
    for targets in build_shift_abstract(3, 2):
        if len(targets) == 1:
            assert targets != (c2,)


# ----------------------------------------------------- CkX decomposition


def test_decompose_passthrough_below_rank_bound():
    ops, m = decompose_ckx(2, 3)
    assert m == 0
    assert ops == ((0, 1, 2),)
    ops, m = decompose_ckx(3, 4)
    assert m == 0
    assert ops == ((0, 1, 2, 3),)


@pytest.mark.parametrize(
    "k,rho,expected_m,expected_counts",
    [
        (3, 3, 1, {3: 4}),
        (4, 3, 2, {3: 8}),
        (5, 3, 3, {3: 12}),
        (6, 3, 4, {3: 16}),
        (4, 4, 1, {3: 2, 4: 2}),
        (5, 4, 1, {4: 4}),
        (6, 4, 2, {3: 2, 4: 6}),
    ],
)
def test_ladder_sizes(k, rho, expected_m, expected_counts):
    ops, m = decompose_ckx(k, rho)
    assert m == expected_m
    counts = {}
    for targets in ops:
        counts[len(targets)] = counts.get(len(targets), 0) + 1
    assert counts == expected_counts
    assert all(len(targets) <= rho for targets in ops)


@pytest.mark.parametrize("k,rho", [(3, 3), (4, 3), (5, 3), (6, 3), (4, 4), (5, 4), (6, 4), (7, 4)])
def test_ladder_is_exact_even_with_dirty_ancillas(k, rho):
    ops, m = decompose_ckx(k, rho)
    wires = k + 1 + m
    for value in range(2**wires):
        before = int_to_bits(value, wires)
        after = run_classically(ops, before)
        want = list(before)
        if all(before[:k]):
            want[k] ^= 1
        assert after == tuple(want), f"k={k} rho={rho} input {before}"


def test_ladder_emission_is_deepest_rung_first():
    ops, m = decompose_ckx(3, 3)
    assert m == 1
    assert ops == ((1, 2, 4), (0, 4, 3), (1, 2, 4), (0, 4, 3))


def test_decompose_argument_errors():
    with pytest.raises(ValueError):
        decompose_ckx(0, 3)
    with pytest.raises(ValueError):
        decompose_ckx(5, 2)


def test_ancilla_requirement():
    assert ancilla_requirement(2, 2, 3) == 1
    assert ancilla_requirement(2, 2, 4) == 0
    assert ancilla_requirement(4, 2, 3) == 3
    assert ancilla_requirement(4, 2, 4) == 1


# ------------------------------------------------------------- markers


def test_move_markers_follow_subset_rule():
    ops = ((0, 1, 2), (1, 2), (2, 3), (0,), (2, 3))
    marked = _with_move_markers(ops)
    # First gate free; (1,2) inside (0,1,2); (2,3) leaves; X ignored;
    # repeat of (2,3) is covered by itself.
    assert marked == ((0, 1, 2), (1, 2), None, (2, 3), (0,), (2, 3))


def test_compile_runs_once_per_shape(monkeypatch):
    # The 2^4 lazy walk's cascades hold CkX with k = 5, 4, 3 above rank 3,
    # each once in the increment and once in the decrement. The first compile
    # of the shape decomposes those six; every later step and walk of the
    # shape reuses its shift.
    _compiled_shift.cache_clear()
    ladders = []
    monkeypatch.setattr(circuits, "decompose_ckx", lambda *args: ladders.append(args) or decompose_ckx(*args))
    compiled = build_step_circuit(uniform_spec(4, 2, steps=1), NativeGateSet(3), 0)
    assert sorted(ladders) == [(3, 3), (3, 3), (4, 3), (4, 3), (5, 3), (5, 3)]
    other = build_step_circuit(uniform_spec(4, 2, steps=3), NativeGateSet(3), 2)
    assert other.shift is compiled.shift and len(ladders) == 6


def test_move_markers_skip_single_qubit_prefix():
    ops = ((0,), (0, 1, 2))
    marked = _with_move_markers(ops)
    assert None not in marked


# ------------------------------------------------------- step circuits


def ideal_dense(targets):
    if len(targets) == 1:
        return X
    return ckx_from_ckz(ideal_ckz(len(targets) - 1))


def apply_all(coin, shift, state):
    """RY(theta) on each (wire, theta) of the coin, then the shift's target tuples."""
    for wire, theta in coin:
        state = apply_gate(state, _ry(theta).astype(np.complex128), (wire,))
    for targets in shift:
        if targets is not None:
            state = apply_gate(state, ideal_dense(targets), targets)
    return state


@pytest.mark.parametrize("n,nc,rho", [(2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 4), (2, 2, 4)])
def test_step_circuit_matches_abstract_step(n, nc, rho):
    """The compiled step must act on the data qubits exactly like coin
    followed by the unbounded shift, for any ancilla basis state."""
    spec = uniform_spec(n, nc, steps=1)
    circ = build_step_circuit(spec, NativeGateSet(max_rank=rho), 0)
    coin = tuple(zip(spec.coin_indices, (math.pi / 2,) * nc))
    assert circ.coin_angles == (math.pi / 2,) * nc

    rng = np.random.default_rng(7)
    nd = spec.data_qubit_count
    raw = rng.standard_normal(2**nd) + 1j * rng.standard_normal(2**nd)
    raw /= np.linalg.norm(raw)
    want_data = apply_all(coin, build_shift_abstract(n, nc), raw)

    pool = len(circ.ancilla_indices)
    for anc_value in range(2**pool):
        anc_state = np.zeros(2**pool)
        anc_state[anc_value] = 1.0
        full = np.kron(raw, anc_state).astype(np.complex128)
        got = apply_all(coin, circ.shift, full)
        expected = np.kron(want_data, anc_state)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_step_circuit_layout_and_bounds():
    spec = uniform_spec(3, 2, steps=1)
    circ = build_step_circuit(spec, NativeGateSet(max_rank=3), 0)
    assert circ.qubit_count == spec.data_qubit_count + len(circ.ancilla_indices)
    assert circ.ancilla_indices == (5, 6)
    for targets in circ.shift:
        if targets is not None:
            assert all(0 <= q < circ.qubit_count for q in targets)
            assert ideal_dense(targets) is not None  # every gate resolves


def test_step_circuit_serialization_golden_rank3():
    spec = uniform_spec(2, 2, steps=1)
    circ = build_step_circuit(spec, NativeGateSet(max_rank=3), 0)
    ry = f"RY({math.pi / 2:.12g})"
    assert circuit_reference.serialize(circ) == "\n".join(
        [
            "QUBITS 5",
            "ANCILLAS 4",
            f"GATE {ry} 2",
            f"GATE {ry} 3",
            "GATE C2X 2 3 4",
            "MOVE",
            "GATE C2X 1 4 0",
            "MOVE",
            "GATE C2X 2 3 4",
            "MOVE",
            "GATE C2X 1 4 0",
            "MOVE",
            "GATE C2X 2 3 1",
            "GATE X 2",
            "GATE X 1",
            "MOVE",
            "GATE C2X 2 3 4",
            "MOVE",
            "GATE C2X 1 4 0",
            "MOVE",
            "GATE C2X 2 3 4",
            "MOVE",
            "GATE C2X 1 4 0",
            "GATE X 1",
            "MOVE",
            "GATE C2X 2 3 1",
            "GATE X 2",
        ]
    ) + "\n"


def test_step_circuit_serialization_golden_rank4():
    spec = uniform_spec(2, 2, steps=1)
    circ = build_step_circuit(spec, NativeGateSet(max_rank=4), 0)
    ry = f"RY({math.pi / 2:.12g})"
    assert circuit_reference.serialize(circ) == "\n".join(
        [
            "QUBITS 4",
            f"GATE {ry} 2",
            f"GATE {ry} 3",
            "GATE C3X 1 2 3 0",
            "GATE C2X 2 3 1",
            "GATE X 2",
            "GATE X 1",
            "MOVE",
            "GATE C3X 1 2 3 0",
            "GATE X 1",
            "GATE C2X 2 3 1",
            "GATE X 2",
        ]
    ) + "\n"


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4])
def test_step_circuit_matches_object_reference(n, nc, rho):
    # Distinct angles at every step, so a coin taken from the wrong step shows.
    spec = WalkSpec(n, nc, (1 / 3, 1.7, math.pi / 7), (math.e / 2, 0.1, 2.2) if nc == 2 else None)
    for t in (0, 2):
        circ = build_step_circuit(spec, NativeGateSet(max_rank=rho), t)
        want = circuit_reference.build_step_circuit(spec, NativeGateSet(max_rank=rho), t)
        assert (circ.qubit_count, circ.ancilla_indices) == (want.qubit_count, want.ancilla_indices)
        assert circ.ops == want.ops


# ------------------------------------------------------------- census


@pytest.mark.parametrize("n", range(2, 21))
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("rho", [3, 4, 5])
def test_census_agrees_with_compiled_circuit(n, nc, rho):
    # Every shift composite counts, rank 5 included, is compiled and run
    # classically on a batch of basis states at once, one row per qubit: every
    # basis state for n <= 4, else 2,048 seeded random ones, ancillas dirty. It
    # moves the walker as its coin says and hands coins and ancillas back.
    qubit_count, shift, _ = _compiled_shift(n, nc, rho)
    if n <= 4:
        before = (np.arange(2**qubit_count) >> np.arange(qubit_count - 1, -1, -1)[:, None]) & 1 == 1
    else:
        before = np.random.default_rng(100 * n + 10 * nc + rho).integers(0, 2, (qubit_count, 2048)) == 1
    after = before.copy()
    for targets in filter(None, shift):
        after[targets[-1]] ^= after[list(targets[:-1])].all(axis=0)
    move = 2 * before[n].astype(int) - 1  # up on coin 1, down on coin 0
    if nc == 2:
        move[~before[n + 1]] = 0  # the lazy coin (c1 c2) rests while c2 = 0, else c1 says which way
    weights = 1 << np.arange(n - 1, -1, -1)  # the position qubits lead, big-endian
    assert not np.any((weights @ after[:n] - weights @ before[:n] - move) % 2**n)
    assert np.array_equal(after[n:], before[n:])
    counted = {}
    for targets in filter(None, shift):
        if len(targets) >= 2:
            counted[len(targets)] = counted.get(len(targets), 0) + 1
    assert counted == count_multiqubit_gates(n, nc, rho)


def test_census_frozen_ring32_lazy():
    assert count_multiqubit_gates(5, 2, 3) == {3: 82}
    assert count_multiqubit_gates(5, 2, 4) == {3: 10, 4: 26}
    assert count_multiqubit_gates(5, 2, 5) == {3: 6, 4: 6, 5: 10}


def test_census_rejects_tiny_rank():
    for census in (count_multiqubit_gates, circuit_reference.count_multiqubit_gates_loop):
        with pytest.raises(ValueError, match="^native rank must be at least 3$"):
            census(3, 1, 2)


@pytest.mark.parametrize("rho", [3, 4, 5, 6])
@pytest.mark.parametrize("nc", [1, 2])
def test_census_table_matches_the_loop(nc, rho):
    # Two rows of the prefix table give the census the loop over the shift's
    # CkX gates gives: the same counts, keys in the same ascending order.
    for n in range(21):
        counted = count_multiqubit_gates(n, nc, rho)
        assert list(counted.items()) == list(circuit_reference.count_multiqubit_gates_loop(n, nc, rho).items())
        # Each call returns a dict of its own: changing one leaves the next call's alone.
        counted[rho] = -1
        counted[99] = 1
        assert count_multiqubit_gates(n, nc, rho) == circuit_reference.count_multiqubit_gates_loop(n, nc, rho)


def test_census_rejects_shapes_past_its_table():
    for n, nc in ((21, 1), (-1, 2), (3, 0), (3, 3)):
        with pytest.raises(ValueError, match=f"^no census for {n} position and {nc} coin qubits$"):
            count_multiqubit_gates(n, nc, 3)


# ------------------------------------------------------------ plumbing


def test_walk_spec_validation():
    with pytest.raises(ValueError):
        uniform_spec(1, 1)
    with pytest.raises(ValueError):
        uniform_spec(21, 1)
    with pytest.raises(ValueError):
        uniform_spec(3, 3)
    with pytest.raises(ValueError):
        uniform_spec(3, 1, steps=0)
    with pytest.raises(ValueError, match="theta_schedule is empty"):
        WalkSpec(3, 1, theta_schedule=(), phi_schedule=None)
    with pytest.raises(ValueError, match="phi_schedule must cover every step"):
        WalkSpec(3, 2, theta_schedule=(1.0, 2.0), phi_schedule=(1.0,))
    with pytest.raises(ValueError):
        WalkSpec(3, 2, theta_schedule=(1.0,), phi_schedule=None)
    with pytest.raises(ValueError):
        WalkSpec(3, 1, theta_schedule=(1.0,), phi_schedule=(1.0,))
    with pytest.raises(ValueError, match="theta_schedule"):
        WalkSpec(3, 1, theta_schedule=(1.0, math.nan), phi_schedule=None)
    with pytest.raises(ValueError, match="phi_schedule"):
        WalkSpec(3, 2, theta_schedule=(1.0,), phi_schedule=(math.inf,))
    with pytest.raises(ValueError, match="position_qubits"):
        WalkSpec(2.5, 1, theta_schedule=(1.0,), phi_schedule=None)


def test_walk_spec_steps_are_the_theta_schedule_length():
    assert WalkSpec(3, 1, theta_schedule=(1.0, 2.0, 0.5), phi_schedule=None).steps == 3
    assert WalkSpec(2, 2, theta_schedule=(1.0,) * 5, phi_schedule=(0.3,) * 5).steps == 5
    assert uniform_spec(3, 2, steps=7).steps == 7


def test_walk_spec_derived_layout():
    spec = uniform_spec(3, 2, steps=4)
    assert spec.node_count == 8
    assert spec.data_qubit_count == 5
    assert spec.coin_indices == (3, 4)
    assert len(spec.theta_schedule) == 4


def test_native_gate_set_validation():
    with pytest.raises(ValueError):
        NativeGateSet(max_rank=5)
    with pytest.raises(ValueError):
        NativeGateSet(max_rank=3, param_a=-0.5)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="param_a"):
            NativeGateSet(max_rank=3, param_a=value)
    with pytest.raises(ValueError, match="max_rank"):
        NativeGateSet(max_rank=3.0)


@pytest.mark.parametrize("n,nc,rho", [(2, 1, 3), (4, 2, 3), (4, 2, 4), (6, 2, 3)])
def test_multiqubit_labels_spell_their_rank(n, nc, rho):
    """The executor resolves gates by rank alone; the labels Circuit.ops
    carries must still name that rank."""
    circ = build_step_circuit(uniform_spec(n, nc, steps=1), NativeGateSet(max_rank=rho), 0)
    gates = [op for op in circ.ops if isinstance(op, GateApplication)]
    assert {op.label for op in gates if len(op.targets) == 1} <= {"RY", "X"}
    multi = [op for op in gates if len(op.targets) >= 2]
    assert multi and all(op.label == f"C{len(op.targets) - 1}X" for op in multi)
    assert {len(op.targets) for op in multi} == set(count_multiqubit_gates(n, nc, rho))


def test_build_coin_layers():
    spec = WalkSpec(2, 2, (0.4,) * 3, (1.1,) * 3)
    circ = build_step_circuit(spec, NativeGateSet(max_rank=3), 1)
    assert circ.coin_angles == (0.4, 1.1)
    assert circ.ops[:2] == (
        GateApplication("RY", (2,), theta=0.4),
        GateApplication("RY", (3,), theta=1.1),
    )
    assert build_step_circuit(uniform_spec(2, 1, steps=1), NativeGateSet(max_rank=3), 0).coin_angles == (math.pi / 2,)
    with pytest.raises(ValueError, match="step_index"):
        build_step_circuit(spec, NativeGateSet(max_rank=3), 3)


def test_circuit_serialize_roundtrip_header():
    circ = Circuit(2, ((0,), None))
    assert circ.ops == (GateApplication("X", (0,)), MoveMarker())
    assert circuit_reference.serialize(circ) == "QUBITS 2\nGATE X 0\nMOVE\n"
