"""Gate library tests.

Fidelity expectations here are frozen from an independent hand
calculation: the trace overlap of two diagonal matrices is the sum of
conj(eff) * ideal over basis states, grouped by Hamming weight with
binomial multiplicities. The in-test oracle below does that sum with
math.comb and cmath only.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise_reference import X
from ringwalk.cli import DEFAULT_A_LIST
from ringwalk.gates import (
    ZHZ,
    ckx_from_ckz,
    effective_ckz,
    gate_fidelity,
    ideal_ckz,
)

# (magnitude, phase/pi) per Hamming weight, copied from the data sheet the
# library encodes; the tests must not import the library's own tables.
CZ_WEIGHTS = ((1.0, 0.0), (0.9990, 0.9906), (0.9986, 1.0))
CCZ_WEIGHTS = ((1.0, 0.0), (0.9981, 0.9845), (0.9973, 0.9934), (0.9963, 0.9911))
C3Z_WEIGHTS = (
    (1.0, 0.0),
    (0.997947, -0.995),
    (0.996286, 0.984),
    (0.994391, 0.981),
    (0.990724, 0.981),
)


def fidelity_oracle(weights):
    """|sum over weights of comb * conj(eff) * ideal|^2 / dim^2."""
    k = len(weights) - 2
    rank = k + 1
    total = 0j
    for w, (mag, frac) in enumerate(weights):
        ideal = 1.0 if w == 0 else -1.0
        total += math.comb(rank, w) * (mag * cmath.exp(1j * math.pi * frac)).conjugate() * ideal
    return abs(total) ** 2 / 4**rank


def test_effective_diagonals_match_weight_tables():
    for k, weights in enumerate((CZ_WEIGHTS, CCZ_WEIGHTS, C3Z_WEIGHTS), 1):
        gate = effective_ckz(k)
        assert gate.shape == (2 ** (len(weights) - 1),)
        for idx, entry in enumerate(gate):
            mag, frac = weights[bin(idx).count("1")]
            assert entry == pytest.approx(mag * cmath.exp(1j * math.pi * frac), abs=1e-15)


def test_gate_fidelity_matches_binomial_oracle():
    assert gate_fidelity(effective_ckz(1), ideal_ckz(1)) == pytest.approx(fidelity_oracle(CZ_WEIGHTS), abs=1e-14)
    assert gate_fidelity(effective_ckz(2), ideal_ckz(2)) == pytest.approx(fidelity_oracle(CCZ_WEIGHTS), abs=1e-14)
    assert gate_fidelity(effective_ckz(3), ideal_ckz(3)) == pytest.approx(fidelity_oracle(C3Z_WEIGHTS), abs=1e-14)


def test_gate_fidelity_frozen_values():
    assert gate_fidelity(effective_ckz(1), ideal_ckz(1)) == pytest.approx(0.998083089236213, abs=1e-12)
    assert gate_fidelity(effective_ckz(2), ideal_ckz(2)) == pytest.approx(0.9953547078965812, abs=1e-12)
    assert gate_fidelity(effective_ckz(3), ideal_ckz(3)) == pytest.approx(0.9912511026304136, abs=1e-12)


def test_ideal_ckz_is_symmetric_reflection():
    for k in (1, 2, 3):
        gate = ideal_ckz(k)
        assert gate.shape == (2 ** (k + 1),)
        assert gate[0] == 1.0
        assert np.all(gate[1:] == -1.0)
    with pytest.raises(ValueError):
        ideal_ckz(0)


def test_ckx_from_ideal_ckz_is_exact():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    got = ckx_from_ckz(ideal_ckz(1))
    assert np.max(np.abs(got - cnot)) < 1e-14
    for k in (2, 3):
        dim = 2 ** (k + 1)
        toffoli = np.eye(dim, dtype=complex)
        toffoli[[dim - 2, dim - 1]] = toffoli[[dim - 1, dim - 2]]
        got = ckx_from_ckz(ideal_ckz(k))
        assert np.max(np.abs(got - toffoli)) < 1e-14


def test_ckx_from_ckz_requires_diagonal():
    with pytest.raises(ValueError):
        ckx_from_ckz(np.eye(4, dtype=complex))


def trace_fidelity(effective, ideal):
    """|Tr(U_eff^dag U_ideal)|^2 / 4^rank of two dense gate matrices."""
    return abs(np.trace(effective.conj().T @ ideal)) ** 2 / len(ideal) ** 2


def test_ckx_fidelity_equals_ckz_fidelity():
    # The conjugating layer is unitary and shared, so the trace overlap
    # of the X forms must equal the Z forms'.
    for k in (1, 2, 3):
        eff = effective_ckz(k)
        f_z = gate_fidelity(eff, ideal_ckz(k))
        f_x = trace_fidelity(ckx_from_ckz(eff), ckx_from_ckz(ideal_ckz(k)))
        assert f_x == pytest.approx(f_z, abs=1e-13)


def test_gate_fidelity_rank_mismatch():
    with pytest.raises(ValueError):
        gate_fidelity(effective_ckz(1), ideal_ckz(2))


def test_param_gate_anchor_at_zero():
    assert np.allclose(effective_ckz(1, 0.0), effective_ckz(1), atol=1e-15)
    assert np.allclose(effective_ckz(2, 0.0), effective_ckz(2), atol=1e-15)


def test_param_gate_saturates_to_ideal_phases():
    # Past the cap the weight-1 entry sits exactly on -1.
    gate = effective_ckz(1, 26.0)
    assert gate[1] == pytest.approx(-1.0, abs=1e-15)
    assert np.allclose(effective_ckz(1, 13.0), gate, atol=1e-15)


def test_param_gate_frozen_fidelities():
    assert gate_fidelity(effective_ckz(1, 13.0), ideal_ckz(1)) == pytest.approx(0.9997998098198299, abs=1e-12)
    assert gate_fidelity(effective_ckz(2, 13.0), ideal_ckz(2)) == pytest.approx(0.9978853067464813, abs=1e-12)


def test_param_gate_validation():
    with pytest.raises(ValueError):
        effective_ckz(1, -1.0)
    with pytest.raises(ValueError):
        effective_ckz(3, 0.0)
    for k in (0, 4):
        with pytest.raises(ValueError):
            effective_ckz(k)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=40.0), st.floats(min_value=0.0, max_value=40.0))
def test_param_fidelity_monotone_in_effort(a_low, a_high):
    if a_low > a_high:
        a_low, a_high = a_high, a_low
    for k in (1, 2):
        f_low = gate_fidelity(effective_ckz(k, a_low), ideal_ckz(k))
        f_high = gate_fidelity(effective_ckz(k, a_high), ideal_ckz(k))
        assert f_high >= f_low - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0))
def test_param_magnitudes_capped(a):
    for k in (1, 2):
        assert np.max(np.abs(effective_ckz(k, a))) <= 1.0 + 1e-12


def test_conjugating_layer_constants():
    assert np.allclose(ZHZ @ ZHZ, np.eye(2), atol=1e-15)
    # ZHZ maps |0> to |-> = (|0> - |1>) / sqrt(2).
    assert np.allclose(ZHZ[:, 0], np.array([1, -1]) / math.sqrt(2), atol=1e-15)
    assert not ZHZ.flags.writeable


def test_gate_matrix_shape_validation():
    for bad in (np.ones(3, dtype=complex), np.ones(2, dtype=complex), np.ones((4, 2), dtype=complex)):
        with pytest.raises(ValueError):
            ckx_from_ckz(bad)
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(4, dtype=complex), ideal_ckz(1))
    with pytest.raises(ValueError):
        gate_fidelity(np.ones((4, 2), dtype=complex), np.ones((4, 2), dtype=complex))


def effective_ckz_entrywise(k, a=None):
    """effective_ckz as one exp per diagonal entry, with the library's effort rule (slopes 0.0001 and 0.0010)."""
    weights = (CZ_WEIGHTS, CCZ_WEIGHTS, C3Z_WEIGHTS)[k - 1]
    if a is not None:
        alpha1_0, phi1_0 = weights[1]
        alpha1 = min(alpha1_0 + 0.0001 * a, 1.0)
        phi1 = min(phi1_0 + 0.0010 * a, 1.0)
        weights = ((1.0, 0.0),) + tuple((min(mag0 * (alpha1 / alpha1_0), 1.0), min(frac0 * (phi1 / phi1_0), 1.0))
                                        for mag0, frac0 in weights[1:])
    diag = np.empty(2 ** (k + 1), dtype=np.complex128)
    for idx in range(diag.size):
        mag, frac = weights[bin(idx).count("1")]
        diag[idx] = mag * np.exp(1j * math.pi * frac)
    return diag


def ckx_from_ckz_kron(ckz):
    """ckx_from_ckz with its X...X (x) ZHZ layer built by np.kron on every call."""
    layer = np.array([[1.0]], dtype=np.complex128)
    for _ in range(ckz.size.bit_length() - 2):
        layer = np.kron(layer, X)
    layer = np.kron(layer, ZHZ)
    return -(layer @ np.diag(ckz) @ layer)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gate_builds_match_reference_loops_bit_for_bit(k):
    # The vectorized diagonal and the one-product conjugation layer must give
    # the same bits as building each entry on its own and the layer with
    # np.kron, signed zeros included (a CkX holds many -0.0 parts). C4Z, for
    # the rank-5 CkX, has only its ideal form.
    diagonals = [ideal_ckz(k)]
    for a in (None, *DEFAULT_A_LIST, 1000.0) if k < 3 else (None,) if k == 3 else ():
        diagonals.append(effective_ckz(k, a))
        reference = effective_ckz_entrywise(k, a)
        assert diagonals[-1].dtype == reference.dtype and diagonals[-1].shape == reference.shape
        assert np.array_equal(diagonals[-1].view(np.uint64), reference.view(np.uint64))
    for ckz in diagonals:
        assert np.array_equal(ckx_from_ckz(ckz).view(np.uint64), ckx_from_ckz_kron(ckz).view(np.uint64))
