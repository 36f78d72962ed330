"""End-to-end acceptance checks against the published reference numbers.

Two checks are marked xfail(strict=True): the rank-4 gate fidelity and
the step-21 gain from allowing rank-4 gates. Both implementations follow
the documented recipes exactly, but the reference numbers are not
reproducible from the published effective matrices; the strict marks
keep the divergence visible without hiding it behind a loosened bound.
"""

import functools
import math
from collections import Counter

import numpy as np
import pytest

from dense_oracle import run_ideal_dense_oracle
from shared import ADMITTED_SHAPES
from stepwise_reference import IDEAL
from ringwalk import gates as gatelib
from ringwalk import noise as noiselib
from ringwalk.circuits import (
    NativeGateSet,
    ancilla_requirement,
    build_step_circuit,
    count_multiqubit_gates,
    decompose_ckx,
    uniform_spec,
)
from ringwalk.cli import ExperimentConfig, cmd_composite
from ringwalk.simulate import (
    TOLERANCES,
    apply_gate,
    gate_set_comparison,
    run_noisy,
    scale_amplitudes,
    steps_within_tolerance,
)

FULL = noiselib.NoiseParams()


@functools.lru_cache(maxsize=None)
def noisy_run(n, nc, max_rank=3, gate_errors=True, passive=True, spam=True):
    params = noiselib.NoiseParams(gate_errors=gate_errors, passive=passive, spam=spam)
    return run_noisy(uniform_spec(n, nc, steps=21), NativeGateSet(max_rank), params)


# 1. Native gate fidelities against the quoted values.


def test_two_and_three_qubit_gate_fidelities():
    assert gatelib.gate_fidelity(gatelib.effective_ckz(1), gatelib.ideal_ckz(1)) == pytest.approx(0.9981, abs=1e-4)
    assert gatelib.gate_fidelity(gatelib.effective_ckz(2), gatelib.ideal_ckz(2)) == pytest.approx(0.9954, abs=1e-4)


@pytest.mark.xfail(
    strict=True,
    reason="the rank-4 effective matrix gives 0.99125 under the uniform-superposition "
    "fidelity; the quoted 0.9850 is not consistent with its own matrix",
)
def test_four_qubit_gate_fidelity():
    assert gatelib.gate_fidelity(gatelib.effective_ckz(3), gatelib.ideal_ckz(3)) == pytest.approx(0.9850, abs=1e-4)


# 2. Root-equivalent two-qubit fidelities.


def test_root_equivalent_fidelities():
    # Per-gate fidelity of `count` equal two-qubit gates with the same product.
    assert 0.9954 ** (1 / 5) == pytest.approx(0.9991, abs=1e-4)
    assert 0.9850 ** (1 / 20) == pytest.approx(0.9992, abs=1e-4)


# 3. Errorless compiled circuits match the dense matrix oracle everywhere.


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("nc", [1, 2])
@pytest.mark.parametrize("max_rank", [3, 4])
def test_compiled_circuits_match_dense_oracle(n, nc, max_rank):
    spec = uniform_spec(n, nc, steps=21)
    dense = run_ideal_dense_oracle(spec)
    compiled = run_noisy(spec, NativeGateSet(max_rank), IDEAL)
    assert compiled.noisy_positions.shape == dense.shape
    assert np.max(np.abs(compiled.noisy_positions - dense)) <= 1e-10


# 4. Decomposition counts and ancilla budgets.


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_rank3_ladder_counts(k):
    ops, ancillas = decompose_ckx(k, 3)
    assert ancillas == k - 2
    assert len(ops) == 4 * (k - 2)
    assert all(len(targets) == 3 for targets in ops)


def test_rank4_ladder_counts():
    ops, ancillas = decompose_ckx(4, 4)
    assert ancillas == 1
    assert sorted(len(targets) for targets in ops) == [3, 3, 4, 4]
    ops, ancillas = decompose_ckx(5, 4)
    assert ancillas == 1
    assert [len(targets) for targets in ops] == [4, 4, 4, 4]


# 5. Scalar-only noise obeys the closed form against the logged factor.


@pytest.mark.parametrize("n,nc", [(2, 1), (2, 2)])
def test_scalar_noise_closed_form(n, nc):
    result = noisy_run(n, nc, gate_errors=False)
    s = result.scalar_factor
    assert result.fidelities == pytest.approx((1.0 - 0.5 * (1.0 - s) ** 2) ** 2, abs=1e-9)


# 6. Gate errors dominate SPAM and passive noise on the small walk.


def test_gate_error_dominance():
    full = noisy_run(2, 1).fidelities
    gates_only = noisy_run(2, 1, passive=False, spam=False).fidelities
    for with_all, without_scalar in zip(full, gates_only):
        gain = (without_scalar - with_all) / with_all * 100.0
        assert 0.01 <= gain <= 0.2


# 7. Headline fidelity points and tolerance-step counts.


def test_small_walk_first_step_fidelity():
    assert noisy_run(2, 1).fidelities[0] == pytest.approx(0.9997, abs=5e-4)


def test_large_lazy_walk_first_step_fidelity():
    assert noisy_run(4, 2).fidelities[0] == pytest.approx(0.981, abs=5e-3)


def test_small_walk_tolerance_counts():
    fids = noisy_run(2, 1).fidelities
    assert abs(steps_within_tolerance(fids, 0.99) - 7) <= 1
    assert abs(steps_within_tolerance(fids, 0.999) - 2) <= 1


def test_four_qubit_walks_tolerance_counts():
    for n, nc in ((3, 1), (2, 2)):
        fids = noisy_run(n, nc).fidelities
        assert abs(steps_within_tolerance(fids, 0.99) - 4) <= 1


def test_five_qubit_walks_tolerance_counts():
    for n, nc in ((4, 1), (3, 2)):
        fids = noisy_run(n, nc).fidelities
        assert abs(steps_within_tolerance(fids, 0.99) - 1) <= 1


def test_small_walk_survives_all_steps_at_090():
    assert noisy_run(2, 1).fidelities[-1] > 0.90


# 8. Walks with equal register sizes have nearly equal curves.


@pytest.mark.parametrize("lazy,plain", [((2, 2), (3, 1)), ((3, 2), (4, 1)), ((4, 2), (5, 1))])
def test_equal_register_curves_agree(lazy, plain):
    # The lazy walk on 2^n nodes against the 1q-coin walk on 2^(n+1) nodes,
    # n_q = 4, 5 and 6. As total probability goes to 0 the fidelity goes to
    # its floor of 0.25, so the curves must also agree over the first 8
    # steps, where both walks keep total probability >= 0.1, and end above
    # the floor.
    run_lazy, run_plain = noisy_run(*lazy), noisy_run(*plain)
    f_lazy, f_plain = run_lazy.fidelities, run_plain.fidelities
    assert max(abs(a - b) for a, b in zip(f_lazy, f_plain)) <= 0.05
    kept = (run_lazy.total_probability >= 0.1) & (run_plain.total_probability >= 0.1)
    assert kept[:8].all() and np.abs(f_lazy - f_plain)[kept].max() <= 0.05
    assert min(f_lazy[-1], f_plain[-1]) > 0.25


@pytest.mark.parametrize("max_rank,n_q", [(3, n_q) for n_q in (4, 5, 6)] + [(4, n_q) for n_q in (4, 5, 6, 7)])
def test_equal_register_walks_lose_equal_probability(max_rank, n_q):
    # The pairing holds for probability lost even at G(4), where the
    # fidelity curves part by up to 0.129: over 21 default-noise steps, the
    # lazy 2^(n_q - 2) walk and the 1q-coin 2^(n_q - 1) walk keep total
    # probabilities within 0.035 of each other (0.0319 at worst, G(4) n_q = 4).
    lazy, plain = noisy_run(n_q - 2, 2, max_rank), noisy_run(n_q - 1, 1, max_rank)
    assert np.abs(lazy.total_probability - plain.total_probability).max() <= 0.035


def test_first_step_fidelity_falls_with_register_size():
    # Fidelity is set by n_q = n + n_c: at G(3) each n_q's step-1 fidelity,
    # under either coin, lies strictly below every one at the n_q before it.
    by_register = [[noisy_run(n_q - nc, nc).fidelities[0] for nc in (1, 2)] for n_q in (4, 5, 6)]
    for smaller, larger in zip(by_register, by_register[1:]):
        assert min(smaller) > max(larger)


# Every walk run_noisy admits, which test_cli.py's test_admitted_walks_compile_to_at_most_nine_qubits pins.
ADMITTED = sorted(ADMITTED_SHAPES)


@pytest.mark.parametrize("n,nc,max_rank", ADMITTED)
def test_gate_census_predicts_first_step_loss(n, nc, max_rank):
    # With gates only, step 1 keeps about the product over ranks r of F_r
    # to the power of the step's rank-r gate count, F_r the published CkZ's
    # gate fidelity (0.99808, 0.99535, 0.99125 for ranks 2-4). The measured
    # ratios run from 0.9768 (the 2^6 1q-coin walk at G(4)) to 1.0017.
    census = count_multiqubit_gates(n, nc, max_rank)
    predicted = math.prod(gatelib.gate_fidelity(gatelib.effective_ckz(r - 1), gatelib.ideal_ckz(r - 1)) ** count
                          for r, count in census.items())
    kept = noisy_run(n, nc, max_rank, passive=False, spam=False).total_probability[0]
    assert 0.975 <= kept / predicted <= 1.005


# The paper's equal-register match is exact at the circuit: the lazy 2^n walk and the 1q-coin
# 2^(n+1) walk compile to the same register, the same moves and the same gates, bar one CZ-based
# CX in each direction of the 1q-coin cascade. The pairs below are those run_noisy admits on both sides.
EQUAL_REGISTER_PAIRS = [(n, rank) for n, nc, rank in ADMITTED if nc == 2 and (n + 1, 1, rank) in ADMITTED]


@pytest.mark.parametrize("max_rank", [3, 4, 5])
@pytest.mark.parametrize("n", range(2, 20))
def test_equal_register_census_differs_by_two_cz(n, max_rank):
    lazy, plain = count_multiqubit_gates(n, 2, max_rank), count_multiqubit_gates(n + 1, 1, max_rank)
    assert Counter(plain) == Counter(lazy) + Counter({2: 2})
    assert ancilla_requirement(n + 1, 1, max_rank) == ancilla_requirement(n, 2, max_rank)


@pytest.mark.parametrize("max_rank", [3, 4])
@pytest.mark.parametrize("n", range(2, 9))
def test_equal_register_steps_compile_alike(n, max_rank):
    lazy, plain = (build_step_circuit(uniform_spec(p, nc, steps=1), NativeGateSet(max_rank), 0)
                   for p, nc in ((n, 2), (n + 1, 1)))
    assert lazy.qubit_count == plain.qubit_count
    assert lazy.shift.count(None) == plain.shift.count(None)
    lazy_gates, plain_gates = (Counter(len(t) for t in c.shift if t is not None and len(t) >= 2) for c in (lazy, plain))
    assert plain_gates == lazy_gates + Counter({2: 2})


@pytest.mark.parametrize("n,max_rank", EQUAL_REGISTER_PAIRS)
def test_equal_register_scalar_factors_differ_by_two_cz_idles(n, max_rank):
    # The scalar channels see the same register and the same moves, so the
    # 1q-coin walk's factor is the lazy walk's times the idling of the other
    # qubits through its two extra CZ per step (3.7e-15 relative at worst).
    assert len(EQUAL_REGISTER_PAIRS) == 7
    lazy, plain = noisy_run(n, 2, max_rank), noisy_run(n + 1, 1, max_rank)
    n_q = build_step_circuit(uniform_spec(n, 2, steps=1), NativeGateSet(max_rank), 0).qubit_count
    steps = np.arange(1, 22)
    expected = lazy.scalar_factor * noiselib.idle_factor(FULL, n_q, 2) ** (2 * steps)
    assert np.allclose(plain.scalar_factor, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("max_rank", [3, 4])
@pytest.mark.parametrize("n,nc", [(n, nc) for nc in (1, 2) for n in (2, 3, 4)])
def test_fidelity_splits_into_lost_and_misplaced_probability(n, nc, max_rank):
    # With T = sum(q) the probability kept and BC = sum(sqrt(p q / T)) the
    # overlap of the normalised position shapes, f = (1 - (1 + T - 2 sqrt(T) BC) / 2)^2
    # on every step of every tolerance-grid walk: the n_q pairing can be
    # read as one of lost (1 - T) and of misplaced (1 - BC) probability.
    run = noisy_run(n, nc, max_rank)
    p, q = run.ideal_positions, run.noisy_positions
    total = q.sum(axis=1)
    overlap = np.sqrt(p * q / total[:, None]).sum(axis=1)
    split = (1 - 0.5 * (1 + total - 2 * np.sqrt(total) * overlap)) ** 2
    assert len(split) == 21 and np.abs(split - run.fidelities).max() <= 1e-12


# 9. Step-21 benefit of allowing rank-4 gates on the lazy 4-node walk.


@pytest.mark.xfail(
    strict=True,
    reason="measured step-21 relative gain is ~12.5% under every movement and count "
    "convention tried; the quoted ~28% is not reproducible from the published matrices",
)
def test_rank4_gate_set_step21_gain():
    f_rank3 = noisy_run(2, 2, max_rank=3).fidelities[-1]
    f_rank4 = noisy_run(2, 2, max_rank=4).fidelities[-1]
    gain = (f_rank4 - f_rank3) / f_rank3 * 100.0
    assert gain == pytest.approx(28.0, abs=5.0)


# 10. Composite-fidelity increases, or an attributable count table.


def mean_percent_increase(rows):
    return sum(row[3] for row in rows) / len(rows)


PUBLISHED_MEAN_INCREASES = {
    (3, 4): {5: 23.0, 10: 260.0, 15: 4200.0, 20: 270000.0},
    (4, 5): {5: 4.0, 10: 7.2, 15: 12.0, 20: 16.0},
}


def test_composite_increases_or_attributable_counts():
    lines = cmd_composite(ExperimentConfig()).report
    for n, low, high, counts_low, counts_high, rows in gate_set_comparison():
        target = PUBLISHED_MEAN_INCREASES[(low, high)][n]
        within = abs(mean_percent_increase(rows) - target) <= 0.2 * abs(target)
        if within:
            continue
        # Divergence must be attributable: the report has to show the
        # per-rank gate counts the product was built from.
        assert f"n={n} G({low})->G({high}): counts {counts_low} -> {counts_high}" in lines


def test_composite_counts_follow_census_scaling():
    # The one cell that does land inside tolerance.
    [(*_, rows)] = gate_set_comparison(n_list=(5,), transitions=((4, 5),))
    assert mean_percent_increase(rows) == pytest.approx(4.0, rel=0.2)


# 11. Property suites, self-contained.


def test_property_unitary_preserves_norm():
    rng = np.random.default_rng(11)
    raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    raw /= np.linalg.norm(raw)
    state = raw
    for targets in ((0,), (2, 3), (1, 0)):
        rank = len(targets)
        random = rng.standard_normal((2**rank, 2**rank)) + 1j * rng.standard_normal((2**rank, 2**rank))
        q, _ = np.linalg.qr(random)
        state = apply_gate(state, q, targets)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_property_gate_fidelity_basis_invariance():
    for k in (1, 2, 3):
        eff = gatelib.effective_ckz(k)
        ideal_z = gatelib.ideal_ckz(k)
        ideal_x = gatelib.ckx_from_ckz(ideal_z)
        f_z = gatelib.gate_fidelity(eff, ideal_z)
        # The trace overlap of the dense CkX matrices, |Tr(U_eff^dag U_ideal)|^2 / 4^rank.
        f_x = abs(np.trace(gatelib.ckx_from_ckz(eff).conj().T @ ideal_x)) ** 2 / len(ideal_x) ** 2
        assert f_x == pytest.approx(f_z, abs=1e-12)


def test_property_noise_closed_form():
    params = noiselib.NoiseParams()
    state = np.zeros(16, dtype=np.complex128)
    state[0] = 1.0
    prepared = scale_amplitudes(state, noiselib.state_prep_factor(params, 4))
    expected = noiselib.state_prep_factor(params, 4) ** 2
    assert float(np.vdot(prepared, prepared).real) == pytest.approx(expected, rel=1e-12)


def test_property_tolerance_report_monotone():
    fidelities = noisy_run(2, 2).fidelities
    counts = [steps_within_tolerance(fidelities, tol) for tol in sorted(TOLERANCES)]
    assert counts == sorted(counts, reverse=True)

