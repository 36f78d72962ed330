import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepwise_reference import IDEAL, total_probability
from ringwalk.noise import (
    NoiseParams,
    idle_factor,
    movement_factor,
    readout_factor,
    state_prep_factor,
    wait_error,
)
from ringwalk.simulate import scale_amplitudes


def test_wait_error_frozen_values():
    # Hand-computed 1 - exp(-dt/T1) at the published timings.
    assert wait_error(1.8e-6, 4.0) == pytest.approx(4.4999989875001515e-07, rel=1e-12)
    assert wait_error(1e-4, 4.0) == pytest.approx(2.499968750260415e-05, rel=1e-12)
    assert wait_error(0.0, 4.0) == 0.0


def test_factors_are_population_losses():
    params = NoiseParams()
    # Three qubits each losing 0.3% of their population: probability
    # (0.997)**3, amplitude the square root of that.
    assert state_prep_factor(params, 3) == pytest.approx(0.997**1.5, rel=1e-14)
    assert state_prep_factor(params, 3) ** 2 == pytest.approx(0.997**3, rel=1e-14)
    assert readout_factor(params, 4) == pytest.approx((1 - 0.0017) ** 2.0, rel=1e-14)
    eps_m = wait_error(params.tau_move_seconds, params.t1_seconds)
    assert movement_factor(params, 5) == pytest.approx((1 - eps_m) ** 2.5, rel=1e-14)
    eps_g = wait_error(params.tau_gate_seconds, params.t1_seconds)
    assert idle_factor(params, 5, 2) == pytest.approx((1 - eps_g) ** 1.5, rel=1e-14)


def test_idle_factor_counts_only_spectators():
    params = NoiseParams()
    assert idle_factor(params, 4, 4) == 1.0
    assert idle_factor(params, 4, 0) < idle_factor(params, 4, 3) < 1.0
    with pytest.raises(ValueError):
        idle_factor(params, 3, 4)


def test_disabled_channels_are_unit_factors():
    assert state_prep_factor(IDEAL, 10) == 1.0
    assert readout_factor(IDEAL, 10) == 1.0
    assert idle_factor(IDEAL, 10, 0) == 1.0
    assert movement_factor(IDEAL, 10) == 1.0
    only_spam = NoiseParams(passive=False)
    assert movement_factor(only_spam, 3) == 1.0
    assert state_prep_factor(only_spam, 3) < 1.0


def test_apply_wrappers_scale_probability():
    state = np.zeros(8, dtype=np.complex128)
    state[0] = 1.0
    params = NoiseParams()
    prepared = scale_amplitudes(state, state_prep_factor(params, 3))
    assert total_probability(prepared) == pytest.approx(0.997**3, rel=1e-14)
    # Readout returns a snapshot and leaves the input alone.
    snap = scale_amplitudes(prepared, readout_factor(params, 3))
    assert total_probability(snap) == pytest.approx(0.997**3 * 0.9983**3, rel=1e-14)
    assert total_probability(prepared) == pytest.approx(0.997**3, rel=1e-14)

    idled = scale_amplitudes(prepared, idle_factor(params, 3, 2))
    eps_g = wait_error(params.tau_gate_seconds, params.t1_seconds)
    assert total_probability(idled) == pytest.approx(0.997**3 * (1 - eps_g), rel=1e-13)

    moved = scale_amplitudes(prepared, movement_factor(params, 3))
    eps_m = wait_error(params.tau_move_seconds, params.t1_seconds)
    assert total_probability(moved) == pytest.approx(0.997**3 * (1 - eps_m) ** 3, rel=1e-13)


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(eps_init=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(eps_read=1.5)
    with pytest.raises(ValueError):
        NoiseParams(t1_seconds=0.0)
    with pytest.raises(ValueError):
        NoiseParams(tau_gate_seconds=-1.0)
    with pytest.raises(ValueError):
        NoiseParams(moves_per_step=-1)
    for field, value in (("t1_seconds", math.nan), ("tau_gate_seconds", math.inf), ("tau_move_seconds", math.inf),
                         ("moves_per_step", 2.5)):
        with pytest.raises(ValueError, match=field):
            NoiseParams(**{field: value})
    assert NoiseParams(moves_per_step=0).moves_per_step == 0


def test_published_defaults():
    params = NoiseParams()
    assert params.eps_init == 0.003
    assert params.eps_read == 0.0017
    assert params.t1_seconds == 4.0
    assert params.tau_gate_seconds == 1.8e-6
    assert params.tau_move_seconds == 100e-6
    assert params.moves_per_step is None


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=1, max_value=30),
)
def test_prep_factor_matches_closed_form(eps, count):
    params = NoiseParams(eps_init=eps)
    expected = math.sqrt((1.0 - eps) ** count)
    assert state_prep_factor(params, count) == pytest.approx(expected, rel=1e-12)
    assert 0.0 <= state_prep_factor(params, count) <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-9, max_value=10.0), st.floats(min_value=1e-3, max_value=100.0))
def test_wait_error_is_a_probability(dt, t1):
    eps = wait_error(dt, t1)
    # Saturates at exactly 1.0 once dt >> T1 underflows the exponential.
    assert 0.0 < eps <= 1.0
    assert wait_error(2 * dt, t1) >= eps
