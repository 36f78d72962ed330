"""Scalar noise channels: SPAM and passive T1 waiting error.

NoiseParams is also the config's [noise] section: each field is a key.

Every channel here multiplies the whole statevector by a real factor in
(0, 1], so channels commute with everything and the accumulated factor is
auditable. The rates are population losses: a qubit exposed to error eps
keeps probability 1 - eps, so the statevector is scaled by
(1 - eps) ** (count / 2). This module only computes the factors; the
executor multiplies them into one running factor and applies it to each
readout snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NoiseParams:
    """Error rates and timing constants, defaulting to the published values.

    The field names are the [noise] config keys. eps_init and eps_read
    are per-qubit population losses at preparation and at each readout
    evaluation. t1_seconds drives the waiting error 1 - exp(-dt/T1)
    during gates (tau_gate_seconds, idle qubits only) and movements
    (tau_move_seconds, all qubits). gate_errors, passive and spam switch
    the effective multiqubit gates and the two scalar channels on or off.
    moves_per_step, when set, replaces marker-driven movement counting
    with a fixed number of rearrangements per step.
    """

    eps_init: float = 0.003
    eps_read: float = 0.0017
    t1_seconds: float = 4.0
    tau_gate_seconds: float = 1.8e-6
    tau_move_seconds: float = 100e-6
    gate_errors: bool = True
    passive: bool = True
    spam: bool = True
    moves_per_step: int | None = None

    def __post_init__(self) -> None:
        for name in ("eps_init", "eps_read"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value} outside [0, 1]")
        for name in ("t1_seconds", "tau_gate_seconds", "tau_move_seconds"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} = {value} must be finite and positive")
        if self.moves_per_step is not None and not (
            isinstance(self.moves_per_step, int) and self.moves_per_step >= 0
        ):
            raise ValueError(f"moves_per_step = {self.moves_per_step!r} must be a nonnegative integer")


def wait_error(dt: float, t1: float) -> float:
    """Population decay probability 1 - exp(-dt/T1) for an idle interval.

    Both times come from NoiseParams, which has checked them.
    """
    return -math.expm1(-dt / t1)


def state_prep_factor(params: NoiseParams, qubit_count: int) -> float:
    if not params.spam:
        return 1.0
    return (1.0 - params.eps_init) ** (0.5 * qubit_count)


def readout_factor(params: NoiseParams, qubit_count: int) -> float:
    if not params.spam:
        return 1.0
    return (1.0 - params.eps_read) ** (0.5 * qubit_count)


def idle_factor(params: NoiseParams, qubit_count: int, active_count: int) -> float:
    """Damping for the qubits that sit out one multiqubit gate."""
    if not params.passive:
        return 1.0
    if active_count > qubit_count:
        raise ValueError("more active qubits than qubits")
    eps = wait_error(params.tau_gate_seconds, params.t1_seconds)
    return (1.0 - eps) ** (0.5 * (qubit_count - active_count))


def movement_factor(params: NoiseParams, qubit_count: int) -> float:
    """Damping for one rearrangement; every qubit rides out tau_move_seconds."""
    if not params.passive:
        return 1.0
    eps = wait_error(params.tau_move_seconds, params.t1_seconds)
    return (1.0 - eps) ** (0.5 * qubit_count)
