"""Coined quantum walks on rings, compiled to bounded-rank native gate
sets with published effective (noisy) gate matrices and scalar SPAM and
waiting-error channels. Deterministic throughout."""

from .circuits import (
    Circuit,
    GateApplication,
    MoveMarker,
    NativeGateSet,
    WalkSpec,
    build_coin,
    build_shift_abstract,
    build_step_circuit,
    count_multiqubit_gates,
    decompose_ckx,
    uniform_spec,
)
from .gates import (
    GateMatrix,
    c3z_eff,
    ccz_eff,
    ckx_from_ckz,
    cz_eff,
    equivalent_two_qubit_fidelity,
    gate_fidelity,
    ideal_ckz,
    ideal_gate,
    param_gate,
)
from .noise import NoiseParams, wait_error
from .simulate import (
    CompositeReport,
    RunResult,
    ToleranceReport,
    UnsupportedSizeError,
    composite_fidelity,
    gate_set_comparison,
    hellinger_fidelity,
    run_ideal,
    run_noisy,
    steps_within_tolerance,
    tolerance_report,
)
from .statevector import (
    ProbabilityTable,
    StateVector,
    apply_gate,
    marginal_probabilities,
    new_basis_state,
    scale_amplitudes,
    total_probability,
)

__version__ = "0.1.0"
