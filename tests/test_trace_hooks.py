"""The names a tracer wraps from outside must stay where it looks them up.

The benchmark's tracer (bench/tracing.py) replaces module attributes
rather than editing the program: the layer functions that
``ringwalk.simulate`` calls by its own global names, the entry points that
``ringwalk.cli`` calls, and ``cli._COMMANDS``. It counts walk steps by
wrapping ``cli.run_noisy``, so every walk must go through one call of it,
and counts native gates by recompiling each walk's steps with
``ringwalk.circuits``, so the compiler's names and fields must hold too.
It counts compiles and ideal references by wrapping
``simulate.build_step_circuit`` and ``simulate.run_ideal``, which
``run_noisy`` reaches through ``simulate``'s globals once per walk; the
caches below them (the compiled shift per walk shape, the ideal table per
walk) serve a repeat, so each distinct walk is computed once.
It times ``simulate.hellinger_fidelity``, which ``run_noisy`` calls once
per readout batch, so every row read out is scored exactly once.
A refactor that binds these names elsewhere breaks its traced run or
silently zeroes its throughput metrics; these tests catch that.

``apply_gate``, ``scale_amplitudes`` and ``marginal_probabilities`` are
``simulate``'s own per-gate reference kernels, which the tracer patches
there with ``getattr`` (it fails on a missing name) and the walk path
never calls: the tracer's gate observer reads ``args[0].qubit_count``,
which the flat amplitude arrays these functions take do not have. Each
traced name is defined in ``simulate``, not imported into it, so a patch
reaches every caller that looks it up there.
"""

import pytest

import ringwalk.cli as cli
import ringwalk.simulate as simulate
from ringwalk.circuits import GateApplication, MoveMarker, NativeGateSet, build_step_circuit, uniform_spec

SIMULATE_NAMES = ("apply_gate", "scale_amplitudes", "marginal_probabilities", "build_step_circuit",
                  "count_multiqubit_gates", "run_ideal", "hellinger_fidelity")
CLI_NAMES = ("run_noisy", "gate_set_comparison", "load_config", "_COMMANDS")


@pytest.mark.parametrize("name", SIMULATE_NAMES)
def test_simulate_binds_traced_name(name):
    assert callable(getattr(simulate, name))


@pytest.mark.parametrize("name", ("apply_gate", "scale_amplitudes", "marginal_probabilities", "run_ideal",
                                  "hellinger_fidelity"))
def test_simulate_defines_traced_name(name):
    assert getattr(simulate, name).__module__ == "ringwalk.simulate"


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_binds_traced_name(name):
    assert hasattr(cli, name)


@pytest.mark.parametrize("coin_qubits,max_rank", [(1, 3), (2, 3), (2, 4)])
def test_circuits_expose_what_the_gate_count_reads(coin_qubits, max_rank):
    # bench/tracing.py count_work: build_step_circuit(spec, gate_set, t) for
    # every step, counting GateApplication ops (its circuit observer reads
    # .qubit_count, .label and .targets and skips MoveMarker ops).
    spec = uniform_spec(4, coin_qubits, steps=2)
    for t in range(spec.steps):
        circuit = build_step_circuit(spec, NativeGateSet(max_rank=max_rank), t)
        assert circuit.qubit_count >= spec.data_qubit_count
        gates = [op for op in circuit.ops if isinstance(op, GateApplication)]
        moves = [op for op in circuit.ops if isinstance(op, MoveMarker)]
        assert gates and moves and len(gates) + len(moves) == len(circuit.ops)
        for op in gates:
            assert isinstance(op.label, str)
            assert all(0 <= q < circuit.qubit_count for q in op.targets)


def _recorder(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


# (readout batches, rows read out) per command: a sweep-a walk is one
# 21-step batch, and the 12 tolerance walks, which all stop early, read out
# 94 rows in 16 batches.
SCORED = {"sweep-a": (7, 7 * 21), "tolerance": (16, 94)}


@pytest.mark.parametrize("command,walks,specs", [("sweep-a", 7, 1), ("tolerance", 12, 6)])
def test_each_walk_is_one_run_noisy_call(command, walks, specs, monkeypatch, capsys):
    cached_ideal = simulate.run_ideal
    cached_ideal.cache_clear()
    noisy = _recorder(monkeypatch, cli, "run_noisy")
    ideal = _recorder(monkeypatch, simulate, "run_ideal")
    compiles = _recorder(monkeypatch, simulate, "build_step_circuit")
    hellinger = _recorder(monkeypatch, simulate, "hellinger_fidelity")
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert len(noisy) == walks
    # Each walk asks for its ideal reference and its compile once, through
    # the module; the cache computes each distinct walk's reference once.
    assert len(ideal) == len(compiles) == walks
    assert len(set(ideal)) == cached_ideal.cache_info().misses == specs
    # Each readout batch scores its own rows, and no row is scored again.
    # The tracer times these calls but reads no count of them.
    batches, rows = SCORED[command]
    assert len(hellinger) == batches
    assert sum(len(p) for p in hellinger) == rows


STATEVECTOR_NAMES = ("apply_gate", "scale_amplitudes", "marginal_probabilities")


@pytest.mark.parametrize("command", cli.KINDS)
def test_default_runs_never_call_the_statevector_kernels(command, monkeypatch, capsys):
    calls = {name: _recorder(monkeypatch, simulate, name) for name in STATEVECTOR_NAMES}
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert calls == {name: [] for name in STATEVECTOR_NAMES}
