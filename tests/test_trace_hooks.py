"""The names a tracer wraps from outside must stay where it looks them up.

The benchmark's tracer (bench/tracing.py) replaces module attributes
rather than editing the program: the layer functions that
``ringwalk.simulate`` calls by its own global names, the entry points that
``ringwalk.cli`` calls, and ``cli._COMMANDS``. It counts walk steps by
wrapping ``cli.run_noisy``, so every walk must go through one call of it.
A refactor that binds these names elsewhere breaks its traced run or
silently zeroes its throughput metrics; these tests catch that.
"""

import pytest

import ringwalk.cli as cli
import ringwalk.simulate as simulate

SIMULATE_NAMES = ("apply_gate", "scale_amplitudes", "marginal_probabilities", "build_step_circuit",
                  "count_multiqubit_gates", "run_ideal", "hellinger_fidelity")
CLI_NAMES = ("run_noisy", "gate_set_comparison", "load_config", "_COMMANDS")


@pytest.mark.parametrize("name", SIMULATE_NAMES)
def test_simulate_binds_traced_name(name):
    assert callable(getattr(simulate, name))


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_binds_traced_name(name):
    assert hasattr(cli, name)


def _recorder(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("command,walks,specs", [("sweep-a", 7, 1), ("tolerance", 12, 6)])
def test_each_walk_is_one_run_noisy_call(command, walks, specs, monkeypatch, capsys):
    noisy = _recorder(monkeypatch, cli, "run_noisy")
    ideal = _recorder(monkeypatch, simulate, "run_ideal")
    compiles = _recorder(monkeypatch, simulate, "build_step_circuit")
    assert cli.main([command]) == 0
    capsys.readouterr()
    assert len(noisy) == walks
    # One ideal reference per distinct walk, reached through the module.
    assert len(ideal) == len(set(ideal)) == specs
    # sweep-a compiles its one walk once; tolerance compiles each walk once.
    assert len(compiles) == (1 if command == "sweep-a" else walks)
