import contextlib
import io
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringwalk import cli, simulate
from ringwalk.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_composite,
    load_config,
    main,
)
from ringwalk.simulate import run_noisy
from ringwalk.statevector import gate_plan


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SIMULATE_INI = """
[experiment]
kind = simulate

[walk]
position_qubits = 2
coin_qubits = 2
steps = 4
theta = pi/2
phi = pi/2

[gates]
max_rank = 3

[noise]
eps_init = 0.003
eps_read = 0.0017
"""


# ------------------------------------------------------------- config


def test_load_config_defaults(tmp_path):
    config = load_config(write_config(tmp_path, "[walk]\nsteps = 7\n"))
    assert config.steps == 7
    assert config.kind is None
    assert config.position_qubits == 2
    assert config.coin_qubits == 1
    assert config.max_rank == 3
    assert config.eps_init == 0.003
    assert config.out_format == "csv"


def test_load_config_full(tmp_path):
    config = load_config(write_config(tmp_path, SIMULATE_INI))
    assert config.kind == "simulate"
    assert config.position_qubits == 2
    assert config.coin_qubits == 2
    assert config.steps == 4
    assert config.theta == (math.pi / 2,)
    assert config.phi == (math.pi / 2,)


def test_config_number_language(tmp_path):
    text = "[walk]\ntheta = pi\nphi = pi/2, 13/4\n[gates]\nparam_a = 26/3\n"
    config = load_config(write_config(tmp_path, text))
    assert config.theta == (math.pi,)
    assert config.phi == (math.pi / 2, 3.25)
    assert config.param_a == pytest.approx(26.0 / 3)


def test_config_booleans_and_composite_grammar(tmp_path):
    text = (
        "[noise]\ngate_errors = off\npassive = yes\n"
        "[composite]\nn_list = 5, 10\nfidelity_sets = 0.999 0.995 0.99; 0.993 0.992 0.991\n"
        "transitions = 3->4, 4->5\n"
    )
    config = load_config(write_config(tmp_path, text))
    assert config.gate_errors is False
    assert config.passive is True
    assert config.n_list == (5, 10)
    assert config.fidelity_sets == ((0.999, 0.995, 0.99), (0.993, 0.992, 0.991))
    assert config.transitions == ((3, 4), (4, 5))


def test_config_rejects_unknown_section(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[walks]\nsteps = 3\n"))
    assert "walks" in str(err.value)


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "[walk]\nstep_count = 3\n"))
    assert "step_count" in str(err.value)


BAD_VALUES = (
    ("[walk]\ntheta = three\n", "walk.theta"),
    ("[walk]\ntheta = 1/0\n", "walk.theta"),
    ("[walk]\ntheta = nan\n", "walk.theta"),
    ("[gates]\nparam_a = nan\n", "gates.param_a"),
    ("[gates]\nparam_a = 1e309\n", "gates.param_a"),
    ("[gates]\na_list = 0, 1e308/1e-308\n", "gates.a_list"),
    ("[noise]\ntau_move_seconds = inf\n", "noise.tau_move_seconds"),
    ("[noise]\nspam = maybe\n", "noise.spam"),
    ("[composite]\nn_list = 2.5\n", "composite.n_list"),
    ("[composite]\ntransitions = 3->4->5\n", "composite.transitions"),
    ("[experiment]\nkind = walkabout\n", "walkabout"),
    ("[output]\nformat = yaml\n", "yaml"),
)


def test_config_rejects_bad_values(tmp_path):
    for text, key in BAD_VALUES:
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert key in str(err.value), text
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_config_surfaces_walk_validation_as_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "[walk]\ncoin_qubits = 3\n")
    with pytest.raises(ValueError, match="coin_qubits"):
        load_config(path).walk_spec()
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: coin_qubits must be 1 or 2")


# ------------------------------------------------------------ exit codes


def test_main_default_simulate_exits_zero(capsys):
    assert main(["simulate", "--seedless"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "step,fidelity,total_probability"
    assert len(out.splitlines()) == 22  # header + 21 default steps


def test_main_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[walk]\nbogus = 1\n")
    assert main(["simulate", "--config", path]) == 2
    assert "bogus" in capsys.readouterr().err


def test_main_kind_mismatch_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[experiment]\nkind = tolerance\n")
    assert main(["simulate", "--config", path]) == 2
    assert "does not match" in capsys.readouterr().err


def test_main_composite_underflow_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[composite]\nfidelity_sets = 0.5 0.4 0.3\nn_list = 20\n")
    for fmt in ("csv", "json"):
        assert main(["composite", "--config", path, "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: fidelity set (0.5, 0.4, 0.3) at n = 20")


COMPOSITE_RANGE_ERRORS = (
    ("n_list = 1", "n_list entry 1 outside [2, 20]"),
    ("n_list = 5, 21", "n_list entry 21 outside [2, 20]"),
    ("transitions = 3->4, 3->6", "transitions entry 3->6 needs 3 <= low < high <= 5"),
)


@pytest.mark.parametrize("line,message", COMPOSITE_RANGE_ERRORS)
def test_main_composite_range_errors_name_the_key(line, message, tmp_path, capsys, monkeypatch):
    census = []
    monkeypatch.setattr(simulate, "count_multiqubit_gates", lambda *args: census.append(args))
    assert main(["composite", "--config", write_config(tmp_path, f"[composite]\n{line}\n")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert census == []  # rejected before the first census


def test_main_unwritable_out_exit_code(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["simulate", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write output.path {str(target)!r}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


UNREAD_KEYS = (
    ("tolerance", "[gates]\nmax_rank = 5\n", "gates.max_rank"),
    ("tolerance", "[walk]\ncoin_qubits = 3\n", "walk.coin_qubits"),
    ("tolerance", "[walk]\ntheta = 0\n", "walk.theta"),
    ("composite", "[walk]\nposition_qubits = 6\n", "walk.position_qubits"),
    ("composite", "[noise]\nspam = off\n", "noise.spam"),
    ("sweep-a", "[gates]\nparam_a = 5\n", "gates.param_a"),
    ("simulate", "[gates]\na_list = 0, 13\n", "gates.a_list"),
    ("simulate", "[composite]\nn_list = 5\n", "composite.n_list"),
    # phi is read only on a 2-qubit coin.
    ("simulate", "[walk]\nphi = pi\nsteps = 2\n", "walk.phi"),
    ("sweep-a", "[walk]\ncoin_qubits = 1\nphi = pi/4\n", "walk.phi"),
)


@pytest.mark.parametrize("command,text,key", UNREAD_KEYS)
def test_main_rejects_keys_the_subcommand_does_not_read(command, text, key, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_COMMANDS", {**cli._COMMANDS, command: calls.append})
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {command} does not read {key}\n"
    assert captured.out == "" and calls == []


def test_sweep_a_checks_a_list_before_any_walk(tmp_path, capsys, monkeypatch):
    walks = []
    monkeypatch.setattr(cli, "run_noisy", lambda *args, **kwargs: walks.append(args))
    text = "[walk]\nposition_qubits = 4\ncoin_qubits = 2\n[gates]\na_list = 0, 13, 26, -1\n"
    assert main(["sweep-a", "--config", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad value for gates.a_list: ")
    assert walks == []


@pytest.mark.parametrize("command", ["simulate", "sweep-a", "tolerance"])
@pytest.mark.parametrize("steps", [cli.MAX_STEPS + 1, 10**12, 10**20])
def test_step_count_above_bound_is_rejected_before_any_walk(command, steps, tmp_path, capsys, monkeypatch):
    # Without the bound a schedule of 10^12 angles runs out of memory.
    monkeypatch.setattr(cli, "uniform_spec", None)
    monkeypatch.setattr(cli.ExperimentConfig, "walk_spec", None)
    assert main([command, "--config", write_config(tmp_path, f"[walk]\nsteps = {steps}\n")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: bad value for walk.steps: {steps} steps is above "
                            f"the desk-scale bound {cli.MAX_STEPS}\n")
    assert captured.out == ""


def test_step_count_at_bound_is_accepted(tmp_path):
    assert load_config(write_config(tmp_path, f"[walk]\nsteps = {cli.MAX_STEPS}\n")).steps == cli.MAX_STEPS


def test_main_unsupported_size_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "[walk]\nposition_qubits = 6\nsteps = 1\n")
    assert main(["simulate", "--config", path]) == 3
    assert "unsupported size" in capsys.readouterr().err


# ---------------------------------------------------------------- output


def test_out_file_and_report(tmp_path, capsys):
    config = write_config(tmp_path, SIMULATE_INI)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith(f"wrote {out}\n")
    assert "steps within tolerance" in stdout
    body = out.read_text(encoding="utf-8")
    assert body.splitlines()[0] == "step,fidelity,total_probability"
    assert len(body.splitlines()) == 5


def test_runs_are_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path, SIMULATE_INI)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        assert main(["simulate", "--config", config, "--format", "json", "--out", str(target)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


CSV_HEADERS = {
    "simulate": "step,fidelity,total_probability",
    "sweep-a": "a,step,fidelity,total_probability,f_cz,f_ccz",
    "tolerance": "max_rank,coin_qubits,position_qubits,tolerance,steps_within",
    "composite": "position_qubits,transition,set_index,f_low,f_high,percent_increase",
}

FAST_INI = {
    "simulate": SIMULATE_INI,
    "sweep-a": "[experiment]\nkind = sweep-a\n[walk]\nsteps = 3\n[gates]\na_list = 0, 13\n",
    "tolerance": "[experiment]\nkind = tolerance\n[walk]\nsteps = 5\n",
    "composite": "[experiment]\nkind = composite\n[composite]\nn_list = 5\n",
}


@pytest.mark.parametrize("command", sorted(CSV_HEADERS))
def test_csv_headers(command, tmp_path, capsys):
    path = write_config(tmp_path, FAST_INI[command])
    assert main([command, "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADERS[command]


@pytest.mark.parametrize("command", sorted(CSV_HEADERS))
def test_json_payloads_validate_against_schema(command, tmp_path, capsys):
    path = write_config(tmp_path, FAST_INI[command])
    assert main([command, "--config", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == command
    jsonschema.validate(payload, cli.SCHEMAS[command])


def test_csv_run_never_encodes_json(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("JSON encoded on a CSV run")

    monkeypatch.setattr(cli, "_write_json", refuse)
    for command in sorted(CSV_HEADERS):
        path = write_config(tmp_path, FAST_INI[command])
        assert main([command, "--config", path, "--out", str(tmp_path / "run.csv")]) == 0
    capsys.readouterr()


def test_parser_keeps_no_state_between_calls(capsys):
    with pytest.raises(SystemExit) as rejected:
        main(["simulate", "--format", "xml"])
    assert rejected.value.code == 2
    assert main(["simulate", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "simulate"
    assert main(["simulate"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADERS["simulate"]


def test_lazy_sweep_bytes_do_not_depend_on_earlier_walks(tmp_path, capsys, monkeypatch):
    # Fusion is decided from the walk alone: the blocks a longer walk of the
    # same shape leaves in the caches must not change how 4 steps are summed.
    walks = []

    def recorded(*args, **kwargs):
        walks.append(run_noisy(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(cli, "run_noisy", recorded)

    def sweep(steps):
        walks.clear()
        path = write_config(tmp_path, f"[walk]\nposition_qubits = 4\ncoin_qubits = 2\nsteps = {steps}\n")
        assert main(["sweep-a", "--config", path, "--format", "json"]) == 0
        return capsys.readouterr().out, list(walks)

    def clear_caches():
        for cached in (simulate.shift_blocks, simulate.block_matrices, simulate.shift_matrix, gate_plan):
            cached.cache_clear()

    clear_caches()
    fresh, fresh_walks = sweep(4)
    clear_caches()
    sweep(21)
    text, later_walks = sweep(4)
    assert text == fresh
    # The payload rounds to 12 digits; the walks must agree bit for bit.
    for a, b in zip(fresh_walks, later_walks, strict=True):
        for name in ("noisy_positions", "fidelities", "total_probability", "scalar_factor"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


# ----------------------------------------------------------- JSON writer

JSON_KEYS = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€\U0001f600ab'), max_size=4) | st.text(max_size=4)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | JSON_KEYS
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308])
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=24,
)


def stdlib_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(JSON_KEYS, JSON_TREES, max_size=5))
@example(payload={"a": [{"b": [[{}, [], {"c": [1.5, -0.0]}], {"d\u00e9\n": None}]}, []], '"': {"x": {"y": {"z": [True]}}}})
def test_property_json_writer_matches_stdlib(payload):
    assert cli.render(cli.Output(payload, (), [], []), "json") == stdlib_json(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["flat", "nested"])
def test_json_writer_rejects_nonfinite_floats(bad, where, capsys, monkeypatch):
    payload = {"kind": "simulate", "steps": [1.0, bad]} if where == "flat" else {"steps": [{"x": [{}], "y": bad}]}
    with pytest.raises(ValueError):
        cli.render(cli.Output(payload, (), [], []), "json")
    monkeypatch.setitem(cli._COMMANDS, "simulate", lambda config: cli.Output(payload, (), [], []))
    assert main(["simulate", "--format", "json"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_tolerance_covers_both_gate_sets(tmp_path, capsys):
    path = write_config(tmp_path, FAST_INI["tolerance"])
    assert main(["tolerance", "--config", path]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    ranks = {row.split(",")[0] for row in rows}
    coins = {row.split(",")[1] for row in rows}
    sizes = {row.split(",")[2] for row in rows}
    assert ranks == {"3", "4"}
    assert coins == {"1", "2"}
    assert sizes == {"2", "3", "4"}


def test_composite_report_prints_per_rank_counts():
    config = ExperimentConfig(n_list=(5,), transitions=((3, 4),))
    report = cmd_composite(config).report
    assert "n=5 G(3)->G(4): counts {3: 82} -> {3: 10, 4: 26}" in report
    assert any(line.startswith("  mean increase:") for line in report)


def test_sweep_a_rejects_negative_effort(monkeypatch):
    walks = []
    monkeypatch.setattr(cli, "run_noisy", lambda *args, **kwargs: walks.append(args))
    config = ExperimentConfig(a_list=(0.0, -1.0), steps=2)
    with pytest.raises(ValueError, match="param_a"):
        cli.cmd_sweep_a(config)
    assert walks == []  # every effort's gate set is built before the first walk


# ------------------------------------------------------ generated configs

# Plausible INI values per section and key, including out-of-range ring
# sizes and rank bounds, empty lists and composite sets that underflow;
# the first value of each key is a valid one. A config draws only keys
# its subcommand reads: walk.position_qubits and walk.steps whenever they
# are read, every other key optionally. steps stays at most 6 so a
# tolerance grid runs in milliseconds.
# walk.phi is dropped unless coin_qubits = 2, the only coin that reads it.
# Then at most one key gets a bad number or one unread key is added, so
# both clean outcomes come up often, composite success included.
CONFIG_VALUES = {
    "walk": {
        "position_qubits": ("2", "3", "4", "5", "6", "1"),
        "steps": ("1", "2", "6"),
        "coin_qubits": ("1", "2", "3"),
        "theta": ("pi/2", "0", "pi/4, pi/3", ""),
        "phi": ("pi/2", "pi", ""),
    },
    "gates": {
        "max_rank": ("3", "4", "5"),
        "param_a": ("0", "26/3", "1e3"),
        "a_list": ("0, 13", "5", "", "0, 1e6"),
    },
    "noise": {
        "eps_init": ("0", "0.003", "1"),
        "eps_read": ("0.0017", "1"),
        "t1_seconds": ("4", "1e-6"),
        "tau_gate_seconds": ("1.8e-6", "0", "1"),
        "tau_move_seconds": ("1e-4", "0", "10"),
        "gate_errors": ("on", "off"),
        "spam": ("yes", "no"),
        "moves_per_step": ("0", "2"),
    },
    "composite": {
        "n_list": ("5", "5, 20", "", "1", "21"),
        "fidelity_sets": ("0.993 0.992 0.991", "0.5 0.4 0.3", "", "1 1 1", "0.99 0.98", "0.9 0.95 0.8"),
        "transitions": ("3->4", "4->5, 3->5", "", "3->4->5", "4->3", "3->6"),
    },
}
BAD_NUMBERS = ("nan", "inf", "-1", "2.5", "1/0", "1e309", "x", "0", "1000000000000", "100000000000000000000")
FIDELITY_KEYS = ("fidelity", "f_cz", "f_ccz", "f_low", "f_high")


# Sections and "section.key" entries each subcommand reads.
READS = {
    "simulate": ("walk", "gates.max_rank", "gates.param_a", "noise"),
    "sweep-a": ("walk", "gates.max_rank", "gates.a_list", "noise"),
    "tolerance": ("walk.steps", "gates.param_a", "noise"),
    "composite": ("composite",),
}


def _reads(command, section, key):
    return section in READS[command] or f"{section}.{key}" in READS[command]


@st.composite
def _config_case(draw):
    """(subcommand, INI text, the unread "section.key" added or None)."""
    command = draw(st.sampled_from(cli.KINDS))
    sections = {}
    for name, keys in CONFIG_VALUES.items():
        read = {k: st.sampled_from(v) for k, v in keys.items() if _reads(command, name, k)}
        required = {k: read.pop(k) for k in ("position_qubits", "steps") if name == "walk" and k in read}
        sections[name] = draw(st.fixed_dictionaries(required, optional=read))
    unread_keys = [(n, k) for n in CONFIG_VALUES for k in CONFIG_VALUES[n] if not _reads(command, n, k)]
    if sections["walk"].get("coin_qubits") != "2":
        sections["walk"].pop("phi", None)
        if _reads(command, "walk", "phi"):
            unread_keys.append(("walk", "phi"))
    unread = None
    outcome = draw(st.sampled_from(("clean", "bad number", "unread key")))
    if outcome == "bad number":
        name, key = draw(st.sampled_from([(n, k) for n in CONFIG_VALUES for k in CONFIG_VALUES[n]
                                          if _reads(command, n, k)]))
        sections[name][key] = draw(st.sampled_from(BAD_NUMBERS))
    elif outcome == "unread key":
        name, key = draw(st.sampled_from(unread_keys))
        sections[name][key] = CONFIG_VALUES[name][key][0]
        unread = f"{name}.{key}"
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )
    return command, text, unread


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _fidelities(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in FIDELITY_KEYS:
                yield value
            else:
                yield from _fidelities(value)
    elif isinstance(node, list):
        for value in node:
            yield from _fidelities(value)


@settings(max_examples=150, deadline=None)
@given(case=_config_case())
def test_property_every_config_exits_cleanly(case, tmp_path_factory):
    command, text, unread = case
    path = write_config(tmp_path_factory.mktemp("ini"), text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", path, "--format", "json"])
    if unread is not None:
        # A read key may hold a value that fails to parse, which is reported first.
        assert code == 2
        assert err.getvalue() == f"config error: {command} does not read {unread}\n" or (
            err.getvalue().startswith("config error: bad value for ")
        )
    if code == 0:
        assert err.getvalue() == ""
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(payload, cli.SCHEMAS[command])
        assert all(0 <= f <= 1 for f in _fidelities(payload))
    else:
        prefix = {2: "config error: ", 3: "unsupported size: "}[code]
        assert out.getvalue() == ""
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1
