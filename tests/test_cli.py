import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import payload_reference
import ringwalk
from payload_schemas import SCHEMAS
from shared import ADMITTED_SHAPES, LARGER_SHAPES, MODULE_ENV, run_module, write_config
from ringwalk import circuits, cli, gates, simulate
from ringwalk.circuits import NativeGateSet, uniform_spec
from ringwalk.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_composite,
    load_config,
    main,
)
from ringwalk.noise import NoiseParams
from ringwalk.simulate import RunResult, UnsupportedSizeError, run_noisy


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
    assert config.gates == NativeGateSet()
    assert config.noise == NoiseParams()
    assert config.format == "csv"


def test_load_config_full(tmp_path):
    config = load_config(write_config(tmp_path, SIMULATE_INI))
    assert config.kind == "simulate"
    assert config.position_qubits == 2
    assert config.coin_qubits == 2
    assert config.steps == 4
    assert config.theta == (math.pi / 2,)
    assert config.phi == (math.pi / 2,)


def test_config_number_language(tmp_path):
    text = "[walk]\ntheta = pi\nphi = pi/2, 13/4, -pi, +pi, -pi/2, pi/-4, -13/3, -1.5\n[gates]\nparam_a = 26/3\n"
    config = load_config(write_config(tmp_path, text))
    assert config.theta == (math.pi,)
    assert config.phi == (math.pi / 2, 3.25, -math.pi, math.pi, -math.pi / 2, -math.pi / 4, -13 / 3, -1.5)
    assert config.gates.param_a == pytest.approx(26.0 / 3)


def test_config_booleans_and_composite_grammar(tmp_path):
    text = (
        "[noise]\ngate_errors = off\npassive = yes\n"
        "[composite]\nn_list = 5, 10\nfidelity_sets = 0.999 0.995 0.99; 0.993 0.992 0.991\n"
        "transitions = 3->4, 4->5\n"
    )
    config = load_config(write_config(tmp_path, text))
    assert config.noise == NoiseParams(gate_errors=False, passive=True)
    assert config.n_list == (5, 10)
    assert config.fidelity_sets == ((0.999, 0.995, 0.99), (0.993, 0.992, 0.991))
    assert config.transitions == ((3, 4), (4, 5))


def test_config_with_byte_order_mark_parses(tmp_path):
    path = tmp_path / "bom.ini"
    path.write_bytes("[walk]\nsteps = 3\n".encode("utf-8-sig"))
    assert load_config(path).steps == 3


def test_noise_echo_is_rounded_to_twelve_digits(tmp_path, capsys):
    path = write_config(tmp_path, "[walk]\nsteps = 1\n[noise]\neps_init = 0.1234567890123456\n"
                                  "t1_seconds = 3.0000000000000004\n")
    assert main(["simulate", "--config", path, "--format", "json"]) == 0
    noise = json.loads(capsys.readouterr().out)["config"]["noise"]
    assert (noise["eps_init"], noise["t1_seconds"]) == (0.123456789012, 3.0)
    assert (noise["gate_errors"], noise["moves_per_step"]) == (True, None)


def test_noise_keys_are_the_noise_params_fields():
    assert set(cli._CONFIG_SCHEMA["noise"]) == {f.name for f in dataclasses.fields(NoiseParams)}
    assert set(cli._CONFIG_SCHEMA["gates"]) == {f.name for f in dataclasses.fields(NativeGateSet)} | {"a_list"}


def test_config_keys_are_unique_across_sections():
    # main labels an error by the section of the key its message begins with.
    keys = [key for keys in cli._CONFIG_SCHEMA.values() for key in keys]
    assert len(keys) == len(set(keys))


# ----------------------------------------------------------- failing runs


class Fail(NamedTuple):
    """A run that must exit with ``code``, one stderr line and nothing on stdout."""

    commands: str  # the subcommands it runs under; "" when argv names its own
    config: str | bytes | None  # written to {path} and passed as --config
    stderr: str  # the whole line, or, ending in "...", the part before what configparser, the codec or the OS wrote
    # Where the error is raised: in load_config ("read"), in .walk_spec() ("spec"), after a walk or census ("work"),
    # or by main or the subcommand before any of those ("main").
    stage: str = "main"
    code: int = 2
    argv: tuple[str, ...] = ()  # after the subcommand; {path} is the config's path and {tmp} its directory
    id: str | None = None  # the case's test ID in its group; a group without IDs runs as one test


BAD = "config error: bad value for "
CHOICES = "(choose from simulate, sweep-a, tolerance, composite)"

# Every run the CLI must refuse, grouped under the test name each case has
# always run under. Cases of one shape are listed as tuples.
FAILING_RUNS = {
    # (argv, the head of the line, which the case's ID holds, and the rest of the line)
    "test_usage_errors_exit_two_on_one_line": [
        Fail("", None, head + tail, argv=argv, id=f"argv{i}-{head}") for i, (argv, head, tail) in enumerate([
            ((), "ringwalk: error: no subcommand", f" {CHOICES}"),
            (("simulte",), "ringwalk: error: invalid subcommand 'simulte'", f" {CHOICES}"),
            (("--format", "json", "simulate"), "ringwalk: error: invalid subcommand '--format'", f" {CHOICES}"),
            (("simulate", "--bogus"), "ringwalk: error: unrecognized argument '--bogus'", ""),
            (("simulate", "--conf", "exp.ini"), "ringwalk: error: unrecognized argument '--conf'", ""),
            (("simulate", "stray"), "ringwalk: error: unrecognized argument 'stray'", ""),
            (("tolerance", "--seedless", "--", "x"), "ringwalk: error: unrecognized argument '--'", ""),
            (("simulate", "--config"), "ringwalk simulate: error: argument --config: expected one value", ""),
            (("sweep-a", "--out", "--format", "csv"), "ringwalk sweep-a: error: argument --out: expected one value",
             ""),
            (("simulate", "--format"), "ringwalk simulate: error: argument --format: expected one value", ""),
            (("simulate", "--config="), "ringwalk simulate: error: argument --config: expected one value", ""),
            (("simulate", "--out", ""), "ringwalk simulate: error: argument --out: expected one value", ""),
            (("composite", "--format", "xml"), "ringwalk composite: error: argument --format: invalid choice: 'xml'",
             " (choose from csv, json)"),
            (("simulate", "--format=JSON", "--format", "json"), "ringwalk simulate: error: argument --format: invalid",
             " choice: 'JSON' (choose from csv, json)"),
            (("simulate", "--config", "missing.ini", "--format=xml"),
             "ringwalk simulate: error: argument --format: invalid", " choice: 'xml' (choose from csv, json)"),
            (("simulate", "--seedless=yes"), "ringwalk simulate: error: argument --seedless: takes no value",
             ", got 'yes'"),
        ])
    ],
    "test_config_rejects_unknown_section": [
        Fail("simulate", "[walks]\nsteps = 3\n", "config error: unknown config section [walks]", "read"),
    ],
    "test_config_rejects_unknown_key": [
        Fail("simulate", "[walk]\nstep_count = 3\n", "config error: unknown key 'step_count' in section [walk]",
             "read"),
    ],
    "test_main_config_error_exit_code": [
        Fail("simulate", "[walk]\nbogus = 1\n", "config error: unknown key 'bogus' in section [walk]", "read"),
    ],
    # configparser's own [DEFAULT] would give its keys to every section: these
    # would run the default walk, set walk.steps, or blame bogus on [walk].
    "test_default_section_is_an_unknown_section": [
        Fail("simulate sweep-a", text, "config error: unknown config section [DEFAULT]", "read", id=text)
        for text in ("[DEFAULT]\nfoo = 1\n", "[DEFAULT]\nsteps = 3\n", "[walk]\nsteps = 3\n[DEFAULT]\nbogus = 2\n")
    ],
    # configparser's own messages span two or three lines.
    "test_malformed_config_error_is_one_line": [
        Fail("simulate", text, "config error: malformed config {path}: ...", "read", id=name)
        for text, name in (("[walk]\nsteps\n", "key-without-value"), ("steps = 3\n", "no-section-header"))
    ],
    "test_config_that_is_not_utf8_names_its_file": [
        Fail("simulate", b"\xff[walk]\nsteps = 3\n", "config error: cannot read config {path}: ...", "read"),
    ],
    "test_config_rejects_bad_values": [
        Fail("simulate", None, "config error: cannot read config {path}: ...", "read", argv=("--config", "{path}")),
    ] + [
        Fail("simulate sweep-a", text, f"{BAD}{key}: {reason}", "read") for text, key, reason in [
            ("[walk]\ntheta = three\n", "walk.theta", "cannot parse number 'three'"),
            ("[walk]\ntheta = 1/0\n", "walk.theta", "division by zero in '1/0'"),
            ("[walk]\ntheta = nan\n", "walk.theta", "'nan' is not a finite number"),
            ("[gates]\nparam_a = nan\n", "gates.param_a", "'nan' is not a finite number"),
            ("[gates]\nparam_a = 1e309\n", "gates.param_a", "'1e309' is not a finite number"),
            ("[gates]\na_list = 0, 1e308/1e-308\n", "gates.a_list", "'1e308/1e-308' is not a finite number"),
            ("[gates]\na_list =\n", "gates.a_list", "a_list must list at least one effort"),
            ("[noise]\ntau_move_seconds = inf\n", "noise.tau_move_seconds", "'inf' is not a finite number"),
            ("[noise]\nspam = maybe\n", "noise.spam", "cannot parse boolean 'maybe'"),
            ("[noise]\ngate_errors = maybe\n", "noise.gate_errors", "cannot parse boolean 'maybe'"),
            ("[noise]\npassive = 2\n", "noise.passive", "cannot parse boolean '2'"),
            ("[composite]\nn_list = 2.5\n", "composite.n_list", "expected whole numbers, got '2.5'"),
            ("[composite]\ntransitions = 3->4->5\n", "composite.transitions",
             "expected one low->high pair, got '3->4->5'"),
            ("[experiment]\nkind = walkabout\n", "experiment.kind", f"invalid choice: 'walkabout' {CHOICES}"),
            ("[output]\nformat = yaml\n", "output.format", "invalid choice: 'yaml' (choose from csv, json)"),
            ("[output]\npath =\n", "output.path", "empty path; leave the key out to write to stdout"),
        ]
    ],
    "test_noise_params_checks_name_the_key": [
        Fail("simulate", f"[noise]\n{key} = {value}\n", f"{BAD}noise.{key}: {reason}", "read",
             id=f"{key}-{value}-{reason}")
        for key, value, reason in [
            ("eps_init", "2", "eps_init = 2.0 outside [0, 1]"),
            ("eps_read", "1.5", "eps_read = 1.5 outside [0, 1]"),
            ("t1_seconds", "-1", "t1_seconds = -1.0 must be finite and positive"),
            ("tau_gate_seconds", "0", "tau_gate_seconds = 0.0 must be finite and positive"),
            ("tau_move_seconds", "0", "tau_move_seconds = 0.0 must be finite and positive"),
            ("moves_per_step", "-1", "moves_per_step = -1 must be a nonnegative integer"),
        ]
    ],
    "test_walk_errors_name_the_key": [
        Fail("simulate sweep-a", text, f"{BAD}{key}: {reason}", stage, id=f"{text}-{key}")
        for text, key, reason, stage in [
            ("[walk]\nsteps = 0\n", "walk.steps", "0 steps; a walk needs at least one", "read"),
            ("[walk]\ntheta = pi, pi\n", "walk.theta", "2 angles for 21 steps; give one angle or one per step", "spec"),
            ("[walk]\ntheta =\n", "walk.theta", "0 angles for 21 steps; give one angle or one per step", "spec"),
            ("[walk]\ncoin_qubits = 2\nphi = 1, 2\nsteps = 1\n", "walk.phi",
             "2 angles for 1 steps; give one angle or one per step", "spec"),
        ]
    ],
    # Angle lists with an item _number rejects: the first such item's own error.
    "test_angle_list_errors_are_the_per_item_parse_errors": [
        Fail("simulate sweep-a", "[walk]\n" + text, f"config error: {message}", stage, id=f"{text}-{message}")
        for text, message, stage in [
            ("theta = 0.5, inf\n", "bad value for walk.theta: 'inf' is not a finite number", "read"),
            ("theta = 1e999\n", "bad value for walk.theta: '1e999' is not a finite number", "read"),
            ("coin_qubits = 2\nphi = pi/2, 0.25\n",
             "bad value for walk.phi: 2 angles for 21 steps; give one angle or one per step", "spec"),
            ("theta = pi/2, x\n", "bad value for walk.theta: cannot parse number 'x'", "read"),
            ("theta = -pi/2, --pi, x\n", "bad value for walk.theta: cannot parse number '--pi'", "read"),
        ]
    ],
    "test_config_surfaces_walk_validation_as_config_error": [
        Fail("simulate", "[walk]\ncoin_qubits = 3\n", BAD + "walk.coin_qubits: coin_qubits must be 1 or 2, got 3",
             "spec"),
    ],
    "test_main_walk_and_gate_errors_name_the_key": [
        Fail(command, text, f"config error: {message}", stage, id=f"{command}-{text}-{message}")
        for command, text, message, stage in [
            ("simulate", "[walk]\nposition_qubits = 21\n",
             "bad value for walk.position_qubits: position_qubits 21 outside [2, 20]", "spec"),
            ("sweep-a", "[walk]\nposition_qubits = 1\n",
             "bad value for walk.position_qubits: position_qubits 1 outside [2, 20]", "spec"),
            ("simulate", "[walk]\ncoin_qubits = 3\n",
             "bad value for walk.coin_qubits: coin_qubits must be 1 or 2, got 3", "spec"),
            ("simulate", "[gates]\nmax_rank = 5\n", "bad value for gates.max_rank: max_rank must be 3 or 4, got 5",
             "read"),
            ("sweep-a", "[gates]\nmax_rank = 2\n", "bad value for gates.max_rank: max_rank must be 3 or 4, got 2",
             "read"),
            ("simulate", "[gates]\nparam_a = -1\n",
             "bad value for gates.param_a: param_a = -1.0 must be finite and nonnegative", "read"),
            ("tolerance", "[gates]\nparam_a = -2\n",
             "bad value for gates.param_a: param_a = -2.0 must be finite and nonnegative", "read"),
            ("sweep-a", "[gates]\nmax_rank = 5\na_list =\n",
             "bad value for gates.max_rank: max_rank must be 3 or 4, got 5", "read"),
        ]
    ],
    # [gates] parses into a NativeGateSet, which checks the value as the
    # config is read, as NoiseParams does for [noise].
    "test_bad_gate_value_is_rejected_as_read_before_the_unread_check": [
        Fail(command, "[gates]\nmax_rank = 5\n", BAD + "gates.max_rank: max_rank must be 3 or 4, got 5", "read",
             id=command)
        for command in ("composite", "tolerance")
    ],
    "test_sweep_a_checks_a_list_before_any_walk": [
        Fail("sweep-a", "[walk]\nposition_qubits = 4\ncoin_qubits = 2\n[gates]\na_list = 0, 13, 26, -1\n",
             BAD + "gates.a_list: efforts must be nonnegative, got '0, 13, 26, -1'", "read"),
    ],
    # Without the bound a schedule of 10^12 angles runs out of memory.
    "test_step_count_above_bound_is_rejected_before_any_walk": [
        Fail(command, f"[walk]\nsteps = {steps}\n",
             f"{BAD}walk.steps: {steps} steps is above the desk-scale bound {cli.MAX_STEPS}", "read",
             id=f"{steps}-{command}")
        for steps in (cli.MAX_STEPS + 1, 10**12, 10**20) for command in ("simulate", "sweep-a", "tolerance")
    ],
    "test_main_kind_mismatch_exit_code": [
        Fail("simulate", "[experiment]\nkind = tolerance\n",
             "config error: experiment.kind 'tolerance' does not match subcommand 'simulate'"),
    ],
    "test_main_rejects_keys_the_subcommand_does_not_read": [
        Fail(command, text, f"config error: {command} does not read {key}", id=f"{command}-{text}-{key}")
        for command, text, key in [
            ("tolerance", "[gates]\nmax_rank = 4\n", "gates.max_rank"),
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
        ]
    ],
    # gate_set_comparison checks every argument before the first census.
    "test_main_composite_range_errors_name_the_key": [
        Fail("composite", f"[composite]\n{line}\n", f"{BAD}composite.{line.partition(' ')[0]}: {message}",
             id=f"{line}-{message}")
        for line, message in [
            ("n_list = 1", "n_list entry 1 outside [2, 20]"),
            ("n_list = 5, 21", "n_list entry 21 outside [2, 20]"),
            ("transitions = 3->4, 3->6", "transitions entry 3->6 needs 3 <= low < high <= 5"),
            ("fidelity_sets =", "fidelity_sets must list at least one set"),
            ("n_list =", "n_list must list at least one ring exponent"),
            ("transitions =", "transitions must list at least one low->high pair"),
            ("fidelity_sets = 0.99 0.98", "fidelity_sets entry (0.99, 0.98) must list ranks 3, 4, 5"),
            ("fidelity_sets = 0.99 0.98 0", "fidelity_sets entry (0.99, 0.98, 0.0) outside (0, 1]"),
            ("fidelity_sets = 0.99 0.995 0.99", "fidelity_sets entry (0.99, 0.995, 0.99) increases with rank"),
        ]
    ],
    "test_main_composite_underflow_exit_code": [
        Fail("composite", "[composite]\nfidelity_sets = 0.5 0.4 0.3\nn_list = 20\n",
             BAD + "composite.fidelity_sets: fidelity_sets entry (0.5, 0.4, 0.3) at n = 20: "
             "composite fidelity under G(3) underflows to 0", "work", argv=("--format", fmt))
        for fmt in ("csv", "json")
    ],
    # A missing directory or a directory is refused before the walk; a path
    # that opens but cannot take the payload (/dev/full) fails as it is written.
    "test_main_unwritable_out_exit_code": [
        Fail("simulate", None, f"config error: cannot write output.path '{target}': {reason}", stage,
             argv=("--out", target))
        for target, reason, stage in [("{tmp}/missing/x.csv", "No such file or directory", "main"),
                                      ("/dev/null/x.csv", "Not a directory", "main"),
                                      ("{tmp}", "Is a directory", "main")]
        + ([("/dev/full", "No space left on device", "work")] if os.path.exists("/dev/full") else [])
    ],
    # A 2^6 ring compiles to 11 qubits under the 1q coin and 13 under the
    # lazy coin at G(3); the one stderr line names the count and the bound.
    "test_main_unsupported_size_exit_code": [
        Fail("simulate", f"[walk]\nposition_qubits = 6\ncoin_qubits = {coins}\nsteps = 1\n",
             f"unsupported size: simulation supports walks of up to 9 qubits; this walk needs {qubits} "
             "(counting still works at this size)", code=3)
        for coins, qubits in ((1, 11), (2, 13))
    ],
}


@pytest.fixture
def check_failing_run(tmp_path_factory, capsys, monkeypatch):
    """Check a Fail under each of its subcommands: the exit code, exactly its stderr line, nothing on stdout, and no
    walk or census unless its stage is "work"; for a config, the same again with --out a new path and with --out an
    existing file: no file made, none truncated.
    A "read" row's message is load_config's, and nothing past reading builds a walk schedule; a "spec" row's is
    .walk_spec()'s; any other row's config loads."""
    work = []

    def recorded(function):
        def call(*args, **kwargs):
            result = function(*args, **kwargs)  # a call that raises did no work
            work.append(function.__name__)
            return result
        return call

    monkeypatch.setattr(cli, "run_noisy", recorded(run_noisy))
    monkeypatch.setattr(simulate, "count_multiqubit_gates", recorded(simulate.count_multiqubit_gates))

    def check(row):
        directory = tmp_path_factory.mktemp("run")
        path, out, kept = directory / "exp.ini", directory / "run.out", directory / "kept.out"
        kept.write_text("kept\n")
        if row.config is not None:
            path.write_bytes(row.config if isinstance(row.config, bytes) else row.config.encode("utf-8"))
        names = {"path": path, "tmp": directory}
        line = row.stderr.format(**names)
        argv = [arg.format(**names) for arg in row.argv] + (["--config", str(path)] if row.config is not None else [])
        with pytest.MonkeyPatch.context() as patch:
            if row.stage == "read":
                patch.setattr(cli, "uniform_spec", None)
                patch.setattr(ExperimentConfig, "walk_spec", None)
                with pytest.raises(ConfigError) as raised:
                    load_config(path)
                assert_line(str(raised.value), line.removeprefix("config error: "))
            elif row.stage == "spec":
                with pytest.raises(ValueError) as raised:
                    load_config(path).walk_spec()
                # A WalkSpec error begins with its argument, and main puts the key's section before it.
                message = line.removeprefix("config error: ")
                assert str(raised.value) == (message if isinstance(raised.value, ConfigError) else
                                             message.partition(": ")[2])
            elif row.config is not None:
                load_config(path)
            for command in row.commands.split() or [""]:
                for extra in ([], ["--out", str(out)], ["--out", str(kept)]) if row.config is not None else ([],):
                    work.clear()
                    assert main(([command] if command else []) + argv + extra) == row.code
                    captured = capsys.readouterr()
                    assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.endswith("\n")
                    assert_line(captured.err[:-1], line)
                    assert bool(work) == (row.stage == "work"), work
                assert not out.exists() and kept.read_text() == "kept\n"
    return check


def assert_line(text, expected):
    """``text`` is ``expected``, or, where that ends in "...", begins with what comes before."""
    head = expected.removesuffix("...")
    assert text.startswith(head) if head != expected else text == expected, text


def failing_runs_test(rows):
    """A test that checks ``rows``: one case per row ID, or, for rows without IDs, one case for them all."""
    if rows[0].id is None:
        def test(check_failing_run):
            for row in rows:
                check_failing_run(row)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row, check_failing_run):
        check_failing_run(row)
    return test


# A group runs under its name, so each case keeps the test ID it has always had.
for _name, _rows in FAILING_RUNS.items():
    globals()[_name] = failing_runs_test(_rows)


def test_every_config_key_has_a_failing_run():
    # A key added to the schema needs a case here that names it.
    lines = "\n".join(row.stderr for rows in FAILING_RUNS.values() for row in rows)
    assert [f"{s}.{k}" for s, keys in cli._CONFIG_SCHEMA.items() for k in keys if f"{s}.{k}" not in lines] == []


MAIN_VALUE_ERRORS = (
    (ValueError("fidelities of a walk holds a value that is not finite"),
     "fidelities of a walk holds a value that is not finite"),
    (ValueError("theta_schedule is empty"), "theta_schedule is empty"),
    (ConfigError("steps already named"), "steps already named"),
    (ValueError("steps out of range"), "bad value for walk.steps: steps out of range"),
)


@pytest.mark.parametrize("error,printed", MAIN_VALUE_ERRORS)
def test_only_an_error_led_by_a_key_is_labelled(error, printed, capsys, monkeypatch):
    def fail(config):
        raise error

    monkeypatch.setattr(cli, "_COMMANDS", {**cli._COMMANDS, "simulate": fail})
    assert main(["simulate"]) == 2
    assert capsys.readouterr().err == f"config error: {printed}\n"


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize("given", [None, "2"])
def test_cli_runs_one_blas_thread_unless_the_caller_sets_a_count(given, tmp_path):
    # cli sets OPENBLAS_NUM_THREADS before it loads numpy, so OpenBLAS starts no
    # thread beside the main one; a count the caller set stands. The thread count
    # is read from /proc where there is one.
    env = {key: value for key, value in MODULE_ENV.items() if key != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = ("import os, ringwalk.cli; print(os.environ['OPENBLAS_NUM_THREADS'],"
            " len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    count, threads = done.stdout.split()
    assert count == (given or "1")
    if given is None:
        assert threads == "1"


def test_closed_stdout_exits_one_without_a_traceback(tmp_path):
    # The reader closes the pipe before the first byte, as `| head -1` does
    # after its line, or after the first byte of 100 steps of sweep-a JSON
    # (348 KB, far more than the pipe holds), as `| head -c 1` does; the
    # write fails, and nothing may reach stderr.
    long = write_config(tmp_path, "[walk]\nsteps = 100\n")
    for config, read in (([], 0), (["--config", long], 1)):
        with subprocess.Popen([sys.executable, "-m", "ringwalk.cli", "sweep-a", "--format", "json", *config],
                              cwd=tmp_path, env=MODULE_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert len(os.read(child.stdout.fileno(), read)) == read
            child.stdout.close()
            stderr = child.stderr.read()
        assert (child.returncode, stderr) == (1, b""), config


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, whose writes fail with ENOSPC")
def test_unwritable_stdout_exits_one_with_one_line(tmp_path):
    # The write fails and the reason takes one stderr line; the flush at
    # exit, after stdout is pointed at devnull, adds no traceback.
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "ringwalk.cli", "simulate"], cwd=tmp_path, env=MODULE_ENV,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (1, "cannot write stdout: No space left on device\n")


def test_module_exit_codes_through_a_process(tmp_path):
    done = run_module("composite", "--format", "json", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["kind"] == "composite"
    for config, code, prefix in (("[walk]\nsteps = 0\n", 2, b"config error: bad value for walk.steps: "),
                                 ("[walk]\nposition_qubits = 6\n", 3, b"unsupported size: ")):
        done = run_module("simulate", config=config, cwd=tmp_path)
        assert done.returncode == code
        assert done.stderr.startswith(prefix) and done.stderr.count(b"\n") == 1
        assert done.stdout == b""
    done = run_module("simulate", "--format", "xml", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith(b"ringwalk simulate: error: argument --format: ") and done.stderr.count(b"\n") == 1
    assert done.stdout == b""
    done = run_module("--help", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"usage: ringwalk ")


@pytest.mark.parametrize("command", ["simulate", "sweep-a"])
def test_piped_stdout_matches_the_out_file(command, tmp_path):
    # The payload is written in chunks, its holes filled after the skeleton;
    # through a real pipe it must come out byte for byte as in the --out
    # file. 1,100 steps of the 2^2 lazy walk span three chunks of walk steps.
    assert 2 * cli.WRITE_STEPS < 1100 <= 3 * cli.WRITE_STEPS
    config = "[walk]\ncoin_qubits = 2\nsteps = 1100\n"
    for fmt in ("json", "csv"):
        out = tmp_path / f"run.{fmt}"
        piped = run_module(command, "--format", fmt, config=config, cwd=tmp_path)
        written = run_module(command, "--format", fmt, "--out", str(out), config=config, cwd=tmp_path)
        assert (piped.returncode, piped.stderr, written.returncode, written.stderr) == (0, b"", 0, b"")
        assert piped.stdout == out.read_bytes()
        if fmt == "json":
            json.loads(piped.stdout, parse_constant=_reject_constant)


def test_main_default_simulate_exits_zero(capsys):
    assert main(["simulate", "--seedless"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "step,fidelity,total_probability"
    assert len(out.splitlines()) == 22  # header + 21 default steps


def test_step_count_at_bound_is_accepted(tmp_path):
    assert load_config(write_config(tmp_path, f"[walk]\nsteps = {cli.MAX_STEPS}\n")).steps == cli.MAX_STEPS


def test_admitted_walks_compile_to_at_most_nine_qubits(monkeypatch):
    # The one size check bounds the compiled step, ancillas included, by 9
    # qubits. It admits exactly ADMITTED_SHAPES, and the width it checks is
    # the qubit count of the step each admitted walk compiles.
    widths = []
    check = simulate._check_simulable
    monkeypatch.setattr(simulate, "_check_simulable", lambda qubits: widths.append(qubits) or check(qubits))
    admitted = set()
    for n in range(2, 9):
        for coins in (1, 2):
            for rank in (3, 4):
                spec, gate_set = uniform_spec(n, coins, steps=1), NativeGateSet(rank)
                widths.clear()
                try:
                    run_noisy(spec, gate_set, NoiseParams())
                except UnsupportedSizeError:
                    assert widths[0] > simulate.MAX_SIMULATED_QUBITS == 9 and len(widths) == 1
                    continue
                assert widths[0] == simulate.build_step_circuit(spec, gate_set, 0).qubit_count <= 9
                admitted.add((n, coins, rank))
    assert admitted == ADMITTED_SHAPES
    assert circuits._compiled_shift.cache_info().maxsize >= len(ADMITTED_SHAPES)


@pytest.mark.parametrize("n,coins,rank", LARGER_SHAPES)
def test_larger_admitted_walks_simulate(n, coins, rank, tmp_path, capsys):
    path = write_config(tmp_path, f"[walk]\nposition_qubits = {n}\ncoin_qubits = {coins}\n"
                                  f"[gates]\nmax_rank = {rank}\n")
    assert main(["simulate", "--config", path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    jsonschema.validate(payload, SCHEMAS["simulate"])
    assert len(payload["steps"]) == 21
    assert all(0 <= f <= 1 for f in _fidelities(payload))


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


def test_config_output_path_holds_the_payload_unless_out_overrides_it(tmp_path, capsys, monkeypatch):
    # A relative [output] path resolves against the working directory, not the config's directory.
    (tmp_path / "configs").mkdir()
    plain = write_config(tmp_path / "configs", SIMULATE_INI, name="plain.ini")
    config = write_config(tmp_path / "configs", SIMULATE_INI + "[output]\npath = run.csv\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", plain]) == 0
    payload = capsys.readouterr().out
    assert main(["simulate", "--config", config]) == 0
    stdout = capsys.readouterr().out
    assert "steps within tolerance" in stdout and stdout.endswith("\nwrote run.csv\n")
    assert (tmp_path / "run.csv").read_text(encoding="utf-8") == payload
    assert not (tmp_path / "configs" / "run.csv").exists()
    (tmp_path / "run.csv").unlink()
    assert main(["simulate", "--config", config, "--out", "other.csv"]) == 0
    assert capsys.readouterr().out.endswith("\nwrote other.csv\n")
    assert (tmp_path / "other.csv").read_text(encoding="utf-8") == payload
    assert not (tmp_path / "run.csv").exists()


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
    jsonschema.validate(payload, SCHEMAS[command])


def test_csv_run_never_encodes_json(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("JSON encoded on a CSV run")

    for name in ("_json_steps", "_json_list", "_json_entries"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.json, "dumps", refuse)
    for command in sorted(CSV_HEADERS):
        path = write_config(tmp_path, FAST_INI[command])
        assert main([command, "--config", path, "--out", str(tmp_path / "run.csv")]) == 0
    capsys.readouterr()


def test_parser_keeps_no_state_between_calls(capsys):
    assert main(["simulate", "--format", "xml"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ringwalk simulate: error: argument --format: invalid choice: ")
    assert err.count("\n") == 1
    for argv in (["simulte"], [], ["simulate", "--bogus"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ringwalk: error: ") and err.count("\n") == 1
    assert main(["simulate", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "simulate"
    assert main(["simulate"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADERS["simulate"]


# Each row: argument lists that must print the same bytes as the first.
OPTION_FORMS = [
    (["simulate", "--config", "{ini}", "--format", "json"],
     ["simulate", "--config={ini}", "--format=json"],
     ["simulate", "--format=json", "--seedless", "--config", "{ini}"]),
    (["simulate", "--config", "{ini}", "--format", "csv"],
     ["simulate", "--config", "{ini}", "--format", "json", "--format", "csv"],
     ["simulate", "--format=json", "--config", "{ini}", "--format=csv"],
     ["simulate", "--config", "{ini}"]),
    (["simulate", "--config", "{ini}", "--out", "{run}"],
     ["simulate", "--config", "{ini}", "--out={run}"],
     ["simulate", "--out", "{other}", "--config", "{ini}", "--out", "{run}"]),
]


@pytest.mark.parametrize("forms", OPTION_FORMS)
def test_option_forms_print_the_same_bytes(forms, tmp_path, capsys):
    names = {"ini": write_config(tmp_path, SIMULATE_INI), "run": tmp_path / "run.csv", "other": tmp_path / "other"}
    printed = []
    for argv in forms:
        assert main([arg.format(**names) for arg in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        printed.append(captured.out)
    assert printed == printed[:1] * len(forms)
    assert not names["other"].exists()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["simulate", "--help"], ["composite", "-h"],
                                  ["simulte", "--format", "xml", "--help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: ringwalk ")
    for name in (*cli.KINDS, "--config", "--out", "--format", "--seedless"):
        assert f"\n  {name} " in captured.out


def test_command_line_imports_no_argparse(tmp_path):
    # argparse, its gettext lookups and the locale module they load cost a
    # fresh process a few milliseconds; no subcommand may pull them in.
    code = ("import contextlib, io, sys\n"
            "from ringwalk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = main(['composite', '--format', 'json']), main(['simulate']), main(['simulte'])\n"
            "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=MODULE_ENV, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "(0, 0, 2) []\n")


def clear_caches():
    """Empty every cache in ringwalk's modules, so the next walk computes everything afresh;
    return how many there are."""
    modules = [importlib.import_module(f"ringwalk.{info.name}") for info in pkgutil.iter_modules(ringwalk.__path__)]
    caches = {value for module in modules for value in vars(module).values() if hasattr(value, "cache_clear")}
    for cached in caches:
        cached.cache_clear()
    return len(caches)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,other", [("simulate", "tolerance"), ("tolerance", "sweep-a")])
def test_walk_bytes_do_not_depend_on_the_caches(command, other, fmt, capsys):
    # Cold, warm, and after another subcommand has filled the caches with
    # the same walks (at other efforts or rank bounds): the same bytes.
    def run(name):
        assert main([name, "--format", fmt]) == 0
        return capsys.readouterr().out

    assert clear_caches() == 8  # every cache in src/: a change that adds or drops one changes this on purpose
    cold = run(command)
    assert run(command) == cold
    run(other)
    assert run(command) == cold


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


def test_rank4_sweep_builds_each_effort_free_gate_once(tmp_path, capsys):
    # Only CZ and CCZ read the effort; X and C3X serve every effort.
    text = "[walk]\nposition_qubits = 4\ncoin_qubits = 2\n[gates]\nmax_rank = 4\na_list = 0, 5, 10, 20\n"
    simulate.shift_passes.cache_clear()
    gates._ckx.cache_clear()
    assert main(["sweep-a", "--config", write_config(tmp_path, text)]) == 0
    capsys.readouterr()
    assert gates._ckx.cache_info().misses == 6  # X and C3X once, CCX at each of the four efforts


def test_default_lazy_sweep_builds_its_shift_once_per_effort(tmp_path, capsys):
    # Seven efforts, one compiled step and one step count: the shift's
    # passes are built once for each effort, and never again.
    simulate.shift_passes.cache_clear()
    assert main(["sweep-a", "--config", write_config(tmp_path, "[walk]\nposition_qubits = 4\ncoin_qubits = 2\n")]) == 0
    capsys.readouterr()
    assert simulate.shift_passes.cache_info().misses == len(cli.DEFAULT_A_LIST) == 7


def test_import_freezes_what_it_made():
    assert gc.get_freeze_count() > 0


def test_default_walks_build_no_gate_objects(monkeypatch, capsys):
    # The executor runs the compiler's target tuples; GateApplication objects
    # exist only for readers of Circuit.ops, and building them per compile
    # used to cost about a fifth of a tolerance run.
    built = []

    class CountingGate(circuits.GateApplication):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(circuits, "GateApplication", CountingGate)
    for command in ("tolerance", "sweep-a"):
        assert main([command]) == 0
    capsys.readouterr()
    assert built == []
    # The counter does see the gates once someone reads the view.
    ops = circuits.build_step_circuit(circuits.uniform_spec(2, 2, steps=1), circuits.NativeGateSet(3), 0).ops
    assert len(built) == sum(isinstance(op, CountingGate) for op in ops) > 0


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


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(JSON_KEYS, JSON_TREES, max_size=5))
@example(payload={"a": [{"b": [[{}, [], {"c": [1.5, -0.0]}], {"d\u00e9\n": None}]}, []], '"': {"x": {"y": {"z": [True]}}}})
def test_property_json_writer_matches_stdlib(payload):
    written = "".join(cli.payload_chunks(cli.Output(payload, (), [], []), "json"))
    assert written == payload_reference.json_text(payload)


WALK_ARRAYS = ("fidelities", "total_probability", "scalar_factor", "ideal_positions", "noisy_positions")
WALK_CELLS = [f"{name}.{fmt}" for name in WALK_ARRAYS for fmt in ("json", "csv")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["flat", "nested"] + WALK_CELLS)
def test_json_writer_rejects_nonfinite_floats(bad, where, check_failing_run, monkeypatch):
    # A payload value goes through json.dumps; a walk array through the
    # array writer, in either format, here in the last of the sweep's
    # walks. Both exit 2 before the first byte is written.
    if where in ("flat", "nested"):
        command, fmt, stage = "simulate", "json", "main"
        message = "Out of range float values are not JSON compliant..."  # ": nan" follows on some Python versions
        payload = {"kind": "simulate", "steps": [1.0, bad]} if where == "flat" else {"steps": [{"x": [{}], "y": bad}]}
        with pytest.raises(ValueError):
            "".join(cli.payload_chunks(cli.Output(payload, (), [], []), "json"))
        monkeypatch.setitem(cli._COMMANDS, "simulate", lambda config: cli.Output(payload, (), [], []))
    else:
        command, (name, fmt), stage = "sweep-a", where.split("."), "work"
        message = f"{name} of a walk holds a value that is not finite"
        walks, recorded_run = [], cli.run_noisy  # the harness counts these walks as work

        def poisoned(*args, **kwargs):
            walks.append(recorded_run(*args, **kwargs))
            if len(walks) < len(cli.DEFAULT_A_LIST):
                return walks[-1]
            values = getattr(walks[-1], name).copy()
            values.flat[-1] = bad
            return dataclasses.replace(walks[-1], **{name: values})

        monkeypatch.setattr(cli, "run_noisy", poisoned)
    check_failing_run(Fail(command, "", f"config error: {message}", stage, argv=("--format", fmt)))


# 1.5e12 and 1e16: .12g writes an exponent from 1e12 on, repr only from 1e16 on. Around the writer's
# thresholds: 0.9999999999995001 is the lowest float .12g writes as 1; 0.9999999999995 (just below
# it), 0.99999999999949 and 0.99999999999, the lowest value the writer checks, are not whole; then the
# smallest normal float and a subnormal.
WALK_VALUES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-5, 1e-300, 1.5e12, 1e16, 0.9999999999995001,
                               0.9999999999995, 0.99999999999949, 0.99999999999, 2.2250738585072014e-308,
                               2.225e-308]) | st.floats(0.0, 1.0)


def drawn_result(draw, spec):
    def column(*shape):
        values = draw(st.lists(WALK_VALUES, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(values).reshape(shape)

    return RunResult(spec, column(spec.steps, spec.node_count), column(spec.steps, spec.node_count),
                     column(spec.steps), column(spec.steps), column(spec.steps))


# 1e-7 and 5e-324: .12g writes an exponent; the subnormal's repr differs from its .12g digits.
ANGLES = st.sampled_from([0.0, -0.0, 1e-7, 5e-324, 1.5e12, 1e16]) | st.floats(-10.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(["simulate", "sweep-a"]), position_qubits=st.integers(2, 3),
       coin_qubits=st.integers(1, 2), steps=st.integers(1, 7), efforts=st.integers(0, 3))
def test_property_walk_writer_matches_step_rows(data, command, position_qubits, coin_qubits, steps, efforts):
    # simulate writes its steps at depth 1, sweep-a at depth 3; a chunk of
    # 1 or 3 steps splits the text elsewhere but must not change a byte.
    # theta and phi hold one angle or one per step, and go through the
    # number-list hole at depth 2.
    theta, phi = (tuple(data.draw(st.lists(ANGLES, min_size=n, max_size=n)))
                  for n in data.draw(st.sampled_from([(1, 1), (steps, steps), (1, steps), (steps, 1)])))
    config = ExperimentConfig(position_qubits=position_qubits, coin_qubits=coin_qubits, steps=steps,
                              theta=theta, phi=phi, a_list=cli.DEFAULT_A_LIST[:efforts])
    results = []

    def drawn_run(spec, *args, **kwargs):
        results.append(drawn_result(data.draw, spec))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_noisy", drawn_run)
        output = cli._COMMANDS[command](config)
        rows = [payload_reference.step_rows(result) for result in results]
        echo = {**output.payload["config"], "theta": [payload_reference.round12(v) for v in theta],
                "phi": [payload_reference.round12(v) for v in phi] if coin_qubits == 2 else None}
        if command == "simulate":
            payload = {**output.payload, "config": echo, "steps": rows[0]}
            records = rows[0]
        else:
            payload = {**output.payload, "config": echo,
                       "series": [{**s, "steps": r} for s, r in zip(output.payload["series"], rows)]}
            records = [{**s, **row} for s in payload["series"] for row in s["steps"]]
        expected = {"json": payload_reference.json_text(payload),
                    "csv": payload_reference.csv_text(output.header, records)}
        for write_steps in (cli.WRITE_STEPS, 1, 3):
            patch.setattr(cli, "WRITE_STEPS", write_steps)
            for fmt, text in expected.items():
                assert "".join(cli.payload_chunks(output, fmt)) == text


@pytest.mark.parametrize("command", ["simulate", "sweep-a", "tolerance", "composite"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_and_out_file_get_the_same_chunks(command, fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "WRITE_STEPS", 3)
    assert main([command, "--format", fmt]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / f"run.{fmt}"
    assert main([command, "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == printed


def traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_json_run_peaks_below_twice_its_payload(tmp_path, capsys, monkeypatch):
    # The walk steps are written a chunk at a time, so the largest walk the
    # CLI accepts never holds its payload text whole. The CSV text is
    # smaller than the walk's own arrays, so for both formats the walk is
    # also run once beforehand, and a run that only formats and writes it
    # must peak below its payload.
    path = write_config(tmp_path, f"[walk]\nsteps = {cli.MAX_STEPS}\n")
    out = {fmt: tmp_path / f"long.{fmt}" for fmt in ("json", "csv")}
    assert traced_peak(["simulate", "--config", path, "--format", "json", "--out", str(out["json"])]) \
        < 2 * out["json"].stat().st_size
    walk = run_noisy(load_config(path).walk_spec(), NativeGateSet(), NoiseParams())
    monkeypatch.setattr(cli, "run_noisy", lambda *args, **kwargs: walk)
    for fmt, written in out.items():
        assert traced_peak(["simulate", "--config", path, "--format", fmt, "--out", str(written)]) \
            < written.stat().st_size
    capsys.readouterr()


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


def test_composite_mean_is_the_mean_of_its_sets():
    output = cmd_composite(ExperimentConfig(n_list=(5, 10)))
    for entry in json.loads("".join(cli.payload_chunks(output, "json")))["entries"]:
        percents = [s["percent_increase"] for s in entry["per_set"]]
        assert entry["mean_percent_increase"] == pytest.approx(sum(percents) / len(percents), rel=1e-10)


def test_composite_report_prints_per_rank_counts():
    config = ExperimentConfig(n_list=(5,), transitions=((3, 4),))
    report = cmd_composite(config).report
    assert "n=5 G(3)->G(4): counts {3: 82} -> {3: 10, 4: 26}" in report
    assert any(line.startswith("  mean increase:") for line in report)


# 0.999999999999 makes increases of about 1e-9 %, 0.5 and below make f_low
# take an exponent (or underflow at large rings), 0.5 then 0.1 make
# increases above 1e12 %.
FIDELITIES = st.sampled_from([1.0, 0.999999999999, 0.99993, 0.9, 0.5, 0.1, 1e-3]) | st.floats(1e-3, 1.0)


@settings(max_examples=60, deadline=None)
@given(n_list=st.lists(st.integers(2, 20), max_size=4),
       transitions=st.lists(st.sampled_from([(3, 4), (3, 5), (4, 5)]), max_size=3),
       fidelity_sets=st.lists(st.lists(FIDELITIES, min_size=3, max_size=3).map(lambda s: sorted(s, reverse=True)),
                              min_size=1, max_size=4))
@example(n_list=[5, 2], transitions=[(3, 4), (4, 5)],
         fidelity_sets=[[0.5, 0.5, 0.1], [0.999999999999] * 3, [0.993, 0.992, 0.991]])
@example(n_list=[5, 20], transitions=[(3, 4)], fidelity_sets=[[0.5, 0.4, 0.3]])
def test_property_composite_writer_matches_reference(n_list, transitions, fidelity_sets, tmp_path_factory):
    directory = tmp_path_factory.mktemp("composite")
    path = write_config(directory, (
        f"[composite]\nn_list = {', '.join(map(str, n_list))}\n"
        f"transitions = {', '.join(f'{low}->{high}' for low, high in transitions)}\n"
        f"fidelity_sets = {'; '.join(' '.join(map(repr, s)) for s in fidelity_sets)}\n"))
    try:
        payload, records, report = payload_reference.composite_payload(n_list, fidelity_sets, transitions)
        expected = {"json": payload_reference.json_text(payload),
                    "csv": payload_reference.csv_text(CSV_HEADERS["composite"].split(","), records)}
    except ValueError as exc:  # f_low underflows to 0, or n_list or transitions is empty
        expected = str(exc)
    for fmt in ("json", "csv"):
        out = directory / f"run.{fmt}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["composite", "--config", path, "--format", fmt, "--out", str(out)])
        if isinstance(expected, str):
            key = expected.partition(" ")[0]
            assert "underflows to 0" in expected or not (n_list and transitions)
            assert (code, stdout.getvalue(), stderr.getvalue()) == (
                2, "", f"config error: bad value for composite.{key}: {expected}\n")
            assert not out.exists()
        else:
            assert (code, stderr.getvalue()) == (0, "")
            assert out.read_text(encoding="utf-8") == expected[fmt]
            assert stdout.getvalue() == "\n".join(report) + f"\nwrote {out}\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["f_low", "f_high", "percent_increase"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nonfinite_composite_number_exits_before_writing(bad, where, fmt, check_failing_run, monkeypatch):
    # The last set of the last entry takes the bad value.
    def poisoned(*args):
        comparison = simulate.gate_set_comparison(*args)
        *entry, rows = comparison[-1]
        row = list(rows[-1])
        row[1 + ["f_low", "f_high", "percent_increase"].index(where)] = bad
        comparison[-1] = (*entry, [*rows[:-1], tuple(row)])
        return comparison

    monkeypatch.setattr(cli, "gate_set_comparison", poisoned)
    check_failing_run(Fail("composite", "", "config error: a composite fidelity or increase is not finite", "work",
                           argv=("--format", fmt)))


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
        jsonschema.validate(payload, SCHEMAS[command])
        assert all(0 <= f <= 1 for f in _fidelities(payload))
    else:
        prefix = {2: "config error: ", 3: "unsupported size: "}[code]
        assert out.getvalue() == ""
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1
