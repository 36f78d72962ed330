"""Experiment driver.

Subcommands:
  simulate   one noisy walk, per-step fidelity and total probability
  sweep-a    the same walk at several gate-tuning efforts a
  tolerance  steps-within-tolerance table over the whole walk grid
  composite  composite-fidelity gain from raising the native rank bound

Configs are INI-style text (section headers, key = value). Unknown
sections and keys, and keys the subcommand does not read, are rejected.
Everything is deterministic; --seedless only says so out loud.

Each subcommand computes its results once and returns one Output: the
JSON payload (floats rounded to 12 significant digits), the CSV table
as records from that payload under a header, and the report lines.
render() builds only the format asked for. Its JSON is byte for byte
json.dumps(indent=2, sort_keys=True, allow_nan=False), written with the
C encoder wherever a container holds no container. With --out the
payload goes to that file and the report to stdout; without it the
payload is printed. Exit codes: 0 success, 2 config error (an
unwritable --out path included), 3 unsupported size.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

from . import gates as gatelib
from . import simulate  # run_ideal is called through the module, where tracers wrap it
from .circuits import NativeGateSet, WalkSpec, uniform_spec
from .noise import NoiseParams
from .simulate import (
    DEFAULT_COMPARISON_NS,
    DEFAULT_FIDELITY_SETS,
    DEFAULT_TRANSITIONS,
    TOLERANCES,
    RunResult,
    UnsupportedSizeError,
    compile_step,
    gate_set_comparison,
    run_noisy,
    tolerance_report,
)

KINDS = ("simulate", "sweep-a", "tolerance", "composite")

DEFAULT_A_LIST = (0.0, 13.0 / 3, 26.0 / 3, 13.0, 52.0 / 3, 65.0 / 3, 26.0)
MAX_STEPS = 10_000  # desk scale: a 2^4 lazy sweep-a of this many steps holds about 0.5 GB


class ConfigError(ValueError):
    """Bad experiment config; the message names the offending key."""


@dataclass
class ExperimentConfig:
    kind: str | None = None
    position_qubits: int = 2
    coin_qubits: int = 1
    steps: int = 21
    theta: tuple[float, ...] = (math.pi / 2,)
    phi: tuple[float, ...] = (math.pi / 2,)
    max_rank: int = 3
    param_a: float | None = None
    a_list: tuple[float, ...] = DEFAULT_A_LIST
    eps_init: float = NoiseParams.eps_init
    eps_read: float = NoiseParams.eps_read
    t1_seconds: float = NoiseParams.t1
    tau_gate_seconds: float = NoiseParams.tau_gate
    tau_move_seconds: float = NoiseParams.tau_move
    gate_errors: bool = NoiseParams.gate_errors_enabled
    passive: bool = NoiseParams.passive_enabled
    spam: bool = NoiseParams.spam_enabled
    moves_per_step: int | None = NoiseParams.moves_per_step
    n_list: tuple[int, ...] = DEFAULT_COMPARISON_NS
    fidelity_sets: tuple[tuple[float, ...], ...] = DEFAULT_FIDELITY_SETS
    transitions: tuple[tuple[int, int], ...] = DEFAULT_TRANSITIONS
    out_path: str | None = None
    out_format: str = "csv"
    given: set[str] = field(default_factory=set, init=False, repr=False)  # "section.key" the file sets

    def walk_spec(self) -> WalkSpec:
        theta = self.theta if len(self.theta) > 1 else self.theta * self.steps
        phi = self.phi if len(self.phi) > 1 else self.phi * self.steps
        return WalkSpec(
            position_qubits=self.position_qubits,
            coin_qubits=self.coin_qubits,
            theta_schedule=theta,
            phi_schedule=phi if self.coin_qubits == 2 else None,
            steps=self.steps,
        )

    def noise_params(self) -> NoiseParams:
        return NoiseParams(
            eps_init=self.eps_init,
            eps_read=self.eps_read,
            t1=self.t1_seconds,
            tau_gate=self.tau_gate_seconds,
            tau_move=self.tau_move_seconds,
            gate_errors_enabled=self.gate_errors,
            passive_enabled=self.passive,
            spam_enabled=self.spam,
            moves_per_step=self.moves_per_step,
        )


def _atom(text: str) -> float:
    text = text.strip()
    if text == "pi":
        return math.pi
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def _number(text: str) -> float:
    if "/" in text:
        num, _, den = text.partition("/")
        bottom = _atom(den)
        if bottom == 0:
            raise ConfigError(f"division by zero in {text!r}")
        value = _atom(num) / bottom
    else:
        value = _atom(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text.strip()!r} is not a finite number")
    return value


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _number_list(text: str) -> tuple[float, ...]:
    return tuple(_number(part) for part in text.split(",") if part.strip())


def _effort_list(text: str) -> tuple[float, ...]:
    values = _number_list(text)
    if any(v < 0 for v in values):
        raise ConfigError(f"efforts must be nonnegative, got {text.strip()!r}")
    return values


def _integer_list(text: str) -> tuple[int, ...]:
    values = _number_list(text)
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"expected whole numbers, got {text.strip()!r}")
    return tuple(int(v) for v in values)


def _step_count(text: str) -> int:
    steps = int(text)
    if steps > MAX_STEPS:
        raise ConfigError(f"{steps} steps is above the desk-scale bound {MAX_STEPS}")
    return steps


def _transition(text: str) -> tuple[int, int]:
    ranks = text.split("->")
    if len(ranks) != 2:
        raise ConfigError(f"expected one low->high pair, got {text.strip()!r}")
    return int(ranks[0]), int(ranks[1])


# section -> key -> (config attribute, parser)
_CONFIG_SCHEMA = {
    "experiment": {"kind": ("kind", str.strip)},
    "walk": {
        "position_qubits": ("position_qubits", lambda s: int(s)),
        "coin_qubits": ("coin_qubits", lambda s: int(s)),
        "steps": ("steps", _step_count),
        "theta": ("theta", _number_list),
        "phi": ("phi", _number_list),
    },
    "gates": {
        "max_rank": ("max_rank", lambda s: int(s)),
        "param_a": ("param_a", _number),
        "a_list": ("a_list", _effort_list),
    },
    "noise": {
        "eps_init": ("eps_init", _number),
        "eps_read": ("eps_read", _number),
        "t1_seconds": ("t1_seconds", _number),
        "tau_gate_seconds": ("tau_gate_seconds", _number),
        "tau_move_seconds": ("tau_move_seconds", _number),
        "gate_errors": ("gate_errors", _boolean),
        "passive": ("passive", _boolean),
        "spam": ("spam", _boolean),
        "moves_per_step": ("moves_per_step", lambda s: int(s)),
    },
    "composite": {
        "n_list": ("n_list", _integer_list),
        "fidelity_sets": (
            "fidelity_sets",
            lambda s: tuple(tuple(_number(v) for v in group.split()) for group in s.split(";") if group.strip()),
        ),
        "transitions": (
            "transitions",
            lambda s: tuple(_transition(part) for part in s.split(",") if part.strip()),
        ),
    },
    "output": {
        "path": ("out_path", str.strip),
        "format": ("out_format", str.strip),
    },
}

# The sections and "section.key" each subcommand reads; main rejects every
# other key a config sets, and walk.phi unless the coin has two qubits.
_READS = {
    "simulate": ("experiment", "output", "walk", "gates.max_rank", "gates.param_a", "noise"),
    "sweep-a": ("experiment", "output", "walk", "gates.max_rank", "gates.a_list", "noise"),
    "tolerance": ("experiment", "output", "walk.steps", "gates.param_a", "noise"),
    "composite": ("experiment", "output", "composite"),
}


def load_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    config = ExperimentConfig()
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            attribute, parse = _CONFIG_SCHEMA[section][key]
            try:
                setattr(config, attribute, parse(raw))
            except ConfigError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
            config.given.add(f"{section}.{key}")
    if config.kind is not None and config.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    if config.out_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {config.out_format!r}")
    return config


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


@dataclass(frozen=True)
class Output:
    """One subcommand's results, built once.

    ``payload`` is the JSON document, every float rounded once by
    ``_round12``. The CSV table is ``header`` over ``rows``: records taken
    from the payload, each cell looked up by its column name (a missing
    cell is empty). ``report`` holds the lines of the human report.
    """

    payload: dict
    header: tuple[str, ...]
    rows: list[dict]
    report: list[str]


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder for a value at ``depth``: items go on their own lines.

    It writes ``json.dumps(indent=2)``'s item separator for depth + 1 but
    no newline after an opening or before a closing bracket, so it is
    exact only for a scalar, an empty container or, once the caller adds
    those two newlines, a container of scalars.
    """
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * (depth + 1), True, False, False,
    )


def _item_texts(values, depth: int) -> list[str]:
    """The JSON text of each of ``values``, written as items at ``depth``."""
    encoder = _flat_encoder(depth)
    outer = "\n" + "  " * depth
    inner = outer + "  "
    texts = []
    for value in values:
        if not isinstance(value, _CONTAINERS) or not value:
            texts.append("".join(encoder(value, 0)))
        elif _SCALARS.issuperset(map(type, value.values() if isinstance(value, dict) else value)):
            text = "".join(encoder(value, 0))
            texts.append(text[0] + inner + text[1:-1] + outer + text[-1])
        elif isinstance(value, dict):
            keys, children = zip(*sorted(value.items()))
            items = [encode_basestring_ascii(k) + ": " + t for k, t in zip(keys, _item_texts(children, depth + 1))]
            texts.append("{" + inner + ("," + inner).join(items) + outer + "}")
        else:
            texts.append("[" + inner + ("," + inner).join(_item_texts(value, depth + 1)) + outer + "]")
    return texts


def _write_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``, byte for byte.

    The stdlib writes every value in Python once ``indent`` is set. Here a
    scalar, and a container of plain scalars, goes to the C encoder in one
    call; only containers that hold containers are walked in Python (their
    keys are str, as every payload's are). NaN and infinities raise
    ValueError.
    """
    return _item_texts((payload,), 0)[0]


def render(output: Output, fmt: str) -> str:
    """The payload text in ``fmt`` ("json" or "csv"); only that one is built."""
    if fmt == "json":
        return _write_json(output.payload) + "\n"
    lines = [output.header] + [[row.get(column, "") for column in output.header] for row in output.rows]
    return "\n".join(",".join(c if isinstance(c, str) else _fmt(c) for c in line) for line in lines) + "\n"


def _config_echo(config: ExperimentConfig) -> dict:
    return {
        "position_qubits": config.position_qubits,
        "coin_qubits": config.coin_qubits,
        "steps": config.steps,
        "theta": [_round12(v) for v in config.theta],
        "phi": [_round12(v) for v in config.phi] if config.coin_qubits == 2 else None,
        "max_rank": config.max_rank,
        "param_a": None if config.param_a is None else _round12(config.param_a),
        "noise": {key: getattr(config, attribute) for key, (attribute, _) in _CONFIG_SCHEMA["noise"].items()},
    }


def _step_rows(result: RunResult) -> list[dict]:
    keys = [format(i, f"0{result.spec.position_qubits}b") for i in range(result.spec.node_count)]
    columns = (result.fidelities, result.total_probability, result.scalar_factor,
               result.ideal_positions, result.noisy_positions)
    return [
        {"step": t + 1, "fidelity": _round12(f), "total_probability": _round12(p), "scalar_factor": _round12(s),
         "ideal_positions": dict(zip(keys, map(_round12, ideal))),
         "noisy_positions": dict(zip(keys, map(_round12, noisy)))}
        for t, (f, p, s, ideal, noisy) in enumerate(zip(*(column.tolist() for column in columns)))
    ]


def cmd_simulate(config: ExperimentConfig) -> Output:
    gate_set = NativeGateSet(max_rank=config.max_rank, param_a=config.param_a)
    result = run_noisy(config.walk_spec(), gate_set, config.noise_params())
    steps = _step_rows(result)
    within = tolerance_report(result).steps_within
    return Output(
        payload={"kind": "simulate", "config": _config_echo(config), "steps": steps},
        header=("step", "fidelity", "total_probability"),
        rows=steps,
        report=[
            f"walk: {config.coin_qubits}q-coin on {2**config.position_qubits} nodes, "
            f"{config.steps} steps, native max rank {config.max_rank}",
            f"f_1 = {_fmt(steps[0]['fidelity'])}   f_{len(steps)} = {_fmt(steps[-1]['fidelity'])}",
            "steps within tolerance: " + "  ".join(f"{tol:g}: {n}" for tol, n in within.items()),
        ],
    )


def cmd_sweep_a(config: ExperimentConfig) -> Output:
    spec = config.walk_spec()
    noise = config.noise_params()
    gate_sets = [NativeGateSet(max_rank=config.max_rank, param_a=a) for a in config.a_list]
    # Each effort's gate set is checked before the first walk. All efforts
    # run the same walk at the same rank bound, so one ideal reference and
    # one compiled step serve the whole sweep (an empty a_list runs none).
    ideal_tables = simulate.run_ideal(spec) if gate_sets else None
    compiled = compile_step(spec, gate_sets[0]) if gate_sets else None
    series = []
    for a, gate_set in zip(config.a_list, gate_sets):
        result = run_noisy(spec, gate_set, noise, ideal_tables=ideal_tables, compiled=compiled)
        series.append(
            {
                "a": _round12(a),
                "f_cz": _round12(gatelib.gate_fidelity(gatelib.param_gate("CZ", a), gatelib.ideal_ckz(1))),
                "f_ccz": _round12(gatelib.gate_fidelity(gatelib.param_gate("CCZ", a), gatelib.ideal_ckz(2))),
                "steps": _step_rows(result),
            }
        )
    return Output(
        payload={"kind": "sweep-a", "config": _config_echo(config), "series": series},
        header=("a", "step", "fidelity", "total_probability", "f_cz", "f_ccz"),
        rows=[{**s, **row} for s in series for row in s["steps"]],
        report=["a        F(CZ(a))      F(CCZ(a))     f_final"]
        + [
            f"{_fmt(s['a']):<8} {_fmt(s['f_cz']):<13} {_fmt(s['f_ccz']):<13} {_fmt(s['steps'][-1]['fidelity'])}"
            for s in series
        ],
    )


def cmd_tolerance(config: ExperimentConfig) -> Output:
    noise = config.noise_params()
    reports = []
    ideal_tables = {}  # both rank bounds run each walk against one ideal reference
    for max_rank in (3, 4):
        for coin_qubits in (1, 2):
            for position_qubits in (2, 3, 4):
                spec = uniform_spec(position_qubits, coin_qubits, steps=config.steps)
                if spec not in ideal_tables:
                    ideal_tables[spec] = simulate.run_ideal(spec)
                gate_set = NativeGateSet(max_rank=max_rank, param_a=config.param_a)
                result = run_noisy(spec, gate_set, noise, ideal_tables=ideal_tables[spec])
                reports.append(tolerance_report(result))

    rows = [
        {
            "max_rank": rep.max_rank,
            "coin_qubits": rep.coin_qubits,
            "position_qubits": rep.position_qubits,
            "steps_within": {_fmt(tol): steps for tol, steps in rep.steps_within.items()},
        }
        for rep in reports
    ]
    return Output(
        payload={"kind": "tolerance", "config": _config_echo(config), "rows": rows},
        header=("max_rank", "coin_qubits", "position_qubits", "tolerance", "steps_within"),
        rows=[{**row, "tolerance": tol, "steps_within": n} for row in rows for tol, n in row["steps_within"].items()],
        report=["rank  coin  nodes  " + "  ".join(f"<={tol:g}" for tol in TOLERANCES)]
        + [
            f"{rep.max_rank:>4}  {rep.coin_qubits:>4}  {2**rep.position_qubits:>5}  "
            + "  ".join(f"{rep.steps_within[tol]:6d}" for tol in TOLERANCES)
            for rep in reports
        ],
    )


def cmd_composite(config: ExperimentConfig) -> Output:
    comparison = gate_set_comparison(config.n_list, config.fidelity_sets, config.transitions)
    entries = []
    rows = []
    report = ["composite fidelity gains (2q-coin walk, per-step gate census)"]
    for entry in comparison.entries:
        per_set = [
            {
                "fidelities": [_round12(f) for f in s],
                "f_low": _round12(f_low),
                "f_high": _round12(f_high),
                "percent_increase": _round12(pct),
            }
            for s, f_low, f_high, pct in entry.per_set
        ]
        key = {"position_qubits": entry.position_qubits, "transition": f"{entry.rank_low}->{entry.rank_high}"}
        mean = _round12(entry.mean_percent_increase)
        entries.append(
            {
                **key,
                "counts_low": {str(r): c for r, c in entry.counts_low.items()},
                "counts_high": {str(r): c for r, c in entry.counts_high.items()},
                "per_set": per_set,
                "mean_percent_increase": mean,
            }
        )
        rows += [{**key, "set_index": i, **s} for i, s in enumerate(per_set)]
        rows.append({**key, "set_index": "mean", "percent_increase": mean})
        report.append(
            f"n={entry.position_qubits} G({entry.rank_low})->G({entry.rank_high}): "
            f"counts {entry.counts_low} -> {entry.counts_high}"
        )
        report += [
            f"  set {tuple(s['fidelities'])}: f {_fmt(s['f_low'])} -> {_fmt(s['f_high'])}  "
            f"({_fmt(s['percent_increase'])}%)"
            for s in per_set
        ]
        report.append(f"  mean increase: {_fmt(mean)}%")
    return Output(
        payload={
            "kind": "composite",
            "config": {
                "n_list": list(config.n_list),
                "fidelity_sets": [[_round12(f) for f in s] for s in config.fidelity_sets],
                "transitions": [f"{lo}->{hi}" for lo, hi in config.transitions],
            },
            "entries": entries,
        },
        header=("position_qubits", "transition", "set_index", "f_low", "f_high", "percent_increase"),
        rows=rows,
        report=report,
    )


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep-a": cmd_sweep_a,
    "tolerance": cmd_tolerance,
    "composite": cmd_composite,
}


def _record(**properties) -> dict:
    """JSON schema of an object that requires every property it lists."""
    return {"type": "object", "required": list(properties), "properties": properties}


def _payload_schema(kind: str, key: str, items: dict) -> dict:
    return _record(kind={"const": kind}, config={"type": "object"}, **{key: {"type": "array", "items": items}})


_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_PROBABILITY = {"type": "number", "minimum": 0, "maximum": 1}
_POSITIONS = {"type": "object", "additionalProperties": _NUMBER}
_COUNTS = {"type": "object", "additionalProperties": _INTEGER}
_STEP_SCHEMA = _record(
    step={"type": "integer", "minimum": 1},
    fidelity=_PROBABILITY,
    total_probability=_PROBABILITY,
    scalar_factor=_PROBABILITY,
    ideal_positions=_POSITIONS,
    noisy_positions=_POSITIONS,
)

SCHEMAS = {
    "simulate": _payload_schema("simulate", "steps", _STEP_SCHEMA),
    "sweep-a": _payload_schema(
        "sweep-a",
        "series",
        _record(a={"type": "number", "minimum": 0}, f_cz=_NUMBER, f_ccz=_NUMBER,
                steps={"type": "array", "items": _STEP_SCHEMA}),
    ),
    "tolerance": _payload_schema(
        "tolerance",
        "rows",
        _record(max_rank=_INTEGER, coin_qubits=_INTEGER, position_qubits=_INTEGER, steps_within=_COUNTS),
    ),
    "composite": _payload_schema(
        "composite",
        "entries",
        _record(position_qubits=_INTEGER, transition={"type": "string"}, counts_low=_COUNTS,
                counts_high=_COUNTS, per_set={"type": "array"}, mean_percent_increase=_NUMBER),
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ringwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="experiment config file (INI-style)")
        cmd.add_argument("--out", help="output file path (default: print payload to stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        cmd.add_argument(
            "--seedless",
            action="store_true",
            help="no-op: runs are deterministic, there is no seed to set",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if config.kind is not None and config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {args.command!r}"
            )
        reads = _READS[args.command]
        unread = sorted(key for key in config.given if key not in reads and key.partition(".")[0] not in reads
                        or key == "walk.phi" and config.coin_qubits != 2)
        if unread:
            raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
        if args.out:
            config.out_path = args.out
        if args.format:
            config.out_format = args.format
        output = _COMMANDS[args.command](config)
        text = render(output, config.out_format)
        if config.out_path:
            try:
                Path(config.out_path).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write output.path {config.out_path!r}: {exc.strerror or exc}") from exc
    except UnsupportedSizeError as exc:
        print(f"unsupported size: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if config.out_path:
        sys.stdout.write("\n".join(output.report) + f"\nwrote {config.out_path}\n")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
