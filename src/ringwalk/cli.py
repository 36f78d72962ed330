"""Experiment driver.

Subcommands:
  simulate   one noisy walk, per-step fidelity and total probability
  sweep-a    the same walk at several gate-tuning efforts a
  tolerance  steps-within-tolerance table over the whole walk grid
  composite  composite-fidelity gain from raising the native rank bound

Options, after the subcommand, as --name value or --name=value (the last
one given wins; abbreviations are not accepted):
  --config PATH    experiment config file (INI-style)
  --out PATH       write the payload to PATH and the report to stdout
  --format FORMAT  csv (default) or json
  --seedless       no-op: runs are deterministic, there is no seed to set
  -h, --help       print this usage and exit

--help prints a usage line and the two paragraphs above. Configs are
INI-style text (section headers, key = value). Unknown sections and keys,
and keys the subcommand does not read, are rejected.

Each subcommand computes its results once and returns one Output: the
JSON payload's skeleton, its CSV lines under a header and the report
lines. The skeleton's bulky parts are holes: each walk's steps, the
config's angle lists, composite's entries. payload_chunks has
json.dumps(indent=2, sort_keys=True, allow_nan=False) write the skeleton
and fills its holes in document order, straight from the results: each
number's text taken once, each walk step and composite entry filled into
one template per shape and depth, at most WRITE_STEPS walk steps a
chunk, each chunk's numbers formatted in one pass and filled into its
repeated step template in one more. The whole is byte for byte
json.dumps of the payload with every float rounded to 12 significant
digits. CSV goes out at most WRITE_STEPS walk lines a chunk, each
chunk's numbers filled into its repeated line template in one pass.
Only the format asked for is built, and every check, for NaN and
infinities included, runs before the first byte goes out. With
--out the chunks go to that file and the report to stdout; without it
the chunks are printed. Exit codes: 0 success, 1 stdout closed early
(as by a pipe into head) or not writable (as /dev/full), 2 config or
usage error (an unwritable --out path and a bad command line included),
3 unsupported size. Each prints one stderr line, except code 1 for a
closed stdout, which prints none.
"""

from __future__ import annotations

import configparser
import errno
import functools
import gc
import json
import math
import os
import stat
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field, fields, replace

# A walk's largest product, (32x32)(32x16), runs no faster on more BLAS threads, and starting
# OpenBLAS's thread pool costs a fresh process about a third of its time. OpenBLAS reads the
# count once, as numpy loads, so it is set before the first import below that loads numpy.
# setdefault leaves a caller's own setting alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import gates as gatelib
from .circuits import NativeGateSet, WalkSpec, uniform_spec
from .noise import NoiseParams
from .simulate import (
    DEFAULT_COMPARISON_NS,
    DEFAULT_FIDELITY_SETS,
    DEFAULT_TRANSITIONS,
    TOLERANCES,
    RunResult,
    UnsupportedSizeError,
    gate_set_comparison,
    run_noisy,
    steps_within_tolerance,
)

DEFAULT_A_LIST = (0.0, 13.0 / 3, 26.0 / 3, 13.0, 52.0 / 3, 65.0 / 3, 26.0)
# Desk scale: the worst admitted sweep-a (2^6 ring, 1q coin, G(4)) took 35 s at 75 MB RSS in CSV and 40 s at
# 92 MB in JSON (313 MB written), one BLAS thread on a 2-CPU AVX-512 Xeon; see README "Limits".
MAX_STEPS = 10_000
KINDS = ("simulate", "sweep-a", "tolerance", "composite")  # the subcommands, and the values of experiment.kind
FORMATS = ("csv", "json")


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
    gates: NativeGateSet = NativeGateSet()
    a_list: tuple[float, ...] = DEFAULT_A_LIST
    noise: NoiseParams = NoiseParams()
    n_list: tuple[int, ...] = DEFAULT_COMPARISON_NS
    fidelity_sets: tuple[tuple[float, ...], ...] = DEFAULT_FIDELITY_SETS
    transitions: tuple[tuple[int, int], ...] = DEFAULT_TRANSITIONS
    path: str | None = None
    format: str = "csv"
    given: set[str] = field(default_factory=set, init=False, repr=False)  # "section.key" the file sets

    def walk_spec(self) -> WalkSpec:
        for key in ("theta", "phi")[: self.coin_qubits]:
            if len(getattr(self, key)) not in (1, self.steps):
                raise ConfigError(f"bad value for walk.{key}: {len(getattr(self, key))} angles "
                                  f"for {self.steps} steps; give one angle or one per step")
        theta = self.theta if len(self.theta) > 1 else self.theta * self.steps
        phi = self.phi if len(self.phi) > 1 else self.phi * self.steps
        return WalkSpec(position_qubits=self.position_qubits, coin_qubits=self.coin_qubits, theta_schedule=theta,
                        phi_schedule=phi if self.coin_qubits == 2 else None)


def _atom(text: str) -> float:
    text = text.strip()
    if text in ("pi", "+pi", "-pi"):
        return -math.pi if text[0] == "-" else math.pi
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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"cannot parse boolean {text!r}") from None


def _number_list(text: str) -> tuple[float, ...]:
    return tuple(_number(part) for part in text.split(",") if part.strip())


def _effort_list(text: str) -> tuple[float, ...]:
    values = _number_list(text)
    if not values:
        raise ConfigError("a_list must list at least one effort")
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
    if steps < 1:
        raise ConfigError(f"{steps} steps; a walk needs at least one")
    if steps > MAX_STEPS:
        raise ConfigError(f"{steps} steps is above the desk-scale bound {MAX_STEPS}")
    return steps


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text.strip() not in options:
            raise ConfigError(f"invalid choice: {text.strip()!r} (choose from {', '.join(options)})")
        return text.strip()
    return parse


def _path(text: str) -> str:
    if not text.strip():
        raise ConfigError("empty path; leave the key out to write to stdout")
    return text.strip()


def _fidelity_sets(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(_number(v) for v in group.split()) for group in text.split(";") if group.strip())


def _transitions(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in filter(str.strip, text.split(",")):
        ranks = part.split("->")
        if len(ranks) != 2:
            raise ConfigError(f"expected one low->high pair, got {part.strip()!r}")
        pairs.append((int(ranks[0]), int(ranks[1])))
    return tuple(pairs)


def _field_parsers(cls) -> dict:
    """Each field of the dataclass ``cls`` as a config key, parsed by its annotation ("int | None" as int)."""
    parsers = {"int": int, "float": _number, "bool": _boolean}
    return {f.name: parsers[f.type.removesuffix(" | None")] for f in fields(cls)}


# section -> key -> parser. A key sets the ExperimentConfig field of its
# name; a [gates] or [noise] key that is a field of NativeGateSet or
# NoiseParams sets that field of config.gates or config.noise.
_CONFIG_SCHEMA = {
    "experiment": {"kind": _choice(KINDS)},
    "walk": {"position_qubits": int, "coin_qubits": int, "steps": _step_count, "theta": _number_list,
             "phi": _number_list},
    "gates": {**_field_parsers(NativeGateSet), "a_list": _effort_list},
    "noise": _field_parsers(NoiseParams),
    "composite": {"n_list": _integer_list, "fidelity_sets": _fidelity_sets, "transitions": _transitions},
    "output": {"path": _path, "format": _choice(FORMATS)},
}
# Keys are unique across sections, so a key names its section.
_SECTION_OF = {key: section for section, keys in _CONFIG_SCHEMA.items() for key in keys}

# The sections and "section.key" each subcommand reads; main rejects every
# other key a config sets, and walk.phi unless the coin has two qubits.
_READS = {
    "simulate": ("experiment", "output", "walk", "gates.max_rank", "gates.param_a", "noise"),
    "sweep-a": ("experiment", "output", "walk", "gates.max_rank", "gates.a_list", "noise"),
    "tolerance": ("experiment", "output", "walk.steps", "gates.param_a", "noise"),
    "composite": ("experiment", "output", "composite"),
}


def load_config(path: str | os.PathLike[str]) -> ExperimentConfig:
    # A default section no header can spell, so [DEFAULT] is an unknown section, not defaults for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a byte-order mark is not part of the first line
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:  # its message spans lines; errors print on one
        raise ConfigError(f"malformed config {path}: {' '.join(str(exc).split())}") from exc

    config = ExperimentConfig()
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            owner = getattr(config, section, None)  # config.gates or config.noise
            target = section if hasattr(owner, key) else key
            try:
                value = _CONFIG_SCHEMA[section][key](raw)
                if target == section:  # NativeGateSet or NoiseParams checks the value here
                    value = replace(owner, **{key: value})
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
            setattr(config, target, value)
            config.given.add(f"{section}.{key}")
    return config


_fmt = "{:.12g}".format  # a number's text in CSV cells and reports


def _round12(value: float) -> float:
    return float(_fmt(value))


# Stands in for each hole of a payload and each field of a template. Encoded
# it reads _HOLE_TEXT, which no other string in a payload does.
_HOLE = "\x00"
_HOLE_TEXT = '"\\u0000"'
WRITE_STEPS = 512  # walk steps (JSON) or lines (CSV) formatted per chunk of payload text


@dataclass(frozen=True)
class Output:
    """One subcommand's results, built once.

    ``payload`` is the JSON document's skeleton, every float in it rounded
    once by ``_round12``. Its bulky parts are holes: each is a function
    ``fill``, and the value there is the text ``fill(depth)`` yields,
    written at that depth. The CSV table is ``header`` over the text
    ``rows()`` yields, in chunks of whole lines.
    ``report`` holds the lines of the human report.
    """

    payload: dict
    header: tuple[str, ...]
    rows: Callable[[], Iterable[str]]
    report: list[str]


def _json_text(text: str) -> str:
    """``json.dumps`` of the float whose ``.12g`` text is ``text``, the float ``_round12`` gives.

    That is the text, bar the ``.0`` of a whole number, unless it has an
    exponent: then the rounded float's repr is taken, because a
    subnormal's digits do not survive rounding and ``.12g`` writes 1e12 to
    1e16 with an exponent where repr does not.
    """
    return repr(float(text)) if "e" in text else text if "." in text else text + ".0"


def _json_numbers(values: list[float]) -> list[str]:
    """Each finite float as ``json.dumps`` writes it once ``_round12`` has rounded it; one ``.12g`` call."""
    return [_json_text(t) for t in ("%.12g " * len(values) % tuple(values)).split()]


def _items(texts: list[str], depth: int) -> str:
    """The JSON array at ``depth`` whose items' texts are ``texts``, of which there is at least one."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + "  " * depth + "]"


def _json_list(values, depth: int):
    """The text of a list of floats at ``depth``."""
    return (_items(_json_numbers(list(values)), depth),)


def _template(value, depth: int) -> str:
    """printf template of ``value`` written by ``json.dumps`` at ``depth``; each ``_HOLE`` is a ``%s`` field."""
    text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)
    return text.replace("%", "%%").replace(_HOLE_TEXT, "%s")


@functools.cache
def _step_template(position_qubits: int, depth: int) -> str:
    """Template of one walk step at ``depth``.

    Its fields take the step's numbers in document order: fidelity, the
    ideal then the noisy position marginals, scalar factor, step, total
    probability.
    """
    positions = dict.fromkeys((format(i, f"0{position_qubits}b") for i in range(2**position_qubits)), _HOLE)
    step = dict.fromkeys(("fidelity", "scalar_factor", "step", "total_probability"), _HOLE)
    return _template({**step, "ideal_positions": positions, "noisy_positions": positions}, depth)


# A value v with sys.float_info.min <= |v| < _PLAIN_BELOW has a .12g text that is json.dumps's of the rounded
# float: it rounds to no whole number, has no exponent at 1e12 or above, and its digits survive rounding.
_PLAIN_BELOW = 0.99999999999


def _json_steps(result: RunResult, depth: int):
    """The text of a walk's ``steps`` array at ``depth``, WRITE_STEPS steps a chunk.

    A chunk's numbers are stacked into one table, a row per step in the
    template's field order, and formatted in one ``.12g`` pass; the step
    template, repeated once per row, takes the texts in one ``%``. Only
    the texts of values outside the _PLAIN_BELOW range go through
    _json_text: exact zeros (about half the ideal marginals of a
    1-qubit-coin walk, by its parity), subnormals, and values near 1 or
    above. The step column is whole numbers, written as such.
    """
    import numpy as np  # cli imports no numpy at module level

    template = _step_template(result.spec.position_qubits, depth + 1)
    separator = ",\n" + "  " * (depth + 1)
    opening = "[\n" + "  " * (depth + 1)
    for lo in range(0, len(result.fidelities), WRITE_STEPS):
        chunk = slice(lo, lo + WRITE_STEPS)
        steps = min(WRITE_STEPS, len(result.fidelities) - lo)
        table = np.hstack((result.fidelities[chunk, None], result.ideal_positions[chunk],
                           result.noisy_positions[chunk], result.scalar_factor[chunk, None],
                           np.arange(lo + 1.0, lo + steps + 1.0)[:, None], result.total_probability[chunk, None]))
        magnitude = np.abs(table)
        fix = (magnitude < sys.float_info.min) | (magnitude >= _PLAIN_BELOW)
        fix[:, -2] = False
        texts = ("%.12g " * table.size % tuple(table.ravel().tolist())).split()
        for i in np.flatnonzero(fix).tolist():
            texts[i] = _json_text(texts[i])
        yield opening + separator.join([template] * steps) % tuple(texts)
        opening = separator
    yield "\n" + "  " * depth + "]"


@functools.cache
def _entry_template(low_ranks: tuple[int, ...], high_ranks: tuple[int, ...], sets: int, depth: int) -> str:
    """Template of one composite entry of this shape at ``depth``.

    Its fields take, in document order: the counts under G(high), then
    G(low), rank by rank (ranks are single digits, so sorted as their
    keys), the mean increase, each set's f_high, f_low, fidelities text and
    increase, the ring exponent and the transition's text.
    """
    per_set = dict.fromkeys(("f_high", "f_low", "fidelities", "percent_increase"), _HOLE)
    entry = dict.fromkeys(("mean_percent_increase", "position_qubits", "transition"), _HOLE)
    return _template({**entry, "counts_high": dict.fromkeys(map(str, high_ranks), _HOLE),
                      "counts_low": dict.fromkeys(map(str, low_ranks), _HOLE), "per_set": [per_set] * sets}, depth)


def _json_entries(comparison: list[tuple], numbers: list[float], depth: int):
    """The text of composite's ``entries`` array at ``depth``.

    ``numbers`` holds each entry's mean increase and then each set's
    f_high, f_low and increase, entry by entry. Every entry lists the same
    fidelity sets, so each set's text is taken once.
    """
    texts = iter(_json_numbers(numbers))
    sets = [_items(_json_numbers(list(s)), depth + 4) for s, *_ in comparison[0][-1]]
    entries = []
    for n, low, high, counts_low, counts_high, rows in comparison:
        fields = [*counts_high.values(), *counts_low.values(), next(texts)]
        for fidelities in sets:
            fields += (next(texts), next(texts), fidelities, next(texts))
        template = _entry_template(tuple(counts_low), tuple(counts_high), len(rows), depth + 1)
        entries.append(template % (*fields, n, f'"{low}->{high}"'))
    return (_items(entries, depth),)


def _json_chunks(pieces: list[str], holes: list):
    """The JSON text of ``pieces``, the skeleton split at its holes, with each hole filled."""
    for piece, fill in zip(pieces, holes):
        yield piece
        line = piece.rpartition("\n")[2]  # the indented '"key": ' or list item before the hole
        yield from fill((len(line) - len(line.lstrip(" "))) // 2)
    yield pieces[-1]


def _csv_chunks(output: Output):
    """The CSV text: the ``header`` line, then the chunks ``rows()`` yields."""
    yield ",".join(output.header) + "\n"
    yield from output.rows()


def _walk_rows(result: RunResult, lead: tuple = (), tail: tuple = ()):
    """A walk's CSV lines, WRITE_STEPS a chunk: each step, its fidelity and total probability, between the
    walk's constant cells. Those are formatted once, into a line template that one ``%`` fills per chunk."""
    import numpy as np  # cli imports no numpy at module level

    line = "".join(_fmt(c) + "," for c in lead) + "%.12g,%.12g,%.12g" + "".join("," + _fmt(c) for c in tail) + "\n"
    table = np.column_stack((np.arange(1.0, len(result.fidelities) + 1.0), result.fidelities, result.total_probability))
    for lo in range(0, len(table), WRITE_STEPS):
        chunk = table[lo:lo + WRITE_STEPS]
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _finite(result: RunResult) -> RunResult:
    """``result``, checked to hold no NaN or infinity (ValueError if it does)."""
    for name in ("fidelities", "total_probability", "scalar_factor", "ideal_positions", "noisy_positions"):
        values = getattr(result, name)
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
            raise ValueError(f"{name} of a walk holds a value that is not finite")
    return result


def payload_chunks(output: Output, fmt: str):
    """The payload text in ``fmt`` ("json" or "csv"), as an iterator of chunks.

    The subcommands have checked their results; json.dumps checks the
    skeleton here, before the first chunk is built, so a NaN or an
    infinity anywhere raises ValueError first. After that the iterator
    formats at most WRITE_STEPS walk steps or CSV lines per chunk, so the
    text never exists whole. JSON is ``json.dumps(indent=2,
    sort_keys=True, allow_nan=False)`` of the payload with the
    ``_round12``-rounded holes in place, byte for byte: ``json.dumps``
    writes the skeleton, and the holes are filled in document order.
    """
    if fmt != "json":
        return _csv_chunks(output)
    holes = []  # json.dumps meets them in document order
    skeleton = json.dumps(output.payload, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda fill: holes.append(fill) or _HOLE) + "\n"
    return _json_chunks(skeleton.split(_HOLE_TEXT, len(holes)), holes)


def _config_echo(config: ExperimentConfig) -> dict:
    return {
        "position_qubits": config.position_qubits,
        "coin_qubits": config.coin_qubits,
        "steps": config.steps,
        "theta": functools.partial(_json_list, config.theta),
        "phi": functools.partial(_json_list, config.phi) if config.coin_qubits == 2 else None,
        "max_rank": config.gates.max_rank,
        "param_a": None if config.gates.param_a is None else _round12(config.gates.param_a),
        "noise": {key: _round12(v) if isinstance(v, float) else v for key, v in asdict(config.noise).items()},
    }


def cmd_simulate(config: ExperimentConfig) -> Output:
    result = _finite(run_noisy(config.walk_spec(), config.gates, config.noise))
    return Output(
        payload={"kind": "simulate", "config": _config_echo(config), "steps": functools.partial(_json_steps, result)},
        header=("step", "fidelity", "total_probability"),
        rows=functools.partial(_walk_rows, result),
        report=[
            f"walk: {config.coin_qubits}q-coin on {2**config.position_qubits} nodes, "
            f"{config.steps} steps, native max rank {config.gates.max_rank}",
            f"f_1 = {_fmt(result.fidelities[0])}   f_{config.steps} = {_fmt(result.fidelities[-1])}",
            "steps within tolerance: "
            + "  ".join(f"{tol:g}: {steps_within_tolerance(result.fidelities, tol)}" for tol in TOLERANCES),
        ],
    )


def cmd_sweep_a(config: ExperimentConfig) -> Output:
    spec = config.walk_spec()
    gate_sets = [replace(config.gates, param_a=a) for a in config.a_list]  # each checked before the first walk
    walks = []
    for a, gate_set in zip(config.a_list, gate_sets):
        result = _finite(run_noisy(spec, gate_set, config.noise))
        walks.append((result, {
            "a": _round12(a),
            "f_cz": _round12(gatelib.gate_fidelity(gatelib.effective_ckz(1, a), gatelib.ideal_ckz(1))),
            "f_ccz": _round12(gatelib.gate_fidelity(gatelib.effective_ckz(2, a), gatelib.ideal_ckz(2))),
        }))
    return Output(
        payload={"kind": "sweep-a", "config": _config_echo(config),
                 "series": [{**cells, "steps": functools.partial(_json_steps, result)} for result, cells in walks]},
        header=("a", "step", "fidelity", "total_probability", "f_cz", "f_ccz"),
        rows=lambda: (text for result, c in walks
                      for text in _walk_rows(result, (c["a"],), (c["f_cz"], c["f_ccz"]))),
        report=["a        F(CZ(a))      F(CCZ(a))     f_final"]
        + [
            f"{_fmt(c['a']):<8} {_fmt(c['f_cz']):<13} {_fmt(c['f_ccz']):<13} {_fmt(result.fidelities[-1])}"
            for result, c in walks
        ],
    )


def cmd_tolerance(config: ExperimentConfig) -> Output:
    rows = []
    for max_rank in (3, 4):
        gate_set = replace(config.gates, max_rank=max_rank)
        for coin_qubits in (1, 2):
            for position_qubits in (2, 3, 4):
                spec = uniform_spec(position_qubits, coin_qubits, steps=config.steps)
                # No count changes after the first step below the lowest tolerance.
                fidelities = run_noisy(spec, gate_set, config.noise, stop_below=min(TOLERANCES)).fidelities
                rows.append({
                    "max_rank": max_rank,
                    "coin_qubits": coin_qubits,
                    "position_qubits": position_qubits,
                    "steps_within": {_fmt(tol): steps_within_tolerance(fidelities, tol) for tol in TOLERANCES},
                })
    return Output(
        payload={"kind": "tolerance", "config": _config_echo(config), "rows": rows},
        header=("max_rank", "coin_qubits", "position_qubits", "tolerance", "steps_within"),
        rows=lambda: ["".join(f"{row['max_rank']},{row['coin_qubits']},{row['position_qubits']},{tol},{n}\n"
                              for row in rows for tol, n in row["steps_within"].items())],
        report=["rank  coin  nodes  " + "  ".join(f"<={tol:g}" for tol in TOLERANCES)]
        + [
            f"{row['max_rank']:>4}  {row['coin_qubits']:>4}  {2**row['position_qubits']:>5}  "
            + "  ".join(f"{n:6d}" for n in row["steps_within"].values())
            for row in rows
        ],
    )


def _composite_rows(comparison: list[tuple], means: list[float]):
    """composite's CSV lines, an entry a chunk: each set's, then the mean's."""
    for (n, low, high, *_, rows), mean in zip(comparison, means):
        lead = f"{n},{low}->{high},"
        yield "".join(f"{lead}{i},{_fmt(f_low)},{_fmt(f_high)},{_fmt(pct)}\n"
                      for i, (_, f_low, f_high, pct) in enumerate(rows)) + f"{lead}mean,,,{_fmt(mean)}\n"


def cmd_composite(config: ExperimentConfig) -> Output:
    comparison = gate_set_comparison(config.n_list, config.fidelity_sets, config.transitions)
    means = [sum(row[3] for row in rows) / len(rows) for *_, rows in comparison]
    numbers = [x for (*_, rows), mean in zip(comparison, means)  # in the order _json_entries takes them
               for x in (mean, *(v for _, f_low, f_high, pct in rows for v in (f_high, f_low, pct)))]
    if not all(map(math.isfinite, numbers)):
        raise ValueError("a composite fidelity or increase is not finite")
    labels = [str(tuple(map(_round12, s))) for s in config.fidelity_sets]
    report = ["composite fidelity gains (2q-coin walk, per-step gate census)"]
    for (n, low, high, counts_low, counts_high, rows), mean in zip(comparison, means):
        report.append(f"n={n} G({low})->G({high}): counts {counts_low} -> {counts_high}")
        report += [f"  set {label}: f {_fmt(f_low)} -> {_fmt(f_high)}  ({_fmt(pct)}%)"
                   for label, (_, f_low, f_high, pct) in zip(labels, rows)]
        report.append(f"  mean increase: {_fmt(mean)}%")
    return Output(
        payload={
            "kind": "composite",
            "config": {
                "n_list": list(config.n_list),
                "fidelity_sets": [[_round12(f) for f in s] for s in config.fidelity_sets],
                "transitions": [f"{lo}->{hi}" for lo, hi in config.transitions],
            },
            "entries": functools.partial(_json_entries, comparison, numbers),
        },
        header=("position_qubits", "transition", "set_index", "f_low", "f_high", "percent_increase"),
        rows=functools.partial(_composite_rows, comparison, means),
        report=report,
    )


_COMMANDS = dict(zip(KINDS, (cmd_simulate, cmd_sweep_a, cmd_tolerance, cmd_composite)))


class UsageError(Exception):
    """A bad command line; the message is the whole stderr line."""


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    """The subcommand ``argv`` names, and its "config", "out", "format" and "seedless" values."""
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError("ringwalk: error: " + (f"invalid subcommand {argv[0]!r}" if argv else "no subcommand")
                         + f" (choose from {', '.join(_COMMANDS)})")
    command, tokens = argv[0], iter(argv[1:])
    values = {"config": None, "out": None, "format": None, "seedless": False}
    for token in tokens:
        option, given, value = token.partition("=")
        if not option.startswith("--") or option[2:] not in values:
            raise UsageError(f"ringwalk: error: unrecognized argument {token!r}")
        error = f"ringwalk {command}: error: argument {option}: "
        if option == "--seedless":
            if given:
                raise UsageError(error + f"takes no value, got {value!r}")
            value = True
        elif not given and (value := next(tokens, "")).startswith("-") or not value:
            raise UsageError(error + "expected one value")  # missing, empty, or led by "-" without "="
        elif option == "--format" and value not in FORMATS:
            raise UsageError(error + f"invalid choice: {value!r} (choose from {', '.join(FORMATS)})")
        values[option[2:]] = value
    return command, values


def _write_stdout(chunks: Iterable[str]) -> int:
    """Write ``chunks`` to stdout; 0, or 1 if stdout is closed or not writable."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout at devnull, so that the flush at exit does not fail again, and exit 1
        # without a traceback: silently if the reader went away (as head does), else with a line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def _cannot_write(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write output.path {path!r}: {exc.strerror or exc}")


def _check_out_path(path: str) -> None:
    """Raise, before any walk, the error writing to ``path`` would meet if ``path`` is a directory or its
    directory is missing; nothing is created or truncated. Other failures show when the payload is written."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        paragraphs = (__doc__ or "").split("\n\n")[1:3]  # the subcommands and the options
        return _write_stdout(["usage: ringwalk SUBCOMMAND [OPTIONS]\n", *(f"\n{part}\n" for part in paragraphs)])
    try:
        command, args = parse_argv(argv)
        config = load_config(args["config"]) if args["config"] else ExperimentConfig()
        if config.kind is not None and config.kind != command:
            raise ConfigError(f"experiment.kind {config.kind!r} does not match subcommand {command!r}")
        reads = _READS[command]
        unread = sorted(key for key in config.given if key not in reads and key.partition(".")[0] not in reads
                        or key == "walk.phi" and config.coin_qubits != 2)
        if unread:
            raise ConfigError(f"{command} does not read {', '.join(unread)}")
        config.path = args["out"] or config.path
        config.format = args["format"] or config.format
        if config.path:
            _check_out_path(config.path)
        output = _COMMANDS[command](config)
        chunks = payload_chunks(output, config.format)
        if config.path:
            try:
                with open(config.path, "w", encoding="utf-8") as handle:
                    handle.writelines(chunks)
            except OSError as exc:
                raise _cannot_write(config.path, exc) from exc
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except UnsupportedSizeError as exc:
        print(f"unsupported size: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        # WalkSpec and gate_set_comparison begin each message with the argument (= key) they reject.
        message = str(exc)
        key = message.partition(" ")[0]
        if key in _SECTION_OF and not isinstance(exc, ConfigError):
            message = f"bad value for {_SECTION_OF[key]}.{key}: {message}"
        print(f"config error: {message}", file=sys.stderr)
        return 2
    if config.path:
        return _write_stdout(["\n".join(output.report) + f"\nwrote {config.path}\n"])
    return _write_stdout(chunks)


# What the imports made lives until exit. Frozen, no later collection walks it, so the first
# generation-1 pass stays cheap wherever the allocation count puts it.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
