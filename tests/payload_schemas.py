"""JSON schemas of the four subcommands' payloads, keyed by subcommand.

Each requires the payload's kind, its config echo, its array of results
and every field of a result; a walk step's fidelity, total probability
and scalar factor must lie in [0, 1].
"""


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
