"""Reference writer for the walk payloads: a dict per step, rounded, then encoded.

This is how the CLI wrote ``simulate`` and ``sweep-a`` payloads before it
wrote them straight from the result arrays: every float rounded to 12
significant digits through ``round12`` into one dict per step
(``step_rows``), the JSON document encoded by ``json.dumps`` and the CSV
table joined from records, each cell looked up by its column name. The
CLI's writer must produce the same bytes.
"""

import json


def fmt(value) -> str:
    return f"{value:.12g}"


def round12(value: float) -> float:
    return float(fmt(value))


def step_rows(result) -> list[dict]:
    keys = [format(i, f"0{result.spec.position_qubits}b") for i in range(result.spec.node_count)]
    columns = (result.fidelities, result.total_probability, result.scalar_factor,
               result.ideal_positions, result.noisy_positions)
    return [
        {"step": t + 1, "fidelity": round12(f), "total_probability": round12(p), "scalar_factor": round12(s),
         "ideal_positions": dict(zip(keys, map(round12, ideal))),
         "noisy_positions": dict(zip(keys, map(round12, noisy)))}
        for t, (f, p, s, ideal, noisy) in enumerate(zip(*(column.tolist() for column in columns)))
    ]


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(header, rows: list[dict]) -> str:
    lines = [header] + [[row.get(column, "") for column in header] for row in rows]
    return "\n".join(",".join(c if isinstance(c, str) else fmt(c) for c in line) for line in lines) + "\n"
