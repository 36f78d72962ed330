"""Reference writers for the payloads: dicts of rounded numbers, then encoded.

This is how the CLI wrote its payloads before it filled templates:
every float rounded to 12 significant digits through ``round12`` into
one dict per walk step (``step_rows``) and per composite entry and set
(``composite_payload``), the JSON document encoded by ``json.dumps`` and
the CSV table joined from records, each cell looked up by its column
name. The CLI's writer must produce the same bytes.
"""

import json

from ringwalk.simulate import gate_set_comparison


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


def composite_payload(n_list, fidelity_sets, transitions) -> tuple[dict, list[dict], list[str]]:
    """composite's JSON payload, CSV records and report lines."""
    entries = []
    rows = []
    report = ["composite fidelity gains (2q-coin walk, per-step gate census)"]
    for n, low, high, counts_low, counts_high, set_rows in gate_set_comparison(n_list, fidelity_sets, transitions):
        per_set = [
            {
                "fidelities": [round12(f) for f in s],
                "f_low": round12(f_low),
                "f_high": round12(f_high),
                "percent_increase": round12(pct),
            }
            for s, f_low, f_high, pct in set_rows
        ]
        key = {"position_qubits": n, "transition": f"{low}->{high}"}
        mean = round12(sum(row[3] for row in set_rows) / len(set_rows))
        entries.append(
            {
                **key,
                "counts_low": {str(r): c for r, c in counts_low.items()},
                "counts_high": {str(r): c for r, c in counts_high.items()},
                "per_set": per_set,
                "mean_percent_increase": mean,
            }
        )
        rows += [{**key, "set_index": i, **s} for i, s in enumerate(per_set)]
        rows.append({**key, "set_index": "mean", "percent_increase": mean})
        report.append(f"n={n} G({low})->G({high}): counts {counts_low} -> {counts_high}")
        report += [
            f"  set {tuple(s['fidelities'])}: f {fmt(s['f_low'])} -> {fmt(s['f_high'])}  "
            f"({fmt(s['percent_increase'])}%)"
            for s in per_set
        ]
        report.append(f"  mean increase: {fmt(mean)}%")
    payload = {
        "kind": "composite",
        "config": {
            "n_list": list(n_list),
            "fidelity_sets": [[round12(f) for f in s] for s in fidelity_sets],
            "transitions": [f"{lo}->{hi}" for lo, hi in transitions],
        },
        "entries": entries,
    }
    return payload, rows, report
