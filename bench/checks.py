"""Correctness checks for the payloads the benchmark's CLI invocations write.

Every output is checked against properties that hold for any seed:

* ideal position marginals equal a small analytic ring walk kept here (a
  coin matrix, then an ``np.roll`` of each coin column), which shares no
  code with the simulator;
* fidelities, total probabilities and scalar factors lie in [0, 1], each
  per-step fidelity equals the Hellinger form recomputed from the two
  printed position tables, and the noisy table sums to the total
  probability;
* seed-independent numbers (gate fidelities of the sweep, gate census of
  the composite table) match the committed reference, and composite
  fidelities equal the product recomputed from the census;
* the tolerance table has the full grid, integer step counts within the
  walk length, and step counts that never grow as the tolerance tightens.

The reference invocation (seed 0, the published defaults) is also compared
number by number with the committed file under ``reference/``: floats
within 1e-9, integers and strings exactly. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

import numpy as np

TOLERANCE = 1e-9

_INT = re.compile(r"^-?\d+$")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def parse(text: str, fmt: str) -> Any:
    """Payload text as JSON, or CSV as a list of rows of int/float/str cells."""
    if fmt == "json":
        return json.loads(text)
    rows = []
    for line in text.splitlines():
        cells: list[Any] = []
        for cell in line.split(","):
            if _INT.match(cell):
                cells.append(int(cell))
                continue
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def compare(out: Any, ref: Any, path: str = "$") -> list[str]:
    """Structural comparison: floats within 1e-9, everything else exact."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ from the reference"]
        return [p for key in ref for p in compare(out[key], ref[key], f"{path}.{key}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length differs from the reference"]
        return [p for i, (o, r) in enumerate(zip(out, ref)) for p in compare(o, r, f"{path}[{i}]")]
    if isinstance(ref, float):
        ok = isinstance(out, (int, float)) and not isinstance(out, bool) and close(out, ref)
        return [] if ok else [f"{path}: {out!r} != reference {ref!r}"]
    ok = type(out) is type(ref) and out == ref
    return [] if ok else [f"{path}: {out!r} != reference {ref!r}"]


def perturb(ref: Any, path: tuple) -> Any:
    """Copy of a parsed reference with the float at ``path`` moved by 1e-6."""
    copy = json.loads(json.dumps(ref))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1e-6
    return copy


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def analytic_positions(position_qubits: int, coin_qubits: int, thetas, phis) -> list[dict[str, float]]:
    """Ideal position distribution after each step of the coined ring walk.

    The state is a (nodes, coin values) array started at node 0, coin 0.
    A step applies RY(theta) to the first coin qubit (and RY(phi) to the
    second for the lazy walk), then rolls each coin column around the
    ring: the 1-qubit coin moves down on 0 and up on 1; the lazy coin
    (c1, c2) rests on c2 = 0 and otherwise moves up if c1 = 1, down if 0.
    """
    nodes = 2**position_qubits
    coin_values = 2**coin_qubits
    if coin_qubits == 1:
        moves = (-1, 1)
    else:
        moves = tuple(0 if c % 2 == 0 else (1 if c // 2 == 1 else -1) for c in range(coin_values))
    psi = np.zeros((nodes, coin_values))
    psi[0, 0] = 1.0
    tables = []
    for t, theta in enumerate(thetas):
        coin = _ry(theta) if coin_qubits == 1 else np.kron(_ry(theta), _ry(phis[t]))
        psi = psi @ coin.T
        psi = np.stack([np.roll(psi[:, c], moves[c]) for c in range(coin_values)], axis=1)
        probs = np.sum(psi**2, axis=1)
        tables.append({format(x, f"0{position_qubits}b"): float(probs[x]) for x in range(nodes)})
    return tables


def _unit_interval(value: Any) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _hellinger(p: dict[str, float], q: dict[str, float]) -> float:
    h2 = 0.5 * sum((math.sqrt(p[k]) - math.sqrt(q[k])) ** 2 for k in p)
    return (1.0 - h2) ** 2


def check_steps(steps: Any, inputs: dict, where: str) -> list[str]:
    """Per-step rows of one noisy walk (simulate, or one sweep series)."""
    expected = analytic_positions(inputs["position_qubits"], inputs["coin_qubits"], inputs["theta"], inputs["phi"])
    if not isinstance(steps, list) or len(steps) != len(expected):
        return [f"{where}: expected {len(expected)} step rows"]
    problems = []
    for t, (row, ideal) in enumerate(zip(steps, expected)):
        at = f"{where}[{t}]"
        if row.get("step") != t + 1:
            problems.append(f"{at}: step number {row.get('step')!r}")
        for key in ("fidelity", "total_probability", "scalar_factor"):
            if not _unit_interval(row.get(key)):
                problems.append(f"{at}: {key} {row.get(key)!r} outside [0, 1]")
        got_ideal, noisy = row.get("ideal_positions"), row.get("noisy_positions")
        if not isinstance(got_ideal, dict) or set(got_ideal) != set(ideal) or not isinstance(noisy, dict) or set(noisy) != set(ideal):
            problems.append(f"{at}: position tables do not cover the ring")
            continue
        wrong = [f"{at}: ideal P({k}) = {got_ideal[k]!r}, analytic {ideal[k]!r}" for k in ideal if not close(got_ideal[k], ideal[k])]
        if any(v < 0 for v in noisy.values()):
            wrong.append(f"{at}: negative noisy probability")
        problems += wrong
        if wrong:
            continue
        if not close(_hellinger(got_ideal, noisy), row["fidelity"]):
            problems.append(f"{at}: fidelity {row['fidelity']!r} disagrees with the printed tables")
        if not close(sum(noisy.values()), row["total_probability"]):
            problems.append(f"{at}: noisy positions do not sum to total_probability")
    return problems


def _check_echo(config: Any, inputs: dict) -> list[str]:
    problems = []
    for key in ("theta", "phi"):
        want = inputs[key]
        got = config.get(key) if isinstance(config, dict) else None
        if want is None:
            continue
        if not isinstance(got, list) or len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
            problems.append(f"config.{key} does not echo the input schedule")
    return problems


def check_simulate(payload: Any, inputs: dict, reference: Any) -> list[str]:
    if payload.get("kind") != "simulate":
        return ["kind is not simulate"]
    return _check_echo(payload.get("config"), inputs) + check_steps(payload.get("steps"), inputs, "steps")


def check_sweep(payload: Any, inputs: dict, reference: Any) -> list[str]:
    if payload.get("kind") != "sweep-a":
        return ["kind is not sweep-a"]
    series, ref_series = payload.get("series"), reference["series"]
    if not isinstance(series, list) or len(series) != len(ref_series):
        return [f"expected {len(ref_series)} sweep series"]
    problems = _check_echo(payload.get("config"), inputs)
    for i, (entry, ref) in enumerate(zip(series, ref_series)):
        # The efforts and the gate fidelities they give do not depend on the seed.
        problems += compare({k: entry.get(k) for k in ("a", "f_cz", "f_ccz")},
                            {k: ref[k] for k in ("a", "f_cz", "f_ccz")}, f"series[{i}]")
        problems += check_steps(entry.get("steps"), inputs, f"series[{i}].steps")
    return problems


def check_tolerance(rows: Any, inputs: dict, reference: Any) -> list[str]:
    if not rows or rows[0] != reference[0]:
        return ["tolerance CSV header differs"]
    body = rows[1:]
    grid = [(r, c, p, tol) for r in (3, 4) for c in (1, 2) for p in (2, 3, 4) for tol in (0.99, 0.999, 0.9999)]
    if len(body) != len(grid):
        return [f"expected {len(grid)} tolerance rows, got {len(body)}"]
    problems = []
    for i, (row, key) in enumerate(zip(body, grid)):
        if len(row) != 5 or tuple(row[:3]) != key[:3] or not close(row[3], key[3]):
            problems.append(f"row {i + 1}: expected grid point {key}")
            continue
        if type(row[4]) is not int or not 0 <= row[4] <= inputs["steps"]:
            problems.append(f"row {i + 1}: steps_within {row[4]!r} outside [0, {inputs['steps']}]")
        elif i % 3 and row[4] > body[i - 1][4]:
            problems.append(f"row {i + 1}: steps_within grows as the tolerance tightens")
    return problems


def check_composite(payload: Any, inputs: dict, reference: Any) -> list[str]:
    if payload.get("kind") != "composite":
        return ["kind is not composite"]
    entries, ref_entries = payload.get("entries"), reference["entries"]
    if not isinstance(entries, list) or len(entries) != len(ref_entries):
        return [f"expected {len(ref_entries)} composite entries"]
    sets = inputs["fidelity_sets"]
    problems = []
    for i, (entry, ref) in enumerate(zip(entries, ref_entries)):
        at = f"entries[{i}]"
        # The census depends only on the ring size and the transition.
        keys = ("position_qubits", "transition", "counts_low", "counts_high")
        census = compare({k: entry.get(k) for k in keys}, {k: ref[k] for k in keys}, at)
        problems += census
        per_set = entry.get("per_set")
        if census:
            continue
        if not isinstance(per_set, list) or len(per_set) != len(sets):
            problems.append(f"{at}: expected {len(sets)} fidelity sets")
            continue
        percents = []
        for j, (row, fids) in enumerate(zip(per_set, sets)):
            by_rank = {3: fids[0], 4: fids[1], 5: fids[2]}
            f_low = math.prod(by_rank[int(r)] ** c for r, c in entry["counts_low"].items())
            f_high = math.prod(by_rank[int(r)] ** c for r, c in entry["counts_high"].items())
            pct = (f_high - f_low) / f_low * 100.0
            percents.append(pct)
            problems += compare(row, {"fidelities": list(fids), "f_low": f_low, "f_high": f_high,
                                      "percent_increase": pct}, f"{at}.per_set[{j}]")
            if not (_unit_interval(row.get("f_low")) and _unit_interval(row.get("f_high"))):
                problems.append(f"{at}.per_set[{j}]: composite fidelity outside [0, 1]")
        problems += compare(entry.get("mean_percent_increase"), sum(percents) / len(percents), f"{at}.mean_percent_increase")
    return problems
