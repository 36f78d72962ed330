"""Spans around the calls into each ringwalk layer, recorded from outside.

The tracer replaces names where their callers look them up, so nothing
under ``src/`` changes:

* ``ringwalk.simulate``: ``apply_gate``, ``scale_amplitudes`` and
  ``marginal_probabilities`` (statevector layer), ``build_step_circuit``
  and ``count_multiqubit_gates`` (circuits layer), and the module's own
  ``run_ideal`` and ``hellinger_fidelity``. ``simulate`` binds these with
  ``from .x import y``, so patching the defining module would miss them.
* ``ringwalk.cli``: ``run_noisy``, ``gate_set_comparison`` and
  ``load_config``, and every entry of ``_COMMANDS`` (the ``cmd_*``
  functions, whose self time is the output formatting).
* ``ringwalk.noise``: the public ``*_factor`` functions (``wait_error``
  runs inside them).
* ``ringwalk.gates``: every public function; callers reach them as module
  attributes.

A span is (name, start, end, parent, invocation id), timed in process CPU
seconds. Spans live in flat arrays while the benchmark runs and are written
out at the end. A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import time
from array import array
from collections import Counter
from functools import wraps


class CountsDiffer(Exception):
    """Counts that must repeat exactly did not."""


def _assign(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Installs the wrappers and records spans and per-invocation counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.invocation = array("q")
        self.invocation_ranges: list[tuple[int, int]] = []
        self.observed: list[Counter] = []
        self.distinct: list[dict[str, set]] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        clock = time.process_time
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1])
            self.invocation.append(len(self.invocation_ranges) - 1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self.observed[-1], self.distinct[-1], index, args, result)
            return result

        return traced

    def _patch(self, owner, key: str, name: str, observe=None) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) with a traced wrapper."""
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._patches.append((owner, key, original))
        _assign(owner, key, self._wrap(name, original, observe))

    def install(self) -> None:
        import ringwalk.cli as cli
        import ringwalk.gates as gates
        import ringwalk.noise as noise
        import ringwalk.simulate as simulate
        from ringwalk.circuits import MoveMarker

        def observe_gate(counts, distinct, index, args, result):
            counts["apply_gate.amplitudes"] += 2 ** args[0].qubit_count

        def observe_circuit(counts, distinct, index, args, result):
            moves = sum(isinstance(op, MoveMarker) for op in result.ops)
            counts["step_circuit.moves"] += moves
            counts["step_circuit.gates"] += len(result.ops) - moves
            # The coin angles are the only thing that differs between steps
            # of one walk, so the structure is the circuit without them.
            distinct["step_circuit"].add(
                (result.qubit_count, tuple(None if isinstance(op, MoveMarker) else (op.label, op.targets) for op in result.ops))
            )

        def observe_ideal(counts, distinct, index, args, result):
            distinct["run_ideal"].add(args[0])

        self._patch(simulate, "apply_gate", "statevector.apply_gate", observe_gate)
        self._patch(simulate, "scale_amplitudes", "statevector.scale_amplitudes")
        self._patch(simulate, "marginal_probabilities", "statevector.marginal_probabilities")
        self._patch(simulate, "build_step_circuit", "circuits.build_step_circuit", observe_circuit)
        self._patch(simulate, "count_multiqubit_gates", "circuits.count_multiqubit_gates")
        self._patch(simulate, "run_ideal", "simulate.run_ideal", observe_ideal)
        self._patch(simulate, "hellinger_fidelity", "simulate.hellinger_fidelity")
        self._patch(cli, "run_noisy", "simulate.run_noisy")
        self._patch(cli, "gate_set_comparison", "simulate.gate_set_comparison")
        self._patch(cli, "load_config", "cli.load_config")
        for module, wanted in ((noise, lambda n: n.endswith("_factor")), (gates, lambda n: True)):
            layer = module.__name__.rpartition(".")[2]
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not fname.startswith("_") and wanted(fname):
                    self._patch(module, fname, f"{layer}.{fname}")
        for key in list(cli._COMMANDS):
            self._patch(cli._COMMANDS, key, f"cli.{cli._COMMANDS[key].__name__}")

    def uninstall(self) -> None:
        while self._patches:
            _assign(*self._patches.pop())

    def invoke(self, fn):
        """Run ``fn`` as one invocation under a root span named cli.main."""
        first = len(self.start)
        self.observed.append(Counter())
        self.distinct.append({"step_circuit": set(), "run_ideal": set()})
        self.invocation_ranges.append((first, first))
        try:
            return self._wrap("cli.main", fn)()
        finally:
            self.invocation_ranges[-1] = (first, len(self.start))

    # -- analysis ----------------------------------------------------------

    def summary(self, invocation: int) -> dict:
        """Per span name: calls, inclusive and self seconds for one invocation."""
        lo, hi = self.invocation_ranges[invocation]
        children = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                children[p - lo] += self.end[i] - self.start[i]
        table: dict[str, list] = {}
        for i in range(lo, hi):
            duration = self.end[i] - self.start[i]
            row = table.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - children[i - lo]
        # The parent span decides whether a gate belongs to the ideal
        # reference walk or to the noisy run.
        gate_id = self._name_ids.get("statevector.apply_gate")
        ideal_id = self._name_ids.get("simulate.run_ideal")
        for mode in ("ideal", "noisy"):
            table[f"statevector.apply_gate.{mode}"] = [0, 0.0, 0.0]
        for i in range(lo, hi):
            if self.name_id[i] == gate_id:
                p = self.parent[i]
                row = table["statevector.apply_gate.ideal" if p >= 0 and self.name_id[p] == ideal_id
                            else "statevector.apply_gate.noisy"]
                row[0] += 1
                row[1] += self.end[i] - self.start[i]
                row[2] += self.end[i] - self.start[i] - children[i - lo]
        return table

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("invocation,span,name,parent,start,end\n")
            for i in range(len(self.start)):
                handle.write(f"{self.invocation[i]},{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                             f"{self.start[i]!r},{self.end[i]!r}\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, cold: int, warm: list[int], output_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics: (exact counts, median self times) over warm invocations.

    ``gates.*`` come from the cold invocation, the only one that builds the
    gate matrices before the lru caches hold them. Counts must be identical
    across warm invocations; a mismatch raises.
    """
    counts_per_invocation = []
    times_per_invocation = []
    for inv in warm:
        table = tracer.summary(inv)
        observed = tracer.observed[inv]
        distinct = tracer.distinct[inv]

        def calls(name):
            return table.get(name, [0, 0.0, 0.0])[0]

        def self_s(*names):
            return sum(row[2] for n, row in table.items() if n in names)

        factor_names = [n for n in table if n.startswith("noise.") and n.endswith("_factor")]
        cmd_names = [n for n in table if n.startswith("cli.cmd_")]
        step_calls = calls("circuits.build_step_circuit")
        ideal_calls = calls("simulate.run_ideal")
        amplitudes = observed["apply_gate.amplitudes"]
        counts_per_invocation.append({
            "statevector.apply_gate.noisy.calls": calls("statevector.apply_gate.noisy"),
            "statevector.apply_gate.ideal.calls": calls("statevector.apply_gate.ideal"),
            "statevector.apply_gate.computed_bytes": 2 * 16 * amplitudes,
            "statevector.scale_amplitudes.calls": calls("statevector.scale_amplitudes"),
            "noise.factor.calls": sum(calls(n) for n in factor_names),
            "circuits.build_step_circuit.calls": step_calls,
            "circuits.build_step_circuit.useful_ratio": _ratio(len(distinct["step_circuit"]), step_calls),
            "circuits.native_gates_per_step": _ratio(observed["step_circuit.gates"], step_calls),
            "circuits.moves_per_step": _ratio(observed["step_circuit.moves"], step_calls),
            "simulate.run_ideal.calls": ideal_calls,
            "simulate.run_ideal.useful_ratio": _ratio(len(distinct["run_ideal"]), ideal_calls),
            "cli.output_bytes": output_bytes,
        })
        times_per_invocation.append({
            "statevector.apply_gate.noisy.self_s": self_s("statevector.apply_gate.noisy"),
            "statevector.apply_gate.ideal.self_s": self_s("statevector.apply_gate.ideal"),
            "statevector.apply_gate.ns_per_amplitude": _ratio(1e9 * self_s("statevector.apply_gate"), amplitudes),
            "statevector.scale_amplitudes.self_s": self_s("statevector.scale_amplitudes"),
            "noise.factor.self_s": self_s(*factor_names),
            "circuits.build_step_circuit.self_s": self_s("circuits.build_step_circuit"),
            "simulate.run_ideal.incl_s": table.get("simulate.run_ideal", [0, 0.0, 0.0])[1],
            "statevector.marginal_probabilities.self_s": self_s("statevector.marginal_probabilities"),
            "simulate.hellinger_fidelity.self_s": self_s("simulate.hellinger_fidelity"),
            "cli.format.self_s": self_s(*cmd_names),
            "circuits.count_multiqubit_gates.self_s": self_s("circuits.count_multiqubit_gates"),
            "simulate.gate_set_comparison.self_s": self_s("simulate.gate_set_comparison"),
            "cli.load_config.self_s": self_s("cli.load_config"),
            "simulate.run_noisy.self_s": self_s("simulate.run_noisy"),
        })
    for other in counts_per_invocation[1:]:
        if other != counts_per_invocation[0]:
            raise CountsDiffer(f"exact counts differ between traced invocations: {counts_per_invocation[0]} vs {other}")

    cold_table = tracer.summary(cold)
    gate_rows = [row for name, row in cold_table.items() if name.startswith("gates.")]
    counts = dict(counts_per_invocation[0])
    counts["gates.calls"] = sum(row[0] for row in gate_rows)
    times = {key: statistics.median(t[key] for t in times_per_invocation) for key in times_per_invocation[0]}
    times["gates.self_s"] = sum(row[2] for row in gate_rows)
    return counts, times


def count_work(call) -> tuple[int, int, object]:
    """Walk steps and native gate applications of one invocation of ``call``.

    ``run_noisy`` is wrapped only to record which walks the invocation runs;
    their step circuits are then compiled again here, outside any timed
    region, and their gate applications counted. The composite census runs
    no walk: its steps are the one-step census calls and its gates the
    gates they count.
    """
    import ringwalk.cli as cli
    import ringwalk.simulate as simulate
    from ringwalk.circuits import GateApplication, build_step_circuit

    walks, census = [], []
    run_noisy, count_gates = cli.run_noisy, simulate.count_multiqubit_gates

    def recording_run(spec, gate_set, *rest, **kwargs):
        walks.append((spec, gate_set))
        return run_noisy(spec, gate_set, *rest, **kwargs)

    def recording_count(*args, **kwargs):
        census.append(count_gates(*args, **kwargs))
        return census[-1]

    cli.run_noisy, simulate.count_multiqubit_gates = recording_run, recording_count
    try:
        result = call()
    finally:
        cli.run_noisy, simulate.count_multiqubit_gates = run_noisy, count_gates
    if not walks:
        return len(census), sum(sum(c.values()) for c in census), result
    gates = sum(
        isinstance(op, GateApplication)
        for spec, gate_set in walks
        for t in range(spec.steps)
        for op in build_step_circuit(spec, gate_set, t).ops
    )
    return sum(spec.steps for spec, _ in walks), gates, result
