"""ringwalk benchmark: CLI workloads timed end to end, and a traced run per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

Each workload drives ``ringwalk.cli.main(argv)`` in this process as a
closed loop with one client: the next invocation starts only when the
previous one has returned. The payload goes to an ``--out`` file and stdout
is captured. The program is imported from ``src/`` of the checkout the
script sits in, never from an installed copy, and BLAS runs one thread
(set below, before numpy loads), so a timing is one core's work.

``--trace 0`` reports the end-to-end metrics: warm invocation time (p50 and
p90, at least 110 samples so that ten or more lie above the p90), walk
steps and native gate applications per second, and, from fresh
interpreters, set-up time, the cold first invocation and peak memory.
``--trace 1`` wraps each layer's public functions from outside (see
``tracing.py``) and reports per-layer counts and self times, plus the
tracing overhead. Metric names and units come from ``BENCHMARK.json``.

Times are CPU seconds of the process doing the work, scaled by a
calibration kernel timed beside each measurement (see ``calibration.py``),
because the host's speed drifts by up to a factor of two under other
tenants' load. Unscaled CPU and wall-clock times go to the result file. Every invocation's output is checked (see ``checks.py``);
each run also makes one invocation with the seed-0 inputs and compares it
with the committed ``reference/`` file. ``--perturb-reference`` moves one
reference number by 1e-6 to show that the comparison catches it.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A fuller record, with the environment, goes to ``results/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import calibration
import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
RESULTS_DIR = BENCH_DIR / "results"

REFERENCE_SEED = 0
MIN_SAMPLES = 110  # nearest-rank p90 of 110 samples has 11 above it
FRESH_PROCESSES = 10
MAX_TRACED_SPANS = 600_000
FRESH_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


# -- workloads -------------------------------------------------------------
#
# Seed 0 gives the published defaults (uniform pi/2 coins, default noise and
# fidelity sets); the committed reference outputs belong to it. Other seeds
# draw the coin schedules, noise rates or fidelity sets. No seed changes the
# amount of work, so timings are comparable across seeds.


def _walk_inputs(position_qubits: int, coin_qubits: int, steps: int) -> Callable[[int], dict]:
    def make(seed: int) -> dict:
        rng = random.Random(seed)

        def schedule():
            if seed == REFERENCE_SEED:
                return [math.pi / 2] * steps
            return [rng.uniform(0.0, math.pi) for _ in range(steps)]

        theta = schedule()
        return {"position_qubits": position_qubits, "coin_qubits": coin_qubits, "steps": steps,
                "theta": theta, "phi": schedule() if coin_qubits == 2 else None}

    return make


def _walk_config(kind: str) -> Callable[[dict], str]:
    def text(inputs: dict) -> str:
        lines = ["[experiment]", f"kind = {kind}", "[walk]",
                 f"position_qubits = {inputs['position_qubits']}",
                 f"coin_qubits = {inputs['coin_qubits']}",
                 f"steps = {inputs['steps']}",
                 "theta = " + ",".join(map(repr, inputs["theta"]))]
        if inputs["phi"] is not None:
            lines.append("phi = " + ",".join(map(repr, inputs["phi"])))
        lines += ["[gates]", "max_rank = 3", "[output]", "format = json"]
        return "\n".join(lines) + "\n"

    return text


# The longest steps-within-tolerance prefix at the default noise is 7 steps,
# so 8 steps print the same table as the default 21 at 8/21 of the cost.
TOLERANCE_STEPS = 8


def _tolerance_inputs(seed: int) -> dict:
    if seed == REFERENCE_SEED:
        return {"steps": TOLERANCE_STEPS, "eps_init": 0.003, "eps_read": 0.0017, "t1_seconds": 4.0}
    rng = random.Random(seed)
    return {"steps": TOLERANCE_STEPS, "eps_init": 0.003 * rng.uniform(0.5, 1.5),
            "eps_read": 0.0017 * rng.uniform(0.5, 1.5), "t1_seconds": 4.0 * rng.uniform(0.5, 1.5)}


def _tolerance_config(inputs: dict) -> str:
    return (f"[experiment]\nkind = tolerance\n[walk]\nsteps = {inputs['steps']}\n"
            f"[noise]\neps_init = {inputs['eps_init']!r}\neps_read = {inputs['eps_read']!r}\n"
            f"t1_seconds = {inputs['t1_seconds']!r}\n[output]\nformat = csv\n")


COMPOSITE_SIZES = tuple(range(2, 21))


def _composite_inputs(seed: int) -> dict:
    if seed == REFERENCE_SEED:
        sets = [[0.993, 0.992, 0.991], [0.999, 0.995, 0.99], [0.99993, 0.99992, 0.99991]]
    else:
        rng = random.Random(seed)
        sets = []
        for _ in range(3):
            f3 = 1.0 - 10 ** rng.uniform(-5.0, -2.0)
            f4 = f3 * (1.0 - 10 ** rng.uniform(-5.0, -2.5))
            sets.append([f3, f4, f4 * (1.0 - 10 ** rng.uniform(-5.0, -2.5))])
    return {"fidelity_sets": sets}


def _composite_config(inputs: dict) -> str:
    sets = "; ".join(" ".join(map(repr, s)) for s in inputs["fidelity_sets"])
    return (f"[experiment]\nkind = composite\n[composite]\nn_list = {','.join(map(str, COMPOSITE_SIZES))}\n"
            f"fidelity_sets = {sets}\n[output]\nformat = json\n")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    fmt: str
    inputs: Callable[[int], dict]
    config: Callable[[dict], str]
    check: Callable
    perturb_path: tuple  # one fidelity in the reference (for tolerance, its threshold column)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's table: 12 noisy walks on 3 to 9 qubits, mixed sizes; run_ideal
        # repeats for half of them. CSV output of 36 rows, so formatting is cheap.
        Workload("tolerance-grid", "tolerance", "csv", _tolerance_inputs, _tolerance_config,
                 checks.check_tolerance, (1, 3)),
        # Lazy 2-qubit-coin walk on 16 nodes at max rank 3: 9 qubits, the largest
        # state the program allows. Seven efforts share one circuit structure and
        # one ideal reference.
        Workload("sweep-lazy16", "sweep-a", "json", _walk_inputs(4, 2, 4), _walk_config("sweep-a"),
                 checks.check_sweep, ("series", 0, "steps", 0, "fidelity")),
        # 1-qubit-coin walk on 4 nodes (3 qubits) for many steps: per-gate cost is
        # interpreter overhead, and per-step readout and formatting take their
        # largest share.
        Workload("simulate-long-small", "simulate", "json", _walk_inputs(2, 1, 150), _walk_config("simulate"),
                 checks.check_simulate, ("steps", 0, "fidelity")),
        # Gate census for rings of 2^2 to 2^20 nodes: touches no state, so every
        # executor optimisation should leave it unchanged.
        Workload("composite-census", "composite", "json", _composite_inputs, _composite_config,
                 checks.check_composite, ("entries", 0, "per_set", 0, "f_low")),
    )
}


# -- invocations and their checks -------------------------------------------


class Verifier:
    """Checks each invocation and tallies attempts and failures."""

    def __init__(self, workload: Workload, inputs: dict, reference, compare_to=None):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.compare_to = compare_to
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._last: tuple[bytes, list[str]] | None = None

    def problems_in(self, data: bytes) -> list[str]:
        if self._last is not None and self._last[0] == data:
            return self._last[1]
        try:
            payload = checks.parse(data.decode("utf-8"), self.workload.fmt)
            found = self.workload.check(payload, self.inputs, self.reference)
            if self.compare_to is not None:
                found += checks.compare(payload, self.compare_to)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            found = [f"unreadable payload: {type(exc).__name__}: {exc}"]
        self._last = (data, found)
        return found

    def record(self, code, stdout: str, out_path: Path) -> None:
        self.attempted += 1
        if code != 0:
            found = [f"invocation ended with {code}"]
        elif not stdout.endswith(f"wrote {out_path}\n"):
            found = ["stdout does not report the output file"]
        else:
            found = self.problems_in(out_path.read_bytes())
        if found:
            self.failed += 1
            self.problems.extend(found[: max(0, 5 - len(self.problems))])


def check_the_check(workload: Workload, reference, reference_bytes: bytes) -> None:
    """The check must pass the reference file itself and catch a 1e-6 change."""
    inputs = workload.inputs(REFERENCE_SEED)
    problems = Verifier(workload, inputs, reference, reference).problems_in(reference_bytes)
    if problems:
        raise BenchmarkError(f"the reference fails its own check: {problems[:3]}")
    perturbed = checks.perturb(reference, workload.perturb_path)
    if not Verifier(workload, inputs, reference, perturbed).problems_in(reference_bytes):
        raise BenchmarkError("the check does not catch a reference number moved by 1e-6")


class Outcome(NamedTuple):
    cpu_s: float
    wall_s: float
    code: object
    stdout: str


@dataclass
class Invocation:
    argv: list[str]
    out_path: Path
    config_path: Path

    @classmethod
    def prepare(cls, workload: Workload, inputs: dict, directory: Path, label: str) -> "Invocation":
        config_path = directory / f"{label}.ini"
        config_path.write_text(workload.config(inputs), encoding="utf-8")
        out_path = directory / f"{label}.{workload.fmt}"
        return cls([workload.command, "--config", str(config_path), "--out", str(out_path)], out_path, config_path)

    def run(self, main) -> Outcome:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                code = main(self.argv)
            except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        return Outcome(cpu, wall, code, captured.getvalue())


class Sample(NamedTuple):
    """One timed invocation and the calibration kernel's time around it."""

    cpu_s: float
    wall_s: float
    calibration_s: float

    @property
    def scaled_s(self) -> float:
        return scaled(self.cpu_s, self.calibration_s)


def scaled(cpu_s: float, calibration_s: float) -> float:
    """CPU seconds on a host where the calibration kernel takes NOMINAL_S."""
    return cpu_s * calibration.NOMINAL_S / calibration_s


def require_sources() -> None:
    if not (SRC / "ringwalk" / "cli.py").is_file():
        raise BenchmarkError(f"no ringwalk sources under {SRC}; run from a full checkout")


def import_cli():
    sys.path.insert(0, str(SRC))
    import ringwalk.cli

    if not Path(ringwalk.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"ringwalk was imported from {ringwalk.cli.__file__}, not {SRC}")
    return ringwalk.cli


def fresh_process(invocation: Invocation) -> dict:
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "fresh.py"), repr(spawned), str(SRC), str(invocation.config_path),
         json.dumps(invocation.argv)],
        capture_output=True, text=True, timeout=FRESH_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"fresh process failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])


def p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def closed_loop(invoke: Callable[[], Outcome], verifier: Verifier, out_path: Path, seconds: float,
                min_samples: int, keep_going: Callable[[], bool] = lambda: True) -> list[Sample]:
    """Invoke back to back for ``seconds`` of wall time and at least ``min_samples`` times.

    A slow program gets at most twice the time plus a second, so that a run
    stays inside its time limit. The calibration kernel runs between
    invocations; each invocation is paired with the mean kernel time just
    before and just after it.
    """
    samples = []
    before = calibration.measure()
    began = time.perf_counter()
    while keep_going():
        elapsed = time.perf_counter() - began
        if elapsed >= 2 * seconds + 1 or (elapsed >= seconds and len(samples) >= min_samples):
            break
        outcome = invoke()
        after = calibration.measure()
        verifier.record(outcome.code, outcome.stdout, out_path)
        samples.append(Sample(outcome.cpu_s, outcome.wall_s, (before + after) / 2))
        before = after
    return samples


# -- the two kinds of run ----------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float, expected, reference, workdir: Path):
    inputs = workload.inputs(seed)
    invocation = Invocation.prepare(workload, inputs, workdir, "seeded")
    verifier = Verifier(workload, inputs, reference)
    cli = import_cli()
    reference_check = reference_invocation(workload, cli, reference, expected, workdir)
    walk_steps, native_gates, outcome = tracing.count_work(lambda: invocation.run(cli.main))
    verifier.record(outcome.code, outcome.stdout, invocation.out_path)

    # Fresh processes alternate with slices of the warm loop, so that a burst
    # of load on the host cannot land on all of the cold samples at once. The
    # first invocation after a fresh process refills the CPU caches it
    # evicted and is not timed.
    fresh, samples = [], []
    for _ in range(FRESH_PROCESSES):
        sample = fresh_process(invocation)
        verifier.record(sample["exit_code"], sample["stdout"], invocation.out_path)
        fresh.append(sample)
        closed_loop(lambda: invocation.run(cli.main), verifier, invocation.out_path, 0.0, 1)
        samples += closed_loop(lambda: invocation.run(cli.main), verifier, invocation.out_path,
                               seconds / FRESH_PROCESSES, math.ceil(MIN_SAMPLES / FRESH_PROCESSES))

    durations = [s.scaled_s for s in samples]
    p50 = statistics.median(durations)
    p90_value, above = p90(durations)
    attempted = verifier.attempted + reference_check.attempted
    failed = verifier.failed + reference_check.failed

    def fresh_median(key: str) -> float:
        return statistics.median(scaled(s[key], s["calibration_s"]) for s in fresh)

    metrics = {
        "invocation_s.p50": p50,
        "invocation_s.p90": p90_value,
        "walk_steps_per_s": walk_steps / p50,
        "native_gates_per_s": native_gates / p50,
        "cold_invocation_s": fresh_median("cold_invocation_s"),
        "setup_s": fresh_median("setup_s"),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in fresh),
        "success_ratio": 1.0 - failed / attempted,
    }
    details = {
        "samples": len(durations), "samples_above_p90": above, "failed_ratio": failed / attempted,
        "walk_steps_per_invocation": walk_steps, "native_gates_per_invocation": native_gates,
        "unscaled": {
            "calibration_s.p50": statistics.median(s.calibration_s for s in samples),
            "cpu_s.p50": statistics.median(s.cpu_s for s in samples),
            "wall_s.p50": statistics.median(s.wall_s for s in samples),
            "cold_invocation_cpu_s.p50": statistics.median(s["cold_invocation_s"] for s in fresh),
            "setup_cpu_s.p50": statistics.median(s["setup_s"] for s in fresh),
        },
        "fresh_processes": [{k: v for k, v in s.items() if k not in ("exit_code", "stdout")} for s in fresh],
        "samples_cpu_calibration_s": [(s.cpu_s, s.calibration_s) for s in samples],
    }
    return metrics, attempted, failed, verifier.problems + reference_check.problems, details


def reference_invocation(workload: Workload, cli, reference, expected, workdir: Path) -> Verifier:
    """One invocation on the seed-0 inputs, compared number by number with the reference."""
    inputs = workload.inputs(REFERENCE_SEED)
    invocation = Invocation.prepare(workload, inputs, workdir, "reference")
    verifier = Verifier(workload, inputs, reference, expected)
    outcome = invocation.run(cli.main)
    verifier.record(outcome.code, outcome.stdout, invocation.out_path)
    return verifier


def traced(workload: Workload, seed: int, seconds: float, expected, reference, workdir: Path):
    inputs = workload.inputs(seed)
    invocation = Invocation.prepare(workload, inputs, workdir, "seeded")
    verifier = Verifier(workload, inputs, reference)
    cli = import_cli()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Nothing has called into ringwalk yet in this process, so the first
        # invocation builds every gate matrix.
        def traced_call() -> Outcome:
            return tracer.invoke(lambda: invocation.run(cli.main))

        closed_loop(traced_call, verifier, invocation.out_path, 0.0, 1)
        traced_runs = closed_loop(traced_call, verifier, invocation.out_path, seconds / 2, 3,
                                  lambda: len(tracer.start) < MAX_TRACED_SPANS)
    finally:
        tracer.uninstall()
    output_bytes = invocation.out_path.stat().st_size
    counts, times = tracing.layer_metrics(tracer, 0, list(range(1, len(tracer.invocation_ranges))), output_bytes)
    scale = scaled(1.0, statistics.median(s.calibration_s for s in traced_runs))
    times = {name: value * scale for name, value in times.items()}

    reference_check = reference_invocation(workload, cli, reference, expected, workdir)
    untraced = closed_loop(lambda: invocation.run(cli.main), verifier, invocation.out_path, seconds / 2, 3)
    times["trace.overhead_ratio"] = (statistics.median(s.scaled_s for s in traced_runs)
                                     / statistics.median(s.scaled_s for s in untraced))
    compare_with_previous_counts(workload.name, seed, counts)

    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write(RESULTS_DIR / f"spans_{workload.name}.csv.gz")
    metrics = {**counts, **times}
    attempted = verifier.attempted + reference_check.attempted
    failed = verifier.failed + reference_check.failed
    details = {"traced_invocations": len(traced_runs), "untraced_invocations": len(untraced),
               "spans": len(tracer.start), "failed_ratio": failed / attempted}
    return metrics, attempted, failed, verifier.problems + reference_check.problems, details


def compare_with_previous_counts(workload: str, seed: int, counts: dict) -> None:
    """Exact counts must repeat between traced runs of the same sources and seed."""
    path = RESULTS_DIR / f"counts_{workload}_seed{seed}.json"
    record = {"source_sha256": source_digest(), "counts": counts}
    if path.is_file():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["source_sha256"] == record["source_sha256"] and previous["counts"] != counts:
            raise tracing.CountsDiffer(f"exact counts changed between traced runs: {previous['counts']} vs {counts}")
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -- environment record ------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "calibration": {"version": calibration.VERSION, "nominal_s": calibration.NOMINAL_S},
        "seed": seed,
    }


# -- entry point -------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units from BENCHMARK.json: per-layer when tracing, else end-to-end."""
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    require_sources()
    workload = WORKLOADS[args.workload]
    reference_bytes = (REFERENCE_DIR / f"{workload.name}.{workload.fmt}").read_bytes()
    reference = checks.parse(reference_bytes.decode("utf-8"), workload.fmt)
    check_the_check(workload, reference, reference_bytes)
    expected = checks.perturb(reference, workload.perturb_path) if args.perturb_reference else reference

    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, problems, details = run(
            workload, args.seed, args.seconds, expected, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "problems": problems, "details": details, **result}
    (RESULTS_DIR / f"BENCH_{workload.name}_trace{args.trace}_seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.6g}")
    for key in ("samples", "samples_above_p90", "traced_invocations", "untraced_invocations"):
        if key in details:
            print(f"  {key:<44} {details[key]}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:<14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each table and a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.perturb_reference:
            argv.append("--perturb-reference")
        done = subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="move one reference number by 1e-6; every reference check must then fail")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(benchmark_spec()["run_seconds"])
        return run_all(args) if args.workload == "all" else run_one(args)
    except (BenchmarkError, tracing.CountsDiffer, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
