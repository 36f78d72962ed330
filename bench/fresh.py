"""One cold CLI invocation in a fresh interpreter; prints its timings as JSON.

Usage: python3 fresh.py SPAWN_TIME SRC_DIR CONFIG ARGV_JSON

Set-up is the CPU time this process has used once the numpy and ringwalk
imports are done and the workload config is parsed: interpreter start-up
included, time spent waiting for a CPU excluded. The cold invocation then
runs with the module-level lru caches of gate matrices still empty. Peak
resident memory is read after it: VmHWM of this address space, since
ru_maxrss would also count the parent's pages from before the exec. Then
the calibration kernel runs three times in this same process (see
calibration.py). Wall-clock readings are reported beside the CPU times;
SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, and that clock is system-wide.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawned, src, config_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
    sys.path.insert(0, src)
    import ringwalk.cli

    ringwalk.cli.load_config(config_path)
    setup_cpu, setup_wall = time.process_time(), time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if not os.path.abspath(ringwalk.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ringwalk was imported from {ringwalk.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        wall, cpu = time.perf_counter(), time.process_time()
        code = ringwalk.cli.main(argv)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall

    peak_rss_mb = peak_rss_kib() / 1024.0

    import calibration

    print(json.dumps({
        "setup_s": setup_cpu,
        "cold_invocation_s": cpu,
        "calibration_s": statistics.median(calibration.measure() for _ in range(3)),
        "peak_rss_mb": peak_rss_mb,
        "setup_wall_s": setup_wall,
        "cold_invocation_wall_s": wall,
        "exit_code": code,
        "stdout": captured.getvalue(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
