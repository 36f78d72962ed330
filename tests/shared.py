"""What more than one test module uses: the walk shapes ringwalk admits,
the CLI cases the golden snapshots pin, and a run of the CLI in a fresh
process.

No test module imports another, so a per-file pytest run loads only the
module it runs and these helpers.
"""

import os
import subprocess
import sys
from pathlib import Path

# (position qubits, coin qubits, max rank): the 12 shapes tolerance runs,
# plus the 4 larger ones that also fit in 9 qubits.
LARGER_SHAPES = [(5, 1, 3), (5, 1, 4), (5, 2, 4), (6, 1, 4)]
ADMITTED_SHAPES = {(n, coins, rank) for n in (2, 3, 4) for coins in (1, 2) for rank in (3, 4)} | set(LARGER_SHAPES)

# The golden cases: name -> (subcommand, config text or None for the defaults).
CASES = {
    "simulate": ("simulate", None),
    "sweep-a": ("sweep-a", None),
    "tolerance": ("tolerance", None),
    "composite": ("composite", None),
    "simulate-lazy16-rank4": (
        "simulate",
        "[walk]\nposition_qubits = 4\ncoin_qubits = 2\n[gates]\nmax_rank = 4\n",
    ),
    "sweep-a-list": (
        "sweep-a",
        "[walk]\nposition_qubits = 3\ncoin_qubits = 2\nsteps = 10\n[gates]\na_list = 0, 5, 1e3\n",
    ),
}
FORMATS = ("csv", "json")

MODULE_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_module(*args, config=None, cwd, **env):
    """Run ``python -m ringwalk.cli`` in a fresh process on this checkout's sources, with
    ``env`` added to its environment; its stdout and stderr are bytes."""
    if config is not None:
        args += ("--config", write_config(cwd, config))
    return subprocess.run([sys.executable, "-m", "ringwalk.cli", *args], cwd=cwd, env={**MODULE_ENV, **env},
                          capture_output=True, timeout=120)
