"""Byte-for-byte golden snapshots of every CLI payload and report.

Each case runs one subcommand through ``cli.main`` with ``--out`` and
compares the payload file with ``tests/golden/<case>.<format>`` and the
report printed to stdout with ``tests/golden/<case>.report.txt`` (the
report does not depend on the format; the closing ``wrote <path>`` line
is checked separately because the path varies). A change that moves any
byte must say which lines moved and why in CHANGES.md. To rewrite the
snapshots after such a change, run

    PYTHONPATH=src python tests/test_golden.py

and commit only the lines whose cause is explained.
"""

import contextlib
import io
from pathlib import Path

import pytest

from ringwalk.cli import main
from shared import run_module

GOLDEN = Path(__file__).parent / "golden"

# case name -> (subcommand, config text or None for the defaults)
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


def render(case: str, fmt: str, workdir: Path) -> tuple[str, str]:
    """Run one case; return (payload file text, report printed to stdout)."""
    command, config_text = CASES[case]
    out = workdir / f"{case}.{fmt}"
    argv = [command, "--format", fmt, "--out", str(out)]
    if config_text is not None:
        config_path = workdir / f"{case}.ini"
        config_path.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(config_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    report, wrote, tail = stdout.getvalue().rpartition(f"wrote {out}\n")
    assert wrote and not tail
    return out.read_text(encoding="utf-8"), report


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_matches_golden(case, fmt, tmp_path):
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert render(case, fmt, tmp_path)[0] == expected


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, fmt, tmp_path):
    expected = (GOLDEN / f"{case}.report.txt").read_text(encoding="utf-8")
    assert render(case, fmt, tmp_path)[1] == expected


@pytest.mark.parametrize("case", ["simulate-lazy16-rank4", "sweep-a-list"])
def test_fused_block_payload_does_not_depend_on_the_blas_thread_count(case, tmp_path):
    # The fused shift blocks of these lazy walks are matmuls large enough for
    # BLAS to split across threads, and no byte may depend on how many it uses.
    # OpenBLAS reads the count once, as numpy loads, hence the child processes.
    command, config_text = CASES[case]
    for threads in ("1", "2"):
        done = run_module(command, "--format", "json", config=config_text, cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (GOLDEN / f"{case}.json").read_bytes(), threads


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for fmt in FORMATS:
                payload, report = render(case, fmt, Path(scratch))
                (GOLDEN / f"{case}.{fmt}").write_text(payload, encoding="utf-8")
            (GOLDEN / f"{case}.report.txt").write_text(report, encoding="utf-8")
