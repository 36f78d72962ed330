"""Byte-for-byte golden snapshots of every CLI payload.

Each case runs one subcommand through ``cli.main`` and compares the
payload file with ``tests/golden/<case>.<format>``. A change that moves
any byte must say which lines moved and why in CHANGES.md. To rewrite the
snapshots after such a change, run

    PYTHONPATH=src python tests/test_golden.py

and commit only the lines whose cause is explained.
"""

from pathlib import Path

import pytest

from ringwalk.cli import main

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


def render(case: str, fmt: str, workdir: Path) -> str:
    command, config_text = CASES[case]
    argv = [command, "--format", fmt, "--out", str(workdir / f"{case}.{fmt}")]
    if config_text is not None:
        config_path = workdir / f"{case}.ini"
        config_path.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(config_path)]
    assert main(argv) == 0
    return (workdir / f"{case}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_matches_golden(case, fmt, tmp_path):
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert render(case, fmt, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for fmt in FORMATS:
                (GOLDEN / f"{case}.{fmt}").write_text(render(case, fmt, Path(scratch)), encoding="utf-8")
