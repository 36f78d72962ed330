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
from shared import CASES, FORMATS

GOLDEN = Path(__file__).parent / "golden"


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


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for fmt in FORMATS:
                payload, report = render(case, fmt, Path(scratch))
                (GOLDEN / f"{case}.{fmt}").write_text(payload, encoding="utf-8")
            (GOLDEN / f"{case}.report.txt").write_text(report, encoding="utf-8")
