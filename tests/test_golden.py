"""Golden CLI output: stdout and exit code, byte for byte.

``golden/cli_stdout.json`` holds one record per command line.  It was
written by running this file as a script (``PYTHONPATH=src python
tests/test_golden.py``) on a tree whose output was the reference, so the
suite itself checks that a refactor leaves every byte of these commands as
it was.  ``count`` is left out: its values are pinned against the table in
``test_nodal``.
"""

import io
import json
from pathlib import Path

import pytest

from nodepoly.cli import run

FIXTURE = Path(__file__).parent / "golden" / "cli_stdout.json"

CASES = (
    [["node-polys", "--max-delta", d] for d in ("0", "5")]
    + [["factorize", "--max-delta", d] for d in ("0", "5")]
    + [["yau-zaslow", "--max-delta", d] + fmt
       for d in ("0", "5") for fmt in ([], ["--format", "csv"])]
    + [["blowup-check", "--surface", s, "--order", "5"]
       for s in ("P2:3", "K3:4", "9,-9,9,3")]
    + [["rr-solve"]]
)


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err, stdin=io.StringIO(""))
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue()}


def golden():
    return {tuple(r["argv"]): r for r in
            json.loads(FIXTURE.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_golden(argv):
    assert record(argv) == golden()[tuple(argv)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([record(a) for a in CASES], indent=1) + "\n",
                       encoding="utf-8")
