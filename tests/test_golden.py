"""Golden CLI output: stdout and exit code, byte for byte.

``golden/cli_stdout.json`` holds one record per command line, with the
text fed to stdin for the ``inclexcl`` lines.  It was written by running
this file as a script (``PYTHONPATH=src python tests/test_golden.py``) on a
tree whose output was the reference, so the suite itself checks that a
refactor leaves every byte of these commands as it was.  The ``count``
lines all have delta at most dim|L|; ``count`` values past it are pinned
against the table in ``test_nodal``.

``golden/deep_sha256.json`` pins the commands at delta 20, where stdout
runs to a megabyte, by the sha256 of their stdout; the same script writes
it.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from nodepoly.cli import run

FIXTURE = Path(__file__).parent / "golden" / "cli_stdout.json"
DEEP_FIXTURE = FIXTURE.parent / "deep_sha256.json"


def seeded_sets(k, universe, seed):
    rng = random.Random(seed)
    return [[x for x in range(universe) if rng.random() < 0.5]
            for _ in range(k)]


# set systems fed to `inclexcl` on stdin, by name
STDINS = {
    "one-empty-set": "[[]]",
    "empty-and-zero": "[[], [0]]",
    "three-identical": "[[0, 5, 9], [9, 0, 5], [5, 9, 0]]",
    "seeded-k10": json.dumps(seeded_sets(10, 200, seed=10)),
}

CASES = [pytest.param(argv, None, id=" ".join(argv)) for argv in (
    [["node-polys", "--max-delta", d] for d in ("0", "5")]
    + [["factorize", "--max-delta", d] for d in ("0", "5")]
    + [["yau-zaslow", "--max-delta", d] + fmt
       for d in ("0", "5") for fmt in ([], ["--format", "csv"])]
    + [["blowup-check", "--surface", s, "--order", "5"]
       for s in ("P2:3", "K3:4", "9,-9,9,3")]
    + [["rr-solve"]]
    + [["count", "--surface", s, "--delta", d]
       for s, d in (("P2:3", "2"), ("K3:8", "5"), ("T4:12", "5"),
                    ("8,-8,8,4", "3"))]
    + [["series", "--name", name, "--order", "5"]
       for name in ("G2", "DG2", "DELTA", "B1", "PARTITION_POWER(24)")]
    + [["series", "--name", "DELTA", "--order", "5", "--format", "csv"]]
)] + [pytest.param(["inclexcl", "--format", fmt], text,
                   id=f"inclexcl --format {fmt} < {name}")
      for name, text in STDINS.items() for fmt in ("json", "csv")]


DEEP_CASES = [pytest.param(argv, id=" ".join(argv)) for argv in (
    [[command, "--max-delta", "20"]
     for command in ("node-polys", "factorize", "yau-zaslow")]
    + [["count", "--surface", s, "--delta", "20"]
       for s in ("K3:38", "T4:42", "P2:11", "P2:20", "8,-8,8,4")]
)]


def record(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err, stdin=io.StringIO(stdin or ""))
    rec = {"argv": list(argv), "exit_code": code, "stdout": out.getvalue()}
    if stdin is not None:
        rec["stdin"] = stdin
    return rec


def golden():
    return {(tuple(r["argv"]), r.get("stdin")): r for r in
            json.loads(FIXTURE.read_text(encoding="utf-8"))}


def deep_record(argv):
    rec = record(argv)
    rec["stdout_sha256"] = hashlib.sha256(
        rec.pop("stdout").encode("utf-8")).hexdigest()
    return rec


@pytest.mark.parametrize("argv, stdin", CASES)
def test_cli_output_is_golden(argv, stdin):
    assert record(argv, stdin) == golden()[tuple(argv), stdin]


@pytest.mark.parametrize("argv", DEEP_CASES)
def test_deep_output_hash_is_golden(argv):
    pins = {tuple(r["argv"]): r for r in
            json.loads(DEEP_FIXTURE.read_text(encoding="utf-8"))}
    assert deep_record(argv) == pins[tuple(argv)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([record(*c.values) for c in CASES],
                                  indent=1) + "\n", encoding="utf-8")
    DEEP_FIXTURE.write_text(json.dumps([deep_record(*c.values)
                                        for c in DEEP_CASES],
                                       indent=1) + "\n", encoding="utf-8")
