"""CLI behavior: payload correctness, exit codes, determinism."""

import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nodepoly import cli, nodal
from nodepoly.cli import (DEFAULT_ORDER, MAX_PARTITION_EXPONENT,
                          MAX_SERIES_ORDER, build_parser, emit_json,
                          read_args, run)
from nodepoly.inclexcl import SetSystem

from test_golden import FIXTURE as GOLDEN_FIXTURE
from test_inclexcl import backward_induction_oracle
from test_nodal import cap_message, swap_two_rows


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def payload_of(text):
    return json.loads(text)["payload"]


def test_rational_round_trip():
    for value in (Fraction(1, 12), Fraction(-345), Fraction(0),
                  Fraction(176256), Fraction(-7, 24)):
        assert Fraction(json.loads(emitted(value))) == value
    assert emitted(Fraction(24)) == '"24"\n'
    assert emitted(Fraction(1, 2)) == '"1/2"\n'


def test_rr_solve():
    code, out, _ = invoke(["rr-solve"])
    assert code == 0
    payload = payload_of(out)
    assert payload["A1"] == "1/12"
    assert payload["A2"] == "1/12"
    assert payload["A3"] == "1/2"
    assert payload["A4"] == "1/2"


def test_series_dg2():
    code, out, _ = invoke(["series", "--name", "DG2", "--order", "5"])
    assert code == 0
    assert payload_of(out) == ["0", "1", "6", "12", "28", "30"]
    code, out, _ = invoke(["series", "--name", "DELTA", "--order", "5"])
    assert code == 0
    assert payload_of(out) == ["0", "1", "-24", "252", "-1472", "4830"]
    code, out, _ = invoke(["series", "--name", "d2g2", "--order", "5"])
    assert code == 0
    assert payload_of(out) == ["0", "1", "12", "36", "112", "150"]


def test_series_g2_and_partition_power():
    code, out, _ = invoke(["series", "--name", "G2", "--order", "3"])
    assert code == 0
    assert payload_of(out) == ["-1/24", "1", "3", "4"]
    code, out, _ = invoke(
        ["series", "--name", "PARTITION_POWER(24)", "--order", "5"])
    assert code == 0
    assert payload_of(out)[-1] == "176256"


def test_series_csv():
    code, out, _ = invoke(
        ["series", "--name", "B1", "--order", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,coefficient"
    assert lines[1] == "0,1"
    assert lines[-1] == "5,2961"


def test_series_b1_data_limit():
    code, out, err = invoke(["series", "--name", "B1", "--order",
                             str(nodal.MAX_DELTA + 1)])
    assert code == 2
    assert out == ""
    assert f"q^{nodal.MAX_DELTA}" in err


# 6 lies past Goettsche's q^5 data (alg-geom/9711012) but inside the q^20
# table: it must run
@pytest.mark.parametrize("delta", [-1, 6, nodal.MAX_DELTA + 1])
@pytest.mark.parametrize("argv", [
    ["node-polys", "--max-delta"],
    ["count", "--surface", "P2:3", "--delta"],
    ["yau-zaslow", "--max-delta"],
    ["blowup-check", "--surface", "P2:3", "--order"],
    ["factorize", "--max-delta"],
], ids=lambda argv: argv[0])
def test_delta_cap_error_is_the_library_message(argv, delta):
    code, out, err = invoke(argv + [str(delta)])
    if 0 <= delta <= nodal.MAX_DELTA:
        assert (code, err) == (0, "") and payload_of(out)
    else:
        assert (code, out, err) == (2, "", f"nodepoly: error: "
                                    f"{cap_message(delta)}\n")


@pytest.mark.parametrize("name", ["B1", "B2", "b1"])
def test_series_b_data_cap_is_the_library_message(name):
    delta = nodal.MAX_DELTA + 1
    assert invoke(["series", "--name", name, "--order", str(delta)]) == \
        (2, "", f"nodepoly: error: {cap_message(delta)}\n")


def test_series_order_is_bounded():
    code, out, _ = invoke(["series", "--name", "G2", "--order",
                           str(MAX_SERIES_ORDER), "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == MAX_SERIES_ORDER + 2
    for order in (MAX_SERIES_ORDER + 1, 10**9, -1):
        code, out, err = invoke(["series", "--name", "DELTA", "--order",
                                 str(order)])
        assert code == 2
        assert out == ""
        assert "out of range" in err


def test_series_unknown_name():
    code, _, err = invoke(["series", "--name", "E8", "--order", "3"])
    assert code == 2
    assert err == "nodepoly: error: unknown series name 'E8'\n"


def test_series_partition_exponent_is_bounded():
    code, out, _ = invoke(["series", "--name",
                           f"PARTITION_POWER({MAX_PARTITION_EXPONENT})",
                           "--order", "2"])
    assert code == 0
    e = MAX_PARTITION_EXPONENT
    assert payload_of(out) == ["1", str(e), str(e * (e + 3) // 2)]
    for arg in (0, -1, MAX_PARTITION_EXPONENT + 1, 10**30):
        code, out, err = invoke(["series", "--name", f"PARTITION_POWER({arg})",
                                 "--order", "500"])
        assert (code, out) == (2, "")
        assert "out of range" in err
    # int() alone would read the last five as 30, 3, 3, 3 and 3
    for arg in ("10^30", "x", "3_0", "+3", " 3", "3 ", "\uff10\uff13"):
        code, out, err = invoke(["series", "--name", f"PARTITION_POWER({arg})",
                                 "--order", "500"])
        assert (code, out) == (2, "")
        assert err == (f"nodepoly: error: PARTITION_POWER exponent: expected "
                       f"an integer, got {arg.upper()!r}\n")


def test_node_polys_t1():
    code, out, _ = invoke(["node-polys", "--max-delta", "1"])
    assert code == 0
    payload = payload_of(out)
    assert payload["0"] == {"0,0,0,0": "1"}
    # T1 = 3*L2 + 2*LK + c2 keyed by exponents over (L2, LK, K2, c2)
    assert payload["1"] == {"1,0,0,0": "3", "0,1,0,0": "2", "0,0,0,1": "1"}


def test_node_polys_cap_names_data_limit():
    code, _, err = invoke(["node-polys", "--max-delta",
                           str(nodal.MAX_DELTA + 1)])
    assert code == 2
    assert "B1/B2" in err


def test_count_p2_outside_range():
    code, out, _ = invoke(["count", "--surface", "P2:3", "--delta", "1"])
    assert code == 0
    payload = payload_of(out)
    assert payload["count"] == "12"
    assert payload["validity"] == "in range"
    assert payload["chi_L"] == 10
    assert payload["dim_linear_system"] == 9
    # the Severi degree N^{3,3}: triangles through 6 general points
    code, out, _ = invoke(["count", "--surface", "P2:3", "--delta", "3"])
    assert code == 0
    assert payload_of(out)["count"] == "15"
    assert payload_of(out)["validity"] == "in range"
    # conics are 2-very ample, not 3-very ample: a formal, negative count
    code, out, _ = invoke(["count", "--surface", "P2:2", "--delta", "3"])
    assert code == 0
    assert payload_of(out)["count"] == "-32"
    assert payload_of(out)["validity"] == "outside guaranteed range"


def test_count_explicit_p2_tuple_flags_like_p2():
    # the validity flag comes from the Chern data, not the spelling
    for delta in range(6):
        _, named, _ = invoke(["count", "--surface", "P2:3", "--delta",
                              str(delta)])
        _, explicit, _ = invoke(["count", "--surface", "9,-9,9,3", "--delta",
                                 str(delta)])
        for key in ("count", "validity"):
            assert payload_of(explicit)[key] == payload_of(named)[key]
    _, out, _ = invoke(["count", "--surface", "9,-9,9,3", "--delta", "4"])
    assert payload_of(out)["validity"] == "outside guaranteed range"
    _, out, _ = invoke(["count", "--surface", "11,-9,9,3", "--delta", "1"])
    assert payload_of(out)["validity"] == "range unknown"


def test_count_k3_in_range():
    code, out, _ = invoke(["count", "--surface", "K3:0", "--delta", "1"])
    assert code == 0
    payload = payload_of(out)
    assert payload["count"] == "24"
    assert payload["validity"] == "in range"


def test_count_invariant_violation():
    code, _, err = invoke(["count", "--surface", "1,0,0,24", "--delta", "1"])
    assert code == 2
    assert "odd" in err
    assert invoke(["count", "--surface", "P2:-1", "--delta", "1"]) == (
        2, "", "nodepoly: error: P2 degree must be >= 0\n")


def test_count_unparsable_surface():
    code, _, err = invoke(["count", "--surface", "X9:1", "--delta", "1"])
    assert code == 2
    assert "unknown surface family" in err


def test_yau_zaslow_exits_zero_on_equality():
    code, out, _ = invoke(["yau-zaslow", "--max-delta", "5"])
    assert code == 0
    payload = payload_of(out)
    assert payload["all_equal"] is True
    assert len(payload["rows"]) == 6
    assert payload["rows"][5]["partition_coefficient"] == "176256"


def test_yau_zaslow_csv():
    code, out, _ = invoke(["yau-zaslow", "--max-delta", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("delta,")
    assert lines[1] == "0,1,1,True"
    assert lines[3] == "2,324,324,True"


def test_blowup_check():
    code, out, _ = invoke(["blowup-check", "--surface", "P2:3"])
    assert code == 0
    payload = payload_of(out)
    assert payload["holds"] is True
    assert payload["blowup"]["K2"] == 8


def test_factorize():
    code, out, _ = invoke(["factorize", "--max-delta", "5"])
    assert code == 0
    payload = payload_of(out)
    assert payload["reassembly_exact"] is True
    assert payload["log_A3"][1] == "3"
    assert payload["log_A4"][1] == "2"
    assert payload["exponents"] == {"A1": "K2", "A2": "c2",
                                    "A3": "L2", "A4": "LK"}


def test_factorize_at_delta_zero():
    code, out, _ = invoke(["factorize", "--max-delta", "0"])
    assert code == 0
    payload = payload_of(out)
    assert payload["reassembly_exact"] is True
    assert [payload[f"log_A{i}"] for i in range(1, 5)] == [["0"]] * 4


def test_factorize_builds_no_polynomial(monkeypatch):
    calls = {"_exp_linear": [], "_log_rows_in_t": []}
    for name, record in calls.items():
        build = getattr(nodal, name)
        monkeypatch.setattr(nodal, name, lambda *a, record=record,
                            build=build: record.append(a) or build(*a))
    code, _, _ = invoke(["factorize", "--max-delta", "3"])
    assert code == 0
    assert calls == {"_exp_linear": [], "_log_rows_in_t": [(3,)]}


def test_factorize_exits_one_on_wrong_rows(monkeypatch):
    regroup = nodal._regroup
    monkeypatch.setattr(nodal, "_regroup",
                        lambda logs: swap_two_rows(regroup(logs)))
    code, out, _ = invoke(["factorize", "--max-delta", "5"])
    assert code == 1
    assert '"reassembly_exact": false' in out


def test_inclexcl_from_stdin():
    code, out, _ = invoke(["inclexcl"], stdin_text="[[1, 2], [2, 3]]")
    assert code == 0
    payload = payload_of(out)
    assert payload["union_size"] == 3
    assert payload["union_via_modified"] == 3
    assert payload["union_via_alternating"] == 3
    rows = {row["index_set"]: row for row in payload["table"]}
    assert rows["0,1"]["modified_cardinality"] == 1
    assert rows["0"]["cardinality"] == 2


def test_inclexcl_csv_and_errors():
    code, out, _ = invoke(["inclexcl", "--format", "csv"],
                          stdin_text="[[1], [1, 2]]")
    assert code == 0
    assert out.splitlines()[0] == "index_set,cardinality,modified_cardinality"
    code, _, err = invoke(["inclexcl"], stdin_text="not json")
    assert code == 2
    assert "JSON" in err
    code, _, err = invoke(["inclexcl"], stdin_text='{"a": 1}')
    assert code == 2
    code, _, err = invoke(["inclexcl"], stdin_text=json.dumps([[1]] * 11))
    assert code == 2
    assert "bound" in err


def test_inclexcl_rejects_booleans():
    for text in ("[[true, 2], [1]]", "[[1, true]]", "[[false]]"):
        code, out, err = invoke(["inclexcl"], stdin_text=text)
        assert code == 2
        assert out == ""
        assert "nonnegative integers" in err


ELEMENT_ERROR = "nodepoly: error: set elements must be nonnegative integers\n"


@pytest.mark.parametrize("text, err", [
    ("[[[1]]]", ELEMENT_ERROR),
    ("[[1, 2.0]]", ELEMENT_ERROR),
    ("[[1e3]]", ELEMENT_ERROR),
    ('[["a"]]', ELEMENT_ERROR),
    ("[[null]]", ELEMENT_ERROR),
    ("[[1], [2, -3]]", ELEMENT_ERROR),
    ("[[true]]", ELEMENT_ERROR),
    ("[[0, 1, false]]", ELEMENT_ERROR),
    ("[[1], [2], [3, true, 4]]", ELEMENT_ERROR),
    (json.dumps([[1]] * 10 + [[True]]), ELEMENT_ERROR),
    (json.dumps([[True]] + [[1]] * 10), ELEMENT_ERROR),
    (json.dumps([[1]] * 11), "nodepoly: error: 11 sets exceed the bound 10: "
     "the lattice has 2^k - 1 index sets\n"),
    (json.dumps([[i] for i in range(10_000)]), "nodepoly: error: 10000 sets "
     "exceed the bound 10: the lattice has 2^k - 1 index sets\n"),
    ("[]", "nodepoly: error: a set system needs at least one set\n"),
    ("[[1], 2]", "nodepoly: error: input must be a JSON list of integer "
     "lists\n"),
])
def test_inclexcl_rejects_bad_input(text, err):
    for fmt in ("json", "csv"):
        assert invoke(["inclexcl", "--format", fmt], stdin_text=text) == \
            (2, "", err)


def test_inclexcl_accepts_big_and_empty_sets():
    code, out, _ = invoke(["inclexcl", "--format", "csv"],
                          stdin_text=json.dumps([[10**30, 10**30]]))
    assert (code, out.splitlines()[1:]) == (0, ['"0",1,1'])
    code, out, _ = invoke(["inclexcl"], stdin_text="[[]]")
    assert code == 0
    payload = payload_of(out)
    assert payload["table"] == [{"index_set": "0", "cardinality": 0,
                                 "modified_cardinality": 0}]
    assert payload["union_size"] == 0


def test_inclexcl_rejects_deep_nesting():
    depth = 100000
    code, out, err = invoke(["inclexcl"],
                            stdin_text="[" * depth + "]" * depth)
    assert (code, out) == (2, "")
    assert err == "nodepoly: error: stdin JSON is nested too deeply\n"


@pytest.fixture
def digit_limit():
    """The interpreter's int-string digit limit, pinned at its default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


NINES = "9" * 5000
TWOS = "2" * 5000

# Every way an integer reaches the CLI, each past the int-string digit
# limit: (argv, stdin, and once the limit is lifted, the exit code and a
# piece of the output).  Without the limit the value is read, and the run
# goes on to a result or to the range bound on that value.
PAST_THE_DIGIT_LIMIT = [
    pytest.param(line + [NINES], "", 2, "out of range",
                 id=line[0] + line[-1])
    for line in (["node-polys", "--max-delta"], ["yau-zaslow", "--max-delta"],
                 ["factorize", "--max-delta"],
                 ["count", "--surface", "K3:2", "--delta"],
                 ["blowup-check", "--surface", "P2:3", "--order"],
                 ["series", "--name", "G2", "--order"])
] + [
    pytest.param(["count", "--surface", "K3:" + TWOS, "--delta", "1"], "", 0,
                 '"L2": ' + TWOS, id="surface-K3"),
    pytest.param(["count", "--surface", TWOS + ",0,0,24", "--delta", "1"], "",
                 0, '"L2": ' + TWOS, id="surface-explicit"),
    pytest.param(["series", "--name", f"PARTITION_POWER({NINES})", "--order",
                  "3"], "", 2, "out of range", id="partition-exponent"),
    pytest.param(["inclexcl"], f"[[{NINES}]]", 0, '"union_size": 1',
                 id="stdin-json"),
    pytest.param(["inclexcl", "--format", "csv"], f"[[{NINES}]]", 0,
                 '"0",1,1', id="stdin-csv"),
    # at delta 20 the count on a K3 class with L2 = 10^230 has about 4600
    # digits
    pytest.param(["count", "--surface", "K3:1" + "0" * 230, "--delta", "20"],
                 "", 0, '"delta": 20', id="result"),
]


@pytest.mark.parametrize("argv, stdin_text, unlimited_code, unlimited_text",
                         PAST_THE_DIGIT_LIMIT)
def test_integer_past_the_digit_limit_is_one_bounded_cli_error(
        argv, stdin_text, unlimited_code, unlimited_text, digit_limit):
    code, out, err = invoke(argv, stdin_text)
    assert (code, out) == (2, "")
    assert all(len(line.encode()) < 300 for line in err.splitlines())
    assert f"more than {digit_limit} digits, the int-string digit limit\n" \
        in err
    # no run of the integer's digits: a surface spec is quoted cut to 80
    assert re.search(r"\d{80}", err) is None
    sys.set_int_max_str_digits(0)  # no limit: the integer is read
    code, out, err = invoke(argv, stdin_text)
    assert code == unlimited_code
    assert unlimited_text in (err if code else out)
    assert "digit limit" not in err


@pytest.mark.parametrize("argv, reason", [
    (["count", "--surface", "x,2,3," + "2" * 5000, "--delta", "1"],
     "expected an integer"),
    (["count", "--surface", "y" * 5000 + ":1", "--delta", "1"],
     "unknown surface family"),
    (["count", "--surface", "1,2,3," + "4" * 4000, "--delta", "1"],
     "not divisible by 12"),
    (["count", "--surface", "K3:" + "x" * 4000, "--delta", "1"],
     "expected an integer"),
    (["blowup-check", "--surface", "1,2,3," + "4" * 4000],
     "not divisible by 12"),
    (["series", "--name", "PARTITION_POWER(" + "9" * 5000 + ")",
      "--order", "3"], "int-string digit limit"),
    (["series", "--name", "Z" * 5000, "--order", "3"],
     "unknown series name"),
    # argparse's usage errors: its usage line, then the bounded error line
    (["node-polys", "--max-delta", "x" * 5000], "expected an integer"),
    (["series", "--name", "G2", "--format", "x" * 5000], "invalid choice"),
    (["x" * 5000], "invalid choice"),
    (["rr-solve", "x" * 5000], "unrecognized arguments"),
], ids=["spec-beside-a-bad-field", "family", "noether", "spec-and-field",
        "blowup-noether", "partition-exponent", "series-name",
        "usage-int", "usage-choice", "usage-command", "usage-extra"])
def test_error_line_is_bounded_and_keeps_its_reason(argv, reason,
                                                    digit_limit):
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert all(len(line.encode()) < 300 for line in err.splitlines())
    assert len(err.encode()) < 400
    assert reason in err


def inclexcl_expected(sets, fmt, doc=None):
    """stdout of ``inclexcl --format fmt`` on ``sets``, built from the
    backward-induction oracle in the documented layout: rows by (size,
    sorted indices), JSON with indent=2 and sorted keys, CSV with the index
    set quoted.  ``doc`` gives the JSON document's fields but the table."""
    table = backward_induction_oracle(SetSystem(sets))
    rows = [(",".join(map(str, sorted(i))), *table[i])
            for i in sorted(table, key=lambda i: (len(i), sorted(i)))]
    if fmt == "csv":
        return "index_set,cardinality,modified_cardinality\n" + "".join(
            f'"{ix}",{plain},{mod}\n' for ix, plain, mod in rows)
    union = len(set().union(*sets))
    doc = doc or {
        "command": "inclexcl", "parameters": {"k": len(sets)},
        "order": None, "format": "json", "payload": {
            "union_size": union, "union_via_modified": union,
            "union_via_alternating": union}}
    doc = dict(doc, payload=dict(doc["payload"], table=[
        {"index_set": ix, "cardinality": plain, "modified_cardinality": mod}
        for ix, plain, mod in rows]))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_inclexcl_golden_output_k8():
    sets = [[x for x in range(48) if (x * (2 * i + 3)) % 11 < 5]
            for i in range(8)]
    text = json.dumps(sets)
    assert invoke(["inclexcl"], stdin_text=text) == \
        (0, inclexcl_expected(sets, "json"), "")
    assert invoke(["inclexcl", "--format", "csv"], stdin_text=text) == \
        (0, inclexcl_expected(sets, "csv"), "")


def test_inclexcl_output_sweep_matches_oracle():
    rng = random.Random(1999)
    for k in range(1, 11):
        for _ in range(2):
            p = rng.random()
            sets = [[x for x in range(rng.randrange(1, 80))
                     if rng.random() < p] for _ in range(k)]
            text = json.dumps(sets)
            for fmt in ("json", "csv"):
                assert invoke(["inclexcl", "--format", fmt],
                              stdin_text=text) == \
                    (0, inclexcl_expected(sets, fmt), "")


def test_usage_errors_exit_2():
    code, _, _ = invoke(["count", "--delta", "1"])
    assert code == 2
    code, _, _ = invoke(["no-such-command"])
    assert code == 2
    # argparse takes a value starting with "-" for an option; "=" joins it
    argv = ["count", "--surface", "-1,1,8,4", "--delta", "1"]
    code, _, err = invoke(argv)
    assert code == 2 and "expected one argument" in err
    code, out, _ = invoke(["count", "--surface=-1,1,8,4", "--delta", "1"])
    assert code == 0 and payload_of(out)["count"] == "3"
    # a field that is not an integer is named with its spec; only an
    # optional "-" and ASCII digits spell one, not what else int() reads
    for spec, field in (("K3:abc", "abc"), ("1,a,3,4", "a"),
                        ("P2:1_0", "1_0"), ("P2:\uff11", "\uff11"),
                        ("K3: 24", " 24"), ("P2:+3", "+3"), ("P2:-", "-"),
                        ("1,2,3,4 ", "4 ")):
        assert invoke(["count", "--surface", spec, "--delta", "1"]) == (
            2, "", f"nodepoly: error: surface {spec!r}: expected an "
            f"integer, got {field!r}\n")


@pytest.mark.parametrize("value", ["1_0", "+2", "\uff12", " 2", "2 ", "0_3",
                                   "two"])
@pytest.mark.parametrize("argv", [
    ["node-polys", "--max-delta"],
    ["count", "--surface", "P2:3", "--delta"],
    ["series", "--name", "DELTA", "--order"],
], ids=lambda argv: argv[0])
def test_int_options_take_only_an_optional_minus_and_ascii_digits(argv,
                                                                 value):
    # int() alone reads all but "two", and the run would echo the value
    # it read, not the one typed
    assert read_args(argv + [value]) is None
    code, out, err = invoke(argv + [value])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {argv[-1]}: expected an integer, "
                        f"got {value!r}\n")


# every subcommand, with usage errors and --help in between
SHARED_PARSER_LINES = [
    (["node-polys", "--max-delta", "2"], ""),
    (["count", "--delta", "1"], ""),  # no --surface
    (["count", "--surface", "K3:8", "--delta", "2"], ""),
    (["--help"], ""),
    (["yau-zaslow", "--max-delta", "2", "--format", "csv"], ""),
    (["no-such-command"], ""),
    (["blowup-check", "--surface", "P2:3", "--order", "2"], ""),
    (["series", "--name", "G2", "--format", "xml"], ""),  # bad choice
    (["rr-solve"], ""),
    (["count", "--help"], ""),
    (["factorize", "--max-delta", "2"], ""),
    ([], ""),
    (["inclexcl", "--format", "csv"], "[[1, 2], [2, 3]]"),
    (["inclexcl", "--help"], ""),
    (["inclexcl"], "[[], [0]]"),
    (["node-polys", "--max-delta", "two"], ""),
    (["series", "--name", "DELTA", "--order", "3"], ""),
    (["series", "--help"], ""),
]


def test_shared_parser_keeps_no_state(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    fresh = {}
    for argv, stdin_text in SHARED_PARSER_LINES:
        fresh[tuple(argv)] = invoke(argv, stdin_text)
    # a parser is built only for the lines read_args declines
    assert len(built) == 9 == sum(read_args(argv) is None
                                  for argv, _ in SHARED_PARSER_LINES)
    assert {code for code, _, _ in fresh.values()} == {0, 2}
    assert fresh[("--help",)][1].startswith("usage: nodepoly ")
    assert fresh[("count", "--delta", "1")][2].startswith(
        "usage: nodepoly count ")

    del built[:]
    lines = SHARED_PARSER_LINES * 3
    random.Random(13).shuffle(lines)
    for argv, stdin_text in lines:
        assert invoke(argv, stdin_text) == fresh[tuple(argv)], argv
    # one parser per declined line, none kept between runs
    assert len(built) == 27


# -- the direct reader against argparse ---------------------------------------

# the process lines of the cli-delta5 benchmark workload
DELTA5_LINES = (
    [[command, "--max-delta", "5"]
     for command in ("node-polys", "factorize", "yau-zaslow")]
    + [["count", "--surface", surface, "--delta", "5"]
       for surface in [f"K3:{2 * h - 2}" for h in range(1, 13)]
       + [f"T4:{2 * n}" for n in range(1, 13)]])


def golden_lines():
    return [r["argv"] for r in
            json.loads(GOLDEN_FIXTURE.read_text(encoding="utf-8"))]


READER_CORPUS = [
    ["node-polys", "--max-d", "2"],  # abbreviation
    ["node-polys", "--max-delta=2"],
    ["node-polys", "--max-delta", "2", "--max-delta", "3"],  # repeated
    ["node-polys", "--max-delta", "-1"],
    ["node-polys", "--max-delta", "-"],
    ["node-polys", "--max-delta"],  # no value
    ["node-polys", "--", "--max-delta", "2"],
    ["count", "--surface", "-1,0,0,24", "--delta", "1"],
    ["count", "--surface", "", "--delta", "1"],
    ["count", "--surface", "K3:2", "--delta", "\u0663"],  # Arabic-Indic 3
    ["count", "--surface", "K3:2", "--delta", "-\u0663"],
    ["count", "--surface", "K3:2", "--delta", "\u00b2"],  # superscript 2
    ["count", "--surface", "-h", "--delta", "1"],
    ["count", "--surface", "-5", "--delta", "1"],  # str values to argparse
    ["series", "--name", "-3"],
    ["count", "--delta", "-5", "--surface", "K3:2"],
    ["count", "--surface", "K3:2", "--delta", "2", "extra"],
    ["node-polys", "--max-delta", "2.0"],  # bad int
    ["node-polys", "--max-delta", "1_0"],  # int() reads 10
    ["node-polys", "--max-delta", "9" * 5000],  # past int's digit limit
    ["yau-zaslow", "--format", "xml"],  # bad choice
    ["series", "--order", "3"],  # no --name
    ["series", "--name", "G2"],  # defaults only
    ["rr-solve", "extra"],
    ["no-such-command"],
    ["-h"],
    [],
] + [[command, "-h"] for command, _, _, _ in cli.COMMANDS]


def reader_lines():
    lines = (golden_lines() + DELTA5_LINES + READER_CORPUS
             + [argv for argv, _ in SHARED_PARSER_LINES])
    return [pytest.param(argv, id=" ".join(argv)[:60] or "[]")
            for argv in lines]


@pytest.mark.parametrize("argv", reader_lines())
def test_reader_sets_what_argparse_sets(argv, monkeypatch):
    args = read_args(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))
    # and the run prints what the argparse path prints
    monkeypatch.setenv("COLUMNS", "80")
    direct = invoke(argv)
    monkeypatch.setattr(cli, "read_args", lambda argv: None)
    assert invoke(argv) == direct


def test_run_writes_only_to_its_streams(capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run(["--help"], out=out, err=err) == 0
    assert out.getvalue().startswith("usage: nodepoly ")
    assert err.getvalue() == ""
    # argparse's help and usage errors included
    for argv, stdin_text in (SHARED_PARSER_LINES
                             + [(argv, "") for argv in READER_CORPUS]):
        invoke(argv, stdin_text)
        assert capsys.readouterr() == ("", ""), argv


def test_benchmark_and_golden_lines_take_the_direct_path(monkeypatch):
    def refusing_build_parser():
        raise AssertionError("the parser was built")

    monkeypatch.setattr(cli, "build_parser", refusing_build_parser)
    for argv in golden_lines() + DELTA5_LINES:
        assert read_args(argv) is not None, argv
    for argv in DELTA5_LINES[:4]:
        assert invoke(argv)[0] == 0


def test_bare_commands_default_to_order_5():
    assert DEFAULT_ORDER == 5
    for command, _, options, _ in cli.COMMANDS:
        for option, kind, _, default, _ in options:
            if kind is int and default is not None:
                assert default == DEFAULT_ORDER, (command, option)
    assert invoke(["node-polys"])[1] == \
        invoke(["node-polys", "--max-delta", "5"])[1]


def test_internal_errors_exit_without_traceback(monkeypatch):
    def handler(args, stdin):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli.HANDLERS, "rr-solve", handler)
    code, out, err = invoke(["rr-solve"])
    assert (code, out) == (2, "")
    assert err == "nodepoly: error: division by zero\n"


def test_module_entry_point_uses_the_process_streams():
    # python -m nodepoly.cli runs main(): run() with argv=None reads
    # sys.argv and writes to sys.stdout/sys.stderr, and the exit code
    # leaves through SystemExit; every case is a process of its own, as
    # main() freezes the heap of the process it ends.  Without
    # PYTHONUNBUFFERED stdout is block-buffered, as under a shell's pipe.
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])

    def console(*argv, entry=("-m", "nodepoly.cli")):
        proc = subprocess.run([sys.executable, *entry, *argv],
                              capture_output=True, env=env,
                              stdin=subprocess.DEVNULL)
        return proc.returncode, proc.stdout, proc.stderr

    for argv, expected in ((["node-polys", "--max-delta", "2"], 0),
                           (["--help"], 0), (["count", "--delta", "1"], 2)):
        code, out, err = invoke(argv)
        assert console(*argv) == (code, out.encode(), err.encode())
        assert code == expected
    assert console("node-polys", "--max-delta", "21") == \
        (2, b"", f"nodepoly: error: {cap_message(21)}\n".encode())

    # shutdown is the interpreter's own: an atexit handler registered
    # before main() runs, after main() froze the heap, and what it prints
    # is flushed after the document
    code, out, _ = invoke(["node-polys", "--max-delta", "2"])
    assert console("node-polys", "--max-delta", "2", entry=(
        "-c", "import atexit, gc; atexit.register(lambda: print("
              "'frozen:', gc.get_freeze_count() > 0)); "
              "from nodepoly.cli import main; main()")) == \
        (code, (out + "frozen: True\n").encode(), b"")

    # a reader that closed stdout: status 141 and an empty stderr, whether
    # the write inside run() fails (delta 20, 1.1 MB, past a pipe buffer)
    # or only main's flush (delta 2)
    for delta in ("20", "2"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "nodepoly.cli", "node-polys",
             "--max-delta", delta], stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        with proc.stderr:
            stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (141, b"")


def test_output_is_deterministic():
    for argv in (["node-polys", "--max-delta", "3"],
                 ["yau-zaslow", "--max-delta", "3"],
                 ["rr-solve"]):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


# -- the JSON emitter against json.dumps as the oracle -------------------------

def oracle(doc):
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


def emitted(doc):
    out = io.StringIO()
    emit_json(doc, out)
    return out.getvalue()


def test_every_command_document_matches_json_dumps(monkeypatch):
    rng = random.Random(7)
    sets = [[x for x in range(60) if rng.random() < 0.5] for _ in range(5)]
    commands = [
        (["node-polys", "--max-delta", "5"], ""),
        (["count", "--surface", "K3:8", "--delta", "5"], ""),
        (["yau-zaslow", "--max-delta", "5"], ""),
        (["blowup-check", "--surface", "P2:3"], ""),
        (["rr-solve"], ""),
        (["factorize", "--max-delta", "5"], ""),
        (["series", "--name", "G2", "--order", "5"], ""),
        (["series", "--name", "PARTITION_POWER(24)", "--order", "0"], ""),
        (["inclexcl"], json.dumps(sets)),
        (["inclexcl"], "[[], [0]]"),
    ]
    docs = []

    def recording_emit_json(doc, out):
        docs.append(doc)
        emit_json(doc, out)

    monkeypatch.setattr(cli, "emit_json", recording_emit_json)
    for argv, stdin_text in commands:
        code, out, err = invoke(argv, stdin_text)
        assert (code, err) == (0, "")
        if argv == ["inclexcl"]:
            # the table reaches emit_json as pre-rendered text: rebuild the
            # document with row dicts from the oracle
            assert out == inclexcl_expected(json.loads(stdin_text), "json",
                                            docs[-1])
        else:
            assert out == oracle(docs[-1])
    assert len(docs) == len(commands)


def random_text(rng):
    alphabet = 'az09 "\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2202\U0001d11e'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def random_value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 7)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.randrange(-10**6, 10**6)
    if kind == 2:
        return rng.choice((1, -1)) * rng.randrange(10**40)
    if kind == 3:
        return rng.choice((True, False))
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice(({}, []))
    if kind == 6:
        return Fraction(rng.randrange(-10**30, 10**30),
                        rng.choice((1, rng.randrange(1, 10**12))))
    if kind == 7:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {random_text(rng): random_value(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def test_random_documents_match_json_dumps():
    rng = random.Random(20041)
    for _ in range(400):
        doc = random_value(rng, 0)
        assert emitted(doc) == oracle(doc)


def test_emitter_rejects_other_types():
    for doc in (1.5, {"x": [0.25]}, {1: "a"}):
        with pytest.raises(TypeError):
            emitted(doc)
