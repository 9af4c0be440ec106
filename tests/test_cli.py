"""CLI behavior: payload correctness, exit codes, determinism."""

import io
import json
import random
from fractions import Fraction

import pytest

from nodepoly import cli, nodal
from nodepoly.cli import (MAX_PARTITION_EXPONENT, MAX_SERIES_ORDER,
                          emit_json, fmt_rational, run)
from nodepoly.inclexcl import SetSystem

from test_inclexcl import backward_induction_oracle
from test_nodal import cap_message


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def payload_of(text):
    return json.loads(text)["payload"]


def test_rational_round_trip():
    for value in (Fraction(1, 12), Fraction(-345), Fraction(0),
                  Fraction(176256), Fraction(-7, 24)):
        assert Fraction(fmt_rational(value)) == value
    assert fmt_rational(Fraction(24)) == "24"
    assert fmt_rational(Fraction(1, 2)) == "1/2"


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
    code, out, err = invoke(["series", "--name", "B1", "--order", "6"])
    assert code == 2
    assert out == ""
    assert "q^5" in err


@pytest.mark.parametrize("delta", [-1, nodal.MAX_DELTA + 1])
@pytest.mark.parametrize("argv", [
    ["node-polys", "--max-delta"],
    ["count", "--surface", "P2:3", "--delta"],
    ["yau-zaslow", "--max-delta"],
    ["blowup-check", "--surface", "P2:3", "--order"],
    ["factorize", "--max-delta"],
], ids=lambda argv: argv[0])
def test_delta_cap_error_is_the_library_message(argv, delta):
    assert invoke(argv + [str(delta)]) == (2, "", f"nodepoly: error: "
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
    for arg in (0, -1, MAX_PARTITION_EXPONENT + 1, 10**30, "10^30", "x"):
        code, out, err = invoke(["series", "--name", f"PARTITION_POWER({arg})",
                                 "--order", "500"])
        assert code == 2
        assert out == ""
        assert "out of range" in err


def test_node_polys_t1():
    code, out, _ = invoke(["node-polys", "--max-delta", "1"])
    assert code == 0
    payload = payload_of(out)
    assert payload["0"] == {"0,0,0,0": "1"}
    # T1 = 3*L2 + 2*LK + c2 keyed by exponents over (L2, LK, K2, c2)
    assert payload["1"] == {"1,0,0,0": "3", "0,1,0,0": "2", "0,0,0,1": "1"}


def test_node_polys_cap_names_data_limit():
    code, _, err = invoke(["node-polys", "--max-delta", "6"])
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


def test_factorize_builds_node_polynomials_once(monkeypatch):
    calls = []
    build = nodal.node_polynomials
    monkeypatch.setattr(nodal, "node_polynomials",
                        lambda *a: calls.append(a) or build(*a))
    code, _, _ = invoke(["factorize", "--max-delta", "3"])
    assert code == 0
    assert calls == [(3,)]


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


def test_inclexcl_rejects_deep_nesting():
    depth = 100000
    code, out, err = invoke(["inclexcl"],
                            stdin_text="[" * depth + "]" * depth)
    assert (code, out) == (2, "")
    assert err == "nodepoly: error: stdin JSON is nested too deeply\n"


def test_inclexcl_golden_output_k8():
    # Expected bytes built from the backward-induction oracle, in the
    # documented layout: rows by (size, sorted indices), JSON with
    # indent=2 and sorted keys, CSV with the index set quoted.
    sets = [[x for x in range(48) if (x * (2 * i + 3)) % 11 < 5]
            for i in range(8)]
    table = backward_induction_oracle(SetSystem(sets))
    rows = [(",".join(map(str, sorted(i))), *table[i])
            for i in sorted(table, key=lambda i: (len(i), sorted(i)))]
    union = len(set().union(*sets))
    doc = {"command": "inclexcl", "parameters": {"k": 8}, "order": None,
           "format": "json", "payload": {
               "table": [{"index_set": ix, "cardinality": plain,
                          "modified_cardinality": mod}
                         for ix, plain, mod in rows],
               "union_size": union, "union_via_modified": union,
               "union_via_alternating": union}}
    expected_json = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    expected_csv = "index_set,cardinality,modified_cardinality\n" + "".join(
        f'"{ix}",{plain},{mod}\n' for ix, plain, mod in rows)
    text = json.dumps(sets)
    assert invoke(["inclexcl"], stdin_text=text) == (0, expected_json, "")
    assert invoke(["inclexcl", "--format", "csv"], stdin_text=text) == \
        (0, expected_csv, "")


def test_usage_errors_exit_2():
    code, _, _ = invoke(["count", "--delta", "1"])
    assert code == 2
    code, _, _ = invoke(["no-such-command"])
    assert code == 2


def test_internal_errors_exit_without_traceback(monkeypatch):
    def fails(exc):
        def handler(args, out):
            raise exc
        return handler

    monkeypatch.setitem(cli.HANDLERS, "rr-solve",
                        fails(AssertionError("T_0 must be the constant 1")))
    code, out, err = invoke(["rr-solve"])
    assert (code, out) == (1, "")
    assert err == "nodepoly: error: internal check failed: " \
        "T_0 must be the constant 1\n"
    monkeypatch.setitem(cli.HANDLERS, "rr-solve",
                        fails(ZeroDivisionError("division by zero")))
    code, out, err = invoke(["rr-solve"])
    assert (code, out) == (2, "")
    assert err == "nodepoly: error: division by zero\n"


def test_output_is_deterministic():
    for argv in (["node-polys", "--max-delta", "3"],
                 ["yau-zaslow", "--max-delta", "3"],
                 ["rr-solve"]):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


# -- the JSON emitter against json.dumps as the oracle -------------------------

def oracle(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
        assert out == oracle(docs[-1])
    assert len(docs) == len(commands)


def random_text(rng):
    alphabet = 'az09 "\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2202\U0001d11e'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def random_value(rng, depth):
    kind = rng.randrange(8 if depth < 4 else 6)
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
