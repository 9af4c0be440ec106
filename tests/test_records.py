"""The result records: immutable values that cost nothing to import.

The records are namedtuple subclasses.  Each has named fields, a
``Name(field=value, ...)`` repr, equality by value, a hash when every field
hashes, and no way to assign a field.  The table of node polynomials is the
series F that node_polynomials returns, a slotted PSeries with no hash.
Importing the CLI loads no module beyond what fractions loads already and
the C module ``_json``, and a well-formed command line runs without loading
argparse or json.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nodepoly.chern import K3, P2, RRCoefficients, SurfaceClass
from nodepoly.chernpoly import ChernPoly
from nodepoly.inclexcl import SetSystem
from nodepoly.nodal import (BlowupCheck, FactorizedForm, NodalCount,
                            YauZaslowReport, YauZaslowRow,
                            blowup_identity_check, count_nodal,
                            factorize_generating_function, node_polynomials,
                            yau_zaslow_check)
from nodepoly.series import PSeries

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_PROBE = """
import io, sys
import fractions
before = set(sys.modules)
import nodepoly.cli
print(" ".join(sorted(set(sys.modules) - before)))
for argv in (["node-polys", "--max-delta", "2"],
             ["factorize", "--max-delta", "2"],
             ["yau-zaslow", "--max-delta", "2"],
             ["count", "--surface", "K3:8", "--delta", "2"]):
    assert nodepoly.cli.run(argv, out=io.StringIO()) == 0, argv
print(" ".join(m for m in ("argparse", "gettext", "json", "dataclasses",
                           "inspect", "ast", "dis", "tokenize")
               if m in sys.modules))
"""


def test_cli_import_loads_no_extra_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=env, check=True)
    added, heavy = proc.stdout.split("\n")[:2]
    assert heavy == ""
    # _json is the C module that json.encoder binds its string escaper from
    assert all(m in ("nodepoly", "_json") or m.startswith("nodepoly.")
               for m in added.split()), added


S = SurfaceClass("P2:3", 9, -9, 9, 3)
ONE = PSeries([1])
ZERO = PSeries([0])

# (record, an equal record built separately, a different record, repr text)
RECORDS = [
    (P2(3), S, P2(4),
     "SurfaceClass(name='P2:3', L2=9, LK=-9, K2=9, c2=3)"),
    (RRCoefficients(Fraction(1, 12), Fraction(1, 12), Fraction(1, 2),
                    Fraction(1, 2)),
     RRCoefficients(Fraction(1, 12), Fraction(1, 12), Fraction(1, 2),
                    Fraction(1, 2)),
     RRCoefficients(0, 0, 0, 0),
     "RRCoefficients(A1=Fraction(1, 12), A2=Fraction(1, 12), "
     "A3=Fraction(1, 2), A4=Fraction(1, 2))"),
    (SetSystem([[2, 1], [3]]), SetSystem([{1, 2}, (3,)]), SetSystem([[3]]),
     "SetSystem(k=2, signatures={1: 1, 2: 1, 3: 2})"),
    (node_polynomials(0), node_polynomials(0), node_polynomials(1),
     "PSeries([ChernPoly({(0, 0, 0, 0): Fraction(1, 1)})])"),
    (ChernPoly.variable(0), ChernPoly({(1, 0, 0, 0): 1}),
     ChernPoly.variable(1), "ChernPoly({(1, 0, 0, 0): Fraction(1, 1)})"),
    (count_nodal(P2(3), 1), NodalCount(S, 1, Fraction(12), "in range"),
     count_nodal(P2(3), 0),
     "NodalCount(surface=SurfaceClass(name='P2:3', L2=9, LK=-9, K2=9, c2=3), "
     "delta=1, value=Fraction(12, 1), validity='in range')"),
    (YauZaslowRow(1, Fraction(24), Fraction(24)),
     yau_zaslow_check(1).rows[1], YauZaslowRow(1, Fraction(24), Fraction(0)),
     "YauZaslowRow(delta=1, node_value=Fraction(24, 1), "
     "partition_value=Fraction(24, 1))"),
    (yau_zaslow_check(1),
     YauZaslowReport((YauZaslowRow(0, Fraction(1), Fraction(1)),
                      YauZaslowRow(1, Fraction(24), Fraction(24)))),
     yau_zaslow_check(0),
     "YauZaslowReport(rows=(YauZaslowRow(delta=0, node_value=Fraction(1, 1), "
     "partition_value=Fraction(1, 1)), YauZaslowRow(delta=1, "
     "node_value=Fraction(24, 1), partition_value=Fraction(24, 1))))"),
    (blowup_identity_check(K3(0), 0), BlowupCheck(K3(0), 0, ONE, ONE),
     blowup_identity_check(K3(2), 0),
     "BlowupCheck(surface=SurfaceClass(name='K3:0', L2=0, LK=0, K2=0, c2=24), "
     "order=0, lhs=PSeries([Fraction(1, 1)]), rhs=PSeries([Fraction(1, 1)]))"),
    (factorize_generating_function(0),
     FactorizedForm(0, ZERO, ZERO, ZERO, ZERO),
     factorize_generating_function(1),
     "FactorizedForm(max_delta=0, log_a1=PSeries([Fraction(0, 1)]), "
     "log_a2=PSeries([Fraction(0, 1)]), log_a3=PSeries([Fraction(0, 1)]), "
     "log_a4=PSeries([Fraction(0, 1)]))"),
]
# these are or hold a PSeries, or are a ChernPoly, so they have no hash
UNHASHABLE = (PSeries, ChernPoly, BlowupCheck, FactorizedForm)
# node_polynomials' table T_0..T_delta is the series F, so its id is the table
IDS = ["NodePolynomialTable" if type(r[0]) is PSeries else type(r[0]).__name__
       for r in RECORDS]


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_record_repr_and_equality(record, twin, other, text):
    assert repr(record) == text
    assert record == twin and not record != twin
    assert record != other and not record == other


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_record_hashing(record, twin, other, text):
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_record_immutability(record, twin, other, text):
    # a record's first field leads its repr; a PSeries or a ChernPoly has
    # one slot
    field = getattr(record, "_fields", type(record).__slots__)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("record, twin, other, text", RECORDS, ids=IDS)
def test_record_copy_and_pickle_round_trip(record, twin, other, text):
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == text


def test_chern_poly_declines_other_operands():
    x = ChernPoly.variable(0)
    assert (x == "x") is False and (x != "x") is True
    with pytest.raises(TypeError):
        x + "x"
    with pytest.raises(TypeError):
        x - "x"


def test_chern_poly_variable_index_is_checked():
    # a negative index would count from the end (-1 gave c2) and 4 would
    # raise a bare IndexError
    for i in range(4):
        assert ChernPoly.variable(i).terms == {
            tuple(int(j == i) for j in range(4)): 1}
    for i in (-1, -4, 4, 10):
        with pytest.raises(ValueError, match=r"^variable index must be in "
                           r"0\.\.3$"):
            ChernPoly.variable(i)


def test_series_and_polynomials_copy_and_pickle():
    f = node_polynomials(2)
    assert type(f) is PSeries and f != node_polynomials(1)
    for value in (PSeries([1, 2]), ChernPoly.variable(0), f):
        for copied in (copy.deepcopy(value), copy.copy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert copied == value and repr(copied) == repr(value)


def test_package_exports():
    import nodepoly
    assert len(set(nodepoly.__all__)) == len(nodepoly.__all__)
    assert [n for n in nodepoly.__all__ if not hasattr(nodepoly, n)] == []


def test_set_system_equality_is_by_signature():
    system = SetSystem([[2, 1, 2], [3, 1]])
    twin = SetSystem([(1, 2), [1, 3, 3, 1]])  # element order, duplicates
    assert system == twin and hash(system) == hash(twin)
    assert system != SetSystem([[3, 1], [2, 1]])  # the sets swapped
    assert SetSystem([[]]) != SetSystem([[], []])
    assert SetSystem([[], [1]]) != SetSystem([[1], []])


def test_set_system_sets_round_trip():
    # a copy keeps the route of a system: small elements in lists the
    # element-indexed list, a huge element or Python sets the dict; 100
    # listed 50 times takes the list, as its cap 2 * 50 + 65 counts the
    # repeats, and a rebuild from the one distinct 100 would take the dict
    rng = random.Random(3)
    systems = [[[rng.randrange(12) for _ in range(rng.randrange(6))]
                for _ in range(k)] for k in range(1, 6)]
    for sets in systems + [[[10**30, 1], [1]], [{1}, {1, 2}], [[100] * 50]]:
        system = SetSystem(sets)
        assert system.sets == tuple(frozenset(s) for s in sets)
        assert system.union() == frozenset().union(*system.sets)
        for copied in (pickle.loads(pickle.dumps(system)),
                       copy.deepcopy(system)):
            assert copied == system
            assert type(copied.signatures) is type(system.signatures)


def test_set_system_signatures_are_read_only():
    # the list route's map and the dict route's
    for signatures in (SetSystem([[1], [1, 2]]).signatures,
                       SetSystem([{1}, {1, 2}]).signatures):
        assert signatures == {1: 3, 2: 2}
        for mutate in (lambda m: m.__setitem__(3, 1), lambda m: m.pop(1),
                       lambda m: m.update({3: 1}), lambda m: m.clear(),
                       lambda m: m.setdefault(3, 1), lambda m: m.popitem()):
            with pytest.raises(TypeError):
                mutate(signatures)
        with pytest.raises(TypeError):
            del signatures[1]
        with pytest.raises(TypeError):
            signatures |= {3: 1}
        assert signatures == {1: 3, 2: 2}


def test_set_system_signatures_copy_and_pickle():
    # both routes' maps, on their own, keep their type and equality
    for signatures in (SetSystem([[1], [1, 2]]).signatures,
                       SetSystem([{1}, {1, 2}]).signatures):
        for copied in (copy.copy(signatures), copy.deepcopy(signatures),
                       pickle.loads(pickle.dumps(signatures))):
            assert type(copied) is type(signatures)
            assert copied == signatures == {1: 3, 2: 2}


def test_record_field_access():
    s = P2(3)
    assert (s.name, s.L2, s.LK, s.K2, s.c2) == ("P2:3", 9, -9, 9, 3)
    assert SurfaceClass(name="x", L2=1, LK=1, K2=0, c2=0).L2 == 1
    count = count_nodal(K3(8), 5)
    assert (count.surface, count.delta, count.value, count.validity) == \
        (K3(8), 5, 176256, "in range")
    f = node_polynomials(2)
    assert f.order == 2 and f[1] == f.coeffs[1]
    report = yau_zaslow_check(2)
    assert report.all_equal and report.rows[2].equal
    assert report.rows[2].node_value == report.rows[2].partition_value == 324
    check = blowup_identity_check(P2(3), 2)
    assert check.holds and check.surface == P2(3) and check.order == 2
    form = factorize_generating_function(2)
    assert form.max_delta == 2 and form.log_a3[1] == 3
    assert SetSystem([[1], [1, 2]]).k == 2
    assert RRCoefficients(1, 0, 0, 0).chi(P2(3)) == 9
