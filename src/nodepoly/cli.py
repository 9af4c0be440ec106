"""Command-line front end with exact-rational structured output.

Every subcommand emits one JSON document (CSV for flat tables on request)
wrapping the command name, its parameters and the payload.  Rationals are
serialized losslessly as "numerator/denominator" strings, integers without
the "/1"; polynomial coefficients are keyed by exponent tuples "a,b,c,d"
over (L2, LK, K2, c2).  Output is byte-identical across runs for identical
inputs.

The JSON layout is fixed: object keys sorted, two-space indent, a comma
ending each line but an object's or array's last, ": " after each key,
strings ASCII-escaped (non-ASCII and control characters as \\uXXXX), and
"{}" / "[]" for empty containers -- byte for byte what
``json.dumps(doc, indent=2, sort_keys=True)`` prints.

Exit codes: 0 success (and exact equality for the comparison commands),
1 mathematical mismatch or failed internal check, 2 the input was rejected:
a ValueError from the library (the delta cap in ``nodal``, a malformed
surface or set system) or from the CLI's own bounds, or a division by zero
the input asked for.  Errors are one line on stderr.
"""

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import inclexcl, nodal
from .chern import parse_surface, rr_example_pairs, solve_rr_coefficients
from .modular import (d2g2_series, delta_series, dg2_series, g2_series,
                      partition_power_series)
from .nodal import MAX_DELTA

# Building DELTA or PARTITION_POWER(24) to q^500 takes 0.04-0.13 s on a
# 2-vCPU host (the whole CLI run 0.2-0.3 s), and 0.2-0.9 s to q^1000.
MAX_SERIES_ORDER = 500
# PARTITION_POWER(e) to q^500 takes about 0.8 s at e = 1000 and 7.8 s at
# e = 10^6: binary powering, whose coefficients grow with e.
MAX_PARTITION_EXPONENT = 1000

MODULAR_SERIES = {"G2": g2_series, "DG2": dg2_series, "D2G2": d2g2_series,
                  "DELTA": delta_series, "B1": nodal.b1_series,
                  "B2": nodal.b2_series}


# -- serialization -----------------------------------------------------------

def fmt_rational(x):
    """Lossless "num/den" string; integers drop the denominator."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def fmt_series(series):
    return [fmt_rational(c) for c in series]


def fmt_poly(poly):
    return {",".join(str(e) for e in exps): fmt_rational(c)
            for exps, c in poly.sorted_terms()}


def fmt_surface(s):
    return {"name": s.name, "L2": s.L2, "LK": s.LK, "K2": s.K2, "c2": s.c2}


def _write_json(value, newline, write):
    """Pass the JSON text of ``value`` (dict with str keys, list, str, int,
    bool or None) to ``write`` in pieces; ``newline`` is a line break plus
    the indent of the level ``value`` sits at.

    ``json.dumps(indent=2)`` runs the pure-Python encoder (CPython's C
    encoder serves only ``indent=None``); this one covers just the types
    the documents hold and raises TypeError on any other.
    """
    kind = type(value)
    if kind is str:
        write(encode_basestring_ascii(value))
    elif kind is int:
        write(int.__repr__(value))
    elif kind is dict:
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            # encode_basestring_ascii raises TypeError on a non-str key
            write(sep)
            write(encode_basestring_ascii(key))
            write(": ")
            _write_json(value[key], inner, write)
            sep = "," + inner
        write(newline)
        write("}")
    elif kind is list:
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline)
        write("]")
    elif value is None:
        write("null")
    elif kind is bool:
        write("true" if value else "false")
    else:
        raise TypeError(f"cannot emit a {kind.__name__} as JSON")


def emit_json(doc, out):
    parts = []
    _write_json(doc, "\n", parts.append)
    parts.append("\n")
    out.write("".join(parts))


def emit_csv(header, rows, out):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(v) for v in row) + "\n")


def document(command, parameters, order, fmt, payload):
    return {"command": command, "parameters": parameters, "order": order,
            "format": fmt, "payload": payload}


# -- subcommand handlers ------------------------------------------------------

def cmd_node_polys(args, out):
    table = nodal.node_polynomials(args.max_delta)
    payload = {str(d): fmt_poly(table[d]) for d in range(args.max_delta + 1)}
    emit_json(document("node-polys", {"max_delta": args.max_delta},
                       args.max_delta, "json", payload), out)
    return 0


def cmd_count(args, out):
    surface = parse_surface(args.surface)
    result = nodal.count_nodal(surface, args.delta)
    payload = {
        "surface": fmt_surface(surface),
        "delta": args.delta,
        "count": fmt_rational(result.value),
        "validity": result.validity,
        "chi_L": surface.chi_L(),
        "dim_linear_system": surface.dim_linear_system(),
    }
    emit_json(document("count", {"surface": args.surface, "delta": args.delta},
                       args.delta, "json", payload), out)
    return 0


def cmd_yau_zaslow(args, out):
    report = nodal.yau_zaslow_check(args.max_delta)
    rows = [(r.delta, fmt_rational(r.node_value), fmt_rational(r.partition_value),
             r.equal) for r in report.rows]
    if args.format == "csv":
        emit_csv(("delta", "node_polynomial_value", "partition_coefficient",
                  "equal"), rows, out)
    else:
        payload = {
            "rows": [{"delta": d, "node_polynomial_value": lhs,
                      "partition_coefficient": rhs, "equal": eq}
                     for d, lhs, rhs, eq in rows],
            "all_equal": report.all_equal,
        }
        emit_json(document("yau-zaslow", {"max_delta": args.max_delta},
                           args.max_delta, args.format, payload), out)
    return 0 if report.all_equal else 1


def cmd_blowup_check(args, out):
    surface = parse_surface(args.surface)
    check = nodal.blowup_identity_check(surface, args.order)
    payload = {
        "surface": fmt_surface(surface),
        "blowup": fmt_surface(surface.blowup()),
        "lhs": fmt_series(check.lhs),
        "rhs": fmt_series(check.rhs),
        "holds": check.holds,
    }
    emit_json(document("blowup-check",
                       {"surface": args.surface, "order": args.order},
                       args.order, "json", payload), out)
    return 0 if check.holds else 1


def cmd_rr_solve(args, out):
    pairs = rr_example_pairs()
    coeffs = solve_rr_coefficients(pairs)
    payload = {
        "A1": fmt_rational(coeffs.A1), "A2": fmt_rational(coeffs.A2),
        "A3": fmt_rational(coeffs.A3), "A4": fmt_rational(coeffs.A4),
        "catalog": [{"surface": fmt_surface(s), "chi": chi}
                    for s, chi in pairs],
    }
    emit_json(document("rr-solve", {}, None, "json", payload), out)
    return 0


def cmd_factorize(args, out):
    table = nodal.node_polynomials(args.max_delta)
    form = nodal.factorize_generating_function(args.max_delta)
    reassembled = form.generating_function()
    ok = reassembled == table.generating_series()
    payload = {
        "log_A1": fmt_series(form.log_a1),
        "log_A2": fmt_series(form.log_a2),
        "log_A3": fmt_series(form.log_a3),
        "log_A4": fmt_series(form.log_a4),
        "exponents": {"A1": "K2", "A2": "c2", "A3": "L2", "A4": "LK"},
        "reassembly_exact": ok,
    }
    emit_json(document("factorize", {"max_delta": args.max_delta},
                       args.max_delta, "json", payload), out)
    return 0 if ok else 1


def cmd_inclexcl(args, out, stdin):
    try:
        data = json.load(stdin)
    except json.JSONDecodeError as exc:
        raise ValueError(f"stdin is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("stdin JSON is nested too deeply") from exc
    if (not isinstance(data, list)
            or not all(isinstance(s, list) for s in data)):
        raise ValueError("input must be a JSON list of integer lists")
    system = inclexcl.SetSystem(data)
    table = inclexcl.modified_cardinalities(system)
    # the table is already in (size, lexicographic) order
    rows = [(",".join(map(str, sorted(i))), plain, mod)
            for i, (plain, mod) in table.items()]
    if args.format == "csv":
        emit_csv(("index_set", "cardinality", "modified_cardinality"),
                 ((f'"{ix}"', plain, mod) for ix, plain, mod in rows), out)
    else:
        payload = {
            "table": [{"index_set": ix, "cardinality": plain,
                       "modified_cardinality": mod}
                      for ix, plain, mod in rows],
            "union_size": len(system.union()),
            "union_via_modified": inclexcl.union_via_modified(system, table),
            "union_via_alternating": inclexcl.union_via_alternating(system,
                                                                    table),
        }
        emit_json(document("inclexcl", {"k": system.k}, None, args.format,
                           payload), out)
    return 0


def _modular_series(name, order):
    """The q-expansion called ``name`` (G2, DG2, D2G2, DELTA, B1, B2 or
    PARTITION_POWER(e), any case) to q^order."""
    key = name.upper()
    built = max(order, 1)  # DELTA needs order >= 1
    if key in MODULAR_SERIES:
        return MODULAR_SERIES[key](built).truncate(order)
    if key.startswith("PARTITION_POWER(") and key.endswith(")"):
        arg = key[len("PARTITION_POWER("):-1]
        try:
            e = int(arg)
        except ValueError:
            e = 0
        if not 1 <= e <= MAX_PARTITION_EXPONENT:
            raise ValueError(
                f"PARTITION_POWER exponent {arg!r} is out of range: it must "
                f"be an integer in 1..{MAX_PARTITION_EXPONENT}")
        return partition_power_series(e, built).truncate(order)
    raise ValueError(f"unknown series name {name!r}")


def cmd_series(args, out):
    if not 0 <= args.order <= MAX_SERIES_ORDER:
        raise ValueError(
            f"order {args.order} is out of range: series are emitted to "
            f"orders 0..{MAX_SERIES_ORDER}")
    series = _modular_series(args.name, args.order)
    if args.format == "csv":
        emit_csv(("k", "coefficient"),
                 ((k, fmt_rational(c)) for k, c in enumerate(series)), out)
    else:
        emit_json(document("series", {"name": args.name, "order": args.order},
                           args.order, "json", fmt_series(series)), out)
    return 0


# -- parser -------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nodepoly",
        description="Exact node-polynomial computations for algebraic "
                    "surfaces (all output is exact rational arithmetic).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("node-polys",
                       help="emit the universal node polynomials T_0..T_delta")
    p.add_argument("--max-delta", type=int, default=MAX_DELTA)

    p = sub.add_parser("count",
                       help="evaluate a node polynomial on a surface")
    p.add_argument("--surface", required=True,
                   help="P2:d, K3:l2, T4:l2 or explicit L2,LK,K2,c2")
    p.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("yau-zaslow",
                       help="compare K3 counts with the partition power")
    p.add_argument("--max-delta", type=int, default=MAX_DELTA)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("blowup-check",
                       help="verify the one-point blowup identity")
    p.add_argument("--surface", required=True)
    p.add_argument("--order", type=int, default=MAX_DELTA)

    sub.add_parser("rr-solve",
                   help="recover the Riemann-Roch coefficients from surfaces")

    p = sub.add_parser("factorize",
                       help="split log F into the four per-Chern-number series")
    p.add_argument("--max-delta", type=int, default=MAX_DELTA)

    p = sub.add_parser("inclexcl",
                       help="modified cardinalities of a set system "
                            "(JSON list of integer lists on stdin)")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("series",
                       help="emit a named q-expansion")
    p.add_argument("--name", required=True,
                   help="G2, DG2, D2G2, DELTA, B1, B2 or PARTITION_POWER(e)")
    p.add_argument("--order", type=int, default=MAX_DELTA)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


HANDLERS = {
    "node-polys": cmd_node_polys,
    "count": cmd_count,
    "yau-zaslow": cmd_yau_zaslow,
    "blowup-check": cmd_blowup_check,
    "rr-solve": cmd_rr_solve,
    "factorize": cmd_factorize,
    "series": cmd_series,
}


def run(argv=None, out=None, err=None, stdin=None):
    """Dispatch a command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.command == "inclexcl":
            return cmd_inclexcl(args, out, stdin)
        return HANDLERS[args.command](args, out)
    except (ValueError, ZeroDivisionError) as exc:
        err.write(f"nodepoly: error: {exc}\n")
        return 2
    except AssertionError as exc:
        err.write(f"nodepoly: error: internal check failed: {exc}\n")
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
