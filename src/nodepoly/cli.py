"""Command-line front end with exact-rational structured output.

Each subcommand's handler returns its payload, and ``run`` writes it as one
JSON document (CSV for flat tables on request) of five keys: "command";
"parameters", the options but --format (``inclexcl`` gives the k it read);
"order", the value of the command's int option or null; "format", always
"json"; and "payload".  Rationals go into it as Fractions, and the emitter
prints each as the JSON string of its ``str``: "numerator/denominator", or
the numerator alone when the denominator is 1; a CSV cell is ``str`` of its
value.  Polynomial coefficients are keyed by exponent tuples "a,b,c,d" over
(L2, LK, K2, c2).  Output is byte-identical across runs for identical
inputs.

The JSON layout is fixed: object keys sorted, two-space indent, a comma
ending each line but an object's or array's last, ": " after each key,
strings ASCII-escaped (non-ASCII and control characters as \\uXXXX), and
"{}" / "[]" for empty containers -- byte for byte what
``json.dumps(doc, indent=2, sort_keys=True, default=str)`` prints.  The
rows of the ``inclexcl`` table, up to 1023 of them, are the one exception
to the generic emitter: each is filled into a fixed row template laid out
at its depth, held by the tests to the same ``json.dumps`` contract.

The command table ``COMMANDS`` declares each option once, as (option,
type, choices, default, help); an option whose default is None is
required.  A command line ``<command> (--option value)*`` whose values all
pass is read directly from that table (``read_args``), without importing
argparse; any other -- ``--help``, a str value starting with "-" and every
usage error included -- goes to an argparse parser built from the same
table for that line.  Only ``inclexcl`` imports the json package.

Exit codes: 0 success (and exact equality for the comparison commands),
1 a mathematical mismatch and nothing else, 2 the input was rejected: a
ValueError from the library (the delta cap in ``nodal``, a malformed
surface or set system) or from the CLI's own bounds, or a division by zero
the input asked for.  An integer past the int-string digit limit (typed,
on stdin or in a result) is one: its message names the limit, not the
digits (``chern.past_digit_limit``).  One line on stderr, its message cut
to head and tail past 200 characters (``chern._abridge``).
A usage error is argparse's usage line plus one error line, cut by the same
bound.  ``run`` writes every byte the CLI prints to its ``out`` and ``err``,
argparse's help and usage errors included.
"""

import sys
from _json import encode_basestring_ascii
from fractions import Fraction
from types import SimpleNamespace

from . import inclexcl, nodal
from .chern import (_abridge, parse_integer, parse_surface, past_digit_limit,
                    rr_example_pairs, solve_rr_coefficients)
from .modular import (d2g2_series, delta_series, dg2_series, g2_series,
                      partition_power_series)

# Both bounds limit input from outside the program, not the kernels.  On a
# 2-vCPU host, DELTA or PARTITION_POWER(24) to q^500 builds in 0.01 s (the
# whole CLI run 0.08-0.11 s) and to q^1000 in 0.04-0.05 s.
MAX_SERIES_ORDER = 500
# PARTITION_POWER(e) to q^500 takes 0.02 s at e = 1000 and at e = 10^6.
MAX_PARTITION_EXPONENT = 1000

MODULAR_SERIES = {"G2": g2_series, "DG2": dg2_series, "D2G2": d2g2_series,
                  "DELTA": delta_series, "B1": nodal.b1_series,
                  "B2": nodal.b2_series}


# -- serialization -----------------------------------------------------------

def fmt_poly(poly):
    # unsorted: _write_json sorts the keys
    return {",".join(map(str, exps)): c for exps, c in poly.terms.items()}


class _Verbatim(str):
    """JSON text already rendered at the depth it sits; ``_write_json``
    writes it as it stands."""
    __slots__ = ()


def _write_json(value, newline, write):
    """Pass the JSON text of ``value`` (dict with str keys, list, str, int,
    Fraction, bool, None or ``_Verbatim`` text) to ``write`` in pieces;
    ``newline`` is a line break plus the indent of the level ``value`` sits
    at.  A Fraction's ``str`` (digits, "-" and "/") needs no escaping.

    ``json.dumps(indent=2)`` runs the pure-Python encoder (CPython's C
    encoder serves only ``indent=None``); this one covers just the types
    the documents hold and raises TypeError on any other.
    """
    kind = type(value)
    if kind is str:
        write(encode_basestring_ascii(value))
    elif kind is Fraction:
        write(f'"{value}"')
    elif kind is _Verbatim:
        write(value)
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
    out.write("".join(",".join(map(str, row)) + "\n"
                      for row in (header, *rows)))


# -- subcommand handlers ------------------------------------------------------
# Each takes the parsed arguments and stdin and returns (payload, ok); under
# --format csv the payload is the (header, rows) table.  ``run`` writes it.

def cmd_node_polys(args, stdin):
    f = nodal.node_polynomials(args.max_delta)
    return {str(d): fmt_poly(t) for d, t in enumerate(f)}, True


def cmd_count(args, stdin):
    surface = parse_surface(args.surface)
    result = nodal.count_nodal(surface, args.delta)
    return {
        "surface": surface._asdict(),
        "delta": args.delta,
        "count": result.value,
        "validity": result.validity,
        "chi_L": surface.chi_L(),
        "dim_linear_system": surface.dim_linear_system(),
    }, True


def cmd_yau_zaslow(args, stdin):
    report = nodal.yau_zaslow_check(args.max_delta)
    header = ("delta", "node_polynomial_value", "partition_coefficient",
              "equal")
    rows = [(r.delta, r.node_value, r.partition_value, r.equal)
            for r in report.rows]
    if args.format == "csv":
        return (header, rows), report.all_equal
    return {"rows": [dict(zip(header, row)) for row in rows],
            "all_equal": report.all_equal}, report.all_equal


def cmd_blowup_check(args, stdin):
    surface = parse_surface(args.surface)
    check = nodal.blowup_identity_check(surface, args.order)
    return {
        "surface": surface._asdict(),
        "blowup": surface.blowup()._asdict(),
        "lhs": list(check.lhs),
        "rhs": list(check.rhs),
        "holds": check.holds,
    }, check.holds


def cmd_rr_solve(args, stdin):
    pairs = rr_example_pairs()
    return {
        **solve_rr_coefficients(pairs)._asdict(),
        "catalog": [{"surface": s._asdict(), "chi": chi} for s, chi in pairs],
    }, True


def cmd_factorize(args, stdin):
    form = nodal.factorize_generating_function(args.max_delta)
    ok = form.reassembles()
    return {
        "log_A1": list(form.log_a1),
        "log_A2": list(form.log_a2),
        "log_A3": list(form.log_a3),
        "log_A4": list(form.log_a4),
        "exponents": {"A1": "K2", "A2": "c2", "A3": "L2", "A4": "LK"},
        "reassembly_exact": ok,
    }, ok


# One table row as _write_json lays it out at document["payload"]["table"],
# three levels down; the keys are in sorted order and the labels need no
# escaping.
_ROW = ('{\n        "cardinality": %d,\n        "index_set": "%s",'
        '\n        "modified_cardinality": %d\n      }')


def cmd_inclexcl(args, stdin):
    import json
    text = stdin.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"stdin is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("stdin JSON is nested too deeply") from exc
    except ValueError as exc:  # int() past its digit limit
        raise ValueError(past_digit_limit("stdin holds")) from exc
    if (not isinstance(data, list)
            or not all(isinstance(s, list) for s in data)):
        raise ValueError("input must be a JSON list of integer lists")
    system = inclexcl.SetSystem(data)
    args.k = system.k
    plain, modified = table = inclexcl.modified_cardinalities(system)
    names = [str(i) for i in range(system.k)]
    labels = map(",".join, inclexcl.nonempty_combinations(names))
    if args.format == "csv":
        return (("index_set", "cardinality", "modified_cardinality"),
                zip(map('"%s"'.__mod__, labels), plain, modified)), True
    rows = map(_ROW.__mod__, zip(plain, labels, modified))
    return {
        "table": _Verbatim("[\n      " + ",\n      ".join(rows) + "\n    ]"),
        "union_size": len(system.signatures),
        "union_via_modified": inclexcl.union_via_modified(system, table),
        "union_via_alternating": inclexcl.union_via_alternating(system, table),
    }, True


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
            e = parse_integer(arg)
        except ValueError as exc:
            raise ValueError(f"PARTITION_POWER exponent: {exc}") from None
        if not 1 <= e <= MAX_PARTITION_EXPONENT:
            raise ValueError(
                f"PARTITION_POWER exponent {arg!r} is out of range: it must "
                f"be an integer in 1..{MAX_PARTITION_EXPONENT}")
        return partition_power_series(e, built).truncate(order)
    raise ValueError(f"unknown series name {name!r}")


def cmd_series(args, stdin):
    if not 0 <= args.order <= MAX_SERIES_ORDER:
        raise ValueError(
            f"order {args.order} is out of range: series are emitted to "
            f"orders 0..{MAX_SERIES_ORDER}")
    series = _modular_series(args.name, args.order)
    if args.format == "csv":
        return (("k", "coefficient"), enumerate(series)), True
    return list(series), True


# -- command line -------------------------------------------------------------

# The default of every --max-delta and --order.  It is the CLI's own, not
# nodal.MAX_DELTA, so that raising the library's cap leaves the output of a
# bare command as it is.
DEFAULT_ORDER = 5

_FORMAT = ("--format", None, ("json", "csv"), "json", None)

# The one declaration of the command line, read by build_parser, read_args
# and run: each command with its help text, its options as (option, type,
# choices, default, help) and its handler.  The dest is the option name with
# "_" for "-", as argparse derives it; an option whose default is None is
# required.  A type of None keeps a str value, which read_args declines to
# argparse if it starts with "-"; int is read by chern.parse_integer.  A
# command has at most one int option, whose value is the document's "order".
COMMANDS = (
    ("node-polys", "emit the universal node polynomials T_0..T_delta", (
        ("--max-delta", int, None, DEFAULT_ORDER, None),
    ), cmd_node_polys),
    ("count", "evaluate a node polynomial on a surface", (
        ("--surface", None, None, None,
         "P2:d, K3:l2, T4:l2 or explicit L2,LK,K2,c2"),
        ("--delta", int, None, None, None),
    ), cmd_count),
    ("yau-zaslow", "compare K3 counts with the partition power", (
        ("--max-delta", int, None, DEFAULT_ORDER, None),
        _FORMAT,
    ), cmd_yau_zaslow),
    ("blowup-check", "verify the one-point blowup identity", (
        ("--surface", None, None, None, None),
        ("--order", int, None, DEFAULT_ORDER, None),
    ), cmd_blowup_check),
    ("rr-solve", "recover the Riemann-Roch coefficients from surfaces", (),
     cmd_rr_solve),
    ("factorize", "split log F into the four per-Chern-number series", (
        ("--max-delta", int, None, DEFAULT_ORDER, None),
    ), cmd_factorize),
    ("inclexcl", "modified cardinalities of a set system "
                 "(JSON list of integer lists on stdin)", (
        _FORMAT,
    ), cmd_inclexcl),
    ("series", "emit a named q-expansion", (
        ("--name", None, None, None,
         "G2, DG2, D2G2, DELTA, B1, B2 or PARTITION_POWER(e)"),
        ("--order", int, None, DEFAULT_ORDER, None),
        _FORMAT,
    ), cmd_series),
)

# command -> {option: (dest, type, choices, default)}
_OPTIONS = {command: {option: (option[2:].replace("-", "_"), kind, choices,
                               default)
                      for option, kind, choices, default, _ in options}
            for command, _, options, _ in COMMANDS}
HANDLERS = {command: handler for command, _, _, handler in COMMANDS}
# command -> the dest of its int option, or None
_ORDER = {command: next((dest for dest, kind, _, _ in options.values()
                         if kind is int), None)
          for command, options in _OPTIONS.items()}


def build_parser():
    """The argparse parser of :data:`COMMANDS`: the reference for every
    command line, and the reader of those :func:`read_args` declines."""
    import argparse

    def integer(value):
        try:
            return parse_integer(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    class Parser(argparse.ArgumentParser):
        # subparsers are built with the class of their parent
        def error(self, message):
            super().error(_abridge(message))

    parser = Parser(
        prog="nodepoly",
        description="Exact node-polynomial computations for algebraic "
                    "surfaces (all output is exact rational arithmetic).")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, options, _ in COMMANDS:
        p = sub.add_parser(command, help=help_text)
        for option, kind, choices, default, option_help in options:
            p.add_argument(option, choices=choices,
                           type=integer if kind is int else kind,
                           required=default is None, default=default,
                           help=option_help)
    return parser


def read_args(argv):
    """The attributes ``build_parser().parse_args(argv)`` would set, for a
    well-formed ``<command> (--option value)*``; None for any other argv.

    Well-formed means: option names spelled in full, each at most once; int
    values that :func:`~nodepoly.chern.parse_integer` reads, str values not
    starting with "-", values among the choices; every required option
    given.  Whatever this declines (``-h``, abbreviations, ``--opt=value``,
    repeats, bad values, usage errors) argparse reads, as before.
    """
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None or len(argv) % 2 == 0:
        return None
    fields = {"command": argv[0]}
    for option, value in zip(argv[1::2], argv[2::2]):
        entry = options.get(option)
        if entry is None or entry[0] in fields:
            return None
        dest, kind, choices, _ = entry
        if kind is int:
            try:
                value = parse_integer(value)
            except ValueError:
                return None
        elif value[:1] == "-":
            return None
        if choices is not None and value not in choices:
            return None
        fields[dest] = value
    for dest, _, _, default in options.values():
        fields.setdefault(dest, default)
    # a required option, whose default is None, is missing
    return None if None in fields.values() else SimpleNamespace(**fields)


def run(argv=None, out=None, err=None, stdin=None):
    """Dispatch a command line, write the handler's payload as the
    command's document (or CSV table); returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    if argv is None:
        argv = sys.argv[1:]
    args = read_args(argv)
    if args is None:
        from contextlib import redirect_stderr, redirect_stdout
        try:
            with redirect_stdout(out), redirect_stderr(err):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if exc.code is not None else 2
    try:
        payload, ok = HANDLERS[args.command](args, stdin)
        try:
            if getattr(args, "format", "json") == "csv":
                emit_csv(*payload, out)
            else:
                parameters = {dest: value for dest, value in vars(args).items()
                              if dest not in ("command", "format")}
                emit_json({"command": args.command, "parameters": parameters,
                           "order": parameters.get(_ORDER[args.command]),
                           "format": "json", "payload": payload}, out)
        except ValueError as exc:  # str() past the int digit limit
            raise ValueError(past_digit_limit("the result holds")) from exc
        return 0 if ok else 1
    except (ValueError, ZeroDivisionError) as exc:
        err.write(f"nodepoly: error: {_abridge(str(exc))}\n")
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
