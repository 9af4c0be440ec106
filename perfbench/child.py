"""Fresh-interpreter entry points started by run.py.

    python child.py setup               read a warm op as JSON on stdin, import
                                        nodepoly, run the op in-process and
                                        print {"end": <time.monotonic()>, ...}
    python child.py traced <cli args>   run nodepoly.cli.run(<cli args>) with
                                        the timing wrappers installed; the CLI
                                        output goes to stdout, the trace as
                                        JSON to stderr

A warm op is {"argv": [...], "stdin": "..."} for a CLI run, or
{"log_dg2_over_q": N} for the log of DG2/q to order N.

The monotonic clock is shared by all processes on the host, so the parent
measures set-up time from just before it starts this interpreter.  This
module imports only the stdlib and tree.py (tracing.py in traced mode), so
the child's start-up is the interpreter's and nodepoly's.
"""

import json
import sys
import time

import tree


def warm(np, op):
    """Run one warm op with nodepoly only; return its exit code."""
    if "argv" in op:
        return tree.run_cli(np, op["argv"], op.get("stdin", ""))[0]
    n = op["log_dg2_over_q"]
    np.series.PSeries(np.modular.dg2_series(n + 1).coeffs[1:]).log()
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        op = json.load(sys.stdin)
        np = tree.load_nodepoly()
        rc = warm(np, op)
        end = time.monotonic()
        print(json.dumps({"end": end, "exit_code": rc, "nodepoly_file": np.__file__}))
        return 0
    if mode == "traced":
        import tracing
        np = tree.load_nodepoly()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rc, text = tree.run_cli(np, argv[1:])
        finally:
            tracer.uninstall()
        sys.stdout.write(text)
        sys.stderr.write(json.dumps(tracer.export()))
        return rc
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
