"""The nodepoly of this checkout: import it, run its CLI, start children on it.

Stdlib only, and nothing is computed at import time, so the child
interpreters that import this module pay for nothing but nodepoly.
"""

import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_nodepoly():
    """Import nodepoly from this checkout's src tree, and from nowhere else."""
    if not (SRC / "nodepoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nodepoly package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nodepoly
    import nodepoly.cli
    if Path(nodepoly.__file__).resolve().parent != SRC / "nodepoly":
        raise SystemExit(f"perfbench: nodepoly imported from {nodepoly.__file__}, "
                         f"not from {SRC}")
    return nodepoly


def child_env():
    """Environment for child interpreters: the checkout's src comes first.

    Children may write bytecode, as a default Python does, so that with or
    without PYTHONDONTWRITEBYTECODE in the caller's environment an op loads
    nodepoly from src/nodepoly/__pycache__ instead of compiling it each time.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def run_cli(np, argv, stdin_text=""):
    """nodepoly.cli.run in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    rc = np.cli.run(argv, out=out, err=io.StringIO(), stdin=io.StringIO(stdin_text))
    return rc, out.getvalue()
