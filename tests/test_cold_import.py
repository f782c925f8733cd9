"""Starting the command line imports no heavy optional module.

The integer log coordinates are plain Python ints, and factorization and
primality use the standard library only; a cold start of ``qcurves.cli``
must pull in neither numpy nor sympy, whose imports would dominate the
set-up time of every run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"


def loaded_after_cold_cli_import(package: str) -> str:
    """The sorted list of the package's modules loaded by a cold import, as printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, qcurves.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cold_cli_import_does_not_load_numpy():
    assert loaded_after_cold_cli_import("numpy") == "[]"


def test_cold_cli_import_does_not_load_sympy():
    assert loaded_after_cold_cli_import("sympy") == "[]"
