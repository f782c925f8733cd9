"""Starting the command line imports no heavy optional module.

The integer log coordinates are plain Python ints; a cold start of
``qcurves.cli`` must not pull in numpy, whose import would dominate the
set-up time of every run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"


def test_cold_cli_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, qcurves.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
