"""Every function the benchmark tracer wraps still exists in the package.

``bench/tracer.py`` resolves each ``TARGETS`` entry when it installs, so a
renamed or deleted function would break ``bench/run.py --trace 1`` only at
benchmark time.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for metric, module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"qcurves.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{metric}: qcurves.{module}.{path} is gone"
