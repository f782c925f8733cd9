"""The machine-speed reference, and one cold import of qcurves.cli scaled by it.

    PYTHONPATH=src python3 bench/speed.py

The machine's own speed drifts by up to a third within a minute: a fixed
loop timed back to back on a 2-vCPU virtual machine ranged from 64 to 94 ms.
That would swamp any comparison between runs, so every timing is divided by
a speed factor: the time of a fixed reference computation over
REFERENCE_NOMINAL_S.  Timings are thus stated at the machine speed where the
reference takes REFERENCE_NOMINAL_S; a slower program still shows, because
the reference shares no code with qcurves.

Run as a script in a fresh interpreter, this times ``import qcurves.cli``
and the reference in the same process just before and just after it, and
prints the import time and the speed factor.
"""

import math
import time

REFERENCE_NOMINAL_S = 0.0035
# reference timings on each side of a cold import
IMPORT_REFERENCES = 5


def reference() -> int:
    """Fixed interpreter work of the kind qcurves does (int gcds, tuples, a
    dict), independent of qcurves; about 3.5 ms on the virtual machine the
    constant was set on."""
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 5000):
        n, d = i * 7919 % 1009 + 1, i * 104729 % 997 + 1
        g = math.gcd(n, d)
        key = (n // g, d // g)
        table[key] = table.get(key, 0) + 1
        acc += key[0] * key[1]
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def middle(samples: list[float]) -> float:
    # not statistics.median: importing statistics in the child would load
    # modules that qcurves imports too, before the timed import
    return sorted(samples)[len(samples) // 2]


def cold_import() -> tuple[float, float]:
    """Seconds of ``import qcurves.cli`` and the speed factor around it."""
    before = middle([reference_seconds() for _ in range(IMPORT_REFERENCES)])
    start = time.perf_counter()
    import qcurves.cli  # noqa: F401

    seconds = time.perf_counter() - start
    after = middle([reference_seconds() for _ in range(IMPORT_REFERENCES)])
    return seconds, (before + after) / 2 / REFERENCE_NOMINAL_S


if __name__ == "__main__":
    print(*cold_import())
