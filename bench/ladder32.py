"""One |G| = 32 construct, the top of the ladder, timed end to end and by stage.

    python3 bench/ladder32.py

Too slow for the closed-loop workloads (seconds per document), so it is a
separate probe: each repeat runs a fresh (Z/2)^5 ladder datum through
``cli.main`` untraced, then again traced, and prints the untraced wall time
with the inclusive time of construct_gl2_type and brauer_order and the
identity evaluations.  Medians over the repeats.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

import gen
import run
import tracer as tracing

SEED = 1
REPEATS = 3


def inclusive(spans, name: str) -> float:
    """Summed duration of the outermost spans with this name."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def main() -> int:
    cli = run.import_cli()
    w = gen.Workload("construct_ladder", SEED)
    rows = []
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        loop = run.Loop(cli, Path(tmp), keep=True)
        for _ in range(REPEATS):
            orders = (2, 2, 2, 2, 2)
            loop.add_block([gen.construct_item(orders, w.primes(orders)) | {"rung": "G=32"}])
        loop.run_pending()
        if loop.failed:
            print("a |G| = 32 document disagrees with the generator", file=sys.stderr)
            return 1
        t = tracing.Tracer()
        t.install()
        try:
            for i in range(len(loop.items)):
                loop.call(i)
                spans = t.take_spans()
                rows.append((
                    loop.times[i],
                    inclusive(spans, "pipeline.construct"),
                    inclusive(spans, "pipeline.brauer_order"),
                ))
        finally:
            t.uninstall()
    evals = t.counters["cohomology.identity_evals"] / len(rows)
    wall, construct, brauer = (statistics.median(col) for col in zip(*rows))
    print(f"(Z/2)^5 construct, median of {len(rows)}: cli.main {wall:.3f} s untraced; "
          f"traced construct_gl2_type {construct:.3f} s, brauer_order {brauer:.3f} s; "
          f"{evals:.0f} identity evaluations per document")
    return 0


if __name__ == "__main__":
    sys.exit(main())
