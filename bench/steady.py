"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 bench/steady.py

Runs ``bench/run.py --trace 0`` on every workload of BENCHMARK.json once per
seed, seeds 1 to 10, one run at a time, and prints for every workload and
end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to a third of the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results: dict[str, list[dict]] = {}
    for name in (w["name"] for w in spec["workloads"]):
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            out = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
            results.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), file=sys.stderr)
    print(f"{'workload':18s} {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound/3':>7s}")
    for name, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            print(f"{name:18s} {metric['name']:16s} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {metric['bound'] / 3:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
