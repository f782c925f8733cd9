"""Closed-loop benchmark of the qcurves command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One caller drives the public entry
``qcurves.cli.main([...])`` in-process, one document at a time, each call
waiting for its verdict; the report goes to a file with ``-o`` as a user
would write it.  Documents come from ``gen.py`` (seeded, no qcurves import)
and every exit code and checked report field is compared with the
generator's closed-form answer outside the timed region.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs a share of the time untraced, replays the same documents
under the outside-in tracer of ``tracer.py``, asserts identical verdicts and
report bytes, and reports the per-layer metrics as means per document, plus
the tracing overhead against a second, untraced replay.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

# cold imports per run, spread evenly over the measured time; one scaled
# import still swings by about a twentieth
SETUP_REPEATS = 10
IMPORTTIME_REPEATS = 3
WARMUP_DOCS = 3
# at least ten documents beyond the 90th percentile, even on a slow run
MIN_DOCS = 110
# share of --seconds spent on the untraced pass of a traced run; a traced and
# an untraced replay of the same documents take about as long again each
TRACED_SHARE = 0.3

# The reference of speed.py is timed just before each document, outside the
# timed call, and each document's time is divided by the local speed factor:
# the median reference time of the documents around it over
# REFERENCE_NOMINAL_S.
REFERENCE_WINDOW = 5

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
import tracer as tracing  # noqa: E402
from speed import REFERENCE_NOMINAL_S, reference_seconds  # noqa: E402


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- checking ------------------------------------------------------------------


def matches(expected, actual) -> bool:
    """Every key the generator names, recursively; lists match item by item."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(e, a) for e, a in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def verdict_ok(item: dict, code, report_bytes: bytes | None) -> bool:
    if code != item["expect"]["exit"] or report_bytes is None:
        return False
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return False
    return matches(item["expect"]["report"], report)


# -- the closed loop -------------------------------------------------------------


def kind(item: dict) -> tuple:
    """Documents of one kind share a command, a rung and a group shape."""
    doc = item["doc"]
    return (item["command"], item["rung"], str(doc.get("cyclic_orders")), doc.get("block_rank"))


def speed_factors(refs: list[float]) -> list[float]:
    """Per-document slowdown: median reference time over a sliding window of
    documents, relative to REFERENCE_NOMINAL_S."""
    w = REFERENCE_WINDOW
    return [
        statistics.median(refs[max(0, i - w) : i + w + 1]) / REFERENCE_NOMINAL_S
        for i in range(len(refs))
    ]


class Loop:
    """Writes each block's documents, calls the CLI on them one by one, and
    keeps per-document times and verdicts.  Unless ``keep`` is set (for a
    traced replay), a checked document and its report are dropped, so the
    benchmark's own memory does not grow into ``peak_rss_mb``."""

    def __init__(self, cli, workdir: Path, keep: bool = False):
        self.cli = cli
        self.workdir = workdir
        self.keep = keep
        self.items: list[dict] = []
        self.paths: list[tuple[str, str]] = []
        self.times: list[float] = []
        self.refs: list[float] = []
        self.codes: list = []
        self.reports: list = []
        self.kinds: list[tuple] = []
        self.failed = 0

    def add_block(self, items: list[dict]) -> None:
        for item in items:
            i = len(self.items)
            doc = self.workdir / f"doc{i}.json"
            doc.write_text(json.dumps(item["doc"]), encoding="utf-8")
            self.items.append(item)
            self.kinds.append(kind(item))
            self.paths.append((str(doc), str(self.workdir / f"out{i}.json")))

    def call(self, i: int):
        """Time one CLI call; returns (seconds, exit code or None, report bytes)."""
        doc, out = self.paths[i]
        if os.path.exists(out):
            os.remove(out)
        argv = [self.items[i]["command"], doc, "-o", out]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # a raised error is a failed document, not a crash
            code = None
            print(f"document {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        try:
            with open(out, "rb") as fh:
                report = fh.read()
        except OSError:
            report = None
        return elapsed, code, report

    def run_pending(self, after=None) -> None:
        """Run the documents not run yet, calling ``after()`` after each."""
        for i in range(len(self.times), len(self.items)):
            self.refs.append(reference_seconds())
            elapsed, code, report = self.call(i)
            self.times.append(elapsed)
            self.codes.append(code)
            self.reports.append(report)
            item = self.items[i]
            if not verdict_ok(item, code, report):
                self.failed += 1
                print(
                    f"document {i} ({item['command']}, {item['rung']}) "
                    f"disagrees with the generator: exit {code}",
                    file=sys.stderr,
                )
            if not self.keep:
                self.items[i] = {"command": item["command"], "rung": item["rung"]}
                self.reports[i] = None
                for path in self.paths[i]:
                    if os.path.exists(path):
                        os.remove(path)
            if after:
                after()

    def run_for(self, workload: gen.Workload, seconds: float, min_docs: int = 1, pace=None) -> None:
        """Whole blocks until the next one would overrun the time budget, and
        at least ``min_docs`` documents.  ``pace``, if given, is called after
        each document with the share of the budget used so far, and its time
        counts against the budget."""
        start = time.perf_counter()
        after = (lambda: pace((time.perf_counter() - start) / seconds)) if pace else None
        while True:
            block_start = time.perf_counter()
            self.add_block(workload.block())
            self.run_pending(after)
            last = time.perf_counter() - block_start
            if time.perf_counter() - start + last > seconds and len(self.items) >= min_docs:
                return


# -- set-up and import costs, in fresh interpreters ---------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupSampler:
    """Times cold ``import qcurves.cli`` in fresh interpreters, SETUP_REPEATS
    times in all, spread over a run: ``pace(share)`` tops the samples up to
    that share of the total.  Each child times the import and the speed
    reference around it (``speed.py``), and the sample is the import time
    over that speed factor."""

    def __init__(self):
        self.samples: list[float] = []

    def pace(self, share: float) -> None:
        while len(self.samples) < SETUP_REPEATS * min(share, 1.0):
            out = subprocess.run(
                [sys.executable, str(BENCH / "speed.py")],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            seconds, factor = map(float, out.stdout.split())
            self.samples.append(seconds / factor)

    def median(self) -> float:
        self.pace(1.0)
        return statistics.median(self.samples)


IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_seconds() -> tuple[float, float]:
    """Medians of the cumulative import times of qcurves and of sympy within it,
    from ``python -X importtime``; qcurves' own share excludes sympy."""
    own, sympy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qcurves.cli"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        cumulative = {}
        for m in IMPORTTIME.finditer(out.stderr):
            cumulative.setdefault(m.group(2), int(m.group(1)))
        total = cumulative.get("qcurves.cli", 0)  # encloses the package and sympy
        sympy_us = cumulative.get("sympy", 0)
        own.append((total - sympy_us) / 1e6)
        sympy.append(sympy_us / 1e6)
    return statistics.median(own), statistics.median(sympy)


# -- runs ------------------------------------------------------------------------


def import_cli():
    if not (SRC / "qcurves" / "cli.py").is_file():
        raise BenchError(f"no qcurves sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcurves.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "qcurves").resolve():
        raise BenchError(f"imported qcurves from {cli.__file__}, not from {SRC}")
    return cli


def warm_up(cli, workdir: Path, workload: gen.Workload) -> None:
    """Run the first few documents of a block of the run's own stream, so
    lazy set-up inside the libraries is done before timing and no timed
    document repeats one of them; their verdicts are checked too."""
    warm = Loop(cli, workdir / "warm")
    warm.workdir.mkdir()
    warm.add_block(workload.block()[:WARMUP_DOCS])
    warm.run_pending()
    if warm.failed:
        raise BenchError("warm-up documents disagree with the generator")


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(loop: Loop, setup: SetupSampler) -> dict:
    times = [t / k for t, k in zip(loop.times, speed_factors(loop.refs))]
    # each document timed as the median time of its kind in the run, so that
    # a document slowed by a neighbour on the machine does not move the figure
    by_kind: dict[tuple, list[float]] = {}
    for k, t in zip(loop.kinds, times):
        by_kind.setdefault(k, []).append(t)
    typical = {k: statistics.median(ts) for k, ts in by_kind.items()}
    return {
        "items_per_s": len(times) / sum(typical[k] for k in loop.kinds),
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "verdict_p90_ms": percentile(times, 90) * 1e3,
        "setup_s": setup.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_replay(loop: Loop, spans_path: Path) -> tuple[dict, float, int]:
    """Replay every document of ``loop`` under the tracer.  Returns per-name
    totals (self times and counts), the traced wall time scaled like the
    untraced one, and the number of documents whose verdict or report bytes
    differ from the untraced pass."""
    tracer = tracing.Tracer()
    totals: dict[str, float] = {}
    times, refs = [], []
    differ = 0
    tracer.install()
    try:
        with gzip.open(spans_path, "wt", encoding="utf-8") as out:
            for i in range(len(loop.items)):
                refs.append(reference_seconds())
                elapsed, code, report = loop.call(i)
                times.append(elapsed)
                if (code, report) != (loop.codes[i], loop.reports[i]):
                    differ += 1
                    print(f"document {i}: traced verdict differs from untraced", file=sys.stderr)
                spans = tracer.take_spans()
                for name, value in tracing.self_times(spans).items():
                    key = name + ".self_s"
                    totals[key] = totals.get(key, 0.0) + value
                out.write(json.dumps({"document": i, "spans": spans}) + "\n")
    finally:
        tracer.uninstall()
    for name, value in tracer.counters.items():
        totals[name] = totals.get(name, 0) + value
    return totals, scaled_wall(times, refs), differ


def untraced_replay(loop: Loop) -> float:
    """Replay every document of ``loop`` untraced and return the scaled wall
    time: the baseline of the tracing overhead, because a replay finds the
    libraries' caches as the traced replay does, unlike the first pass."""
    times, refs = [], []
    for i in range(len(loop.items)):
        refs.append(reference_seconds())
        times.append(loop.call(i)[0])
    return scaled_wall(times, refs)


def scaled_wall(times: list[float], refs: list[float]) -> float:
    """Summed document times at the nominal machine speed."""
    return sum(t / k for t, k in zip(times, speed_factors(refs)))


def per_layer(
    loop: Loop, totals: dict, traced_wall: float, untraced_wall: float, imports: tuple[float, float]
) -> dict:
    docs = len(loop.items)
    values = {name: value / docs for name, value in totals.items()}
    values["trace.overhead_s"] = (traced_wall - untraced_wall) / docs
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    values["import.qcurves_s"], values["import.sympy_s"] = imports
    return values


def select(spec_metrics: list[dict], values: dict) -> dict:
    out = {}
    for metric in spec_metrics:
        out[metric["name"]] = {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
    return out


def run(args) -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in gen.MIXES:
        raise BenchError(f"unknown workload {args.workload!r}")
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    workload = gen.Workload(args.workload, args.seed)
    try:
        if args.trace:
            imports = import_seconds()
            warm_up(cli, workdir, workload)
            loop = Loop(cli, workdir, keep=True)
            loop.run_for(workload, args.seconds * TRACED_SHARE)
            spans_path = WORK / f"spans-{args.workload}.jsonl.gz"
            totals, traced_wall, differ = traced_replay(loop, spans_path)
            untraced_wall = untraced_replay(loop)
            metrics = select(
                spec["per_layer"], per_layer(loop, totals, traced_wall, untraced_wall, imports)
            )
            failed = loop.failed + differ
            print(f"spans written to {spans_path}", file=sys.stderr)
        else:
            warm_up(cli, workdir, workload)
            loop = Loop(cli, workdir)
            setup = SetupSampler()
            loop.run_for(workload, args.seconds, MIN_DOCS, setup.pace)
            metrics = select(spec["end_to_end"], end_to_end(loop, setup))
            failed = loop.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(loop.items)
    summarize(args, loop, metrics, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def summarize(args, loop: Loop, metrics: dict, failed: int) -> None:
    n = len(loop.times)
    lines = [f"workload {args.workload}  seed {args.seed}  documents {n}  failed_frac {failed / n:.4f}"]
    if not args.trace:
        factors = speed_factors(loop.refs)
        p90 = metrics["verdict_p90_ms"]["value"] / 1e3
        beyond = sum(1 for t, k in zip(loop.times, factors) if t / k > p90)
        lines.append(
            f"  samples beyond p90: {beyond}; speed factor median {statistics.median(factors):.3f}; "
            f"unscaled p50 {statistics.median(loop.times) * 1e3:.4g} ms, "
            f"p90 {percentile(loop.times, 90) * 1e3:.4g} ms"
        )
    for name, m in metrics.items():
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, gen.PoolExhausted, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
