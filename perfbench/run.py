"""Census benchmark: `dccover census` on pinned sweeps, timed as a black box.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--size full] [--trace 1] [--json PATH]
    python3 perfbench/run.py --record [--size full]

The checkout is the directory above perfbench/.  Each census runs as a
child process with PYTHONPATH=src, one at a time, with --jobs 1, and
`os.wait4` gives that child's own CPU time and peak RSS.  A run repeats a
round of launches until --seconds have passed and at least MIN_LAUNCHES
census launches are done: the census, two null launches (a three-row
census) that time set-up, and two launches of perfbench/calibrate.py that
time the host.  The seed shuffles each round; the sweeps themselves are
deterministic.  The run reports medians, and scales wall_s, cpu_s and
setup_s to a host on which calibrate.py takes CAL_REFERENCE_S, because the
speed of a shared 2-vCPU virtual machine was seen to drift by up to half
between runs a few minutes apart.  The unscaled medians are reported as
raw.wall_s, raw.cpu_s and raw.setup_s.

Every census output is checked against perfbench/reference/.  A row fails
when it is missing, unexpected or different there, or when its mismatch
column is set; a child that exits non-zero or prints a traceback fails every
row.  `attempted` counts the reference rows of every census launch and
`failed` the rows that failed; `correct` is true when none failed.

With --trace 1 the run ends with one more launch, through
perfbench/trace_census.py, which records a span around each layer call.  Its
rows must equal the untraced rows.  The span dump goes to perfbench/out/ and
the per-layer metrics replace the end-to-end ones in the result line.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it give every metric with its unit and sample
count.  --all runs every workload, in an order drawn from --seed, and prints
one table.  --record writes the reference rows from the program as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from trace_census import LAYERS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# Every census flag is pinned, so a change of a default cannot move a
# workload.  "bench" is the size the benchmark runs: a launch takes a few
# seconds, so one run holds several.  "full" is the sweep of the same kind
# that the ROADMAP baseline quotes, for results files.
PINNED = "--jobs 1 --format tsv"
WORKLOADS = {
    # Prediction only: reflex maximality checks and fpoly factoring.  No
    # cover is built and permgrp never runs.
    "classify": {
        "bench": "--p 3,5 --n 3..12 --eps both --verify none --max-order 2500 --aut-limit 256",
        "full": "--p 3,5,7 --n 3..16 --eps both --verify none --max-order 2500 --aut-limit 256",
    },
    # Many small covers through build, lift, order and profile.
    "verify-orbits": {
        "bench": "--p 3,5,7 --n 3..5 --eps both --verify orbits --max-order 1000 --aut-limit 256",
        "full": "--p 3,5,7 --n 3..8 --eps both --verify orbits --max-order 2500 --aut-limit 256",
    },
    # One large cover, where order() dominates time and its O(N^2)
    # transversals dominate peak RSS.
    "large-cover": {
        "bench": "--p 5 --n 4 --eps 0 --verify lifts --max-order 2500 --aut-limit 256",
        "full": "--p 7 --n 4 --eps 0 --verify lifts --max-order 10000 --aut-limit 256",
    },
    # The only sweep that runs the refinement search; --aut-limit below
    # --max-order so that some searches are refused.
    "aut-oracle": {
        "bench": "--p 3,5,7 --n 3..4 --eps both --verify aut --max-order 500 --aut-limit 300",
        "full": "--p 3,5,7 --n 3..6 --eps both --verify aut --max-order 1000 --aut-limit 1000",
    },
}
NULL_ARGS = "--p 3 --n 3 --eps 0 --verify none --max-order 2500 --aut-limit 256 " + PINNED
LAUNCH = "import sys; from dccover.census import main; sys.exit(main())"
MIN_LAUNCHES = 3
# One null launch jitters by a quarter of its time, so setup_s is the median
# of at least MIN_NULL_LAUNCHES of them.
MIN_NULL_LAUNCHES = 9
# Launches of one round, shuffled by --seed.  A shared host's speed can
# drift by up to half over minutes, and the drift moves a census and
# calibrate.py alike.  So times are reported at the speed where calibrate.py
# takes CAL_REFERENCE_S: each is scaled by CAL_REFERENCE_S over the run's
# calibrate.py median.
ROUND = ("census", "null", "null", "calibrate", "calibrate")
CAL_REFERENCE_S = 0.30
# A run stops its children this long after it starts, well inside the
# three minutes a run may take.
RUN_DEADLINE_S = 165.0

KEY = ("p", "n", "eps", "g")
# Compared per row.  Extra columns and the text of `skipped` are ignored:
# only whether skipped is set counts, and mismatch must be empty.
COMPARED = (
    "step",
    "fiber_dim",
    "weakly_reflexible",
    "maximal_weakly_reflexible",
    "order",
    "symmetry",
    "base_order",
    "lifted_order",
    "minimal",
    "verified_order",
    "arc_orbits",
    "aut_order",
)


def census_args(workload: str, size: str) -> list[str]:
    return f"{WORKLOADS[workload][size]} {PINNED}".split()


def reference_path(workload: str, size: str) -> Path:
    suffix = "" if size == "bench" else f".{size}"
    return REFERENCE / f"{workload}{suffix}.tsv"


# -- launching -------------------------------------------------------------------


@dataclass(frozen=True)
class Launch:
    """One finished child: wall and CPU seconds, peak RSS, exit code, output."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: str
    err: str

    @property
    def broken(self) -> bool:
        return self.code != 0 or "Traceback" in self.err


def launch(argv: list[str], deadline: float | None) -> Launch:
    """Run argv from the checkout root and wait for it; kill it at deadline."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        timer = None
        if deadline is not None:
            timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Launch(
            wall_s,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


def census_command(args: list[str]) -> list[str]:
    return [sys.executable, "-c", LAUNCH, "census", *args]


# -- output check ----------------------------------------------------------------


def project(tsv: str) -> dict[tuple, tuple | None]:
    """Key -> compared cells of each census row; None where mismatch is set."""
    lines = tsv.splitlines()
    col = {name: i for i, name in enumerate(lines[0].split("\t"))}
    rows = {}
    for line in lines[1:]:
        cells = line.split("\t")
        key = tuple(cells[col[c]] for c in KEY)
        if cells[col["mismatch"]] != "-":
            rows[key] = None
            continue
        skipped = "N" if cells[col["skipped"]] == "-" else "Y"
        rows[key] = tuple(cells[col[c]] for c in COMPARED) + (skipped,)
    return rows


def load_reference(path: Path) -> dict[tuple, tuple]:
    lines = path.read_text().splitlines()
    width = len(KEY)
    return {
        tuple(cells[:width]): tuple(cells[width:])
        for cells in (line.split("\t") for line in lines[1:])
    }


def write_reference(path: Path, rows: dict[tuple, tuple]) -> None:
    lines = ["\t".join(KEY + COMPARED + ("skipped",))]
    lines += ["\t".join(key + values) for key, values in rows.items()]
    path.write_text("\n".join(lines) + "\n")


def failed_rows(reference: dict[tuple, tuple], run: Launch) -> int:
    """Rows of one census launch that are missing, unexpected or wrong."""
    if run.broken:
        return len(reference)
    try:
        got = project(run.out)
    except (IndexError, KeyError):
        return len(reference)
    failed = sum(got.get(key) != values for key, values in reference.items())
    return failed + sum(key not in reference for key in got)


# -- one workload ----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(args, reference, seconds, rng, trace, spans_path, deadline=None):
    """Measure one census sweep; return (metrics, attempted, failed).

    metrics maps a name to (value, unit, sample count): the end-to-end
    metrics and failed_row_share, and with trace also the per-layer metrics.
    """
    commands = {
        "census": census_command(args),
        "null": census_command(NULL_ARGS.split()),
        "calibrate": [sys.executable, str(BENCH / "calibrate.py")],
    }
    launch(commands["null"], deadline)  # fills __pycache__; not timed
    done = {kind: [] for kind in commands}
    attempted = failed = 0
    start = time.perf_counter()
    while len(done["census"]) < MIN_LAUNCHES or time.perf_counter() - start < seconds:
        if deadline is not None and time.monotonic() > deadline:
            break
        for kind in rng.sample(ROUND, len(ROUND)):
            done[kind].append(launch(commands[kind], deadline))
        attempted += len(reference)
        failed += failed_rows(reference, done["census"][-1])
    while len(done["null"]) < MIN_NULL_LAUNCHES:
        done["null"].append(launch(commands["null"], deadline))

    runs, setups, cals = done["census"], done["null"], done["calibrate"]
    n, m = len(runs), len(setups)
    wall = median([r.wall_s for r in runs])
    cpu = median([r.cpu_s for r in runs])
    setup = median([s.wall_s for s in setups])
    cal = median([c.wall_s for c in cals])
    scale = CAL_REFERENCE_S / cal if cal else 1.0
    metrics = {
        "wall_s": (wall * scale, "s", n),
        "cpu_s": (cpu * scale, "s", n),
        "peak_rss_mb": (median([r.rss_mb for r in runs]), "MB", n),
        "setup_s": (setup * scale, "s", m),
        "raw.wall_s": (wall, "s", n),
        "raw.cpu_s": (cpu, "s", n),
        "raw.setup_s": (setup, "s", m),
        "calibrate_s": (cal, "s", len(cals)),
    }
    if trace:
        spans_path.unlink(missing_ok=True)
        traced = launch(
            [sys.executable, str(BENCH / "trace_census.py"), str(spans_path), *args], deadline
        )
        attempted += len(reference)
        if runs and traced.out != runs[0].out:
            failed += len(reference)
        else:
            failed += failed_rows(reference, traced)
        try:
            spans = json.loads(spans_path.read_text())["spans"]
        except (OSError, ValueError, KeyError):
            spans = []
        metrics.update(layer_metrics(spans))
        metrics["trace.overhead_s"] = (traced.wall_s - wall, "s", n)
    # Without a clean null sweep there is no set-up time, and without a
    # clean calibrate.py no scale, so every row counts as failed.
    if any(child.broken for child in setups + cals):
        failed = attempted
    metrics["failed_row_share"] = (failed / attempted if attempted else 1.0, "fraction", attempted)
    return metrics, attempted, failed


def print_metrics(metrics) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<9} n={n}")


def print_layer_table(metrics) -> None:
    """The traced per-layer metrics as one markdown table."""
    total = metrics["row.total_s"][0]
    print("| layer | calls | self_s | share | p50_ms | p95_ms |")
    print("|---|---|---|---|---|---|")
    for layer in LAYERS:
        calls, self_s, share, p50, p95 = (
            metrics[f"{layer}.{k}"][0] for k in ("calls", "self_s", "share", "p50_ms", "p95_ms")
        )
        print(f"| {layer} | {calls} | {self_s:.3f} | {share:.1%} | {p50:.2f} | {p95:.2f} |")
    other = metrics["row.other_s"][0]
    print(f"| (row, outside layers) | | {other:.3f} | {other / total if total else 0:.1%} | | |")
    print(f"| row total | {metrics['row.count'][0]} | {total:.3f} | | "
          f"{metrics['row.p50_ms'][0]:.2f} | {metrics['row.p95_ms'][0]:.2f} |")


def result_line(metrics, names, attempted, failed) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
        }
    )


def benchmark_metric_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# -- command line ----------------------------------------------------------------


def check_checkout() -> None:
    if not (ROOT / "src" / "dccover" / "census.py").is_file():
        sys.exit(f"perfbench: no src/dccover/census.py under {ROOT}; run from a checkout root")


def measure(name, opts, deadline=None):
    """run_workload for a named workload; prints its metrics, returns the result."""
    args = census_args(name, opts.size)
    metrics, attempted, failed = run_workload(
        args,
        load_reference(reference_path(name, opts.size)),
        opts.seconds,
        random.Random(opts.seed),
        opts.trace,
        OUT / f"{name}.{opts.size}.spans.json",
        deadline,
    )
    print(f"workload {name} ({opts.size}): dccover census {' '.join(args)}")
    print(f"  attempted {attempted} rows, failed {failed}")
    print_metrics(metrics)
    if opts.trace:
        print_layer_table(metrics)
    return metrics, attempted, failed


def main_workload(opts) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S if opts.size == "bench" else None
    metrics, attempted, failed = measure(opts.workload, opts, deadline)
    print(result_line(metrics, benchmark_metric_names(opts.trace), attempted, failed))
    return 0


def main_all(opts) -> int:
    names = list(WORKLOADS)
    random.Random(opts.seed).shuffle(names)
    results = {name: measure(name, opts)[0] for name in names}
    columns = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "failed_row_share", "calibrate_s")
    print()
    print("| workload | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for name in WORKLOADS:
        cells = [f"{v:.4g} {unit} (n={n})" for v, unit, n in (results[name][c] for c in columns)]
        print(f"| {name} | " + " | ".join(cells) + " |")
    if opts.json:
        report = {
            "size": opts.size,
            "seed": opts.seed,
            "seconds": opts.seconds,
            "workloads": {
                name: {
                    "args": census_args(name, opts.size),
                    "metrics": {
                        k: {"value": v, "unit": unit, "n": n}
                        for k, (v, unit, n) in results[name].items()
                    },
                }
                for name in WORKLOADS
            },
        }
        Path(opts.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def main_record(opts) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in WORKLOADS:
        run = launch(census_command(census_args(name, opts.size)), None)
        rows = {} if run.broken else project(run.out)
        if not rows or None in rows.values():
            sys.exit(f"perfbench: {name} failed or reported a mismatch; nothing recorded")
        write_reference(reference_path(name, opts.size), rows)
        print(f"{name}: {len(rows)} rows -> {reference_path(name, opts.size)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--record", action="store_true", help="write the reference rows")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "full"), default="bench")
    parser.add_argument("--json", default=None, help="with --all, write the results here")
    opts = parser.parse_args(argv)
    check_checkout()
    if opts.record:
        return main_record(opts)
    if opts.all:
        return main_all(opts)
    return main_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
