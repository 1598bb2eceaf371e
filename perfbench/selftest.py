"""Self-test of the census benchmark on a tiny sweep (p 3, n 3..4).

    python3 perfbench/selftest.py

It checks the harness, not the program:

1. a traced run prints every metric that BENCHMARK.json names, plus
   failed_row_share, each with the unit BENCHMARK.json gives and a sample
   count;
2. a reference row altered on purpose is counted in failed_row_share;
3. a child that exits non-zero fails all of its rows, and the harness still
   reports.

The reference rows are those of a first launch of the sweep.  Exits 0 when
all three hold and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys

import run

TINY = (
    "--p 3 --n 3..4 --eps both --verify aut --max-order 500 --aut-limit 100 "
    + run.PINNED
).split()
# An argument the census parser rejects, so the child exits with code 2.
BROKEN = TINY + ["--max-order", "not-a-number"]
LINE = re.compile(r"^\s+(\S+)\s+\S+\s+(\S+)\s+n=(\d+)$")


def measure(args, reference, trace=False):
    """run_workload on the shortest run, with its printed lines captured."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        metrics, attempted, failed = run.run_workload(
            args, reference, 0, random.Random(0), trace, run.OUT / "selftest.spans.json"
        )
        run.print_metrics(metrics)
    return metrics, attempted, failed, printed.getvalue()


def main() -> int:
    run.check_checkout()
    problems = []

    first = run.launch(run.census_command(TINY), None)
    reference = run.project(first.out)
    if first.broken or not reference or None in reference.values():
        print("selftest: the tiny sweep itself failed", file=sys.stderr)
        return 1

    metrics, attempted, failed, printed = measure(TINY, reference, trace=True)
    if failed:
        problems.append(f"clean run: {failed} of {attempted} rows failed")
    shown = {}
    for line in printed.splitlines():
        match = LINE.match(line)
        if match:
            shown[match[1]] = (match[2], int(match[3]))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted["failed_row_share"] = "fraction"
    for name, unit in wanted.items():
        if name not in shown:
            problems.append(f"{name} is not printed")
        elif shown[name][0] != unit:
            problems.append(f"{name} is printed in {shown[name][0]}, not {unit}")

    key = next(iter(reference))
    values = list(reference[key])
    values[run.COMPARED.index("order")] += "0"
    altered = {**reference, key: tuple(values)}
    metrics, attempted, failed, _ = measure(TINY, altered)
    launches = metrics["wall_s"][2]
    share = metrics["failed_row_share"][0]
    if failed != launches or share != launches / attempted:
        problems.append(
            f"altered row: failed {failed} over {launches} launches, share {share}"
        )

    metrics, attempted, failed, _ = measure(BROKEN, reference)
    if not attempted or failed != attempted or metrics["failed_row_share"][0] != 1.0:
        problems.append(f"non-zero exit: failed {failed} of {attempted}")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"selftest: {len(wanted)} metrics checked, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
