"""Run one `dccover census` in this process with a span around each layer call.

Usage: python3 perfbench/trace_census.py SPANS.json CENSUS_ARG...

Each layer is a public name that `dccover.census` calls.  The tracer
replaces that name in the `dccover.census` namespace with a wrapper that
records a span, so no file under src/ changes and the census itself runs
unmodified.  Spans are kept in memory and written to SPANS.json when the
census ends.  The census output goes to stdout as usual.

A span is {name, start, end, parent}, where parent is the index of the span
it ran under.  Every layer call made while a divisor is being processed has
that divisor's `row` span as its parent.  A row span opens at the row's
`divisor_info` call, carries key [p, n, eps, g], and closes when the next row
opens or when `census_rows` returns.  `modulus_divisors` runs before the
first row and `write_tsv` after the last, so their spans have no parent.

`layer_metrics` turns a span list into the per-layer metrics that
perfbench/run.py reports.  This module imports dccover only inside `main`,
so importing it for `layer_metrics` leaves the benchmark process free of the
package.
"""

from __future__ import annotations

import json
import math
import sys
import time

# Layer name -> the dccover.census name whose calls it times.
PATCHED = {
    "factor": "modulus_divisors",
    "reflex": "divisor_info",
    "classify": "lifting_report",
    "build": "build_cover",
    "lift": "lifted_generators",
    "profile": "transitivity_profile",
    "aut": "automorphism_group",
    "emit": "write_tsv",
}
# `order` is PermGroup.order on the lifted group, and `aut.order` is the
# .order() of the group automorphism_group returns.  The census calls
# aut.order() after automorphism_group has returned, so the two spans do
# not overlap; both are children of the row.
LAYERS = (
    "factor",
    "reflex",
    "classify",
    "build",
    "lift",
    "order",
    "profile",
    "aut",
    "aut.order",
    "emit",
)


class Tracer:
    """Spans recorded in memory while one census runs."""

    def __init__(self):
        self.spans: list[dict] = []
        self.row: int | None = None

    def open(self, name: str, parent: int | None, **fields) -> int:
        self.spans.append(
            dict(name=name, start=time.perf_counter(), end=None, parent=parent, **fields)
        )
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()

    def start_row(self, key) -> None:
        self.end_row()
        self.row = self.open("row", None, key=key)

    def end_row(self) -> None:
        if self.row is not None:
            self.close(self.row)
            self.row = None

    def timed(self, name: str, fn, after=None, **fields):
        """fn wrapped so that each call records a span under the open row.

        after(span, result) runs once the span has closed; an exception the
        call raises is recorded as the span's `error` and raised again.
        """

        def call(*args, **kwargs):
            index = self.open(name, self.row, **fields)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.spans[index]["error"] = type(err).__name__
                raise
            finally:
                self.close(index)
            if after is not None:
                after(self.spans[index], result)
            return result

        return call


def install(tracer: Tracer, census) -> None:
    """Replace each layer name in the census module with a traced wrapper."""

    def after_build(span, cover):
        span["vertices"] = cover.order

    def after_aut(span, group):
        span["gens"] = len(group.gens)
        group.order = tracer.timed("aut.order", group.order)

    after = {"build": after_build, "aut": after_aut}
    wrapped = {
        layer: tracer.timed(layer, getattr(census, attr), after.get(layer))
        for layer, attr in PATCHED.items()
    }
    for layer, attr in PATCHED.items():
        setattr(census, attr, wrapped[layer])

    def divisor_info(g, n, eps):
        tracer.start_row([g.p, n, eps, list(g.coeffs)])
        return wrapped["reflex"](g, n, eps)

    perm_group = census.PermGroup

    def lifted_group(*args, **kwargs):
        group = perm_group(*args, **kwargs)
        group.order = tracer.timed(
            "order", group.order, gens=len(group.gens), degree=group.degree
        )
        return group

    census_rows_fn = census.census_rows

    def census_rows(*args, **kwargs):
        if kwargs.get("jobs", 1) != 1:
            raise SystemExit("trace_census: spans need --jobs 1")
        rows = census_rows_fn(*args, **kwargs)
        tracer.end_row()
        row_spans = [s for s in tracer.spans if s["name"] == "row"]
        for span, row in zip(row_spans, rows):
            span["verified"] = row.verified_order is not None
            span["skipped"] = row.skipped is not None
        return rows

    census.divisor_info = divisor_info
    census.PermGroup = lifted_group
    census.census_rows = census_rows


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count).

    A span's self time is its duration minus the durations of its direct
    children.  A layer's share is its self time over the total row time, so
    the in-row layers' self times plus row.other_s add up to row.total_s.
    """
    duration = [s["end"] - s["start"] for s in spans]
    self_time = list(duration)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            self_time[span["parent"]] -= duration[i]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)
    rows = by_name.get("row", [])
    row_total = sum(duration[i] for i in rows)

    out: dict[str, tuple[float, str, int]] = {}
    for layer in LAYERS:
        idx = by_name.get(layer, [])
        n = len(idx)
        ms = sorted(duration[i] * 1000 for i in idx)
        self_s = sum(self_time[i] for i in idx)
        out[f"{layer}.calls"] = (n, "count", n)
        out[f"{layer}.self_s"] = (self_s, "s", n)
        out[f"{layer}.share"] = (self_s / row_total if row_total else 0.0, "fraction", n)
        out[f"{layer}.p50_ms"] = (_percentile(ms, 0.50), "ms", n)
        out[f"{layer}.p95_ms"] = (_percentile(ms, 0.95), "ms", n)

    builds = [spans[i] for i in by_name.get("build", [])]
    orders = [spans[i] for i in by_name.get("order", [])]
    auts = [spans[i] for i in by_name.get("aut", [])]
    limited = sum(1 for s in auts if s.get("error") == "OracleLimit")
    row_ms = sorted(duration[i] * 1000 for i in rows)
    out["build.vertices"] = (sum(s.get("vertices", 0) for s in builds), "count", len(builds))
    out["order.gens"] = (sum(s["gens"] for s in orders), "count", len(orders))
    out["order.degree_max"] = (max((s["degree"] for s in orders), default=0), "count", len(orders))
    out["aut.gens_found"] = (sum(s.get("gens", 0) for s in auts), "count", len(auts))
    out["aut.limited"] = (limited, "count", len(auts))
    out["aut.limited_ratio"] = (limited / len(auts) if auts else 0.0, "fraction", len(auts))
    out["row.count"] = (len(rows), "count", len(rows))
    out["row.verified"] = (sum(1 for i in rows if spans[i].get("verified")), "count", len(rows))
    out["row.skipped"] = (sum(1 for i in rows if spans[i].get("skipped")), "count", len(rows))
    out["row.p50_ms"] = (_percentile(row_ms, 0.50), "ms", len(rows))
    out["row.p95_ms"] = (_percentile(row_ms, 0.95), "ms", len(rows))
    out["row.other_s"] = (sum(self_time[i] for i in rows), "s", len(rows))
    out["row.total_s"] = (row_total, "s", len(rows))
    return out


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__.split("\n\n")[1])
    spans_path, census_args = argv[0], argv[1:]
    from dccover import census

    tracer = Tracer()
    install(tracer, census)
    try:
        return census.main(["census", *census_args])
    finally:
        tracer.end_row()
        with open(spans_path, "w") as f:
            json.dump({"census_args": census_args, "spans": tracer.spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
