"""Tests for census rows, serialization and the command line."""

import dataclasses
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dccover.census as census_mod
from dccover.census import (
    CensusRow,
    census_rows,
    export_graph,
    main,
    write_jsonl,
    write_tsv,
    _parse_eps,
    _parse_ints,
)
import dccover.cover as cover_module
import dccover.permgrp as permgrp
from dccover.cover import build_cover
from dccover.fpoly import FpPoly

# Verified classification of the seven divisors of x^3 - 1 over Z_7, keyed by
# coefficient tuple: (wr, mwr, order, symmetry, lifted order, minimal).
CUBIC7 = {
    (1,): (True, False, 1029, "AT", 16464, True),
    (3, 1): (False, False, 147, "HT", 294, False),
    (5, 1): (False, False, 147, "HT", 294, False),
    (6, 1): (True, True, 147, "AT", 588, True),
    (1, 1, 1): (True, True, 21, "AT", 84, True),
    (2, 4, 1): (False, False, 21, "HT", 42, True),
    (4, 2, 1): (False, False, 21, "HT", 42, True),
}


def test_cubic_sweep_values():
    rows = census_rows([7], [3], (0,), verify="orbits")
    assert len(rows) == 7
    assert [r.g for r in rows] == sorted(CUBIC7, key=lambda g: (len(g), g))
    for row in rows:
        wr, mwr, order, sym, lifted, minimal = CUBIC7[row.g]
        assert row.weakly_reflexible == wr
        assert row.maximal_weakly_reflexible == mwr
        assert row.order == order
        assert row.symmetry == sym
        assert row.lifted_order == lifted
        assert row.verified_order == lifted
        assert row.arc_orbits == (1 if sym == "AT" else 2)
        assert row.minimal == minimal
        assert row.mismatch is None and row.skipped is None


def test_none_tier_carries_predictions_only():
    rows = census_rows([7], [3], (0,), verify="none")
    assert all(r.verified_order is None and r.arc_orbits is None for r in rows)
    assert [r.lifted_order for r in rows] == [16464, 294, 294, 588, 84, 42, 42]


def test_size_budget_skips_but_keeps_rows():
    rows = census_rows([7], [3], (0,), verify="lifts", max_order=100)
    assert len(rows) == 7
    small = [r for r in rows if r.order <= 100]
    big = [r for r in rows if r.order > 100]
    assert len(small) == 3 and len(big) == 4
    assert all(r.verified_order is not None for r in small)
    assert all(r.skipped and r.verified_order is None for r in big)


def test_a_row_too_large_for_int32_ids_is_skipped_before_its_cover(monkeypatch):
    # 18 * 3^18 vertices lie within the size budget, but beyond the int32
    # vertex ids: the row is skipped, and the rest of a census kept.
    def build(*args):
        raise AssertionError("a cover was built")

    monkeypatch.setattr(census_mod, "build_cover", build)
    row = census_mod._census_row((3, 18, 0, FpPoly(3, (1,)), "lifts", 10**12, None, None))
    assert row.order == 6973568802
    assert row.skipped == "6973568802 vertices do not fit the int32 vertex ids"
    assert row.verified_order is None and row.mismatch is None


def test_aut_tier_orders_on_the_small_cubic_covers():
    rows = census_rows([7], [3], (0,), verify="aut", max_order=150, aut_limit=150)
    by_g = {r.g: r for r in rows}
    assert by_g[(1, 1, 1)].aut_order == 84
    assert by_g[(2, 4, 1)].aut_order == 336
    assert by_g[(4, 2, 1)].aut_order == 336
    assert by_g[(1,)].skipped  # 1029 vertices, above the size budget


def test_rows_are_deterministic_and_tsv_is_stable():
    out = []
    for _ in range(2):
        rows = census_rows([3, 5], [3, 4], (0, 1), verify="none")
        buf = io.StringIO()
        write_tsv(rows, buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]
    header, first = out[0].splitlines()[:2]
    assert header.split("\t")[:4] == ["p", "n", "eps", "g"]
    assert first.split("\t")[:4] == ["3", "3", "0", "1"]


def test_parallel_jobs_match_serial():
    serial = census_rows([7], [3], (0,), verify="lifts")
    parallel = census_rows([7], [3], (0,), verify="lifts", jobs=2)
    assert serial == parallel


def test_mixed_sweep_has_no_mismatches():
    rows = census_rows([3, 5], [3, 4, 5], (0, 1), verify="orbits", max_order=700)
    assert rows
    assert all(r.mismatch is None for r in rows)
    checked = [r for r in rows if r.verified_order is not None]
    assert checked
    assert all(r.verified_order == r.lifted_order for r in checked)


def test_jsonl_roundtrip():
    rows = census_rows([7], [3], (0,), verify="none")
    buf = io.StringIO()
    write_jsonl(rows, buf)
    parsed = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(parsed) == 7
    assert parsed[0]["g"] == [1] and parsed[0]["lifted_order"] == 16464


def test_time_budget_skips_every_search_without_mismatch():
    rows = census_rows([3], [3], (0, 1), verify="aut", time_budget=1e-9)
    assert rows
    for row in rows:
        assert row.verified_order is not None and row.aut_order is None
        assert "time budget" in row.skipped
        assert row.mismatch is None


def test_repeated_sweep_values_give_their_rows_once():
    once = census_rows([3], [3], (0, 1), verify="none")
    assert len(once) == 6
    assert census_rows([3, 3], [3], (0, 1), verify="none") == once
    assert census_rows([3], [3, 3], (0, 1), verify="none") == once
    assert census_rows([3], [3], (0, 0, 1), verify="none") == once
    with pytest.raises(ValueError, match="one eps"):
        census_rows([3], [3], (), verify="none")
    with pytest.raises(ValueError, match="eps=2"):
        census_rows([3], [3], (0, 2), verify="none")


def test_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        census_rows([7], [3], (0,), verify="everything")
    with pytest.raises(ValueError):
        census_rows([9], [3], (0,), verify="none")
    with pytest.raises(ValueError):
        census_rows([4], [3], (0,), verify="none")
    with pytest.raises(ValueError):
        census_rows([3], [2, 3], (0,), verify="lifts")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "4", "--n", "3"], "p=4 is not an odd prime"),
        (["--p", "3", "--n", "2", "--verify", "lifts"], "n=2 is below 3"),
        (["--p", "3", "--n", "3..2"], "at least one p and one n"),
        (["--p", "3", "--n", "3", "--out", "missing/rows.tsv"], "No such file"),
        (["--p", "3", "--n", "3", "--max-order", "-5"], "--max-order: -5 is not above 0"),
        (["--p", "3", "--n", "3", "--aut-limit", "0"], "--aut-limit: 0 is not above 0"),
        (["--p", "3", "--n", "3", "--jobs", "0"], "--jobs: 0 is not above 0"),
        (["--p", "3", "--n", "3", "--time-budget", "-1"], "--time-budget: -1 is not above 0"),
        (["--p", "3", "--n", "3", "--time-budget", "0"], "--time-budget: 0 is not above 0"),
        (["--p", "3", "--n", "3", "--max-order", "x"], "invalid int value: 'x'"),
        (["--p", "3", "--n", ""], "--n: expected integers such as 3,5,7 or 3..8, got ''"),
        (["--p", "3,x", "--n", "3"], "--p: expected integers such as 3,5,7 or 3..8, got '3,x'"),
    ],
)
def test_cli_reports_bad_sweeps_without_traceback(
    capsys, monkeypatch, tmp_path, argv, message
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["census", *argv])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "7", "--n", "3", "--g", "1,1"], "is not a proper divisor"),
        (["--p", "4", "--n", "3", "--g", "1"], "odd prime"),
        (["--p", "7", "--n", "3", "--g", "x"], "--g: expected integers such as 5,1, got 'x'"),
        (["--p", "7", "--n", "3", "--g", "1,1,1", "--out", "missing/g.txt"], "No such file"),
        (["--p", "7", "--n", "2", "--g", "1"], "at least three vertices"),
        (["--p", "3", "--n", "8", "--g", "1"], "52488 vertices, above --max-order 2500"),
        (["--p", "3", "--n", "3", "--g", ""], "--g: expected integers such as 5,1, got ''"),
        (["--p", "3", "--n", "3", "--g", "1,,1"], "--g: expected integers such as 5,1, got '1,,1'"),
        (
            ["--p", "7", "--n", "12", "--g", "1", "--max-order", str(10**12)],
            "166095446412 vertices do not fit the int32 vertex ids",
        ),
    ],
)
def test_cli_export_reports_bad_input_without_traceback(
    capsys, monkeypatch, tmp_path, argv, message
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["export", "--eps", "0", *argv])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# -- export ---------------------------------------------------------------------


def test_export_shape_and_voltages():
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    buf = io.StringIO()
    export_graph(cov, buf, voltages=True)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# p=7 n=3 eps=0 r=2 g=5,1"
    assert lines[1] == "# column 0: 5,0"
    assert lines[3] == "# column 2: 0,1"
    edges = [tuple(map(int, ln.split())) for ln in lines[4:]]
    assert len(edges) == 294
    assert edges == sorted(edges)
    degree = [0] * 147
    for u, v in edges:
        assert 0 <= u < v < 147
        degree[u] += 1
        degree[v] += 1
    assert set(degree) == {4}


# -- command line -----------------------------------------------------------------


def test_parse_helpers():
    assert _parse_ints("3..5,7") == [3, 4, 5, 7]
    assert _parse_ints("7") == [7]
    assert _parse_eps("both") == (0, 1)
    assert _parse_eps("1") == (1,)


def test_cli_census_writes_tsv(tmp_path):
    out = tmp_path / "rows.tsv"
    code = main(
        ["census", "--p", "7", "--n", "3", "--eps", "0", "--verify", "lifts",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("p\tn\teps")


def test_module_entry_point_runs_without_runtime_warnings():
    # runpy warns when the package has already imported the module it is
    # about to run as __main__, so the package must not import census.
    src = str(Path(census_mod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dccover.census",
         "census", "--p", "3", "--n", "3", "--verify", "none"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == 7


def test_cli_aut_limit_follows_max_order(tmp_path):
    out = tmp_path / "rows.jsonl"
    code = main(
        ["census", "--p", "3", "--n", "4", "--eps", "0", "--verify", "aut",
         "--max-order", "400", "--format", "jsonl", "--out", str(out)]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    (largest,) = [row for row in rows if row["order"] == 324]
    assert largest["aut_order"] == 10368
    assert largest["skipped"] is None


def test_cli_export_writes_edges(tmp_path):
    out = tmp_path / "graph.txt"
    code = main(
        ["export", "--p", "7", "--n", "3", "--eps", "0", "--g", "1,1,1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# p=7 n=3 eps=0 r=1 g=1,1,1"
    assert len(lines) == 1 + 42  # 21 vertices of valence 4


def test_cli_export_writes_voltages(tmp_path):
    out = tmp_path / "graph.txt"
    code = main(
        ["export", "--p", "5", "--n", "8", "--eps", "0", "--g", "3,0,4,0,2,0,1",
         "--voltages", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[:9] == [
        "# p=5 n=8 eps=0 r=2 g=3,0,4,0,2,0,1",
        "# column 0: 3,0",
        "# column 1: 0,3",
        "# column 2: 4,0",
        "# column 3: 0,4",
        "# column 4: 2,0",
        "# column 5: 0,2",
        "# column 6: 1,0",
        "# column 7: 0,1",
    ]
    assert len(lines) == 9 + 400  # 200 vertices of valence 4


def test_traced_layers_are_looked_up_through_census():
    # perfbench/trace_census.py times a layer by rebinding its name in
    # dccover.census, so a layer the census stops calling by that name would
    # silently drop out of the traced benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_census.py"
    spec = importlib.util.spec_from_file_location("trace_census", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = set(tracer.PATCHED.values()) | {"PermGroup"}
    looked_up = set()
    for value in vars(census_mod).values():
        if inspect.isfunction(value) and value.__module__ == census_mod.__name__:
            looked_up |= set(value.__code__.co_names)
    assert names <= looked_up, names - looked_up
    assert all(hasattr(census_mod, name) for name in names)


def load_bench_runner(monkeypatch):
    """perfbench/run.py, with perfbench/ on sys.path for its own imports."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    runner = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, runner)
    spec.loader.exec_module(runner)
    return runner


@pytest.mark.parametrize(
    "workload, size",
    [
        pytest.param(w, "bench", id=w)
        for w in ("classify", "verify-orbits", "large-cover", "aut-oracle")
    ]
    + [pytest.param("classify", "full", id="classify-full")],
)
def test_bench_sweeps_match_their_reference_rows(workload, size, monkeypatch, tmp_path):
    # The rows that perfbench checks every benchmark launch against, rerun
    # in-process, so a change of output shows in the tests and not only in
    # a failed benchmark.  The full classify sweep (2,948 rows) is cheap
    # enough to gate here too.
    runner = load_bench_runner(monkeypatch)
    out = tmp_path / "rows.tsv"
    assert main(["census", *runner.census_args(workload, size), "--out", str(out)]) == 0
    reference = runner.load_reference(runner.reference_path(workload, size))
    assert runner.project(out.read_text()) == reference


def test_cli_exit_code_on_mismatch(monkeypatch, tmp_path):
    real = census_mod._census_row

    def forced(task):
        row = real(task)
        return CensusRow(**{**row.__dict__, "mismatch": "forced for the test"})

    monkeypatch.setattr(census_mod, "_census_row", forced)
    out = tmp_path / "rows.tsv"
    code = main(
        ["census", "--p", "7", "--n", "3", "--eps", "0", "--verify", "none",
         "--out", str(out)]
    )
    assert code == 2
    assert "forced for the test" in out.read_text()


def test_flipped_predictions_are_each_reported_as_a_mismatch(monkeypatch, tmp_path):
    # A report that claims the other symmetry and twice the lifted order
    # fails three checks against the certified group: its order, its arc
    # orbits, and (where the doubled order does not divide |Aut|) the
    # subgroup test.
    real = census_mod.lifting_report

    def flipped(info):
        rep = real(info)
        return dataclasses.replace(
            rep, arc_transitive=not rep.arc_transitive, lifted_order=2 * rep.lifted_order
        )

    monkeypatch.setattr(census_mod, "lifting_report", flipped)
    out = tmp_path / "rows.jsonl"
    code = main(["census", "--p", "7", "--n", "3", "--eps", "0", "--verify", "aut",
                 "--format", "jsonl", "--out", str(out)])
    assert code == 2
    rows = {tuple(row["g"]): row for row in map(json.loads, out.read_text().splitlines())}
    assert rows[(3, 1)]["mismatch"] == (
        "lifted group order 294 != 588; arc orbits 2 != 1; "
        "lifts give no subgroup: 588 does not divide 294"
    )
    assert len(rows) == len(CUBIC7)
    for g, (_, _, _, sym, lifted, _) in CUBIC7.items():
        row = rows[g]
        arcs = 1 if sym == "AT" else 2
        want = [f"lifted group order {lifted} != {2 * lifted}", f"arc orbits {arcs} != {3 - arcs}"]
        if row["aut_order"] % (2 * lifted):
            want.append(
                f"lifts give no subgroup: {2 * lifted} does not divide {row['aut_order']}"
            )
        assert row["mismatch"] == "; ".join(want)


def test_a_group_that_is_not_transitive_is_reported_as_a_mismatch(monkeypatch, tmp_path):
    # The profile of the certified group decides the transitivity check:
    # one that is not vertex-transitive fails it on every row.
    monkeypatch.setattr(
        census_mod,
        "transitivity_profile",
        lambda group, base: dict(vertex_transitive=False, edge_transitive=True, arc_orbits=1),
    )
    out = tmp_path / "rows.jsonl"
    code = main(["census", "--p", "7", "--n", "3", "--eps", "0", "--verify", "orbits",
                 "--format", "jsonl", "--out", str(out)])
    assert code == 2
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(CUBIC7)
    for row in rows:
        assert row["mismatch"].startswith("lifted group is not vertex- and edge-transitive")


def test_rows_without_deck_translations_are_not_certified(monkeypatch, tmp_path):
    # Without the translations no generator acts trivially on the base darts,
    # so nothing proves the kernel fills a fiber: the row names that check
    # instead of reporting an order.  Certification reads the cover's tracks
    # and builds no arc table.
    real = census_mod.lifted_generators
    real_arc_action = permgrp.arc_action
    arc_tables = []

    def lifts_only(report, cover):
        return real(report, cover)[: -cover.r]

    def counted(adj):
        arc_tables.append(1)
        return real_arc_action(adj)

    monkeypatch.setattr(census_mod, "lifted_generators", lifts_only)
    monkeypatch.setattr(permgrp, "arc_action", counted)
    monkeypatch.setattr(cover_module, "arc_action", counted, raising=False)
    out = tmp_path / "rows.jsonl"
    code = main(
        ["census", "--p", "7", "--n", "3", "--eps", "0", "--verify", "orbits",
         "--format", "jsonl", "--out", str(out)]
    )
    assert code == 2
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 7
    for row in rows:
        assert row["mismatch"] == (
            "lifted group not certified: the given permutations acting trivially "
            "on base darts are not transitive on a fiber; adding the deck "
            "translations supplies the kernel"
        )
        assert row["verified_order"] is None and row["arc_orbits"] is None
    assert len(arc_tables) == 0


def test_uncertified_rows_still_get_their_aut_order_from_an_unseeded_search(
    monkeypatch, tmp_path
):
    # The same lifts-only generators at the aut tier: the search starts from
    # nothing, since base_action proved none of them, and finds the orders of
    # an unpatched census.  Certified rows pass their lifts and translations.
    argv = ["census", "--p", "7", "--n", "3", "--eps", "0", "--verify", "aut",
            "--format", "jsonl"]
    real_search = census_mod.automorphism_group
    seeded = []

    def recorded(cover, **kwargs):
        seeded.append(len(kwargs["known"]))
        return real_search(cover, **kwargs)

    monkeypatch.setattr(census_mod, "automorphism_group", recorded)
    plain = tmp_path / "plain.jsonl"
    assert main([*argv, "--out", str(plain)]) == 0
    assert len(seeded) == 7 and all(seeded)

    real = census_mod.lifted_generators

    def lifts_only(report, cover):
        return real(report, cover)[: -cover.r]

    monkeypatch.setattr(census_mod, "lifted_generators", lifts_only)
    patched = tmp_path / "patched.jsonl"
    assert main([*argv, "--out", str(patched)]) == 2
    assert seeded[7:] == [0] * 7
    want = [json.loads(line) for line in plain.read_text().splitlines()]
    got = [json.loads(line) for line in patched.read_text().splitlines()]
    assert [row["aut_order"] for row in got] == [row["aut_order"] for row in want]
    assert all(row["aut_order"] for row in got)
    for row in got:
        assert row["mismatch"].startswith("lifted group not certified: the given permutations")
        assert row["verified_order"] is None and row["skipped"] is None


def test_a_census_orders_each_base_dart_group_once(monkeypatch):
    # The 68 verified covers of the verify-orbits sweep induce 29 distinct
    # groups on their base darts.  The record lasts one census_rows call.
    built = []
    real = census_mod.PermGroup

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(census_mod, "PermGroup", counted)
    for calls in (1, 2):
        rows = census_rows([3, 5, 7], range(3, 6), verify="orbits", max_order=1000)
        assert sum(row.verified_order is not None for row in rows) == 68
        assert len(built) == 29 * calls
        assert not any(row.mismatch for row in rows)


def test_cli_export_refusal_keeps_the_out_file(tmp_path):
    out = tmp_path / "cover.txt"
    for argv in (
        ["--p", "7", "--n", "3", "--g", "1,1"],  # not a divisor
        ["--p", "3", "--n", "8", "--g", "1"],  # above --max-order
        ["--p", "7", "--n", "2", "--g", "1"],  # no cover on two vertices
        ["--p", "7", "--n", "12", "--g", "1", "--max-order", str(10**12)],  # int32 ids
    ):
        out.write_text("keep\n")
        with pytest.raises(SystemExit) as stop:
            main(["export", "--eps", "0", *argv, "--out", str(out)])
        assert stop.value.code == 2
        assert out.read_text() == "keep\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--p", "3,5", "--n", "3..6", "--verify", "none"],
        ["export", "--p", "7", "--n", "3", "--eps", "0", "--g", "1"],
    ],
    ids=["census", "export"],
)
def test_cli_exits_quietly_when_the_reader_goes_away(argv):
    # As in `dccover ... | head -1`: the read end closes before the output is
    # written, and the command ends with status 1 and no traceback.
    src = str(Path(census_mod.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "dccover.census", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 1
    assert err == ""
