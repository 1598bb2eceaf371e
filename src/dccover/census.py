"""Census of covers over a parameter sweep, with a command line front end.

Every proper divisor of x^n - (-1)^eps over Z_p contributes one row.  The
classification side of a row (reflexibility, predicted group orders,
symmetry type, minimality) comes from the polynomial machinery; the
verification side rebuilds the same numbers from explicit permutations on
the cover and records any disagreement instead of asserting, so a finished
census is also a machine-checked certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .fpoly import FpPoly, is_odd_prime, require_proper_divisor
from .lift import lifting_report
from .reflex import divisor_info, modulus_divisors

if TYPE_CHECKING:
    from .cover import CoverGraph

VERIFY_TIERS = ("none", "lifts", "orbits", "aut")


# The verification side loads numpy, so a census that only predicts never
# imports it.  The names of the package's lazy table become module globals
# on first use.  _census_row reads them there at call time, so a caller may
# rebind one (as a tracer does) and the binding keeps it.
def _bind_verifiers() -> None:
    """Bind every lazy package name that is not yet a module global."""
    package = sys.modules[__package__]
    for name in package._LAZY:
        if name not in globals():
            globals()[name] = getattr(package, name)


def __getattr__(name: str):
    if name not in sys.modules[__package__]._LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_verifiers()
    return globals()[name]


@dataclass(frozen=True)
class CensusRow:
    """One divisor of one code modulus, with predictions and verified values."""

    p: int
    n: int
    eps: int
    g: tuple[int, ...]
    step: int
    fiber_dim: int
    weakly_reflexible: bool
    maximal_weakly_reflexible: bool
    order: int
    symmetry: str
    base_order: int
    lifted_order: int
    minimal: bool
    verified_order: int | None = None
    arc_orbits: int | None = None
    aut_order: int | None = None
    skipped: str | None = None
    mismatch: str | None = None


# The base-dart groups of this census_rows call, by their darts and induced
# generators: every cover of one n whose generators lift alike shares one.
_BASE_GROUPS: dict[tuple, tuple[int, dict | None]] = {}


def _base_group(on_darts, base, verify: str) -> tuple[int, dict | None]:
    """The order of the group the base-dart permutations generate, and its
    transitivity profile at the orbits and aut tiers; each group once."""
    profiled = verify in ("orbits", "aut")
    key = (profiled, base.reversal.tobytes(), *(perm.tobytes() for perm in on_darts))
    if key not in _BASE_GROUPS:
        group = PermGroup(on_darts, len(base.reversal))
        order = group.order()
        _BASE_GROUPS[key] = order, transitivity_profile(group, base) if profiled else None
    return _BASE_GROUPS[key]


def _census_row(task) -> CensusRow:
    p, n, eps, g, verify, max_order, aut_limit, time_budget = task
    info = divisor_info(g, n, eps)
    rep = lifting_report(info)
    row = dict(
        p=p,
        n=n,
        eps=eps,
        g=g.coeffs,
        step=info.step,
        fiber_dim=info.fiber_dim,
        weakly_reflexible=info.weakly_reflexible,
        maximal_weakly_reflexible=info.maximal_weakly_reflexible,
        order=n * p**info.fiber_dim,
        symmetry="AT" if rep.arc_transitive else "HT",
        base_order=rep.base_order,
        lifted_order=rep.lifted_order,
        minimal=info.minimal_cover,
    )
    if verify == "none":
        return CensusRow(**row)
    if row["order"] > max_order:
        row["skipped"] = f"order {row['order']} above the size budget {max_order}"
        return CensusRow(**row)
    _bind_verifiers()
    if refusal := CoverGraph.vertex_id_refusal(row["order"]):
        row["skipped"] = refusal
        return CensusRow(**row)
    cover = build_cover(g, n, eps)
    gens = lifted_generators(rep, cover)
    mismatches = []
    # Automorphisms the aut search may start from: the lifts and deck
    # translations once base_action has proven them, else none.
    known = ()
    # The lifted group is certified on the 4n base darts: its order is the
    # induced group's times p^r, and its orbits are the induced group's.
    try:
        on_darts, base = cover.base_action(gens)
    except NotCertified as err:
        mismatches.append(f"lifted group not certified: {err}")
    else:
        known = gens
        order, prof = _base_group(on_darts, base, verify)
        row["verified_order"] = order * cover.fiber_size
        if row["verified_order"] != rep.lifted_order:
            mismatches.append(
                f"lifted group order {row['verified_order']} != {rep.lifted_order}"
            )
        if prof is not None:
            row["arc_orbits"] = prof["arc_orbits"]
            want_arcs = 1 if rep.arc_transitive else 2
            if not (prof["vertex_transitive"] and prof["edge_transitive"]):
                mismatches.append("lifted group is not vertex- and edge-transitive")
            if prof["arc_orbits"] != want_arcs:
                mismatches.append(f"arc orbits {prof['arc_orbits']} != {want_arcs}")
    if verify == "aut":
        try:
            aut = automorphism_group(
                cover, limit=aut_limit, time_budget=time_budget, known=known
            )
            row["aut_order"] = aut.order()
            if row["aut_order"] % rep.lifted_order:
                mismatches.append(
                    f"lifts give no subgroup: {rep.lifted_order} does not divide "
                    f"{row['aut_order']}"
                )
        except OracleLimit as err:
            row["skipped"] = str(err)
    if mismatches:
        row["mismatch"] = "; ".join(mismatches)
    return CensusRow(**row)


def _check_sweep(ps, ns, eps_values) -> None:
    """Raise ValueError unless the sweep has a p, an n and an eps, every p is
    an odd prime, every n is at least 3 and every eps is 0 or 1."""
    if not ps or not ns:
        raise ValueError("the sweep needs at least one p and one n")
    if not eps_values:
        raise ValueError("the sweep needs at least one eps")
    for eps in eps_values:
        if eps not in (0, 1):
            raise ValueError(f"eps={eps} is neither 0 nor 1")
    for p in ps:
        if not is_odd_prime(p):
            raise ValueError(f"p={p} is not an odd prime")
    for n in ns:
        if n < 3:
            raise ValueError(f"n={n} is below 3, the shortest base cycle")


def census_rows(
    ps,
    ns,
    eps_values=(0, 1),
    verify: str = "lifts",
    max_order: int = 2500,
    aut_limit: int | None = None,
    time_budget: float | None = None,
    jobs: int = 1,
) -> list[CensusRow]:
    """All census rows for the sweep, in a deterministic order.

    Rows are ordered by (n, p, eps) and then by divisor degree and
    coefficients, and a value given twice gives its rows once.  Rows whose
    cover is larger than max_order, or than int32 vertex ids can number,
    skip the permutation checks but still carry the predicted values.  The
    aut tier searches covers of up to aut_limit vertices, max_order by
    default.
    """
    if verify not in VERIFY_TIERS:
        raise ValueError(f"verify must be one of {VERIFY_TIERS}")
    _check_sweep(ps, ns, eps_values)
    if aut_limit is None:
        aut_limit = max_order
    _BASE_GROUPS.clear()
    tasks = []
    for n in sorted(set(ns)):
        for p in sorted(set(ps)):
            for eps in sorted(set(eps_values)):
                for g in modulus_divisors(n, eps, p):
                    tasks.append(
                        (p, n, eps, g, verify, max_order, aut_limit, time_budget)
                    )
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        if verify != "none":
            # Forked workers inherit what the parent has imported.
            _bind_verifiers()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_census_row, tasks))
    return [_census_row(t) for t in tasks]


# -- serialization ---------------------------------------------------------------

_COLUMNS = tuple(f.name for f in fields(CensusRow))


def _cell(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "Y"
    if value is False:
        return "N"
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def write_tsv(rows, stream) -> None:
    stream.write("\t".join(_COLUMNS) + "\n")
    for row in rows:
        stream.write("\t".join(_cell(getattr(row, c)) for c in _COLUMNS) + "\n")


def write_jsonl(rows, stream) -> None:
    for row in rows:
        data = {c: getattr(row, c) for c in _COLUMNS}
        stream.write(json.dumps(data, sort_keys=True) + "\n")


def export_graph(cover: CoverGraph, stream, voltages: bool = False) -> None:
    """Edge list of a cover with a header naming its parameters.

    The header records p, n, eps, the fiber dimension and the divisor
    coefficients; with voltages=True the voltage matrix columns follow, one
    line per base edge pair.  Edges are sorted pairs of vertex ids.
    """
    g = ",".join(map(str, cover.g.coeffs))
    stream.write(f"# p={cover.p} n={cover.n} eps={cover.eps} r={cover.r} g={g}\n")
    if voltages:
        for j, col in enumerate(cover.columns()):
            stream.write(f"# column {j}: {','.join(map(str, col))}\n")
    for u, v in cover.edges():
        stream.write(f"{u} {v}\n")


# -- command line ----------------------------------------------------------------


def _parse_ints(text: str) -> list[int]:
    """Comma list of integers where each item may be a single value or a..b."""
    out = []
    try:
        for item in text.split(","):
            item = item.strip()
            if ".." in item:
                lo, hi = item.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(item))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers such as 3,5,7 or 3..8, got {text!r}"
        ) from None
    return sorted(set(out))


def _parse_eps(text: str) -> tuple[int, ...]:
    if text == "both":
        return (0, 1)
    if text in ("0", "1"):
        return (int(text),)
    raise argparse.ArgumentTypeError("eps must be 0, 1 or both")


def _above_zero(kind):
    """An argparse type: a number of the given kind that is above 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{text} is not above 0")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dccover",
        description="Covers of doubled cycles from divisors of x^n - (-1)^eps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", help="classify and verify a parameter sweep")
    census.add_argument("--p", type=_parse_ints, required=True, help="primes, e.g. 3,5,7")
    census.add_argument("--n", type=_parse_ints, required=True, help="lengths, e.g. 3..8")
    census.add_argument("--eps", type=_parse_eps, default=(0, 1), help="0, 1 or both")
    census.add_argument("--verify", choices=VERIFY_TIERS, default="lifts")
    census.add_argument("--max-order", type=_above_zero(int), default=2500)
    census.add_argument(
        "--aut-limit", type=_above_zero(int), default=None, help="--max-order by default"
    )
    census.add_argument("--time-budget", type=_above_zero(float), default=None)
    census.add_argument("--jobs", type=_above_zero(int), default=1)
    census.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    census.add_argument("--out", default=None, help="output path, stdout by default")

    export = sub.add_parser("export", help="write the edge list of one cover")
    export.add_argument("--p", type=int, required=True)
    export.add_argument("--n", type=int, required=True)
    export.add_argument("--eps", type=int, choices=(0, 1), required=True)
    export.add_argument("--g", required=True, help="divisor coefficients, e.g. 5,1")
    export.add_argument("--voltages", action="store_true")
    export.add_argument(
        "--max-order", type=_above_zero(int), default=2500, help="largest cover to build"
    )
    export.add_argument("--out", default=None, help="output path, stdout by default")
    return parser


def _open_out(parser, path):
    """The output stream, opened before any work so that a bad path fails at once."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as err:
        parser.error(f"--out: {err}")


def main(argv=None) -> int:
    # The arrays are all int, so numpy's BLAS does no work here; one thread
    # keeps OpenBLAS from starting an idle pool when numpy loads.  A value
    # the user has set is kept, and forked --jobs workers inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(parser, args)
        # A reader that went away shows up at the latest here, not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # As with `| head`: Python flushes stdout again at exit, so point it
        # at devnull first (the SIGPIPE note of the signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(parser, args) -> int:
    """Carry out a parsed command; its exit status."""
    if args.command == "census":
        try:
            _check_sweep(args.p, args.n, args.eps)
        except ValueError as err:
            parser.error(str(err))
        with _open_out(parser, args.out) as stream:
            rows = census_rows(
                args.p,
                args.n,
                args.eps,
                verify=args.verify,
                max_order=args.max_order,
                aut_limit=args.aut_limit,
                time_budget=args.time_budget,
                jobs=args.jobs,
            )
            if args.format == "tsv":
                write_tsv(rows, stream)
            else:
                write_jsonl(rows, stream)
        return 2 if any(row.mismatch for row in rows) else 0
    # Every refusal comes before the output is opened, so that a refused
    # export leaves an existing --out file as it was.
    try:
        coeffs = tuple(int(c) for c in args.g.split(","))
    except ValueError:
        parser.error(f"--g: expected integers such as 5,1, got {args.g!r}")
    try:
        g = FpPoly(args.p, coeffs)
        require_proper_divisor(g, args.n, args.eps)
    except ValueError as err:
        parser.error(str(err))
    if args.n < 3:
        parser.error("the base cycle needs at least three vertices")
    order = args.n * args.p ** (args.n - g.degree)
    if order > args.max_order:
        parser.error(f"the cover has {order} vertices, above --max-order {args.max_order}")
    _bind_verifiers()
    if refusal := CoverGraph.vertex_id_refusal(order):
        parser.error(refusal)
    with _open_out(parser, args.out) as stream:
        export_graph(build_cover(g, args.n, args.eps), stream, voltages=args.voltages)
    return 0


if __name__ == "__main__":
    sys.exit(main())
