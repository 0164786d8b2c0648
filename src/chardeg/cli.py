"""Command-line surface: degree, spectrum, verify, graph, branch, scan."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import spectrum
from .cache import load_spectrum, store_spectrum, write_atomic
from .exact import decimal_str
from .graph import (
    build_graph,
    low_degree_count_check_all,
    near_max_count_check_all,
    ratio_lemma_check,
)
from .hooks import degree_sn, hook_product, up_dn_ratio
from .partitions import (
    format_partition,
    is_self_conjugate,
    iter_moves,
    lambda_dn,
    lambda_up,
    parse_partition,
    removable_nodes,
)
from .report import FAIL
from .serialize import (
    SCHEMA_VERSION,
    graph_to_doc,
    graph_to_dot,
    json_text,
    report_to_doc,
    spectrum_json,
    spectrum_to_csv,
    spectrum_to_text,
)
from .spectrum import (
    DEFAULT_MAX_N,
    epsilon,
    epsilon_lower_bounds,
    induced_bound_check,
    move_scan_verify,
    sandwich_check,
    spectrum_an,
    spectrum_sn,
    spectrum_xy,
    splits,
    verify_theorem1,
    verify_theorem2,
)


class UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected A..B") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"range bounds must be positive and ordered, got {text!r}")
    return lo, hi


def _guard(n: int, max_n: int) -> None:
    if n > max_n:
        raise UsageError(f"n={n} exceeds the resource guard --max-n {max_n}")


def _store_guard(max_n: int) -> None:
    """verify and scan read the per-n store, which stops at DEFAULT_MAX_N."""
    if max_n > DEFAULT_MAX_N:
        raise UsageError(
            f"--max-n {max_n} is above {DEFAULT_MAX_N}, the ceiling of the per-n "
            f"store that verify and scan read"
        )


def cmd_degree(args: argparse.Namespace) -> int:
    parts = parse_partition(args.partition, max_n=args.max_n)
    n = sum(parts)
    h = hook_product(parts)
    deg = degree_sn(parts)
    # A_1 = S_1, so nothing splits there
    count = splits("A", (parts,))[0] if n >= 2 else 1
    alt_deg, odd = divmod(deg, count)
    if odd:
        raise ArithmeticError(f"odd degree {deg} for self-conjugate {parts}")
    up, dn = lambda_up(parts), lambda_dn(parts)
    ratio = up_dn_ratio(parts)
    if args.fmt == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "partition": format_partition(parts),
            "n": n,
            "hook_product": str(h),
            "degree": str(deg),
            "self_conjugate": is_self_conjugate(parts),
            "alternating_degree": str(alt_deg),
            "alternating_count": count,
            "lambda_up": format_partition(up) if up else None,
            "lambda_dn": format_partition(dn) if dn else None,
            "up_dn_ratio": str(ratio) if ratio is not None else None,
            "ratio_boundary": ratio == 4 if ratio is not None else False,
        }
        print(json_text(doc), end="")
        return 0
    print(f"partition: {format_partition(parts)}")
    print(f"n: {n}")
    print(f"hook product: {h}")
    print(f"degree: {deg}")
    print(f"self-conjugate: {'yes' if is_self_conjugate(parts) else 'no'}")
    print(f"alternating degree: {alt_deg} x{count}")
    print(f"lambda_up: {format_partition(up) if up else 'undefined'}")
    print(f"lambda_dn: {format_partition(dn) if dn else 'undefined'}")
    if ratio is None:
        print("up-dn ratio: undefined")
    else:
        boundary = "  (boundary: equals 4)" if ratio == 4 else ""
        print(f"up-dn ratio: {ratio} ({decimal_str(ratio)}){boundary}")
    return 0


def cmd_branch(args: argparse.Namespace) -> int:
    parts = parse_partition(args.partition, max_n=args.max_n)
    n = sum(parts)
    corners = len(removable_nodes(parts))
    moves = [moved for _i, _j, moved in iter_moves(parts)]
    degs = [degree_sn(c) for c in moves]
    if args.fmt == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "source": format_partition(parts),
            "n": n,
            "self_multiplicity": corners,
            "constituents": [
                {"partition": format_partition(c), "degree": str(d)}
                for c, d in zip(moves, degs)
            ],
            "constituent_count": 1 + len(moves),
        }
        print(json_text(doc), end="")
        return 0
    src_deg = degree_sn(parts)
    print(f"source: {format_partition(parts)}  (degree {src_deg})")
    print(f"n: {n}")
    print(f"self multiplicity: {corners}")
    for c, d in zip(moves, degs):
        print(f"  constituent: {format_partition(c)}  (degree {d})")
    total = corners * src_deg + sum(degs)
    print(f"degree identity: {n} * {src_deg} = {total}")
    print(f"constituents including source: {1 + len(moves)} < {2 * n}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    if args.cache_dir == "":
        raise UsageError("--cache-dir names no directory; give one or leave the flag out")
    _guard(args.n, args.max_n)
    group = args.group.upper()
    cache_dir = args.cache_dir
    if args.n <= spectrum.MEMBER_CAP:
        # the cache keeps only spectra above the cap, whose members are the top
        # two (has_built_members), and store_spectrum refuses any other
        cache_dir = None
    hit = load_spectrum(cache_dir, group, args.n) if cache_dir else None
    if hit is not None:
        spec, text = hit  # the load proved text is spectrum_json(spec)
    else:
        builder = spectrum_sn if group == "S" else spectrum_an
        spec = builder(args.n, threads=args.threads, max_n=args.max_n)
        # one render serves the entry and stdout
        text = spectrum_json(spec) if args.fmt == "json" else None
        if cache_dir:
            try:
                store_spectrum(cache_dir, spec if text is None else (spec, text))
            except OSError as exc:
                print(f"warning: spectrum not cached: {exc}", file=sys.stderr)
    if args.fmt == "json":
        print(text, end="")
    elif args.fmt == "csv":
        print(spectrum_to_csv(spec), end="")
    else:
        print(spectrum_to_text(spec), end="")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    _guard(args.n, args.max_n)
    graph = build_graph(args.n)
    if args.fmt == "dot":
        print(graph_to_dot(graph), end="")
    else:
        print(json_text(graph_to_doc(graph)), end="")
    return 0


def _move_scans(n: int, override_domain: bool) -> list:
    reports = [move_scan_verify(n, "A")]
    if n >= 7:
        reports.append(move_scan_verify(n, "S"))
    return reports


# ``verify --checks`` names -> (domain floor, floor under --override-domain,
# runner, reads the move facts).  A runner maps (n, override_domain) to the
# check's reports.  The runners name their check functions as module globals,
# looked up at call time, so that rebinding a module attribute reaches them.
CHECKS = {
    "theorem1": (5, 2, lambda n, od: [verify_theorem1(n, override_domain=od)], False),
    "theorem2": (7, 2, lambda n, od: [verify_theorem2(n, override_domain=od)], False),
    "sandwich": (5, 5, lambda n, od: [sandwich_check(n)], False),
    "ratio-lemma": (1, 1, lambda n, od: [ratio_lemma_check(n)], True),
    "count-lemmas": (5, 5, lambda n, od: [low_degree_count_check_all(n),
                                          near_max_count_check_all(n)], True),
    "move-scan": (5, 5, _move_scans, False),
    "induced-bound": (5, 5, lambda n, od: [induced_bound_check(n)], False),
    "epsilon-bounds": (5, 5, lambda n, od: [epsilon_lower_bounds(n)], False),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.threads != 1:
        raise UsageError("verify runs in one process, so --threads must be 1; "
                         "only spectrum starts workers")
    _store_guard(args.max_n)
    if args.n_range is not None:
        lo, hi = _parse_range(args.n_range)
        ns = range(lo, hi + 1)
    elif args.n is not None:
        ns = [args.n]
    else:
        raise UsageError("one of --n or --range is required")
    # a name given twice runs once, in the place it was first given
    requested = list(dict.fromkeys(t.strip() for t in args.checks.split(",") if t.strip()))
    if not requested:
        raise UsageError("--checks names no check; give check names or all")
    for name in requested:
        if name != "all" and name not in CHECKS:
            raise UsageError(f"unknown check {name!r}")
    if "all" in requested:
        requested = list(CHECKS)
    _guard(ns[-1], args.max_n)
    lows = []
    for name in requested:
        lo, lo_override, _, _ = CHECKS[name]
        if args.override_domain:
            lo = lo_override
        if ns[-1] < lo:
            raise UsageError(
                f"check {name!r} is stated for n >= {lo}; "
                f"requested range lies outside its domain"
            )
        lows.append(lo)
    # Evaluate n-major, so each n's store is built once and dropped before
    # the next n; report check-major, one check's range at a time.  Move
    # facts that a check due at n reads are asked for before any check runs,
    # or theorem1 would build n without them and ratio-lemma would build n
    # again.
    per_check: list[list] = [[] for _ in requested]
    for n in ns:
        due = [(name, out) for name, lo, out in zip(requested, lows, per_check) if n >= lo]
        if any(CHECKS[name][3] for name, _ in due):
            spectrum.move_facts(n)
        for name, out in due:
            out.extend(CHECKS[name][2](n, args.override_domain))
    reports = [r for out in per_check for r in out]
    if args.fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "reports": [report_to_doc(r) for r in reports]}
        print(json_text(doc), end="")
    else:
        for r in reports:
            print(r.summary())
    return 1 if any(r.status == FAIL for r in reports) else 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.n < 5:
        raise UsageError("scan starts at n = 5; give --n of at least 5")
    if args.out == "":
        raise UsageError("--out names no file; give the path of the CSV to write")
    _store_guard(args.max_n)
    _guard(args.n, args.max_n)
    out = Path(args.out)
    rows = ["n,b_s,m1,b_a,ba_equals_bs,eps_s,eps_s_decimal,eps_a,eps_a_decimal,x,y"]
    for n in range(5, args.n + 1):
        s_spec = spectrum.cached_spectrum("S", n)
        a_spec = spectrum.cached_spectrum("A", n)
        eps_s = epsilon(s_spec)
        eps_a = epsilon(a_spec)
        x, y = spectrum_xy(n)
        rows.append(
            ",".join(
                [
                    str(n),
                    str(s_spec.b),
                    str(s_spec.m1_size),
                    str(a_spec.b),
                    "true" if a_spec.b == s_spec.b else "false",
                    str(eps_s),
                    decimal_str(eps_s),
                    str(eps_a),
                    decimal_str(eps_a),
                    str(x),
                    str(y),
                ]
            )
        )
    write_atomic(out, "\n".join(rows) + "\n")
    print(f"wrote {out} ({args.n - 4} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact character-degree spectra of symmetric and alternating groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="resource guard")

    p = sub.add_parser("degree", parents=[guard], help="hook data for one partition")
    p.add_argument("partition")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("branch", parents=[guard], help="restriction-induction decomposition")
    p.add_argument("partition")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("spectrum", parents=[guard], help="full degree spectrum for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("s", "a"), default="s")
    p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    p.add_argument("--cache-dir", help="spectrum cache directory")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("graph", parents=[guard], help="move-graph components for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", parents=[guard], help="run named checks over a range of n")
    span = p.add_mutually_exclusive_group()
    span.add_argument("--n", type=int)
    span.add_argument("--range", dest="n_range")
    p.add_argument(
        "--checks",
        default="all",
        help="comma separated subset of: " + ", ".join(CHECKS) + ", all",
    )
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--threads", type=int, default=1, help="must be 1")
    p.add_argument(
        "--override-domain",
        action="store_true",
        help="evaluate theorem1/theorem2 outside their stated range, as informational",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", parents=[guard], help="CSV trend table for n = 5..N")
    p.add_argument("--n", type=int, required=True, help="upper bound of the scan")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
