"""Command-line surface: degree, spectrum, verify, graph, branch, scan."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .cache import load_spectrum, store_spectrum
from .exact import decimal_str
from .graph import (
    build_graph,
    low_degree_count_check_all,
    near_max_count_check_all,
    ratio_lemma_check,
)
from .hooks import degree_sn, degrees_an, hook_product, up_dn_ratio
from .partitions import (
    PartitionFormatError,
    format_partition,
    is_self_conjugate,
    lambda_dn,
    lambda_up,
    parse_partition,
)
from .report import FAIL
from .serialize import (
    graph_to_doc,
    graph_to_dot,
    json_text,
    report_to_doc,
    spectrum_to_csv,
    spectrum_to_doc,
    spectrum_to_text,
)
from .spectrum import (
    DEFAULT_MAX_N,
    branch_decompose,
    cached_spectrum,
    epsilon,
    epsilon_lower_bounds,
    induced_bound_check,
    move_scan_verify,
    sandwich_check,
    spectrum_an,
    spectrum_sn,
    spectrum_xy,
    verify_theorem1,
    verify_theorem2,
)

CACHE_ENV = "CHARDEG_CACHE_DIR"

CHECK_NAMES = (
    "theorem1",
    "theorem2",
    "sandwich",
    "ratio-lemma",
    "count-lemmas",
    "move-scan",
    "induced-bound",
    "epsilon-bounds",
)


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    n_range: tuple[int, int] | None = None
    group: str = "S"
    fmt: str = "text"
    cache_dir: str | None = None
    threads: int = 1
    max_n: int = DEFAULT_MAX_N
    override_domain: bool = False
    checks: tuple[str, ...] = ()
    out: str | None = None

    def ns(self) -> list[int]:
        if self.n_range is not None:
            lo, hi = self.n_range
            return list(range(lo, hi + 1))
        if self.n is not None:
            return [self.n]
        raise UsageError("one of --n or --range is required")


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


def _get_spectrum(cfg: RunConfig, group: str, n: int):
    if n > cfg.max_n:
        raise UsageError(f"n={n} exceeds the resource guard --max-n {cfg.max_n}")
    if cfg.cache_dir:
        spec = load_spectrum(cfg.cache_dir, group, n)
        if spec is not None:
            return spec
    builder = spectrum_sn if group == "S" else spectrum_an
    spec = builder(n, threads=cfg.threads, max_n=cfg.max_n)
    if cfg.cache_dir:
        store_spectrum(cfg.cache_dir, spec)
    return spec


def cmd_degree(cfg: RunConfig, text: str) -> int:
    parts = parse_partition(text, max_n=cfg.max_n)
    n = sum(parts)
    h = hook_product(parts)
    deg = degree_sn(parts)
    entry = degrees_an(parts)[0]
    up, dn = lambda_up(parts), lambda_dn(parts)
    ratio = up_dn_ratio(parts)
    if cfg.fmt == "json":
        doc = {
            "schema": 1,
            "partition": format_partition(parts),
            "n": n,
            "hook_product": str(h),
            "degree": str(deg),
            "self_conjugate": is_self_conjugate(parts),
            "alternating_degree": str(entry.degree),
            "alternating_count": entry.count,
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
    print(f"alternating degree: {entry.degree} x{entry.count}")
    print(f"lambda_up: {format_partition(up) if up else 'undefined'}")
    print(f"lambda_dn: {format_partition(dn) if dn else 'undefined'}")
    if ratio is None:
        print("up-dn ratio: undefined")
    else:
        boundary = "  (boundary: equals 4)" if ratio == 4 else ""
        print(f"up-dn ratio: {ratio} ({decimal_str(ratio)}){boundary}")
    return 0


def cmd_branch(cfg: RunConfig, text: str) -> int:
    parts = parse_partition(text, max_n=cfg.max_n)
    decomp = branch_decompose(parts)
    n = sum(parts)
    degs = [degree_sn(c) for c in decomp.constituents]
    if cfg.fmt == "json":
        doc = {
            "schema": 1,
            "source": format_partition(parts),
            "n": n,
            "self_multiplicity": decomp.self_multiplicity,
            "constituents": [
                {"partition": format_partition(c), "degree": str(d)}
                for c, d in zip(decomp.constituents, degs)
            ],
            "constituent_count": decomp.constituent_count(),
        }
        print(json_text(doc), end="")
        return 0
    src_deg = degree_sn(parts)
    print(f"source: {format_partition(parts)}  (degree {src_deg})")
    print(f"n: {n}")
    print(f"self multiplicity: {decomp.self_multiplicity}")
    for c, d in zip(decomp.constituents, degs):
        print(f"  constituent: {format_partition(c)}  (degree {d})")
    total = decomp.self_multiplicity * src_deg + sum(degs)
    print(f"degree identity: {n} * {src_deg} = {total}")
    print(f"constituents including source: {decomp.constituent_count()} < {2 * n}")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise UsageError("spectrum requires --n")
    group = cfg.group.upper()
    spec = _get_spectrum(cfg, group, cfg.n)
    if cfg.fmt == "json":
        print(json_text(spectrum_to_doc(spec)), end="")
    elif cfg.fmt == "csv":
        print(spectrum_to_csv(spec), end="")
    else:
        print(spectrum_to_text(spec), end="")
    return 0


def cmd_graph(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise UsageError("graph requires --n")
    if cfg.n > cfg.max_n:
        raise UsageError(f"n={cfg.n} exceeds the resource guard --max-n {cfg.max_n}")
    graph = build_graph(cfg.n)
    if cfg.fmt == "dot":
        print(graph_to_dot(graph), end="")
    else:
        print(json_text(graph_to_doc(graph)), end="")
    return 0


def _run_check(name: str, n: int, cfg: RunConfig) -> list:
    if name == "theorem1":
        return [verify_theorem1(n, override_domain=cfg.override_domain)]
    if name == "theorem2":
        return [verify_theorem2(n, override_domain=cfg.override_domain)]
    if name == "sandwich":
        return [sandwich_check(n)]
    if name == "ratio-lemma":
        return [ratio_lemma_check(n)]
    if name == "count-lemmas":
        return [low_degree_count_check_all(n), near_max_count_check_all(n)]
    if name == "move-scan":
        reports = [move_scan_verify(n, "A")]
        if n >= 7:
            reports.append(move_scan_verify(n, "S"))
        return reports
    if name == "induced-bound":
        return [induced_bound_check(n)]
    if name == "epsilon-bounds":
        return [epsilon_lower_bounds(n)]
    raise UsageError(f"unknown check {name!r}")


_CHECK_DOMAIN_LO = {
    "theorem1": 5,
    "theorem2": 7,
    "sandwich": 5,
    "ratio-lemma": 1,
    "count-lemmas": 5,
    "move-scan": 5,
    "induced-bound": 5,
    "epsilon-bounds": 5,
}


def cmd_verify(cfg: RunConfig) -> int:
    ns = cfg.ns()
    for n in ns:
        if n > cfg.max_n:
            raise UsageError(f"n={n} exceeds the resource guard --max-n {cfg.max_n}")
    requested = cfg.checks or ("all",)
    if "all" in requested:
        requested = CHECK_NAMES
    lows = []
    for name in requested:
        lo = _CHECK_DOMAIN_LO[name]
        if cfg.override_domain and name in ("theorem1", "theorem2"):
            lo = 2
        if ns[-1] < lo:
            print(
                f"error: check {name!r} is stated for n >= {lo}; "
                f"requested range lies outside its domain",
                file=sys.stderr,
            )
            return 2
        lows.append(lo)
    # Evaluate n-major, so each n's degree table is built once and dropped
    # before the next n; report check-major, one check's range at a time.
    per_check: list[list] = [[] for _ in requested]
    for n in ns:
        for name, lo, out in zip(requested, lows, per_check):
            if n >= lo:
                out.extend(_run_check(name, n, cfg))
    reports = [r for out in per_check for r in out]
    if cfg.fmt == "json":
        doc = {"schema": 1, "reports": [report_to_doc(r) for r in reports]}
        print(json_text(doc), end="")
    else:
        for r in reports:
            print(r.summary())
    return 1 if any(r.status == FAIL for r in reports) else 0


def cmd_scan(cfg: RunConfig) -> int:
    max_n = cfg.n
    if max_n is None:
        raise UsageError("scan requires --n, the upper bound of the scan")
    if max_n < 5:
        raise UsageError("scan starts at n = 5; give --n of at least 5")
    if max_n > cfg.max_n:
        raise UsageError(f"n={max_n} exceeds the resource guard --max-n {cfg.max_n}")
    if cfg.out is None:
        raise UsageError("scan requires --out PATH")
    out = Path(cfg.out)
    rows = ["n,b_s,m1,b_a,ba_equals_bs,eps_s,eps_s_decimal,eps_a,eps_a_decimal,x,y"]
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    try:
        for n in range(5, max_n + 1):
            s_spec = cached_spectrum("S", n)
            a_spec = cached_spectrum("A", n)
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
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("\n".join(rows) + "\n", encoding="utf-8")
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {out} ({max_n - 4} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chardeg",
        description="Exact character-degree spectra of symmetric and alternating groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices, default_fmt):
        p.add_argument("--format", dest="fmt", choices=fmt_choices, default=default_fmt)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
        p.add_argument("--override-domain", action="store_true")

    p = sub.add_parser("degree", help="hook data for one partition")
    p.add_argument("partition")
    add_common(p, ("text", "json"), "text")

    p = sub.add_parser("branch", help="restriction-induction decomposition")
    p.add_argument("partition")
    add_common(p, ("text", "json"), "text")

    p = sub.add_parser("spectrum", help="full degree spectrum for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("s", "a"), default="s")
    add_common(p, ("text", "json", "csv"), "text")

    p = sub.add_parser("graph", help="move-graph components for one n")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("dot", "json"), "json")

    p = sub.add_parser("verify", help="run named checks over a range of n")
    p.add_argument("--n", type=int)
    p.add_argument("--range", dest="n_range")
    p.add_argument(
        "--checks",
        default="all",
        help="comma separated subset of: " + ", ".join(CHECK_NAMES) + ", all",
    )
    add_common(p, ("text", "json"), "text")

    p = sub.add_parser("scan", help="CSV trend table for n = 5..N")
    p.add_argument("--n", type=int, required=True, help="upper bound of the scan")
    p.add_argument("--out", required=True)
    add_common(p, ("csv",), "csv")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV) or None
    threads = getattr(args, "threads", 1)
    if threads < 1:
        raise UsageError("--threads must be at least 1")
    n_range = getattr(args, "n_range", None)
    cfg = RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        n_range=_parse_range(n_range) if n_range else None,
        group=getattr(args, "group", "s").upper(),
        fmt=getattr(args, "fmt", "text"),
        cache_dir=cache_dir,
        threads=threads,
        max_n=getattr(args, "max_n", DEFAULT_MAX_N),
        override_domain=getattr(args, "override_domain", False),
        checks=tuple(
            t.strip() for t in getattr(args, "checks", "all").split(",") if t.strip()
        ),
        out=getattr(args, "out", None),
    )
    for name in cfg.checks:
        if name != "all" and name not in CHECK_NAMES:
            raise UsageError(f"unknown check {name!r}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "degree":
            return cmd_degree(cfg, args.partition)
        if args.command == "branch":
            return cmd_branch(cfg, args.partition)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "graph":
            return cmd_graph(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "scan":
            return cmd_scan(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, PartitionFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
