"""The move graph on partitions of n and the counting checks riding on it.

Vertices are all partitions of n; each vertex is joined to its λ_up and
λ_dn images when those moves are defined.  The two moves are mutually
inverse where defined, every vertex has at most two neighbors, and the
first part strictly increases along λ_up, so every connected component is a
simple path.  Paths are stored from the λ_up-most end downwards, components
ordered by their earliest vertex in descending lexicographic order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import nlargest
from typing import Iterable, Iterator

from .partitions import (
    Partition,
    count_partitions,
    enumerate_partitions,
    format_partition,
    lambda_dn,
    lambda_up,
)
from .report import FAIL, PASS, Inequality, VerificationReport
from .spectrum import cached_spectrum, degree_table, derived_data

PathComponent = tuple[Partition, ...]


@dataclass(frozen=True)
class PartitionGraph:
    n: int
    components: tuple[PathComponent, ...]

    @property
    def vertex_count(self) -> int:
        return sum(len(c) for c in self.components)


def neighbors(parts: Partition) -> tuple[Partition, ...]:
    """The 0-2 move neighbors of a partition."""
    return tuple(x for x in (lambda_up(parts), lambda_dn(parts)) if x is not None)


def vertex_degree(parts: Partition) -> int:
    """The number of move neighbors, counted without building them; the
    conditions are those of ``lambda_up`` and ``lambda_dn``."""
    k = len(parts)
    up = k >= 2 and parts[-1] == 1
    dn = k >= 1 and parts[0] >= 2 and (k == 1 or parts[0] > parts[1])
    return up + dn


def _is_top(parts: Partition) -> bool:
    """True when λ_up is undefined, so ``parts`` starts its move path."""
    return len(parts) < 2 or parts[-1] != 1


def _paths(tops: Iterable[Partition]) -> Iterator[PathComponent]:
    """The move path from each top down along λ_dn, in the order of ``tops``."""
    for lam in tops:
        path = [lam]
        while (lam := lambda_dn(lam)) is not None:
            path.append(lam)
        yield tuple(path)


def _table_paths(table: dict[Partition, int]) -> Iterator[PathComponent]:
    """The components of ``build_graph``, in its order, walked from the
    tops among the degree table's keys instead of a second enumeration."""
    return _paths(sorted(filter(_is_top, table), reverse=True))


def build_graph(n: int) -> PartitionGraph:
    """All partitions of n decomposed into maximal move paths."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # λ_up raises the first part, so a path's top comes first in
    # enumeration order and components keep that order
    tops = filter(_is_top, enumerate_partitions(n))
    return PartitionGraph(n, tuple(_paths(tops)))


def graph_structure_check(n: int) -> VerificationReport:
    """Degree bound, adjacency symmetry, simple-path decomposition, coverage."""
    t0 = time.perf_counter()
    graph = build_graph(n)
    seen: set[Partition] = set()
    bad: list[str] = []
    for comp in graph.components:
        for idx, v in enumerate(comp):
            if v in seen:
                bad.append(f"vertex repeated: {format_partition(v)}")
            seen.add(v)
            up, dn = lambda_up(v), lambda_dn(v)
            if up is not None and lambda_dn(up) != v:
                bad.append(f"asymmetric up edge at {format_partition(v)}")
            if dn is not None and lambda_up(dn) != v:
                bad.append(f"asymmetric down edge at {format_partition(v)}")
            if vertex_degree(v) > 2:
                bad.append(f"degree above 2 at {format_partition(v)}")
            if idx + 1 < len(comp) and lambda_dn(v) != comp[idx + 1]:
                bad.append(f"non-adjacent consecutive vertices at {format_partition(v)}")
        if lambda_up(comp[0]) is not None or lambda_dn(comp[-1]) is not None:
            bad.append(f"path endpoints not maximal in component of {format_partition(comp[0])}")
    ineq = Inequality("vertices-covered", len(seen), "==", count_partitions(n))
    ok = not bad and ineq.holds()
    return VerificationReport(
        check="graph-structure",
        n=n,
        status=PASS if ok else FAIL,
        inequalities=(ineq,),
        notes=tuple(bad[:10]),
        elapsed=time.perf_counter() - t0,
    )


def component_class_check(n: int) -> VerificationReport:
    """No component meets any fixed-degree class in more than two vertices."""
    t0 = time.perf_counter()
    table = degree_table(n)
    worst = 0
    witness: tuple = ()
    for comp in _table_paths(table):
        counts: dict[int, int] = {}
        for v in comp:
            d = table[v]
            c = counts.get(d, 0) + 1
            counts[d] = c
            if c > worst:
                worst = c
                witness = (v,)
    ineq = Inequality("max-class-hits-per-component", worst, "<=", 2)
    return VerificationReport(
        check="component-class-intersection",
        n=n,
        status=PASS if ineq.holds() else FAIL,
        inequalities=(ineq,),
        witnesses=witness,
        elapsed=time.perf_counter() - t0,
    )


def local_extrema_check(n: int) -> VerificationReport:
    """No interior strict local maximum of the hook product along any path,
    and no constant stretch of three or more vertices.  Adjacent ties are
    legitimate (conjugate pairs meet mid-path) and only reported.

    The hook product is n! over the degree, so its local maxima are the
    degree's local minima."""
    t0 = time.perf_counter()
    table = degree_table(n)
    violations: list[str] = []
    ties = 0
    tie_samples: list[str] = []
    for comp in _table_paths(table):
        ds = [table[v] for v in comp]
        for i in range(1, len(ds) - 1):
            if ds[i - 1] > ds[i] < ds[i + 1]:
                violations.append(f"strict local maximum at {format_partition(comp[i])}")
            if ds[i - 1] == ds[i] == ds[i + 1]:
                violations.append(f"constant stretch at {format_partition(comp[i])}")
        for i in range(len(ds) - 1):
            if ds[i] == ds[i + 1]:
                ties += 1
                if len(tie_samples) < 5:
                    tie_samples.append(
                        f"tie {format_partition(comp[i])} | {format_partition(comp[i + 1])}"
                    )
    ineq = Inequality("interior-extrema-violations", len(violations), "==", 0)
    return VerificationReport(
        check="local-extrema",
        n=n,
        status=PASS if ineq.holds() else FAIL,
        inequalities=(ineq,),
        notes=tuple(violations[:10]) + (f"adjacent-ties={ties}",) + tuple(tie_samples),
        elapsed=time.perf_counter() - t0,
    )


def ratio_lemma_check(n: int) -> VerificationReport:
    """Strict bounds 1 < H(dn)H(up)/H^2 < 4 at every two-neighbor vertex.

    For n = 3 the single interior vertex attains exactly 4 because both
    hook-ratio products in the bound are empty; that documented boundary is
    reported, not failed.

    With H = n!/d the ratio is d^2 / (d(up) d(dn)), so the bounds are
    compared on degrees in integers; a Fraction is made only for a
    violation.
    """
    t0 = time.perf_counter()
    table = degree_table(n)
    violations: list[tuple[Partition, Fraction]] = []
    interior = 0
    for comp in _table_paths(table):
        ds = [table[v] for v in comp]
        for i in range(1, len(ds) - 1):
            interior += 1
            square = ds[i] * ds[i]
            neighbors_product = ds[i - 1] * ds[i + 1]
            if not neighbors_product < square < 4 * neighbors_product:
                violations.append((comp[i], Fraction(square, neighbors_product)))
    boundary = n == 3 and violations == [((2, 1), Fraction(4))]
    ineq = Inequality(
        "ratio-violations", len(violations) - (1 if boundary else 0), "==", 0
    )
    notes = [f"two-neighbor-vertices={interior}"]
    if boundary:
        notes.append("boundary: 2,1 attains ratio exactly 4")
        status = PASS
    else:
        notes.extend(
            f"violation {format_partition(v)} ratio {r}" for v, r in violations[:10]
        )
        status = PASS if not violations else FAIL
    return VerificationReport(
        check="ratio-lemma",
        n=n,
        status=status,
        inequalities=(ineq,),
        witnesses=tuple(v for v, _r in violations[:10]),
        notes=tuple(notes),
        elapsed=time.perf_counter() - t0,
    )


def _class_counts(n: int):
    """Per-class data for the counting checks.

    Returns (degrees, sizes, prefix_sizes, low_degree_counts, in_range_counts,
    low_degree_members) where classes are indexed 0-based in decreasing
    degree order and prefix_sizes[r] counts characters of strictly larger
    degree.  low_degree_members maps a class index to its members in table
    order, for classes that have any; a report samples the three largest.
    Like the degree table, only the most recent n is held: the data lives
    with the store and is dropped with it.
    """
    derived = derived_data(n)
    counts = derived.get("class_counts")
    if counts is None:
        counts = derived["class_counts"] = _compute_class_counts(n)
    return counts


def _compute_class_counts(n: int):
    spec = cached_spectrum("S", n)
    degrees = [c.degree for c in spec.classes]
    sizes = [c.size for c in spec.classes]
    index_of = {d: i for i, d in enumerate(degrees)}
    m = len(degrees)

    prefix = [0] * (m + 1)
    for i in range(m):
        prefix[i + 1] = prefix[i] + sizes[i]
    total = prefix[m]

    low_members: dict[int, list[Partition]] = {}
    for lam, d in degree_table(n).items():
        if vertex_degree(lam) < 2:
            low_members.setdefault(index_of[d], []).append(lam)
    low_counts = [len(low_members.get(i, ())) for i in range(m)]

    # in_range[r] = characters with degree strictly between b_r/4 and b_r
    in_range = [0] * m
    t = 0  # first class with 4*degree <= b_r
    for r in range(m):
        below = total - prefix[r + 1]
        if t < r + 1:
            t = r + 1
        while t < m and 4 * degrees[t] > degrees[r]:
            t += 1
        at_most_quarter = total - prefix[t]
        in_range[r] = below - at_most_quarter
    return degrees, sizes, prefix, low_counts, in_range, low_members


def low_degree_count_check(n: int, r: int) -> VerificationReport:
    """At most 2 |M_1 ∪ ... ∪ M_{r-1}| partitions of the r-th degree class
    have fewer than two move neighbors; for r = 1 that means none at all."""
    t0 = time.perf_counter()
    degrees, sizes, prefix, low_counts, _in_range, low_members = _class_counts(n)
    if not 1 <= r <= len(degrees):
        raise ValueError(f"class index {r} out of range 1..{len(degrees)}")
    ineqs = [Inequality("low-degree-members", low_counts[r - 1], "<=", 2 * prefix[r - 1])]
    if r == 1:
        ineqs.append(Inequality("all-maximizers-have-two-neighbors", low_counts[0], "==", 0))
    if r == 2 and sizes[0] == 1:
        ineqs.append(Inequality("second-class-low-degree", low_counts[1], "<=", 2))
    status = PASS if all(q.holds() for q in ineqs) else FAIL
    return VerificationReport(
        check="low-degree-count",
        n=n,
        status=status,
        inequalities=tuple(ineqs),
        witnesses=tuple(nlargest(3, low_members.get(r - 1, ()))),
        notes=(f"r={r}", f"|M_r|={sizes[r - 1]}"),
        elapsed=time.perf_counter() - t0,
    )


def near_max_count_check(n: int, r: int) -> VerificationReport:
    """At least |M_r| - 4 |M_1 ∪ ... ∪ M_{r-1}| characters have degree
    strictly between b_r/4 and b_r, compared in exact arithmetic."""
    t0 = time.perf_counter()
    degrees, sizes, prefix, _low, in_range, _members = _class_counts(n)
    if not 1 <= r <= len(degrees):
        raise ValueError(f"class index {r} out of range 1..{len(degrees)}")
    ineq = Inequality(
        "near-top-characters", in_range[r - 1], ">=", sizes[r - 1] - 4 * prefix[r - 1]
    )
    return VerificationReport(
        check="near-max-count",
        n=n,
        status=PASS if ineq.holds() else FAIL,
        inequalities=(ineq,),
        notes=(f"r={r}", f"b_r={degrees[r - 1]}"),
        elapsed=time.perf_counter() - t0,
    )


def low_degree_count_check_all(n: int) -> VerificationReport:
    """The low-degree counting bound over every class at once; the recorded
    inequality is the tightest class."""
    t0 = time.perf_counter()
    degrees, sizes, prefix, low_counts, _in_range, low_members = _class_counts(n)
    m = len(degrees)
    failures = [r for r in range(1, m + 1) if low_counts[r - 1] > 2 * prefix[r - 1]]
    tightest = min(
        range(1, m + 1), key=lambda r: 2 * prefix[r - 1] - low_counts[r - 1]
    )
    ineqs = [
        Inequality(
            f"low-degree-members[r={tightest}]",
            low_counts[tightest - 1],
            "<=",
            2 * prefix[tightest - 1],
        ),
        Inequality("all-maximizers-have-two-neighbors", low_counts[0], "==", 0),
    ]
    if sizes[0] == 1 and m >= 2:
        ineqs.append(Inequality("second-class-low-degree", low_counts[1], "<=", 2))
    status = PASS if not failures and all(q.holds() for q in ineqs) else FAIL
    notes = [f"classes={m}"] + [f"violating r={r}" for r in failures[:10]]
    return VerificationReport(
        check="low-degree-count",
        n=n,
        status=status,
        inequalities=tuple(ineqs),
        witnesses=tuple(nlargest(3, low_members.get(tightest - 1, ()))),
        notes=tuple(notes),
        elapsed=time.perf_counter() - t0,
    )


def near_max_count_check_all(n: int) -> VerificationReport:
    """The near-top counting bound over every class at once."""
    t0 = time.perf_counter()
    degrees, sizes, prefix, _low, in_range, _members = _class_counts(n)
    m = len(degrees)
    failures = [
        r for r in range(1, m + 1) if in_range[r - 1] < sizes[r - 1] - 4 * prefix[r - 1]
    ]
    tightest = min(
        range(1, m + 1),
        key=lambda r: in_range[r - 1] - (sizes[r - 1] - 4 * prefix[r - 1]),
    )
    ineq = Inequality(
        f"near-top-characters[r={tightest}]",
        in_range[tightest - 1],
        ">=",
        sizes[tightest - 1] - 4 * prefix[tightest - 1],
    )
    status = PASS if not failures and ineq.holds() else FAIL
    notes = [f"classes={m}"] + [f"violating r={r}" for r in failures[:10]]
    return VerificationReport(
        check="near-max-count",
        n=n,
        status=status,
        inequalities=(ineq,),
        notes=tuple(notes),
        elapsed=time.perf_counter() - t0,
    )
