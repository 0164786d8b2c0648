"""The move graph on partitions of n and the counting checks riding on it.

Vertices are all partitions of n; each vertex is joined to its λ_up and
λ_dn images when those moves are defined.  The two moves are mutually
inverse where defined, every vertex has at most two neighbors, and the
first part strictly increases along λ_up, so every connected component is a
simple path.  Paths are stored from the λ_up-most end downwards, components
ordered by their earliest vertex in descending lexicographic order.
"""

from __future__ import annotations

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


def ratio_lemma_check(n: int) -> VerificationReport:
    """Strict bounds 1 < H(dn)H(up)/H^2 < 4 at every two-neighbor vertex.

    For n = 3 the single interior vertex attains exactly 4 because both
    hook-ratio products in the bound are empty; that documented boundary is
    reported, not failed.

    With H = n!/d the ratio is d^2 / (d(up) d(dn)), so the bounds are
    compared on degrees in integers; a Fraction is made only for a
    violation.  A pass covers every vertex only if the paths cover every
    partition of n, so a walk that misses one raises ArithmeticError.
    """
    table = degree_table(n)
    violations: list[tuple[Partition, Fraction]] = []
    interior = 0
    visited = 0
    for comp in _table_paths(table):
        visited += len(comp)
        ds = [table[v] for v in comp]
        for i in range(1, len(ds) - 1):
            interior += 1
            square = ds[i] * ds[i]
            neighbors_product = ds[i - 1] * ds[i + 1]
            if not neighbors_product < square < 4 * neighbors_product:
                violations.append((comp[i], Fraction(square, neighbors_product)))
    if visited != count_partitions(n):
        raise ArithmeticError(
            f"move paths of {n} cover {visited} of {count_partitions(n)} partitions"
        )
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
    )


def near_max_count_check(n: int, r: int) -> VerificationReport:
    """At least |M_r| - 4 |M_1 ∪ ... ∪ M_{r-1}| characters have degree
    strictly between b_r/4 and b_r, compared in exact arithmetic."""
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
    )


def low_degree_count_check_all(n: int) -> VerificationReport:
    """The low-degree counting bound over every class at once; the recorded
    inequality is the tightest class."""
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
    )


def near_max_count_check_all(n: int) -> VerificationReport:
    """The near-top counting bound over every class at once."""
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
    )
