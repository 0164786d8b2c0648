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
from itertools import accumulate
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
from .spectrum import cached_spectrum, degree_table

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


def _paths(partitions: Iterable[Partition]) -> Iterator[PathComponent]:
    """The move path down along λ_dn from each top among ``partitions``, in
    their order; a top is a partition with no λ_up (one part, or a last
    part above 1), and every other partition is skipped."""
    for lam in partitions:
        if len(lam) >= 2 and lam[-1] == 1:
            continue
        path = [lam]
        while (lam := lambda_dn(lam)) is not None:
            path.append(lam)
        yield tuple(path)


def build_graph(n: int) -> PartitionGraph:
    """All partitions of n decomposed into maximal move paths."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # λ_up raises the first part, so a path's top comes first in
    # enumeration order and components keep that order
    return PartitionGraph(n, tuple(_paths(enumerate_partitions(n))))


def ratio_lemma_check(n: int) -> VerificationReport:
    """Strict bounds 1 < H(dn)H(up)/H^2 < 4 at every two-neighbor vertex.

    For n = 3 the single interior vertex attains exactly 4 because both
    hook-ratio products in the bound are empty; that documented boundary is
    reported, not failed.

    With H = n!/d the ratio is d^2 / (d(up) d(dn)), so the bounds are
    compared on degrees in integers; a Fraction is made only for a
    violation.  The paths are walked from the tops among the degree
    table's keys, in the table's order, so the partitions of n are not
    enumerated a second time.  A pass covers every vertex only if the paths
    cover every partition of n, so a walk that misses one raises
    ArithmeticError.
    """
    table = degree_table(n)
    violations: list[tuple[Partition, Fraction]] = []
    interior = 0
    visited = 0
    for comp in _paths(table):
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


def _class_sizes(n: int) -> tuple[list[int], list[int], list[int]]:
    """(degrees, sizes, prefix) of the S_n classes, indexed 0-based in
    decreasing degree order; prefix[r] counts the characters of strictly
    larger degree than class r.  The counting bounds are stated for n >= 5,
    so a smaller n raises ValueError."""
    if n < 5:
        raise ValueError("counting checks need n >= 5")
    spec = cached_spectrum("S", n)
    degrees = [c.degree for c in spec.classes]
    sizes = [c.size for c in spec.classes]
    return degrees, sizes, [0, *accumulate(sizes)]


def _low_degree(n: int, degrees: list[int]) -> tuple[list[int], dict[int, list[Partition]]]:
    """Per class, the number of its partitions with fewer than two move
    neighbours, and those partitions in table order for the classes that
    have any; a report samples the three largest."""
    index_of = {d: i for i, d in enumerate(degrees)}
    members: dict[int, list[Partition]] = {}
    for lam, d in degree_table(n).items():
        if vertex_degree(lam) < 2:
            members.setdefault(index_of[d], []).append(lam)
    return [len(members.get(i, ())) for i in range(len(degrees))], members


def _in_range(degrees: list[int], prefix: list[int]) -> list[int]:
    """in_range[r] = characters with degree strictly between b_r/4 and b_r."""
    in_range = []
    t = 0  # first class with 4*degree <= b_r
    for r, b_r in enumerate(degrees):
        t = max(t, r + 1)
        while t < len(degrees) and 4 * degrees[t] > b_r:
            t += 1
        in_range.append(prefix[t] - prefix[r + 1])
    return in_range


def low_degree_count_check(n: int, r: int) -> VerificationReport:
    """At most 2 |M_1 ∪ ... ∪ M_{r-1}| partitions of the r-th degree class
    have fewer than two move neighbors; for r = 1 that means none at all."""
    degrees, sizes, prefix = _class_sizes(n)
    if not 1 <= r <= len(degrees):
        raise ValueError(f"class index {r} out of range 1..{len(degrees)}")
    low_counts, low_members = _low_degree(n, degrees)
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
    degrees, sizes, prefix = _class_sizes(n)
    if not 1 <= r <= len(degrees):
        raise ValueError(f"class index {r} out of range 1..{len(degrees)}")
    in_range = _in_range(degrees, prefix)
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


def _tightest(slack: list[int]) -> tuple[int, list[str]]:
    """The 1-based class where a counting bound is tightest, given its slack
    per class (negative where the bound fails), and the report's notes: the
    class count and the first ten classes that violate it."""
    violating = [f"violating r={r}" for r, gap in enumerate(slack, 1) if gap < 0]
    return slack.index(min(slack)) + 1, [f"classes={len(slack)}", *violating[:10]]


def low_degree_count_check_all(n: int) -> VerificationReport:
    """The low-degree counting bound over every class at once; the recorded
    inequality is the tightest class, so it holds exactly when every class
    does."""
    degrees, sizes, prefix = _class_sizes(n)
    low_counts, low_members = _low_degree(n, degrees)
    r, notes = _tightest([2 * p - low for p, low in zip(prefix, low_counts)])
    ineqs = [
        Inequality(f"low-degree-members[r={r}]", low_counts[r - 1], "<=", 2 * prefix[r - 1]),
        Inequality("all-maximizers-have-two-neighbors", low_counts[0], "==", 0),
    ]
    if sizes[0] == 1 and len(degrees) >= 2:
        ineqs.append(Inequality("second-class-low-degree", low_counts[1], "<=", 2))
    return VerificationReport(
        check="low-degree-count",
        n=n,
        status=PASS if all(q.holds() for q in ineqs) else FAIL,
        inequalities=tuple(ineqs),
        witnesses=tuple(nlargest(3, low_members.get(r - 1, ()))),
        notes=tuple(notes),
    )


def near_max_count_check_all(n: int) -> VerificationReport:
    """The near-top counting bound over every class at once; the recorded
    inequality is the tightest class, so it holds exactly when every class
    does."""
    degrees, sizes, prefix = _class_sizes(n)
    in_range = _in_range(degrees, prefix)
    r, notes = _tightest([k - (size - 4 * p) for k, size, p in zip(in_range, sizes, prefix)])
    ineq = Inequality(
        f"near-top-characters[r={r}]", in_range[r - 1], ">=", sizes[r - 1] - 4 * prefix[r - 1]
    )
    return VerificationReport(
        check="near-max-count",
        n=n,
        status=PASS if ineq.holds() else FAIL,
        inequalities=(ineq,),
        notes=tuple(notes),
    )
