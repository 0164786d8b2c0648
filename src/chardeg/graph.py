"""The move graph on partitions of n, and the ratio-lemma and counting checks
about its moves, which read the walk's move facts rather than the graph.

Vertices are all partitions of n; each vertex is joined to its λ_up and
λ_dn images when those moves are defined.  The two moves are mutually
inverse where defined, every vertex has at most two neighbors, and the
first part strictly increases along λ_up, so every connected component is a
simple path.  Paths are stored from the λ_up-most end downwards, components
ordered by their earliest vertex in descending lexicographic order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, neg, sub
from typing import Iterable, Iterator

from . import spectrum
from .partitions import (
    Partition,
    enumerate_partitions,
    format_partition,
    lambda_dn,
    lambda_up,
)
from .report import Inequality, VerificationReport

PathComponent = tuple[Partition, ...]


@dataclass(frozen=True)
class PartitionGraph:
    n: int
    components: tuple[PathComponent, ...]


def neighbors(parts: Partition) -> tuple[Partition, ...]:
    """The 0-2 move neighbors of a partition."""
    return tuple(x for x in (lambda_up(parts), lambda_dn(parts)) if x is not None)


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

    The bounds are compared in integers by the store's walk, which keeps
    each violation with its ratio as a Fraction; a FAIL lists the first ten
    violations in descending order of their conjugate-pair representative,
    λ before λ', as a lexicographic pass over the partitions meets them.
    The store checks that the walk covers every partition of n.
    """
    facts = spectrum.move_facts(n)
    violations = facts.violations
    boundary = n == 3 and violations == [((2, 1), Fraction(4))]
    ineq = Inequality(
        "ratio-violations", len(violations) - (1 if boundary else 0), "==", 0
    )
    notes = [f"two-neighbor-vertices={facts.interior}"]
    if boundary:
        notes.append("boundary: 2,1 attains ratio exactly 4")
    else:
        notes.extend(
            f"violation {format_partition(v)} ratio {r}" for v, r in violations[:10]
        )
    return VerificationReport(
        check="ratio-lemma",
        n=n,
        inequalities=(ineq,),
        witnesses=tuple(v for v, _r in violations[:10]),
        notes=tuple(notes),
    )


def _class_sizes(n: int) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """(degrees, sizes, prefix) of the S_n classes, indexed 0-based in
    decreasing degree order; prefix[r] counts the characters of strictly
    larger degree than class r.  The counting bounds are stated for n >= 5,
    so a smaller n raises ValueError."""
    if n < 5:
        raise ValueError("counting checks need n >= 5")
    spec = spectrum.cached_spectrum("S", n)
    return spec.degrees, spec.sizes, [0, *accumulate(spec.sizes)]


def _in_range(degrees: tuple[int, ...], prefix: list[int], r: int) -> int:
    """The characters with degree strictly between b_r/4 and b_r, for the
    0-based class r: for integers 4d > b_r exactly when d > b_r // 4, and
    those degrees come first in the descending column."""
    return prefix[bisect_left(degrees, -(degrees[r] // 4), key=neg)] - prefix[r + 1]


def _near_top_slacks(
    degrees: tuple[int, ...], sizes: tuple[int, ...], prefix: list[int]
) -> Iterator[int]:
    """``_in_range`` less |M_r| − 4·prefix[r] per class r, in order, as one
    pass: b_r falls with r, so the classes above b_r // 4 only grow, and one
    index finds them where a bisection per class was slower."""
    above, classes = 0, len(degrees)
    for r, (b_r, size, p) in enumerate(zip(degrees, sizes, prefix)):
        quarter = b_r // 4
        while above < classes and degrees[above] > quarter:
            above += 1
        yield prefix[above] - prefix[r + 1] - (size - 4 * p)


def _low_witnesses(n: int, low: dict[int, int], degree: int) -> tuple[Partition, ...]:
    """The three largest partitions of class ``degree`` with fewer than two
    move neighbours.  The facts keep only their count, so they come from a
    walk of their own, run only when that count is not 0."""
    return tuple(spectrum.low_witnesses(n, degree)) if low.get(degree) else ()


def low_degree_count_check(n: int, r: int) -> VerificationReport:
    """At most 2 |M_1 ∪ ... ∪ M_{r-1}| partitions of the r-th degree class
    have fewer than two move neighbors; for r = 1 that means none at all."""
    low = spectrum.move_facts(n).low  # first, so a cold store is walked once
    degrees, sizes, prefix = _class_sizes(n)
    if not 1 <= r <= len(degrees):
        raise ValueError(f"class index {r} out of range 1..{len(degrees)}")
    count = low.get(degrees[r - 1], 0)
    ineqs = [Inequality("low-degree-members", count, "<=", 2 * prefix[r - 1])]
    if r == 1:
        ineqs.append(Inequality("all-maximizers-have-two-neighbors", count, "==", 0))
    if r == 2 and sizes[0] == 1:
        ineqs.append(Inequality("second-class-low-degree", count, "<=", 2))
    return VerificationReport(
        check="low-degree-count",
        n=n,
        inequalities=tuple(ineqs),
        witnesses=_low_witnesses(n, low, degrees[r - 1]),
        notes=(f"r={r}", f"|M_r|={sizes[r - 1]}"),
    )


def near_max_count_check(n: int, r: int) -> VerificationReport:
    """At least |M_r| - 4 |M_1 ∪ ... ∪ M_{r-1}| characters have degree
    strictly between b_r/4 and b_r, compared in exact arithmetic."""
    degrees, sizes, prefix = _class_sizes(n)
    if not 1 <= r <= len(degrees):
        raise ValueError(f"class index {r} out of range 1..{len(degrees)}")
    ineq = Inequality("near-top-characters", _in_range(degrees, prefix, r - 1), ">=",
                      sizes[r - 1] - 4 * prefix[r - 1])
    return VerificationReport(
        check="near-max-count",
        n=n,
        inequalities=(ineq,),
        notes=(f"r={r}", f"b_r={degrees[r - 1]}"),
    )


def _tightest(slacks: Iterable[int]) -> tuple[int, list[str]]:
    """The 1-based class where a counting bound is tightest, the first of
    least slack, given the slack per class in order (negative where the
    bound fails), and the report's notes: the class count and the first ten
    classes that violate it.  One pass, holding no slack but the least."""
    tightest, least, violating = 0, None, []
    for r, gap in enumerate(slacks, 1):
        if least is None or gap < least:
            tightest, least = r, gap
        if gap < 0 and len(violating) < 10:
            violating.append(f"violating r={r}")
    return tightest, [f"classes={r}", *violating]


def low_degree_count_check_all(n: int) -> VerificationReport:
    """The low-degree counting bound over every class at once; the recorded
    inequality is the tightest class, so it holds exactly when every class
    does."""
    low = spectrum.move_facts(n).low  # first, so a cold store is walked once
    degrees, sizes, prefix = _class_sizes(n)
    r, notes = _tightest(map(sub, map(mul, prefix, repeat(2)), map(low.get, degrees, repeat(0))))
    ineqs = [
        Inequality(f"low-degree-members[r={r}]", low.get(degrees[r - 1], 0), "<=",
                   2 * prefix[r - 1]),
        Inequality("all-maximizers-have-two-neighbors", low.get(degrees[0], 0), "==", 0),
    ]
    if sizes[0] == 1 and len(degrees) >= 2:
        ineqs.append(Inequality("second-class-low-degree", low.get(degrees[1], 0), "<=", 2))
    return VerificationReport(
        check="low-degree-count",
        n=n,
        inequalities=tuple(ineqs),
        witnesses=_low_witnesses(n, low, degrees[r - 1]),
        notes=tuple(notes),
    )


def near_max_count_check_all(n: int) -> VerificationReport:
    """The near-top counting bound over every class at once; the recorded
    inequality is the tightest class, so it holds exactly when every class
    does."""
    degrees, sizes, prefix = _class_sizes(n)
    r, notes = _tightest(_near_top_slacks(degrees, sizes, prefix))
    ineq = Inequality(f"near-top-characters[r={r}]", _in_range(degrees, prefix, r - 1), ">=",
                      sizes[r - 1] - 4 * prefix[r - 1])
    return VerificationReport(
        check="near-max-count",
        n=n,
        inequalities=(ineq,),
        notes=tuple(notes),
    )
