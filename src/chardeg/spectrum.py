"""Exact degree spectra of S_n and A_n and the theorem-level checks.

A spectrum lists the distinct character degrees b_1 > b_2 > ... > b_m of a
group together with the partitions realizing each degree.  All sums and
comparisons downstream (largest-degree dominance, the sandwich bound, the
induced-character estimates, the lower bounds on the squared-degree excess)
are carried out in exact integer or rational arithmetic; irrational bounds
are replaced by certified rational enclosures oriented so a recorded pass is
always sound.
"""

from __future__ import annotations

import gc
import os
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import factorial, prod
from operator import add, mul, neg

from .exact import decimal_str, induction_bound
from .hooks import degree_sn, hook_product
from .partitions import (
    Partition,
    conjugate,
    count_partitions,
    format_partition,
    is_self_conjugate,
    iter_moves,
    lambda_dn,
    lambda_up,
)
from .report import INCONCLUSIVE, INFORMATIONAL, Inequality, VerificationReport

DEFAULT_MAX_N = 60
MEMBER_CAP = 40


def splits(group: str, members: tuple[Partition, ...]) -> tuple[int, ...]:
    """The characters each of a class's ``members`` stands for: one, but
    two for a self-conjugate A_n representative, whose character splits."""
    if group == "S":
        return (1,) * len(members)
    return tuple(2 if is_self_conjugate(lam) else 1 for lam in members)


def complete(group: str, size: int, members: tuple[Partition, ...]) -> bool:
    """True when ``members`` list a member for each of a class's ``size``
    characters."""
    return sum(splits(group, members)) == size


@dataclass(frozen=True)
class DegreeSpectrum:
    """The distinct degrees of a group, strictly descending, with the number
    of characters of each, and the members of the leading classes only.

    ``members[i]`` lists the partitions that realize ``degrees[i]``,
    strictly descending: for S_n the partitions themselves, for A_n the
    conjugacy representatives, the larger partition of each conjugate pair,
    which ``splits`` counts.  ``spectrum_sn`` and ``spectrum_an`` keep them
    for every class up to MEMBER_CAP and for the top two above it; the
    store keeps the top two at every n.
    """

    n: int
    group: str  # "S" or "A"
    degrees: tuple[int, ...]
    sizes: tuple[int, ...]
    members: tuple[tuple[Partition, ...], ...]

    @property
    def members_complete(self) -> bool:
        return len(self.members) == len(self.degrees) and all(
            map(complete, repeat(self.group), self.sizes, self.members))

    @property
    def b(self) -> int:
        """Largest character degree."""
        return self.degrees[0]

    @property
    def m1_size(self) -> int:
        return self.sizes[0]

    @property
    def maximizers(self) -> tuple[Partition, ...]:
        return self.members[0]

    def sum_squares_below_top(self) -> int:
        return group_order_of(self.n, self.group) - self.m1_size * self.b * self.b


def group_order_of(n: int, group: str) -> int:
    """|S_n|, or |A_n| for group "A"."""
    if group == "S":
        return factorial(n)
    return factorial(n) // 2 if n >= 2 else 1


def check_invariants(spec: DegreeSpectrum) -> DegreeSpectrum:
    """Return ``spec`` after checking the identities that need no hook
    formula on its columns, as every built or loaded spectrum must: the
    degree mass Σ size·d² is |G|; for S_n also the count Σ size is p(n) and
    Σ size·d is t(n), the involutions, since every character is real with
    indicator 1; for A_n also 2·Σ size = p(n) + 3·sc(n), as a self-conjugate
    partition gives two characters.  Raise ArithmeticError on the first
    that fails."""
    n, group, degrees, sizes = spec.n, spec.group, spec.degrees, spec.sizes
    identities = [("degree mass", sum(map(mul, map(mul, sizes, degrees), degrees)),
                   group_order_of(n, group))]
    if group == "S":
        t = [1, 1]  # t(k) = t(k-1) + (k-1)·t(k-2)
        for k in range(2, n + 1):
            t.append(t[-1] + (k - 1) * t[-2])
        identities += [("character count", sum(sizes), count_partitions(n)),
                       ("degree sum", sum(map(mul, sizes, degrees)), t[n])]
    else:
        sc = [1] + [0] * n  # sc(m): partitions of m into distinct odd parts
        for part in range(1, n + 1, 2):
            for m in range(n, part - 1, -1):
                sc[m] += sc[m - part]
        identities.append(("twice the character count", 2 * sum(sizes),
                           count_partitions(n) + 3 * sc[n]))
    for name, got, want in identities:
        if got != want:
            raise ArithmeticError(f"{name} mismatch for {group}_{n}: {got} != {want}")
    return spec


class _Classes:
    """The walk's conjugate pairs λ ≠ λ′ per degree, with the members of
    every degree or only of the two largest degrees added so far.

    ``counts`` maps a degree to its number of pairs, and ``members`` a
    degree to its partitions, λ then λ′ of each pair.  A degree that drops
    out of the top two loses its members at once; ``floor`` is then the
    smaller of the two, and a new degree below it keeps none.
    """

    __slots__ = ("counts", "members", "all_members", "floor")

    def __init__(self, all_members: bool):
        self.counts: dict[int, int] = {}
        self.members: dict[int, list[Partition]] = {}
        self.all_members = all_members
        self.floor = 0

    def add(self, degree: int, count: int) -> list[Partition] | None:
        """Count ``count`` more pairs of ``degree``; return the list that
        takes their members when the degree keeps its members, else None,
        so a caller builds members only where they are kept."""
        if degree in self.counts:
            self.counts[degree] += count
            return self.members.get(degree)
        self.counts[degree] = count
        if degree < self.floor:
            return None
        held = self.members
        kept = held[degree] = []
        if not self.all_members and len(held) >= 2:
            if len(held) == 3:
                del held[self.floor]
            self.floor = min(held)
        return kept


def _ratio_terms(
    f: int, hooks: list[int], column: tuple[int, int], fact: list[int]
) -> tuple[int, int]:
    """(4·∏(h²−1), ∏h²) over the first-row hooks h_1j, 2 <= j <= f − 1, and
    the first-column hooks h_i1, 2 <= i <= ℓ − 1, of λ = (f, μ).  When λ has
    both moves their quotient is H(λ_dn)·H(λ_up)/H(λ)²: neither move changes
    a hook off the first row and column.  At (2, 1) both products are empty
    and it is 4.  ``hooks`` are the first-row hooks over the columns of μ_1,
    ``column`` holds (∏(h²−1), ∏h) over the first-column hooks, and the
    remaining first-row hooks t = f − μ_1, ..., 2 give (t−1)!·(t+1)!/2 and t!.
    """
    t = f - len(hooks)
    picked = hooks[1:]
    top = 2 * prod([h * h - 1 for h in picked]) * column[0] * fact[t - 1] * fact[t + 1]
    return top, (prod(picked) * column[1] * fact[t]) ** 2


@dataclass(slots=True)
class MoveFacts:
    """What ratio-lemma and count-lemmas read of the partitions of n, folded
    into the store's walk: how many partitions have both moves; those among
    them whose ratio H(λ_dn)·H(λ_up)/H(λ)² lies outside (1, 4), with that
    ratio, in descending order of their conjugate-pair representative, λ
    before λ′; and per degree the partitions with fewer than two move
    neighbours.  Conjugation swaps λ_up and λ_dn, so λ′ has as many move
    neighbours as λ and the same ratio."""

    interior: int = 0
    violations: list[tuple[Partition, Fraction]] = field(default_factory=list)
    low: dict[int, list[Partition]] = field(default_factory=dict)


def _pair_shard(
    n: int, ones, all_members: bool = False, facts: MoveFacts | None = None,
) -> tuple[_Classes, list[tuple[int, Partition]]]:
    """Degrees over the conjugate-pair representatives λ = (f, μ) of n whose
    rows under the first, μ, end in exactly t parts 1, for each t in ``ones``.

    λ has at most f rows, and on a tie, ℓ = f, it is kept when λ >= λ′.  The
    walk builds each μ ⊢ m bottom-up from 1^t, adding rows of at least 2 and
    of at least the row below, and the node μ is the leaf (n − m, μ).  A row
    r is added only when a first part can still complete the suffix,
    n − m − r >= r and ℓ(μ) + 2 <= n − m − r, so each representative is one
    leaf and shards share no node.  A top row r changes no hook below it, so
    a node carries H(μ) up from its parent, H((r, μ)) = H(μ)·∏_{c<r}
    (r − c + μ′_c), the last r − μ_1 factors being (r − μ_1)!, and a leaf's
    degree is one exact division n!/H(λ).  The walk is one loop over a list
    of pending nodes, so it leaves no reference cycle behind.

    Returns the pairs λ ≠ λ′ as one ``_Classes``, one count per pair, whose
    kept members are λ, λ′ in turn, and the self-conjugate leaves as
    (degree, λ); ``_spectrum`` reads S_n or A_n from the two.  The pairs
    keep every member with ``all_members``, else only those of the two
    largest degrees.  λ and λ′ are built only on a tie, or where the classes
    or ``facts``, into which both are folded, keep them.
    """
    fact = [1]
    for k in range(1, n + 2):
        fact.append(fact[-1] * k)
    steps = range(1, n + 1)
    pairs = _Classes(all_members)
    selfconj = []
    violations = []
    # a node is (μ, q, H(μ), m, column): q[c] = μ′_c − c for c < μ_1, so the
    # hooks of a row r on top are r + q[c], and column is (∏(h²−1), ∏h) over
    # the first hooks of the rows above μ's bottom row; 1^t has μ′ = (t,),
    # and the first hooks above its bottom row are t, ..., 2
    pending = [((1,) * t, [t] if t else [], fact[t], t,
                (fact[t - 1] * fact[t + 1] // 2, fact[t]) if t else (1, 1)) for t in ones]
    while pending:
        mu, q, h_mu, m, column = pending.pop()
        f = n - m
        rows = len(mu)
        width = len(q)
        hooks = [f + x for x in q]
        d, rem = divmod(fact[n], h_mu * prod(hooks) * fact[f - width])
        if rem:
            raise ArithmeticError(f"hook product does not divide {n}! for {(f,) + mu}")
        lam = None
        if rows + 1 == f:  # a tie: no row fits above it, so the node has no child
            lam, conj = (f,) + mu, tuple(map(add, q, steps)) + (1,) * (f - width)
            if lam < conj:
                continue
        split = lam is not None and lam == conj
        kept = low = ratio = None
        if split:
            selfconj.append((d, lam))
        else:
            kept = pairs.add(d, 1)
        if facts is not None:
            if rows and mu[-1] == 1 and f > width:
                facts.interior += 2 - split
                top, bottom = _ratio_terms(f, hooks, column, fact)
                if not bottom < top < 4 * bottom:
                    ratio = Fraction(top, bottom)
            else:
                low = facts.low.setdefault(d, [])
        if kept is not None or low is not None or ratio is not None:
            if lam is None:
                lam, conj = (f,) + mu, tuple(map(add, q, steps)) + (1,) * (f - width)
            pair = (lam,) if split else (lam, conj)
            if kept is not None:
                kept += pair
            if low is not None:
                low += pair
            if ratio is not None:
                violations.append((lam, pair, ratio))
        lo = max(width, 2)
        hi = min(f // 2, f - rows - 2)
        if lo > hi:
            continue
        raised = [x + 1 for x in q]  # (r, μ)′_c − c, then 1 − c for width <= c < r
        new_cols = list(range(1 - width, 1 - hi, -1))
        for r in range(lo, hi + 1):
            hooks = [r + x for x in q]
            above = column  # read only by the facts
            if rows and facts is not None:
                h = hooks[0]  # the new row's first hook, r + ℓ(μ)
                above = (column[0] * (h * h - 1), column[1] * h)
            pending.append(((r,) + mu, raised + new_cols[:r - width],
                            h_mu * prod(hooks) * fact[r - width], m + r, above))
    if facts is not None:
        violations.sort(key=lambda v: v[0], reverse=True)
        facts.violations += [(v, ratio) for _lam, pair, ratio in violations for v in pair]
    return pairs, selfconj


def _spectrum(
    n: int, group: str, pairs: _Classes, selfconj: list[tuple[int, Partition]]
) -> DegreeSpectrum:
    """The spectrum of S_n or A_n from the walk's pairs and self-conjugate
    leaves.  A pair λ ≠ λ′ of degree d gives S_n two characters of degree d,
    members λ and λ′, and A_n one, member λ; a self-conjugate λ gives S_n
    one of degree d and A_n ``splits`` of degree d/2, so an odd d raises
    ArithmeticError.  Outside ``pairs.all_members`` only the two largest
    pair degrees keep members.  Both are degrees of the group, so each of
    the group's two largest degrees is one of them or a self-conjugate
    degree (halved in A_n), and every self-conjugate leaf is listed: the
    leading classes find all their members, each sorted descending."""
    alt = group == "A"
    counts = pairs.counts
    extra: dict[int, list[Partition]] = {}
    for d, lam in selfconj:
        if alt and d % 2:
            raise ArithmeticError(f"odd degree {d} for self-conjugate {lam}")
        extra.setdefault(d // 2 if alt else d, []).append(lam)
    degrees = sorted(chain(counts, [d for d in extra if d not in counts]), reverse=True)
    sizes = list(map(mul, map(counts.get, degrees, repeat(0)), repeat(1 if alt else 2)))
    for d, lams in extra.items():
        sizes[bisect_left(degrees, -d, key=neg)] += sum(splits(group, lams))
    step = 2 if alt else 1  # A_n's member of a pair λ, λ′ is λ
    kept = tuple(tuple(sorted(pairs.members.get(d, [])[::step] + extra.get(d, []), reverse=True))
                 for d in degrees[:len(degrees) if pairs.all_members else 2])
    return check_invariants(DegreeSpectrum(n, group, tuple(degrees), tuple(sizes), kept))


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported on the first call:
    only ``spectrum`` above MEMBER_CAP with two or more workers starts a
    pool, and the import costs every other process time and memory.
    ``_build`` looks this name up when it starts the pool, so rebinding it
    reaches the pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(*args, **kwargs)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a pass that allocates many
    objects and leaves no reference cycle behind, and restore its previous
    state after, also when the pass raises.  The store's walk, ``_build``'s
    walk or merge of a pool's shards, and the cache's parse run inside it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def pool_size(threads: int, shards: int, cpus: int | None) -> int:
    """Worker processes for ``shards`` tasks: never more than requested,
    than there are shards, or than ``cpus`` (os.cpu_count(), None if
    unknown)."""
    return max(1, min(threads, shards, cpus or 1))


def _build(n: int, threads: int = 1) -> tuple[_Classes, list[tuple[int, Partition]]]:
    """The pairs and self-conjugate leaves of n that ``spectrum_sn`` and
    ``spectrum_an`` read, keeping every member up to MEMBER_CAP and only
    those of the two largest degrees above it.  Above MEMBER_CAP with two or
    more workers they come from a process pool sharded by the number of
    parts equal to 1, else from one sequential walk.  The walk and the merge
    leave no reference cycle behind, so they run in ``gc_paused``."""
    ones = range((n + 1) // 2)  # 1^t needs a first part of at least t + 1
    workers = pool_size(threads, len(ones), os.cpu_count())
    with gc_paused():
        if workers <= 1 or n <= MEMBER_CAP:
            return _pair_shard(n, ones, n <= MEMBER_CAP)
        # each shard keeps its own top two degrees, so merging keeps the
        # global top two; shards are merged, and dropped, as they arrive
        pairs, selfconj = _Classes(False), []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for shard, shard_selfconj in pool.map(_pair_shard, [n] * len(ones),
                                                  [(t,) for t in ones]):
                for deg, k in shard.counts.items():
                    kept = pairs.add(deg, k)
                    if kept is not None:
                        kept += shard.members.get(deg, ())
                selfconj += shard_selfconj
        return pairs, selfconj


def _check_n(n: int, lo: int, max_n: int) -> None:
    if n < lo:
        raise ValueError(f"n must be at least {lo}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the configured maximum {max_n}")


def spectrum_sn(n: int, *, threads: int = 1, max_n: int = DEFAULT_MAX_N) -> DegreeSpectrum:
    """Complete exact degree spectrum of the symmetric group on n points.

    Member partitions are stored for every class when n <= MEMBER_CAP and
    only for the top two classes above it.  The result is deterministic and
    independent of the worker count.
    """
    _check_n(n, 1, max_n)
    return _spectrum(n, "S", *_build(n, threads))


def spectrum_an(n: int, *, threads: int = 1, max_n: int = DEFAULT_MAX_N) -> DegreeSpectrum:
    """Complete exact degree spectrum of the alternating group on n points."""
    _check_n(n, 2, max_n)
    return _spectrum(n, "A", *_build(n, threads))


def has_built_members(spec: DegreeSpectrum) -> bool:
    """True when ``spec`` is a spectrum above MEMBER_CAP, the only ones the
    cache keeps, and keeps the members that ``spectrum_sn`` and
    ``spectrum_an`` keep for it: a member for each character of its top two
    classes (its only class when it has one), which the checks read, and no
    others.

    Every member must be a partition of n, listed strictly descending in
    its class, and must give back its class degree from its hook product,
    which keeps it out of the other class; in A_n it is also the larger
    partition of its conjugate pair.
    """
    n, group = spec.n, spec.group
    if n <= MEMBER_CAP or len(spec.members) != min(2, len(spec.degrees)):
        return False
    fact = factorial(n)
    for degree, size, lams in zip(spec.degrees, spec.sizes, spec.members):
        if not complete(group, size, lams) or any(a <= b for a, b in zip(lams, lams[1:])):
            return False
        for lam, chars in zip(lams, splits(group, lams)):
            if sum(lam) != n or (group == "A" and lam < conjugate(lam)):
                return False
            if chars * degree * hook_product(lam) != fact:
                return False
    return True


# the current n's spectra, its move facts when they were asked for, and the
# degrees of the single-node moves that the checks have scanned; replaced
# when another n is built
_Store = tuple[int, MoveFacts | None, dict[str, DegreeSpectrum], dict[Partition, int]]
_store: _Store | None = None


def _current(n: int, facts: bool = False) -> _Store:
    """The store for n, built by one sequential walk over the conjugate-pair
    representatives, in ``gc_paused``, unless it already holds n, with its
    move facts when ``facts``.  A verdict read from the facts covers every
    partition of n only if they do, so facts whose two-neighbour partitions
    and low-degree members do not add up to p(n) raise ArithmeticError, and
    the store is left empty."""
    global _store
    held = _store if _store is not None and _store[0] == n else None
    if held is None or (facts and held[1] is None):
        _check_n(n, 1, DEFAULT_MAX_N)
        clear_spectrum_cache()  # drop the previous n before building this one
        moves = MoveFacts() if facts else None
        with gc_paused():
            classes = _pair_shard(n, range((n + 1) // 2), False, moves)
        if moves is not None:
            covered = moves.interior + sum(map(len, moves.low.values()))
            if covered != count_partitions(n):
                raise ArithmeticError(
                    f"move facts of {n} cover {covered} of {count_partitions(n)} partitions"
                )
        _store = (n, moves, {g: _spectrum(n, g, *classes) for g in ("SA" if n >= 2 else "S")}, {})
    return _store


def move_facts(n: int) -> MoveFacts:
    """The move facts of every partition of n, which ratio-lemma and
    count-lemmas read, folded into the store's walk.  Only the most recent n
    is held, together with its S_n and A_n spectra; asking for another n,
    or for the facts of an n whose spectra were built without them,
    rebuilds."""
    return _current(n, facts=True)[1]


def cached_spectrum(group: str, n: int) -> DegreeSpectrum:
    """Sequentially computed spectrum, from the same store as ``move_facts``;
    at every n only its top two classes keep their members.  A first call
    for n builds the spectra without move facts."""
    _check_n(n, 2 if group == "A" else 1, DEFAULT_MAX_N)
    return _current(n)[2][group]


def clear_spectrum_cache() -> None:
    """Drop the store, with its spectra, move facts and move degrees."""
    global _store
    _store = None


def epsilon(spec: DegreeSpectrum) -> Fraction:
    """Sum of squared degrees strictly below the top degree, over its square."""
    return Fraction(spec.sum_squares_below_top(), spec.b * spec.b)


def spectrum_xy(n: int) -> tuple[int, int]:
    """x = number of symmetric-group characters of degree above b(A_n);
    y = multiplicity of b(A_n) as a symmetric-group degree."""
    b_a = cached_spectrum("A", n).b
    s_spec = cached_spectrum("S", n)
    degrees, sizes = s_spec.degrees, s_spec.sizes
    i = bisect_left(degrees, -b_a, key=neg)  # the first S_n degree <= b(A_n)
    return sum(sizes[:i]), sizes[i] if i < len(degrees) and degrees[i] == b_a else 0


def _dominance(
    n: int, group: str, floor: int, factor: int, check: str, label: str, top: str,
    override_domain: bool,
) -> VerificationReport:
    """Squared degrees below the top degree b against ``factor``·b², stated
    for n >= ``floor`` and informational below it."""
    if n < floor and not override_domain:
        raise ValueError(f"{check} is stated for n >= {floor} (use override to force)")
    spec = cached_spectrum(group, n)
    ineq = Inequality(label, spec.sum_squares_below_top(), ">", factor * spec.b * spec.b)
    return VerificationReport(
        check=check,
        n=n,
        status=INFORMATIONAL if n < floor else None,
        inequalities=(ineq,),
        witnesses=spec.maximizers,
        notes=(f"b={spec.b}", f"{top}={spec.m1_size}"),
    )


def verify_theorem2(n: int, *, override_domain: bool = False) -> VerificationReport:
    """Squared degrees below b(S_n) dominate twice its square (stated n >= 7)."""
    return _dominance(n, "S", 7, 2, "theorem2", "below-top-sum-exceeds-twice-square", "|M_1|",
                      override_domain)


def verify_theorem1(n: int, *, override_domain: bool = False) -> VerificationReport:
    """Squared degrees below b(A_n) dominate its square (stated n >= 5)."""
    return _dominance(n, "A", 5, 1, "theorem1", "below-top-sum-exceeds-square", "multiplicity",
                      override_domain)


def sandwich_check(n: int) -> VerificationReport:
    """b(S_n)/2 < b(A_n) <= b(S_n) (stated n >= 5); whether equality holds
    is informational."""
    if n < 5:
        raise ValueError("sandwich check needs n >= 5")
    b_s = cached_spectrum("S", n).b
    b_a = cached_spectrum("A", n).b
    ineqs = (
        Inequality("twice-alternating-exceeds-symmetric", 2 * b_a, ">", b_s),
        Inequality("alternating-at-most-symmetric", b_a, "<=", b_s),
    )
    return VerificationReport(
        check="sandwich",
        n=n,
        inequalities=ineqs,
        notes=(f"equality={'true' if b_a == b_s else 'false'}",),
    )


def _scan_degrees(parts: Partition) -> dict[Partition, int]:
    """Exact degrees of every single-node move of ``parts``.  induced-bound
    and both move scans read the moves of the same maximizers, so each
    degree is computed once and kept in the store of n until it goes."""
    known = _current(sum(parts))[3]
    degrees = {}
    for _i, _j, moved in iter_moves(parts):
        d = known.get(moved)
        if d is None:
            d = known[moved] = degree_sn(moved)
        degrees[moved] = d
    return degrees


def _move_mass(members, below: int, target, label: str) -> list[Inequality]:
    """Per member, the squared degrees of its single-node moves below
    ``below`` against ``target``; ``label`` names the member at ``{}``."""
    return [
        Inequality(label.format(format_partition(lam)),
                   sum(d * d for d in _scan_degrees(lam).values() if d < below), ">", target)
        for lam in members
    ]


def _decisive(records: list[Inequality]) -> list[Inequality]:
    """The records of an either/or proof that decide it: those that hold, or
    all of them when none does, so the verdict they give is PASS exactly
    when one holds."""
    return [q for q in records if q.holds()] or records


def induced_bound_check(n: int) -> VerificationReport:
    """Induced-character mass below the relevant top degree, per maximizer.

    The symmetric branch compares the exact constituent mass against twice
    the squared top degree; its stated hypotheses are n >= 50 with at most
    31 maximizers.  When the alternating top degree is smaller and realized
    by the second symmetric degree with a unique maximizer, the alternating
    branch does the same at that degree (stated n >= 43, |M_2| <= 19).
    Outside all hypotheses the outcome is informational.
    """
    if n < 5:
        raise ValueError("induced bound check needs n >= 5")
    s_spec = cached_spectrum("S", n)
    b_a = cached_spectrum("A", n).b
    # (name, members, top degree b, induction offset k, hypotheses hold)
    branches = [("symmetric", s_spec.maximizers, s_spec.b, 30,
                 n >= 50 and s_spec.m1_size <= 31)]
    if (b_a < s_spec.b and s_spec.m1_size == 1 and len(s_spec.degrees) > 1
            and s_spec.degrees[1] == b_a):
        branches.append(("alternating", s_spec.members[1], b_a, 20,
                         n >= 43 and s_spec.sizes[1] <= 19))
    notes, witnesses, observed, records = [], [], [], []
    for name, members, b, k, hyp in branches:
        mass = _move_mass(members, b, 2 * b * b, "induced-mass[{}]")
        witnesses.extend(members)
        notes.append(f"{name}-analytic-context={decimal_str(induction_bound(n, k) * b * b)}")
        notes.append(f"{name}-hypotheses={'active' if hyp else 'inactive'}")
        observed.extend(mass)
        if hyp:
            # an active branch is never empty, as it covers the maximizers or
            # the members of the second class, so PASS needs a held record in each
            records.extend(_decisive(mass))
    if len(branches) == 1:
        notes.append("alternating-branch=not-applicable")
    notes.extend(f"observed: {q} -> {q.holds()}" for q in observed)
    active = any(hyp for *_, hyp in branches)
    return VerificationReport(
        check="induced-bound",
        n=n,
        status=None if active else INFORMATIONAL,
        inequalities=tuple(records if active else observed),
        witnesses=tuple(witnesses),
        notes=tuple(notes),
    )


def move_scan_verify(n: int, group: str) -> VerificationReport:
    """Prove the dominance inequalities from single-node moves alone.

    For the symmetric group: the moved-partition mass around any maximizer,
    excluding moves of top degree, must exceed twice the squared top degree.
    For the alternating group with b(A_n) < b(S_n) the argument reduces to a
    unique self-conjugate maximizer and a two-case neighborhood analysis;
    with equal top degrees the symmetric scan is reused at the stronger
    target.  A miss while the full-spectrum theorem holds is reported as
    inconclusive, not as failure.
    """
    group = group.upper()
    if group not in ("S", "A"):
        raise ValueError("group must be 'S' or 'A'")
    if group == "S" and n < 7:
        raise ValueError("symmetric move scan is stated for n >= 7")
    if group == "A" and n < 5:
        raise ValueError("alternating move scan is stated for n >= 5")
    s_spec = cached_spectrum("S", n)
    b_s = s_spec.b
    b_a = cached_spectrum("A", n).b if group == "A" else b_s
    notes = []
    witnesses = tuple(s_spec.maximizers)

    if b_a == b_s:
        if group == "A":
            notes.append("equal-top-degrees: symmetric scan at twice the squared degree")
        # no move has a degree above b_s, so this leaves out the moves of top degree
        records = _move_mass(s_spec.maximizers, b_s, 2 * b_s * b_s, "move-mass[{}]")
    elif s_spec.m1_size >= 2:
        # every maximizer is self-conjugate, so four characters of
        # degree b_s/2 already dominate
        notes.append("multiple-self-conjugate-maximizers")
        records = [Inequality("four-split-characters", b_s * b_s, ">", b_a * b_a)]
    elif len(s_spec.degrees) > 1 and s_spec.degrees[1] > b_a:
        b_2 = s_spec.degrees[1]
        notes.append("intermediate-self-conjugate-degree")
        records = [
            Inequality(
                "split-characters-mass",
                Fraction(b_s * b_s, 2) + Fraction(b_2 * b_2, 2),
                ">",
                b_a * b_a,
            )
        ]
    else:
        lam = s_spec.maximizers[0]
        up = lambda_up(lam)
        dn = lambda_dn(lam)
        if up is None or dn is None:
            raise ArithmeticError(f"maximizer {lam} lacks a neighbor move")
        degrees = _scan_degrees(lam)
        d_up = degrees[up]
        d_dn = degrees[dn]
        notes.append(
            f"neighbors: up={format_partition(up)} degree {d_up}, "
            f"dn={format_partition(dn)} degree {d_dn}"
        )
        if b_a != d_up and b_a != d_dn:
            notes.append("case=1 (top alternating degree away from both neighbors)")
            records = [
                Inequality(
                    "neighbor-squares-exceed-half",
                    d_up * d_up + d_dn * d_dn,
                    ">",
                    Fraction(b_s * b_s, 2),
                )
            ]
        else:
            top = max(degrees.values())
            notes.append(f"case=2 (top scanned degree {top}, b(A)={b_a})")
            records = _move_mass((lam,), top, top * top, "sub-top-move-mass")

    status = None
    if not any(q.holds() for q in records) and \
            (verify_theorem2 if group == "S" else verify_theorem1)(n).passed:
        status = INCONCLUSIVE
        notes.append("neighborhood scan missed; full-spectrum statement holds at this n")
    notes.extend(f"observed: {q} -> {q.holds()}" for q in records)
    return VerificationReport(
        check=f"move-scan-{group.lower()}",
        n=n,
        status=status,
        inequalities=tuple(_decisive(records)),
        witnesses=witnesses,
        notes=tuple(notes),
    )


def epsilon_lower_bounds(n: int) -> VerificationReport:
    """The exact squared-degree excess dominates its closed-form lower bounds.

    Symmetric group: excess >= |M_1|/16 and >= (n - sqrt(2n) - (|M_1|-1))^2 / 2n.
    Alternating group with smaller top degree: excess >= x/2, >= (y-4x)/32 and
    >= (n - sqrt(2n) - 2x - (y-1))^2 / 2n; with equal top degrees, excess is
    at least half the symmetric one.  Square roots enter through certified
    rational upper enclosures, so every recorded bound is weakened, never
    strengthened.
    """
    if n < 5:
        raise ValueError("epsilon bounds need n >= 5")
    s_spec = cached_spectrum("S", n)
    a_spec = cached_spectrum("A", n)
    eps_s = epsilon(s_spec)
    eps_a = epsilon(a_spec)
    m1 = s_spec.m1_size
    ineqs = [
        Inequality("s-multiplicity-bound", eps_s, ">=", Fraction(m1, 16)),
        Inequality("s-induction-bound", eps_s, ">=", induction_bound(n, m1 - 1)),
    ]
    notes = [f"epsilon_s={eps_s}", f"epsilon_a={eps_a}"]
    if a_spec.b == s_spec.b:
        ineqs.append(Inequality("a-half-of-symmetric", eps_a, ">=", eps_s / 2))
        notes.append("equal-top-degrees")
    else:
        x, y = spectrum_xy(n)
        notes.append(f"x={x}")
        notes.append(f"y={y}")
        ineqs.extend(
            [
                Inequality("a-split-count-bound", eps_a, ">=", Fraction(x, 2)),
                Inequality(
                    "a-near-top-bound", eps_a, ">=", max(Fraction(y - 4 * x, 32), Fraction(0))
                ),
                Inequality("a-induction-bound", eps_a, ">=", induction_bound(n, 2 * x + y - 1)),
            ]
        )
    return VerificationReport(
        check="epsilon-bounds",
        n=n,
        inequalities=tuple(ineqs),
        witnesses=s_spec.maximizers,
        notes=tuple(notes),
    )
