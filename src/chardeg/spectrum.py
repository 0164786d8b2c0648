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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exact import decimal_str, induction_bound
from .hooks import hook_product
from .partitions import (
    Partition,
    conjugate,
    count_partitions,
    enumerate_partitions,
    format_partition,
    is_self_conjugate,
    iter_moves,
    lambda_dn,
    lambda_up,
    removable_nodes,
)
from .report import (
    FAIL,
    INCONCLUSIVE,
    INFORMATIONAL,
    PASS,
    Inequality,
    VerificationReport,
)

DEFAULT_MAX_N = 60
MEMBER_CAP = 40


@dataclass(slots=True)
class DegreeClass:
    """One distinct degree with the partitions that realize it.

    For the symmetric group, members are the partitions themselves.  For
    the alternating group, members are conjugacy representatives, the
    larger partition of each conjugate pair; ``size`` counts characters,
    and ``splits`` gives how many each member stands for.

    Not frozen, because a spectrum builds one per distinct degree and a
    frozen dataclass costs about three times as much to construct; treat
    the fields as read-only.
    """

    degree: int
    size: int
    members: tuple[Partition, ...]


def splits(group: str, c: DegreeClass) -> tuple[int, ...]:
    """The characters each member of ``c`` stands for: one, but two for a
    self-conjugate A_n representative, whose character splits."""
    if group == "S" or not c.members:
        return (1,) * len(c.members)
    return tuple(2 if is_self_conjugate(lam) else 1 for lam in c.members)


def complete(group: str, c: DegreeClass) -> bool:
    """True when ``c`` lists a member for each of its characters."""
    return sum(splits(group, c)) == c.size


@dataclass(frozen=True)
class DegreeSpectrum:
    n: int
    group: str  # "S" or "A"
    classes: tuple[DegreeClass, ...]  # strictly decreasing degree

    @property
    def members_complete(self) -> bool:
        return all(complete(self.group, c) for c in self.classes)

    @property
    def b(self) -> int:
        """Largest character degree."""
        return self.classes[0].degree

    @property
    def m1_size(self) -> int:
        return self.classes[0].size

    @property
    def maximizers(self) -> tuple[Partition, ...]:
        return self.classes[0].members

    def group_order(self) -> int:
        if self.group == "S":
            return factorial(self.n)
        return factorial(self.n) // 2 if self.n >= 2 else 1

    def sum_squares_below_top(self) -> int:
        return self.group_order() - self.m1_size * self.b * self.b


def check_invariants(spec: DegreeSpectrum) -> DegreeSpectrum:
    """Return ``spec`` after checking identities that need no hook formula,
    as every built or loaded spectrum must: Σ size·d² = |G|; for S_n also
    Σ size = p(n) and Σ size·d = t(n), the involutions, since every
    character is real with indicator 1; for A_n also 2·Σ size = p(n) +
    3·sc(n), as a self-conjugate partition gives two characters.  Raise
    ArithmeticError on the first that fails."""
    n = spec.n
    count = first = mass = 0
    for c in spec.classes:
        count += c.size
        sd = c.size * c.degree
        first += sd
        mass += sd * c.degree
    identities = [("degree mass", mass, spec.group_order())]
    if spec.group == "S":
        t = [1, 1]  # t(k) = t(k-1) + (k-1)·t(k-2)
        for k in range(2, n + 1):
            t.append(t[-1] + (k - 1) * t[-2])
        identities += [("character count", count, count_partitions(n)),
                       ("degree sum", first, t[n])]
    else:
        sc = [1] + [0] * n  # sc(m): partitions of m into distinct odd parts
        for part in range(1, n + 1, 2):
            for m in range(n, part - 1, -1):
                sc[m] += sc[m - part]
        identities.append(("twice the character count", 2 * count,
                           count_partitions(n) + 3 * sc[n]))
    for name, got, want in identities:
        if got != want:
            raise ArithmeticError(f"{name} mismatch for {spec.group}_{n}: {got} != {want}")
    return spec


class _Classes:
    """Characters per degree for one group, with the members of every degree
    or only of the two largest degrees added so far.

    ``classes`` maps a degree to [characters, members], where members is a
    list of partitions, or None for a degree whose members are not kept.  A
    degree that drops out of the top two loses its members at once.
    """

    __slots__ = ("classes", "all_members", "top")

    def __init__(self, all_members: bool):
        self.classes: dict[int, list] = {}
        self.all_members = all_members
        self.top: list[int] = []  # the degrees with members, when not all are kept

    def add(self, degree: int, chars: int, members) -> None:
        entry = self.classes.get(degree)
        if entry is not None:
            entry[0] += chars
            if entry[1] is not None:
                entry[1].extend(members)
            return
        kept = None
        top = self.top
        if self.all_members:
            kept = list(members)
        elif len(top) < 2 or degree > min(top):
            if len(top) == 2:
                dropped = min(top)
                top.remove(dropped)
                self.classes[dropped][1] = None
            top.append(degree)
            kept = list(members)
        self.classes[degree] = [chars, kept]


def _pair_shard(
    n: int, first_parts, groups: str, all_members: bool, table: dict | None = None
) -> dict[str, dict[int, list]]:
    """Degrees over the partitions of n whose largest part is in
    ``first_parts``, walked in the order given.

    Visits one representative per conjugate pair: λ is skipped when it has
    more parts than its first part, because its conjugate, which has a
    larger first part, stands for the pair; on a tie λ is kept when
    λ >= λ'.  Each representative costs one conjugate, one hook product
    and one exact division, since conjugates share the hook product.

    Returns group -> ``_Classes.classes`` for each group in ``groups``.  In
    the symmetric group a pair counts twice and both partitions are
    members, λ before λ'; in the alternating group a self-conjugate
    representative splits into two characters of half the degree.  With
    ``table`` given, both partitions of every pair are entered in it with
    their symmetric-group degree.
    """
    fact = factorial(n)
    sym = _Classes(all_members) if "S" in groups else None
    alt = _Classes(all_members) if "A" in groups else None
    partitions = (
        (first,) + rest
        for first in first_parts
        for rest in enumerate_partitions(n - first, max_part=first)
    )
    for lam in partitions:
        rows = len(lam)
        if rows > lam[0]:
            continue
        conj = conjugate(lam)
        if rows == lam[0] and lam < conj:
            continue
        d, rem = divmod(fact, hook_product(lam, conj))
        if rem:
            raise ArithmeticError(f"hook product does not divide {n}! for {lam}")
        if table is not None:
            table[lam] = d
            table[conj] = d
        if lam == conj:
            if sym is not None:
                sym.add(d, 1, (lam,))
            if alt is not None:
                half, odd = divmod(d, 2)
                if odd:
                    raise ArithmeticError(f"odd degree {d} for self-conjugate {lam}")
                alt.add(half, 2, (lam,))
        else:
            if sym is not None:
                sym.add(d, 2, (lam, conj))
            if alt is not None:
                alt.add(d, 1, (lam,))
    return {g: c.classes for g, c in (("S", sym), ("A", alt)) if c is not None}


def _spectrum(n: int, group: str, classes: dict[int, list]) -> DegreeSpectrum:
    """The spectrum of ``_Classes.classes``, members in descending order."""
    out = []
    for deg in sorted(classes, reverse=True):
        size, kept = classes[deg]
        if kept:
            kept.sort(reverse=True)
        out.append(DegreeClass(deg, size, tuple(kept or ())))
    return check_invariants(DegreeSpectrum(n, group, tuple(out)))


def pool_size(threads: int, shards: int, cpus: int | None) -> int:
    """Worker processes for ``shards`` tasks: never more than requested,
    than there are shards, or than ``cpus`` (os.cpu_count(), None if
    unknown)."""
    return max(1, min(threads, shards, cpus or 1))


def _build(
    n: int, groups: str, threads: int = 1, table: dict | None = None
) -> dict[str, DegreeSpectrum]:
    """The spectra of n for each group in ``groups``, from a process pool
    sharded by largest part above MEMBER_CAP with two or more workers, else
    from one sequential pass that also fills ``table`` when given.  Classes
    keep every member up to MEMBER_CAP, but only those of the top two
    classes when ``table`` is given: a pass that fills the table already
    records every partition's degree.  The pass allocates no reference
    cycles, so the cyclic garbage collector is paused while it runs."""
    all_members = table is None and n <= MEMBER_CAP
    workers = pool_size(threads, n, os.cpu_count())
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if workers > 1 and n > MEMBER_CAP:
            # each shard keeps its own top two degrees, so merging keeps the
            # global top two; shards are merged, and dropped, as they arrive
            merged = {g: _Classes(all_members) for g in groups}
            with ProcessPoolExecutor(max_workers=workers) as pool:
                shards = pool.map(_pair_shard, [n] * n, [(f,) for f in range(n, 0, -1)],
                                  [groups] * n, [all_members] * n)
                for shard in shards:
                    for g in groups:
                        for deg, (chars, members) in shard[g].items():
                            merged[g].add(deg, chars, members or ())
            classes = {g: c.classes for g, c in merged.items()}
        else:
            classes = _pair_shard(n, range(n, 0, -1), groups, all_members, table)
        return {g: _spectrum(n, g, classes[g]) for g in groups}
    finally:
        if gc_was_enabled:
            gc.enable()


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
    return _build(n, "S", threads)["S"]


def spectrum_an(n: int, *, threads: int = 1, max_n: int = DEFAULT_MAX_N) -> DegreeSpectrum:
    """Complete exact degree spectrum of the alternating group on n points."""
    _check_n(n, 2, max_n)
    return _build(n, "A", threads)["A"]


def has_built_members(spec: DegreeSpectrum) -> bool:
    """True when ``spec`` is a spectrum above MEMBER_CAP, the only ones the
    cache keeps, and stores the members that ``spectrum_sn`` and
    ``spectrum_an`` store for it: those of the top two classes, which the
    checks read, and no others.

    Every member must be a partition of n, listed strictly descending in
    its class, and must give back its class degree from its hook product,
    which keeps it out of the other class; in A_n it is also the larger
    partition of its conjugate pair.
    """
    n, group = spec.n, spec.group
    if n <= MEMBER_CAP:
        return False
    kept, rest = spec.classes[:2], spec.classes[2:]
    if not all(complete(group, c) for c in kept) or any(c.members for c in rest):
        return False
    if any(a <= b for c in kept for a, b in zip(c.members, c.members[1:])):
        return False
    if any(sum(lam) != n for c in kept for lam in c.members):
        return False
    fact = factorial(n)
    for c in kept:
        for lam, chars in zip(c.members, splits(group, c)):
            conj = conjugate(lam)
            if group == "A" and lam < conj:
                return False
            if chars * c.degree * hook_product(lam, conj) != fact:
                return False
    return True


# the current n's degree table and its spectra, replaced when another n is built
_store: tuple[int, dict[Partition, int], dict[str, DegreeSpectrum]] | None = None


def _current(n: int) -> tuple[int, dict[Partition, int], dict[str, DegreeSpectrum]]:
    """The store for n, built by one sequential pass over the conjugate-pair
    representatives unless it already holds n."""
    global _store
    if _store is None or _store[0] != n:
        _check_n(n, 1, DEFAULT_MAX_N)
        clear_spectrum_cache()  # drop the previous n before building this one
        table: dict[Partition, int] = {}
        _store = (n, table, _build(n, "SA" if n >= 2 else "S", table=table))
    return _store


def degree_table(n: int) -> dict[Partition, int]:
    """Partition -> exact symmetric-group degree, for every partition of n:
    the store's only per-partition record.

    Only the most recent n is held, together with its S_n and A_n spectra;
    asking for another n rebuilds.
    """
    return _current(n)[1]


def cached_spectrum(group: str, n: int) -> DegreeSpectrum:
    """Sequentially computed spectrum, from the same store as ``degree_table``;
    at every n only its top two classes keep their members."""
    _check_n(n, 2 if group == "A" else 1, DEFAULT_MAX_N)
    return _current(n)[2][group]


def clear_spectrum_cache() -> None:
    """Drop the store."""
    global _store
    _store = None


def epsilon(spec: DegreeSpectrum) -> Fraction:
    """Sum of squared degrees strictly below the top degree, over its square."""
    return Fraction(spec.sum_squares_below_top(), spec.b * spec.b)


def spectrum_xy(n: int) -> tuple[int, int]:
    """x = number of symmetric-group characters of degree above b(A_n);
    y = multiplicity of b(A_n) as a symmetric-group degree."""
    b_a = cached_spectrum("A", n).b
    x = 0
    y = 0
    for c in cached_spectrum("S", n).classes:
        if c.degree > b_a:
            x += c.size
        elif c.degree == b_a:
            y = c.size
            break
        else:
            break
    return x, y


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
        status=INFORMATIONAL if n < floor else PASS if ineq.holds() else FAIL,
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
    status = PASS if all(q.holds() for q in ineqs) else FAIL
    return VerificationReport(
        check="sandwich",
        n=n,
        status=status,
        inequalities=ineqs,
        notes=(f"equality={'true' if b_a == b_s else 'false'}",),
    )


@dataclass(frozen=True)
class BranchDecomposition:
    """Restriction-induction decomposition of one character.

    Restricting to the point stabilizer and inducing back yields the source
    character with multiplicity equal to its number of removable corners,
    plus every single-node-move partition once.
    """

    source: Partition
    self_multiplicity: int
    constituents: tuple[Partition, ...]

    def constituent_count(self) -> int:
        return 1 + len(self.constituents)


def branch_decompose(parts: Partition) -> BranchDecomposition:
    moves = tuple(moved for _i, _j, moved in iter_moves(parts))
    return BranchDecomposition(
        source=parts,
        self_multiplicity=len(removable_nodes(parts)),
        constituents=moves,
    )


def _scan_degrees(parts: Partition) -> dict[Partition, int]:
    """Exact degrees of every single-node move of ``parts``."""
    table = degree_table(sum(parts))
    return {moved: table[moved] for _i, _j, moved in iter_moves(parts)}


def _move_mass(members, below: int, target, label: str) -> list[Inequality]:
    """Per member, the squared degrees of its single-node moves below
    ``below`` against ``target``; ``label`` names the member at ``{}``."""
    return [
        Inequality(label.format(format_partition(lam)),
                   sum(d * d for d in _scan_degrees(lam).values() if d < below), ">", target)
        for lam in members
    ]


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
    b_s = s_spec.b
    notes = []
    witnesses = list(s_spec.maximizers)
    s_records = _move_mass(s_spec.maximizers, b_s, 2 * b_s * b_s, "induced-mass[{}]")
    analytic_s = induction_bound(n, 30) * b_s * b_s
    notes.append(f"symmetric-analytic-context={decimal_str(analytic_s)}")
    hyp_s = n >= 50 and s_spec.m1_size <= 31
    notes.append(f"symmetric-hypotheses={'active' if hyp_s else 'inactive'}")

    a_records = []
    hyp_a = False
    b_a = cached_spectrum("A", n).b
    reduced = (
        b_a < b_s
        and s_spec.m1_size == 1
        and len(s_spec.classes) > 1
        and s_spec.classes[1].degree == b_a
    )
    if reduced:
        m2 = s_spec.classes[1]
        a_records = _move_mass(m2.members, b_a, 2 * b_a * b_a, "induced-mass[{}]")
        witnesses.extend(m2.members)
        analytic_a = induction_bound(n, 20) * b_a * b_a
        notes.append(f"alternating-analytic-context={decimal_str(analytic_a)}")
        hyp_a = n >= 43 and m2.size <= 19
        notes.append(f"alternating-hypotheses={'active' if hyp_a else 'inactive'}")
    else:
        notes.append("alternating-branch=not-applicable")

    decisive = []
    ok = True
    for hyp, branch in ((hyp_s, s_records), (hyp_a, a_records)):
        if hyp:
            held = [q for q in branch if q.holds()]
            decisive.extend(held or branch)
            ok = ok and bool(held)
    if hyp_s or hyp_a:
        status = PASS if ok else FAIL
        records = tuple(decisive)
    else:
        status = INFORMATIONAL
        records = tuple(s_records + a_records)
    notes.extend(f"observed: {q} -> {q.holds()}" for q in s_records + a_records)
    return VerificationReport(
        check="induced-bound",
        n=n,
        status=status,
        inequalities=records,
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
    elif len(s_spec.classes) > 1 and s_spec.classes[1].degree > b_a:
        b_2 = s_spec.classes[1].degree
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

    held = [q for q in records if q.holds()]
    if held:
        status = PASS
        decisive = tuple(held)
    else:
        fallback_holds = (verify_theorem2 if group == "S" else verify_theorem1)(n).passed
        status = INCONCLUSIVE if fallback_holds else FAIL
        decisive = tuple(records)
        if status == INCONCLUSIVE:
            notes.append("neighborhood scan missed; full-spectrum statement holds at this n")
    notes.extend(f"observed: {q} -> {q.holds()}" for q in records)
    return VerificationReport(
        check=f"move-scan-{group.lower()}",
        n=n,
        status=status,
        inequalities=decisive,
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
    status = PASS if all(q.holds() for q in ineqs) else FAIL
    return VerificationReport(
        check="epsilon-bounds",
        n=n,
        status=status,
        inequalities=tuple(ineqs),
        witnesses=s_spec.maximizers,
        notes=tuple(notes),
    )
