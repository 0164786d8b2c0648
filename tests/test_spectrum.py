"""Spectra, the dominance theorems, branching, scans, and the excess bounds."""

import gc
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial

import pytest

from chardeg import (
    branch_decompose,
    cached_spectrum,
    conjugate,
    count_standard_tableaux,
    degree_sn,
    enumerate_partitions,
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
from chardeg import spectrum
from chardeg.exact import induction_bound
from chardeg.report import FAIL, INCONCLUSIVE, INFORMATIONAL, PASS, Inequality, VerificationReport
from chardeg.spectrum import (
    MEMBER_CAP,
    DegreeClass,
    DegreeSpectrum,
    check_invariants,
    complete,
    degree_table,
    pool_size,
    splits,
)


def serve_spectra(monkeypatch, n, s_classes, b_a):
    """Make ``cached_spectrum`` serve an S_n spectrum of the given (degree,
    size, members) classes and an A_n spectrum whose top degree is b_a."""
    specs = {
        "S": DegreeSpectrum(n, "S", tuple(DegreeClass(*c) for c in s_classes)),
        "A": DegreeSpectrum(n, "A", (DegreeClass(b_a, 1, ()),)),
    }
    monkeypatch.setattr(spectrum, "cached_spectrum", lambda group, m: specs[group])


class TestSpectrumSn:
    def test_s5(self):
        spec = spectrum_sn(5)
        assert [(c.degree, c.size) for c in spec.classes] == [(6, 1), (5, 2), (4, 2), (1, 2)]
        assert spec.b == 6 and spec.m1_size == 1
        assert spec.maximizers == ((3, 1, 1),)

    def test_s7(self):
        spec = spectrum_sn(7)
        assert spec.b == 35 and spec.m1_size == 2
        assert set(spec.maximizers) == {(4, 2, 1), (3, 2, 1, 1)}

    def test_s1(self):
        spec = spectrum_sn(1)
        assert [(c.degree, c.size) for c in spec.classes] == [(1, 1)]

    def test_mass_small_range(self):
        for n in range(1, 26):
            spec = spectrum_sn(n)
            assert sum(c.size * c.degree ** 2 for c in spec.classes) == factorial(n)
            assert spec.classes[-1].degree == 1
            degrees = [c.degree for c in spec.classes]
            assert degrees == sorted(degrees, reverse=True)
            assert len(set(degrees)) == len(degrees)

    def test_members_complete_below_cap(self):
        spec = spectrum_sn(12)
        assert spec.members_complete
        assert all(complete("S", c) for c in spec.classes)
        assert sum(c.size for c in spec.classes) == sum(1 for _ in enumerate_partitions(12))

    def test_members_truncated_above_cap(self, monkeypatch):
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        spec = spectrum_sn(12)
        assert not spec.members_complete
        # the top two classes keep their members, the checks read both
        assert all(complete("S", c) and c.members for c in spec.classes[:2])
        assert all(c.members == () for c in spec.classes[2:])

    def test_top_two_members_above_cap(self, monkeypatch):
        # each shard keeps its own top two degrees; the merge keeps the
        # global top two, at every worker count
        for build in (spectrum_sn, spectrum_an):
            full = build(20)
            for threads in (1, 2):
                with monkeypatch.context() as m:
                    m.setattr(spectrum, "MEMBER_CAP", 5)
                    capped = build(20, threads=threads)
                assert not capped.members_complete
                assert capped.classes[:2] == full.classes[:2]
                assert [(c.degree, c.size) for c in capped.classes] == [
                    (c.degree, c.size) for c in full.classes
                ]

    def test_guards(self):
        with pytest.raises(ValueError):
            spectrum_sn(0)
        with pytest.raises(ValueError):
            spectrum_sn(61)
        with pytest.raises(ValueError):
            spectrum_sn(21, max_n=20)

    def test_parallel_equals_sequential(self, monkeypatch):
        # the pool starts only above the member cap
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        for n in (19, 24):
            assert spectrum_sn(n, threads=2) == spectrum_sn(n)

    def test_no_pool_at_or_below_the_cap(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(spectrum, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(spectrum.os, "cpu_count", lambda: 2)
        assert spectrum_sn(18, threads=2) == spectrum_sn(18)
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 12)
        spectrum_an(12, threads=2)
        with pytest.raises(AssertionError, match="pool started"):
            spectrum_an(13, threads=2)


# the store's pass and the 1-worker spectra; each pauses the collector
SEQUENTIAL_BUILDS = (
    degree_table,
    partial(spectrum_sn, threads=1),
    partial(spectrum_an, threads=1),
)


class TestDegreeTable:
    def test_degrees_against_both_oracles(self):
        for n in range(1, 21):
            table = degree_table(n)
            assert sorted(table, reverse=True) == list(enumerate_partitions(n))
            for lam, d in table.items():
                assert d == degree_sn(lam) == count_standard_tableaux(lam), lam

    def test_feeds_both_cached_spectra(self, monkeypatch):
        # the store's spectra keep only their top two classes' members, as a
        # build above the member cap does; the table holds every partition
        for n in (2, 9, 16):
            with monkeypatch.context() as m:
                m.setattr(spectrum, "MEMBER_CAP", n - 1)
                capped = {"S": spectrum_sn(n), "A": spectrum_an(n)}
            table = degree_table(n)
            for group in ("S", "A"):
                assert cached_spectrum(group, n) == capped[group]
            assert Counter(table.values()) == {c.degree: c.size for c in capped["S"].classes}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_gc_state_as_found(self, enabled):
        set_gc = {True: gc.enable, False: gc.disable}
        was = gc.isenabled()
        try:
            set_gc[enabled]()
            spectrum.clear_spectrum_cache()
            for build in SEQUENTIAL_BUILDS:
                build(12)
                assert gc.isenabled() is enabled, build
        finally:
            set_gc[was]()

    def test_restores_gc_when_the_pass_raises(self, monkeypatch):
        during = []

        def broken(parts, conj=None):
            during.append(gc.isenabled())
            raise ArithmeticError("hook product failed")

        monkeypatch.setattr(spectrum, "hook_product", broken)
        spectrum.clear_spectrum_cache()
        for build in SEQUENTIAL_BUILDS:
            assert gc.isenabled()
            with pytest.raises(ArithmeticError):
                build(12)
            assert gc.isenabled(), build
        assert during == [False] * len(SEQUENTIAL_BUILDS)  # each pass ran paused
        assert spectrum._store is None

    def test_guards(self):
        with pytest.raises(ValueError):
            degree_table(0)
        with pytest.raises(ValueError):
            degree_table(61)
        with pytest.raises(ValueError):
            cached_spectrum("A", 1)


def assert_members_descending(spec):
    for c in spec.classes:
        assert all(a > b for a, b in zip(c.members, c.members[1:])), (spec.group, spec.n, c)


class TestMembersDescending:
    """Every class lists its members strictly descending, whatever order
    the pass met them in."""

    @pytest.mark.parametrize("cap", [MEMBER_CAP, 5])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_built_spectra(self, monkeypatch, threads, cap):
        monkeypatch.setattr(spectrum, "MEMBER_CAP", cap)
        for n in range(1, 23):
            assert_members_descending(spectrum_sn(n, threads=threads))
            if n >= 2:
                assert_members_descending(spectrum_an(n, threads=threads))

    def test_store_spectra(self):
        for n in range(2, 23):
            assert_members_descending(cached_spectrum("S", n))
            assert_members_descending(cached_spectrum("A", n))

    def test_any_arrival_order(self):
        # members arriving in reverse, a pair as (λ', λ), are still sorted
        for n in range(2, 23):
            classes = spectrum._pair_shard(n, range(n, 0, -1), "SA", True)
            for group, build in (("S", spectrum_sn), ("A", spectrum_an)):
                for _size, kept in classes[group].values():
                    kept.reverse()
                assert spectrum._spectrum(n, group, classes[group]) == build(n)


class TestPoolSize:
    def test_limits(self):
        assert pool_size(1, 50, 2) == 1
        assert pool_size(2, 50, 2) == 2
        assert pool_size(8, 50, 2) == 2
        assert pool_size(8, 3, 64) == 3
        assert pool_size(4, 50, None) == 1

    def test_extreme_values_start_nothing(self):
        # pure arithmetic: a huge request is cut to the shard and CPU counts
        assert pool_size(10**6, 50, 2) == 2
        assert pool_size(10**6, 10**6, 10**6) == 10**6
        assert pool_size(10**6, 60, 10**6) == 60


class TestSpectrumAn:
    def test_a5(self):
        spec = spectrum_an(5)
        assert [(c.degree, c.size) for c in spec.classes] == [(5, 1), (4, 1), (3, 2), (1, 1)]
        # the split class stores the self-conjugate representative
        three = spec.classes[2]
        assert three.members == ((3, 1, 1),) and splits("A", three) == (2,)

    def test_a6(self):
        spec = spectrum_an(6)
        assert spec.b == 10
        assert epsilon(spec) == Fraction(13, 5)

    def test_a2(self):
        spec = spectrum_an(2)
        assert [(c.degree, c.size) for c in spec.classes] == [(1, 1)]

    def test_mass_small_range(self):
        for n in range(2, 26):
            spec = spectrum_an(n)
            assert sum(c.size * c.degree ** 2 for c in spec.classes) == factorial(n) // 2

    def test_guards(self):
        with pytest.raises(ValueError):
            spectrum_an(1)

    def test_parallel_equals_sequential(self, monkeypatch):
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        assert spectrum_an(21, threads=2) == spectrum_an(21)


@pytest.fixture(scope="module")
def moments():
    """Per n = 2..40: p(n) and sc(n), counted in the degree table, and the
    character counts and S_n degree sum of the store's spectra."""
    out = {}
    for n in range(2, 41):
        table = degree_table(n)
        s_classes = cached_spectrum("S", n).classes
        out[n] = {
            "p": len(table),
            "sc": sum(1 for lam in table if lam == conjugate(lam)),
            "s_count": sum(c.size for c in s_classes),
            "s_degree_sum": sum(c.size * c.degree for c in s_classes),
            "a_count": sum(c.size for c in cached_spectrum("A", n).classes),
        }
    return out


def sizes_moved(spec, moves):
    classes = tuple(
        DegreeClass(c.degree, c.size + moves.get(c.degree, 0), c.members) for c in spec.classes
    )
    return DegreeSpectrum(spec.n, spec.group, classes)


class TestInvariants:
    """The identities ``check_invariants`` holds every spectrum to."""

    def test_symmetric_count_is_p(self, moments):
        for n, m in moments.items():
            assert m["s_count"] == m["p"], n

    def test_symmetric_degree_sum_counts_involutions(self, moments):
        for n, m in moments.items():
            # an involution is a product of k disjoint transpositions
            involutions = sum(
                factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k))
                for k in range(n // 2 + 1)
            )
            assert m["s_degree_sum"] == involutions, n

    def test_alternating_count(self, moments):
        for n, m in moments.items():
            assert 2 * m["a_count"] == m["p"] + 3 * m["sc"], n

    @pytest.mark.parametrize(
        ("build", "n", "moves", "identity"),
        [
            (spectrum_sn, 12, {4455: -1, 3564: 1, 2673: 1}, "character count"),
            (spectrum_sn, 12, {3564: 1, 297: 1, 2673: -1, 2376: -1}, "degree sum"),
            (spectrum_an, 13, {4290: -1, 3432: 1, 2574: 1}, "twice the character count"),
        ],
    )
    def test_fires_where_the_mass_does_not(self, build, n, moves, identity):
        spec = build(n)
        assert check_invariants(spec) is spec
        moved = sizes_moved(spec, moves)
        assert sum(c.size * c.degree ** 2 for c in moved.classes) == moved.group_order()
        with pytest.raises(ArithmeticError, match=f"^{identity} mismatch"):
            check_invariants(moved)

    def test_mass(self):
        spec = sizes_moved(spectrum_sn(6), {16: 1})
        with pytest.raises(ArithmeticError, match="^degree mass mismatch for S_6: 976 != 720"):
            check_invariants(spec)


class TestReport:
    def test_verdict_needs_an_inequality(self):
        for status in (PASS, FAIL):
            with pytest.raises(ValueError):
                VerificationReport(check="theorem2", n=8, status=status)
        for status in (INFORMATIONAL, INCONCLUSIVE):
            assert VerificationReport(check="theorem2", n=8, status=status).consistent()

    def test_consistent_re_derives_the_verdict(self):
        held, missed = Inequality("held", 2, ">", 1), Inequality("missed", 1, ">", 2)
        for status, ineqs, expected in [
            (FAIL, (held, missed), True),
            (FAIL, (held,), False),
            (PASS, (held,), True),
            (PASS, (held, missed), False),
        ]:
            rep = VerificationReport(check="theorem2", n=8, status=status, inequalities=ineqs)
            assert rep.consistent() is expected, (status, ineqs)


class TestEpsilon:
    def test_examples(self):
        assert epsilon(spectrum_sn(5)) == Fraction(7, 3)
        assert epsilon(spectrum_an(5)) == Fraction(7, 5)
        assert epsilon(spectrum_sn(4)) == Fraction(2, 3)

    def test_equivalent_form(self):
        for n in range(2, 18):
            spec = cached_spectrum("S", n)
            direct = sum(
                c.size * Fraction(c.degree, spec.b) ** 2 for c in spec.classes[1:]
            )
            assert epsilon(spec) == direct


class TestTheorems:
    def test_theorem2_n7(self):
        rep = verify_theorem2(7)
        assert rep.passed
        q = rep.inequalities[0]
        assert (q.left, q.right) == (2590, 2450)

    def test_theorem2_n8(self):
        rep = verify_theorem2(8)
        assert rep.passed
        assert (rep.inequalities[0].left, rep.inequalities[0].right) == (32220, 16200)

    def test_theorem2_domain(self):
        with pytest.raises(ValueError):
            verify_theorem2(6)
        rep = verify_theorem2(6, override_domain=True)
        assert rep.status == INFORMATIONAL

    def test_theorem1_n5(self):
        rep = verify_theorem1(5)
        assert rep.passed
        assert (rep.inequalities[0].left, rep.inequalities[0].right) == (35, 25)

    def test_theorem1_n6(self):
        rep = verify_theorem1(6)
        assert rep.passed
        assert (rep.inequalities[0].left, rep.inequalities[0].right) == (260, 100)

    def test_theorem1_domain(self):
        with pytest.raises(ValueError):
            verify_theorem1(4)

    def test_sweeps(self):
        assert all(verify_theorem1(n).passed for n in range(5, 31))
        assert all(verify_theorem2(n).passed for n in range(7, 31))

    def test_reports_consistent(self):
        for n in (5, 9, 14):
            assert verify_theorem1(n).consistent()
            assert verify_theorem2(max(n, 7)).consistent()


class TestSandwich:
    def test_examples(self):
        rep = sandwich_check(5)
        assert rep.passed and "equality=false" in rep.notes
        lefts = {q.label: (q.left, q.right) for q in rep.inequalities}
        assert lefts["twice-alternating-exceeds-symmetric"] == (10, 6)
        rep = sandwich_check(6)
        assert rep.passed and "equality=false" in rep.notes
        rep = sandwich_check(7)
        assert rep.passed and "equality=true" in rep.notes

    def test_sweep(self):
        for n in range(5, 31):
            assert sandwich_check(n).passed

    def test_stated_from_five(self):
        # at n = 3, 2·b(A_3) = b(S_3) = 2, outside the stated bound
        for n in range(1, 5):
            with pytest.raises(ValueError, match="n >= 5"):
                sandwich_check(n)


class TestBranchDecompose:
    def test_example_31(self):
        d = branch_decompose((3, 1))
        assert d.self_multiplicity == 2
        assert set(d.constituents) == {(4,), (2, 2), (2, 1, 1)}
        assert 4 * degree_sn((3, 1)) == 2 * 3 + 1 + 2 + 3

    def test_example_single_row(self):
        d = branch_decompose((6,))
        assert d.self_multiplicity == 1
        assert d.constituents == ((5, 1),)

    def test_example_22(self):
        d = branch_decompose((2, 2))
        assert d.self_multiplicity == 1
        assert set(d.constituents) == {(3, 1), (2, 1, 1)}

    def test_degree_identity_and_count(self):
        for n in range(2, 21):
            for lam in enumerate_partitions(n):
                d = branch_decompose(lam)
                lhs = n * degree_sn(lam)
                rhs = d.self_multiplicity * degree_sn(lam) + sum(
                    degree_sn(c) for c in d.constituents
                )
                assert lhs == rhs
                assert d.constituent_count() < 2 * n
                assert len(set(d.constituents)) == len(d.constituents)


class TestInducedBound:
    def test_n7_informational_with_observed_miss(self):
        rep = induced_bound_check(7)
        assert rep.status == INFORMATIONAL
        observed = [note for note in rep.notes if note.startswith("observed")]
        assert any("1899 > 2450 -> False" in note for note in observed)

    def test_n10_informational_with_observed_hold(self):
        rep = induced_bound_check(10)
        assert rep.status == INFORMATIONAL
        assert any("-> True" in note for note in rep.notes)

    def test_consistent(self):
        for n in (5, 8, 12):
            assert induced_bound_check(n).consistent()


class TestMoveScan:
    def test_s_n7_inconclusive(self):
        rep = move_scan_verify(7, "S")
        assert rep.status == INCONCLUSIVE
        assert any("1899 > 2450 -> False" in note for note in rep.notes)

    def test_s_n8_n9_pass(self):
        assert move_scan_verify(8, "S").passed
        assert move_scan_verify(9, "S").passed

    def test_a_n5_case1(self):
        rep = move_scan_verify(5, "A")
        assert rep.passed
        q = rep.inequalities[0]
        assert q.label == "neighbor-squares-exceed-half"
        assert q.left == 32 and q.right == Fraction(18)

    def test_a_case2_and_intermediate(self):
        rep = move_scan_verify(17, "A")
        assert rep.passed
        assert any(note.startswith("case=2") for note in rep.notes)
        rep = move_scan_verify(21, "A")
        assert rep.passed
        assert "intermediate-self-conjugate-degree" in rep.notes

    def test_domains(self):
        with pytest.raises(ValueError):
            move_scan_verify(6, "S")
        with pytest.raises(ValueError):
            move_scan_verify(4, "A")
        with pytest.raises(ValueError):
            move_scan_verify(8, "X")

    @pytest.mark.parametrize("group", ["S", "A"])
    def test_theorem_report_only_when_no_record_holds(self, monkeypatch, group):
        calls = []

        def counted(theorem):
            def run_theorem(n, **kwargs):
                calls.append((theorem.__name__, n))
                return theorem(n, **kwargs)

            return run_theorem

        for name in ("verify_theorem1", "verify_theorem2"):
            monkeypatch.setattr(spectrum, name, counted(getattr(spectrum, name)))
        assert move_scan_verify(10, group).status == PASS
        assert calls == []
        assert move_scan_verify(7, group).status == INCONCLUSIVE
        assert calls == [("verify_theorem2" if group == "S" else "verify_theorem1", 7)]

    def test_multiple_self_conjugate_maximizers(self, monkeypatch):
        # no n <= 55 has two S_n maximizers with b(A_n) < b(S_n), so a
        # made-up spectrum takes the branch; its record holds without the
        # full-spectrum theorem
        maximizers = ((4, 2, 1, 1), (3, 3, 2))
        serve_spectra(monkeypatch, 8, [(90, 2, maximizers), (40, 5, ())], b_a=45)

        def no_theorem(n, **kwargs):
            raise AssertionError("the theorem fallback ran")

        monkeypatch.setattr(spectrum, "verify_theorem1", no_theorem)
        monkeypatch.setattr(spectrum, "verify_theorem2", no_theorem)
        rep = move_scan_verify(8, "A")
        assert rep.status == PASS and rep.consistent()
        assert "multiple-self-conjugate-maximizers" in rep.notes
        assert rep.inequalities == (Inequality("four-split-characters", 8100, ">", 2025),)
        assert rep.witnesses == maximizers

    def test_sweep_statuses(self):
        for n in range(7, 26):
            assert move_scan_verify(n, "S").status in (PASS, INCONCLUSIVE)
        for n in range(5, 26):
            assert move_scan_verify(n, "A").status in (PASS, INCONCLUSIVE)


class TestEpsilonBounds:
    def test_n5(self):
        rep = epsilon_lower_bounds(5)
        assert rep.passed
        by_label = {q.label: q for q in rep.inequalities}
        assert by_label["s-multiplicity-bound"].left == Fraction(7, 3)
        assert by_label["s-multiplicity-bound"].right == Fraction(1, 16)
        # second bound is (5 - sqrt(10))^2 / 10 weakened through a rational
        # upper enclosure of sqrt(10), hence slightly below the true 0.3377...
        second = by_label["s-induction-bound"].right
        assert Fraction(33, 100) < second < Fraction(34, 100)
        assert "x=1" in rep.notes and "y=2" in rep.notes

    def test_n6_alternating_branch(self):
        rep = epsilon_lower_bounds(6)
        assert rep.passed
        by_label = {q.label: q for q in rep.inequalities}
        assert by_label["a-split-count-bound"].left == Fraction(13, 5)
        assert by_label["a-split-count-bound"].right == Fraction(1, 2)
        assert by_label["a-near-top-bound"].right == 0

    def test_n7_equal_top_half_bound_is_tight(self):
        rep = epsilon_lower_bounds(7)
        assert rep.passed
        by_label = {q.label: q for q in rep.inequalities}
        q = by_label["a-half-of-symmetric"]
        assert q.left == q.right == Fraction(37, 35)

    def test_sweep(self):
        for n in range(5, 31):
            assert epsilon_lower_bounds(n).passed

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_lower_bounds(4)

    def test_induction_bound(self):
        # sqrt(16) and sqrt(36) are exact
        assert induction_bound(8, 1) == Fraction(9, 16)
        assert induction_bound(18, 2) == Fraction(25, 9)
        assert induction_bound(8, 4) == 0
        assert induction_bound(8, 30) == 0  # a negative base is clamped
        # (5 - sqrt(10))^2 / 10 = 0.33772233983..., approached from below
        assert Fraction(3377223398, 10**10) < induction_bound(5, 0) < Fraction(3377223399, 10**10)


class TestSpectrumXY:
    def test_values(self):
        assert spectrum_xy(5) == (1, 2)
        assert spectrum_xy(6) == (1, 2)
        assert spectrum_xy(7) == (0, 2)

    def test_top_alternating_degree_not_a_symmetric_degree(self, monkeypatch):
        # every n = 5..55 has y = 2; a made-up spectrum has b(A_n) between
        # two S_n degrees, so no S_n class has it
        serve_spectra(monkeypatch, 8, [(100, 1, ()), (60, 3, ()), (40, 4, ())], b_a=50)
        assert spectrum_xy(8) == (4, 0)
