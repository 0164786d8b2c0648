"""Spectra, the dominance theorems, branching, scans, and the excess bounds."""

import gc
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import factorial, prod

import pytest

from chardeg import (
    cached_spectrum,
    conjugate,
    count_standard_tableaux,
    degree_sn,
    enumerate_partitions,
    epsilon,
    epsilon_lower_bounds,
    format_partition,
    hook_product,
    induced_bound_check,
    iter_moves,
    move_scan_verify,
    neighbors,
    removable_nodes,
    sandwich_check,
    spectrum_an,
    spectrum_sn,
    spectrum_xy,
    up_dn_ratio,
    verify_theorem1,
    verify_theorem2,
)
from chardeg import cli, spectrum
from chardeg.exact import induction_bound
from chardeg.report import FAIL, INCONCLUSIVE, INFORMATIONAL, PASS, Inequality, VerificationReport
from chardeg.spectrum import (
    MEMBER_CAP,
    DegreeSpectrum,
    MoveFacts,
    check_invariants,
    complete,
    group_order_of,
    move_facts,
    pool_size,
    splits,
)


def serve_spectra(monkeypatch, n, s_classes, b_a):
    """Make ``cached_spectrum`` serve an S_n spectrum of the given (degree,
    size, members) classes and an A_n spectrum whose top degree is b_a."""
    specs = {
        "S": DegreeSpectrum(n, "S", *zip(*s_classes)),
        "A": DegreeSpectrum(n, "A", (b_a,), (1,), ((),)),
    }
    monkeypatch.setattr(spectrum, "cached_spectrum", lambda group, m: specs[group])


def record_reports(monkeypatch, name):
    """The reports that the ``cli.CHECKS`` row ``name`` hands to verify,
    filled in as verify runs it."""
    reports = []
    lo, lo_override, runner, reads_table = cli.CHECKS[name]

    def recorded(n, override_domain):
        out = runner(n, override_domain)
        reports.extend(out)
        return out

    monkeypatch.setitem(cli.CHECKS, name, (lo, lo_override, recorded, reads_table))
    return reports


class TestVerifyFailsFromData:
    """Made-up data drives a check to FAIL through the command line: exit
    code 1, a FAIL line, and every report consistent with at least one
    recorded inequality.  Induced-bound's two branches are also driven to
    PASS together, since each must hold a record."""

    @pytest.fixture(autouse=True)
    def empty_store(self):
        # the made-up data must not be read from, or left in, the store
        spectrum.clear_spectrum_cache()
        yield
        spectrum.clear_spectrum_cache()

    def assert_fails(self, capsys, monkeypatch, name, n):
        reports = record_reports(monkeypatch, name)
        code = cli.main(["verify", "--n", str(n), "--checks", name])
        out = capsys.readouterr().out
        assert code == 1
        assert any(line.startswith("FAIL") for line in out.splitlines())
        assert any(r.status == FAIL for r in reports)
        assert all(r.consistent() and r.inequalities for r in reports)
        return reports

    @pytest.mark.parametrize("name", ["theorem1", "theorem2", "epsilon-bounds"])
    def test_one_top_degree_over_a_light_tail(self, capsys, monkeypatch, name):
        # top degree 180 x1 in S_8 and A_8, 78 characters of degree 10 below
        # it in S_8: far less than 180^2 lies below the top
        serve_spectra(monkeypatch, 8, [(180, 1, ()), (10, 78, ())], b_a=180)
        self.assert_fails(capsys, monkeypatch, name, 8)

    def test_sandwich(self, capsys, monkeypatch):
        # b(A_8) = b(S_8)/2, so twice it does not exceed b(S_8)
        serve_spectra(monkeypatch, 8, [(100, 1, ())], b_a=50)
        self.assert_fails(capsys, monkeypatch, "sandwich", 8)

    def test_ratio_lemma(self, capsys, monkeypatch):
        # (11,1) is the node with f = 11 and hooks [12] over μ = (1); a
        # made-up first-row hook 1 there makes ∏(h²−1), and so the ratio of
        # (11,1) and (2,1^10), 0
        real = spectrum._ratio_terms

        def zero_for_one(f, hooks, column, fact):
            top, bottom = real(f, hooks, column, fact)
            return (0, bottom) if (f, hooks) == (11, [12]) else (top, bottom)

        monkeypatch.setattr(spectrum, "_ratio_terms", zero_for_one)
        self.assert_fails(capsys, monkeypatch, "ratio-lemma", 12)

    def test_count_lemmas(self, capsys, monkeypatch):
        # the maximizer of a made-up S_8 has fewer than two move neighbours;
        # the facts cover all p(8) = 22 partitions
        serve_spectra(monkeypatch, 8, [(180, 1, ((8,),)), (10, 21, ())], b_a=180)
        facts = spectrum.MoveFacts(20, [], {180: [(8,)], 10: [(1,) * 8]})
        monkeypatch.setattr(spectrum, "move_facts", lambda n: facts)
        self.assert_fails(capsys, monkeypatch, "count-lemmas", 8)

    def test_move_scan(self, capsys, monkeypatch):
        # every move of the maximizer has degree 1, and the tail is light, so
        # both scans miss and both fallback theorems fail
        serve_spectra(monkeypatch, 8, [(180, 1, ((4, 3, 1),)), (10, 78, ())], b_a=180)
        monkeypatch.setattr(spectrum, "degree_sn", lambda parts: 1)
        self.assert_fails(capsys, monkeypatch, "move-scan", 8)

    def test_induced_bound(self, capsys, monkeypatch):
        # n = 50 with one maximizer activates the symmetric hypotheses, and
        # its moves of degree 1 carry far less than twice the squared top
        top = (10, 9, 8, 7, 6, 5, 3, 2)
        serve_spectra(monkeypatch, 50, [(10**30, 1, (top,)), (10**29, 5, ())], b_a=10**30)
        monkeypatch.setattr(spectrum, "degree_sn", lambda parts: 1)
        self.assert_fails(capsys, monkeypatch, "induced-bound", 50)

    # n = 50 with one maximizer and a second S_n class of degree b(A_n) < b(S_n)
    # and size 2 <= 19, so both induced-bound branches are active
    BOTH_BRANCHES = [(10**30, 1, ((10, 9, 8, 7, 6, 5, 3, 2),)),
                     (10**30 - 10, 2, ((11, 9, 8, 7, 6, 5, 3, 1), (10, 9, 8, 7, 6, 5, 4, 1)))]

    def test_induced_bound_alternating_branch_misses(self, capsys, monkeypatch):
        # every move has degree b(A_n): below b(S_n), so the symmetric mass
        # holds, but not below b(A_n), so each alternating record misses
        serve_spectra(monkeypatch, 50, self.BOTH_BRANCHES, b_a=10**30 - 10)
        monkeypatch.setattr(spectrum, "degree_sn", lambda parts: 10**30 - 10)
        rep, = self.assert_fails(capsys, monkeypatch, "induced-bound", 50)
        assert "symmetric-hypotheses=active" in rep.notes
        assert "alternating-hypotheses=active" in rep.notes
        assert [q.holds() for q in rep.inequalities] == [True, False, False]

    def test_induced_bound_both_branches_hold(self, capsys, monkeypatch):
        # every move has degree b(A_n) - 1, below both top degrees, and each
        # member has over 50 moves, so every record of both branches holds
        serve_spectra(monkeypatch, 50, self.BOTH_BRANCHES, b_a=10**30 - 10)
        monkeypatch.setattr(spectrum, "degree_sn", lambda parts: 10**30 - 11)
        reports = record_reports(monkeypatch, "induced-bound")
        code = cli.main(["verify", "--n", "50", "--checks", "induced-bound"])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS")
        rep, = reports
        assert rep.status == PASS and rep.consistent()
        assert "alternating-hypotheses=active" in rep.notes
        assert [q.label for q in rep.inequalities] == [
            "induced-mass[10,9,8,7,6,5,3,2]", "induced-mass[11,9,8,7,6,5,3,1]",
            "induced-mass[10,9,8,7,6,5,4,1]"]


class TestSpectrumSn:
    def test_s5(self):
        spec = spectrum_sn(5)
        assert list(zip(spec.degrees, spec.sizes)) == [(6, 1), (5, 2), (4, 2), (1, 2)]
        assert spec.b == 6 and spec.m1_size == 1
        assert spec.maximizers == ((3, 1, 1),)

    def test_s7(self):
        spec = spectrum_sn(7)
        assert spec.b == 35 and spec.m1_size == 2
        assert set(spec.maximizers) == {(4, 2, 1), (3, 2, 1, 1)}

    def test_s1(self):
        spec = spectrum_sn(1)
        assert (spec.degrees, spec.sizes, spec.members) == ((1,), (1,), (((1,),),))

    def test_mass_small_range(self):
        for n in range(1, 26):
            spec = spectrum_sn(n)
            assert sum(s * d ** 2 for d, s in zip(spec.degrees, spec.sizes)) == factorial(n)
            assert spec.degrees[-1] == 1
            assert list(spec.degrees) == sorted(set(spec.degrees), reverse=True)

    def test_members_complete_below_cap(self):
        spec = spectrum_sn(12)
        assert spec.members_complete
        assert all(map(complete, repeat("S"), spec.sizes, spec.members))
        assert sum(spec.sizes) == sum(1 for _ in enumerate_partitions(12))

    def test_members_truncated_above_cap(self, monkeypatch):
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        spec = spectrum_sn(12)
        assert not spec.members_complete
        # the top two classes keep their members, the checks read both
        assert len(spec.members) == 2 and all(spec.members)
        assert all(map(complete, repeat("S"), spec.sizes, spec.members))

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
                assert capped.members == full.members[:2]
                assert (capped.degrees, capped.sizes) == (full.degrees, full.sizes)

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


# the store's walk and the 1-worker spectra; each pauses the collector
SEQUENTIAL_BUILDS = (
    move_facts,
    partial(spectrum_sn, threads=1),
    partial(spectrum_an, threads=1),
)


class TestSequentialBuilds:
    """The store's walk and the 1-worker spectra: the degree of every
    partition of n, the spectra they feed, the collector state they leave
    and their guards."""

    def test_degrees_against_both_oracles(self):
        # at or below the member cap every class keeps all its members
        for n in range(1, 21):
            spec = spectrum_sn(n)
            table = {lam: d for d, lams in zip(spec.degrees, spec.members) for lam in lams}
            assert sorted(table, reverse=True) == list(enumerate_partitions(n))
            for lam, d in table.items():
                assert d == degree_sn(lam) == count_standard_tableaux(lam), lam

    def test_feeds_both_cached_spectra(self, monkeypatch):
        # the store's spectra keep only their top two classes' members, as a
        # build above the member cap does
        for n in (2, 9, 16):
            with monkeypatch.context() as m:
                m.setattr(spectrum, "MEMBER_CAP", n - 1)
                capped = {"S": spectrum_sn(n), "A": spectrum_an(n)}
            for group in ("S", "A"):
                assert cached_spectrum(group, n) == capped[group]
            degrees = Counter(degree_sn(lam) for lam in enumerate_partitions(n))
            assert degrees == dict(zip(capped["S"].degrees, capped["S"].sizes))

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

        def broken(*args, **kwargs):
            during.append(gc.isenabled())
            raise ArithmeticError("the walk failed")

        monkeypatch.setattr(spectrum, "_pair_shard", broken)
        spectrum.clear_spectrum_cache()
        for build in SEQUENTIAL_BUILDS:
            assert gc.isenabled()
            with pytest.raises(ArithmeticError):
                build(12)
            assert gc.isenabled(), build
        assert during == [False] * len(SEQUENTIAL_BUILDS)  # each walk ran paused
        assert spectrum._store is None

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_paused_restores_the_state_it_found(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with spectrum.gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
            with pytest.raises(ArithmeticError), spectrum.gc_paused():
                raise ArithmeticError("the pass failed")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_restores_gc_when_a_pool_shard_raises(self, monkeypatch):
        # the shards are merged as they arrive, with the collector paused
        during = []

        def broken(*args):
            during.append(gc.isenabled())
            raise ArithmeticError("a shard failed")

        monkeypatch.setattr(spectrum, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 0)
        monkeypatch.setattr(spectrum.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(spectrum, "_pair_shard", broken)
        assert gc.isenabled()
        with pytest.raises(ArithmeticError, match="a shard failed"):
            spectrum_sn(12, threads=2)
        assert gc.isenabled() and during == [False]

    def test_guards(self):
        with pytest.raises(ValueError):
            move_facts(0)
        with pytest.raises(ValueError):
            move_facts(61)
        with pytest.raises(ValueError):
            cached_spectrum("A", 1)


class InlinePool:
    """Stands in for the process pool: maps the shards in this process, so
    the pool branch of ``_build`` runs without starting a worker."""

    started = 0

    def __init__(self, max_workers):
        InlinePool.started += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def representatives(n):
    """The conjugate-pair representatives of n, λ >= λ', in lexicographic
    order, each with its conjugate."""
    return [(lam, conj) for lam in enumerate_partitions(n) if lam >= (conj := conjugate(lam))]


class TestWalk:
    """The walk over the suffix trie against references that list every
    partition of n."""

    def test_against_the_partitions_of_n(self, monkeypatch):
        # classes, members and move facts from degree_sn, neighbors and
        # up_dn_ratio over enumerate_partitions: the store's top two, every
        # member below the cap, and the top two of a 2-worker pool build
        for n in range(2, 31):
            degree = {lam: degree_sn(lam) for lam in enumerate_partitions(n)}
            s_sizes, a_sizes, a_members = Counter(degree.values()), Counter(), {}
            violations, interior, low = [], 0, {}
            for lam, conj in representatives(n):
                d = degree[lam]
                if lam == conj:
                    d //= 2
                a_sizes[d] += 1 + (lam == conj)
                a_members.setdefault(d, []).append(lam)
                ratio = up_dn_ratio(lam)
                if ratio is not None and not 1 < ratio < 4:
                    violations += [(v, ratio) for v in dict.fromkeys((lam, conj))]
            for lam, d in degree.items():
                if len(neighbors(lam)) == 2:
                    interior += 1
                else:
                    low.setdefault(d, []).append(lam)
            built = [(cached_spectrum(g, n), False) for g in "SA"] + \
                [(spectrum_sn(n), True), (spectrum_an(n), True)]
            with monkeypatch.context() as m:
                m.setattr(spectrum, "ProcessPoolExecutor", InlinePool)
                m.setattr(spectrum, "MEMBER_CAP", 0)
                m.setattr(spectrum.os, "cpu_count", lambda: 2)
                built += [(spectrum_sn(n, threads=2), False), (spectrum_an(n, threads=2), False)]
            for spec, every in built:
                sizes = s_sizes if spec.group == "S" else a_sizes
                assert list(zip(spec.degrees, spec.sizes)) == sorted(sizes.items())[::-1], n
                assert len(spec.members) == (len(spec.degrees) if every else
                                             min(2, len(spec.degrees))), (spec.group, n)
                for d, lams in zip(spec.degrees, spec.members):
                    want = a_members[d] if spec.group == "A" else \
                        [lam for lam in degree if degree[lam] == d]
                    assert list(lams) == sorted(want, reverse=True), (spec.group, n, d)
            facts = move_facts(n)
            assert (facts.interior, facts.violations) == (interior, violations), n
            assert {d: sorted(v) for d, v in facts.low.items()} == \
                {d: sorted(v) for d, v in low.items()}, n

    def test_each_representative_is_one_leaf(self):
        # shard t holds the representatives with t parts 1 below the first
        # row, so the shards share no leaf and together hold each once: a
        # pair as λ then λ', counted once, or a self-conjugate leaf
        for n in range(2, 31):
            leaves = []
            for t in range((n + 1) // 2):
                pairs, selfconj = spectrum._pair_shard(n, (t,), True)
                shard = [lam for kept in pairs.members.values() for lam in kept[::2]]
                assert [conjugate(lam) for kept in pairs.members.values() for lam in kept[::2]] \
                    == [conj for kept in pairs.members.values() for conj in kept[1::2]]
                assert sum(pairs.counts.values()) == len(shard), (n, t)
                assert all(d == degree_sn(lam) and lam == conjugate(lam) for d, lam in selfconj)
                shard += [lam for _d, lam in selfconj]
                assert all(lam[1:].count(1) == t for lam in shard), (n, t)
                leaves += shard
            assert sorted(leaves, reverse=True) == [lam for lam, _ in representatives(n)]

    def test_merged_shards_equal_the_sequential_walk(self, monkeypatch):
        # a pool build keeps the top two members, as the walk does above the
        # cap; test_against_the_partitions_of_n covers every member below it
        monkeypatch.setattr(spectrum, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 0)
        monkeypatch.setattr(spectrum.os, "cpu_count", lambda: 2)
        InlinePool.started = 0
        for n in range(1, 31):
            pooled = spectrum._build(n, threads=2)
            walked = spectrum._build(n)
            for group in "SA" if n >= 2 else "S":
                assert spectrum._spectrum(n, group, *pooled) == \
                    spectrum._spectrum(n, group, *walked), (n, group)
        assert InlinePool.started == 28  # one pool per build from n = 3

    def test_the_store_walks_without_the_pool(self, monkeypatch):
        # the store runs its own walk in this process, above the cap too, so
        # it never asks for a worker count
        def refused(*args):
            raise AssertionError("the store asked for a pool")

        monkeypatch.setattr(spectrum, "pool_size", refused)
        spectrum.clear_spectrum_cache()
        try:
            assert move_facts(12).interior > 0
            assert cached_spectrum("A", 45).n == 45
        finally:
            spectrum.clear_spectrum_cache()

    def test_no_walk_outlives_its_pass(self, monkeypatch):
        # the walk and the store's build run with the collector paused, so
        # with it off no pass may leave garbage that only it could free,
        # whether the pass returns or raises
        def broken(*args):
            raise ArithmeticError("a ratio failed")

        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            spectrum._pair_shard(20, range(10), False, MoveFacts())
            assert gc.collect() == 0
            spectrum.clear_spectrum_cache()
            move_facts(12)
            assert gc.collect() == 0
            monkeypatch.setattr(spectrum, "_ratio_terms", broken)
            raised = False  # pytest.raises would keep the traceback, and its frames, alive
            try:
                spectrum._pair_shard(20, range(10), False, MoveFacts())
            except ArithmeticError:
                raised = True
            assert raised and gc.collect() == 0
        finally:
            if was:
                gc.enable()

    def test_odd_self_conjugate_degree_raises_in_a_n(self):
        # the split rule halves a self-conjugate degree in A_n, so a leaf
        # of odd degree is refused where A_n is read from the table
        pairs, selfconj = spectrum._pair_shard(3, range(2), True)
        assert selfconj == [(2, (2, 1))]
        assert spectrum._spectrum(3, "A", pairs, selfconj).degrees == (1,)
        with pytest.raises(ArithmeticError, match="odd degree 3 for self-conjugate"):
            spectrum._spectrum(3, "A", pairs, [(3, (2, 1))])

    def test_pool_at_50_equals_one_worker(self):
        for build in (spectrum_sn, spectrum_an):
            assert build(50, threads=2) == build(50, threads=1)

    def test_top_row_identity(self):
        # a top row r changes no hook below it:
        # H((r, μ)) = H(μ)·∏_{c<r} (r − c + μ′_c)
        for n in range(1, 21):
            for lam in enumerate_partitions(n):
                r, mu = lam[0], lam[1:]
                mu_conj = conjugate(mu) + (0,) * r
                assert hook_product(lam) == \
                    hook_product(mu) * prod(r - c + mu_conj[c] for c in range(r)), lam

    def test_violations_in_lexicographic_order(self, capsys, monkeypatch):
        # made-up ratios 4 + f/ℓ(μ) at every representative (f, μ) with both
        # moves, where ℓ(μ) = h_11 − f: the walk meets them in trie order, and
        # the facts and the FAIL list them as a lexicographic pass does, λ
        # before λ'
        monkeypatch.setattr(spectrum, "_ratio_terms",
                            lambda f, hooks, column, fact: (4 * hooks[0] - 3 * f, hooks[0] - f))
        expected = [
            (v, 4 + Fraction(lam[0], len(lam) - 1))
            for lam, conj in representatives(12) if up_dn_ratio(lam) is not None
            for v in dict.fromkeys((lam, conj))
        ]
        spectrum.clear_spectrum_cache()
        try:
            assert move_facts(12).violations == expected and len(expected) > 10
            code = cli.main(["verify", "--n", "12", "--checks", "ratio-lemma",
                             "--format", "json"])
        finally:
            spectrum.clear_spectrum_cache()
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert code == 1 and report["status"] == FAIL
        assert report["notes"][1:] == [f"violation {format_partition(v)} ratio {r}"
                                       for v, r in expected[:10]]
        assert report["witnesses"] == [format_partition(v) for v, _r in expected[:10]]


def assert_members_descending(spec):
    for lams in spec.members:
        assert all(a > b for a, b in zip(lams, lams[1:])), (spec.group, spec.n, lams)


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

    def test_members_of_exactly_the_leading_classes(self):
        # k classes keep members, a member for each of their characters, and
        # no other does: every class up to the member cap, and the top two
        # above it and in the store at every n
        for n in range(1, 46):
            groups = "SA" if n >= 2 else "S"
            built = [(spectrum_sn if g == "S" else spectrum_an)(n) for g in groups]
            for spec, every in [(spec, n <= MEMBER_CAP) for spec in built] + \
                    [(cached_spectrum(g, n), False) for g in groups]:
                k = len(spec.degrees) if every else min(2, len(spec.degrees))
                assert len(spec.members) == k, (spec.group, n)
                assert all(map(complete, repeat(spec.group), spec.sizes, spec.members))
                assert_members_descending(spec)

    def test_any_arrival_order(self):
        # pairs and self-conjugate leaves arriving in reverse are still
        # sorted, and reading S_n leaves the table as A_n needs it
        for n in range(2, 23):
            pairs, selfconj = spectrum._pair_shard(n, range((n + 1) // 2), True)
            for kept in pairs.members.values():
                kept[:] = [lam for i in range(len(kept) - 2, -1, -2) for lam in kept[i:i + 2]]
            selfconj.reverse()
            for group, build in (("S", spectrum_sn), ("A", spectrum_an)):
                assert spectrum._spectrum(n, group, pairs, selfconj) == build(n)


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


class TestSplits:
    """The A_n split rule, which the walk applies and ``degree`` reads: a
    self-conjugate representative stands for two characters of half its
    S_n degree, any other for one of the same degree."""

    def test_examples(self):
        assert splits("A", ((4, 1),)) == (1,)
        assert splits("A", ((3, 1, 1),)) == (2,)
        assert splits("A", ((4, 1), (3, 1, 1))) == (1, 2)
        assert splits("S", ((3, 1, 1),)) == (1,)

    def test_split_rule(self):
        for n in range(2, 20):
            for lam in enumerate_partitions(n):
                (count,) = splits("A", (lam,))
                assert count == (2 if lam == conjugate(lam) else 1), lam
                assert degree_sn(lam) % count == 0, lam

    def test_mass_over_representatives(self):
        # one representative per conjugate pair carries |A_n| exactly
        for n in range(2, 20):
            reps = tuple(lam for lam in enumerate_partitions(n) if lam >= conjugate(lam))
            total = sum(count * (degree_sn(lam) // count) ** 2
                        for lam, count in zip(reps, splits("A", reps)))
            assert total == factorial(n) // 2


class TestSpectrumAn:
    def test_a5(self):
        spec = spectrum_an(5)
        assert list(zip(spec.degrees, spec.sizes)) == [(5, 1), (4, 1), (3, 2), (1, 1)]
        # the split class stores the self-conjugate representative
        three = spec.members[2]
        assert three == ((3, 1, 1),) and splits("A", three) == (2,)

    def test_a6(self):
        spec = spectrum_an(6)
        assert spec.b == 10
        assert epsilon(spec) == Fraction(13, 5)

    def test_a2(self):
        spec = spectrum_an(2)
        assert list(zip(spec.degrees, spec.sizes)) == [(1, 1)]

    def test_mass_small_range(self):
        for n in range(2, 26):
            spec = spectrum_an(n)
            assert sum(s * d ** 2 for d, s in zip(spec.degrees, spec.sizes)) == factorial(n) // 2

    def test_guards(self):
        with pytest.raises(ValueError):
            spectrum_an(1)

    def test_parallel_equals_sequential(self, monkeypatch):
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        assert spectrum_an(21, threads=2) == spectrum_an(21)


@pytest.fixture(scope="module")
def moments():
    """Per n = 2..40: p(n) and sc(n), counted over the partitions of n, and
    the character counts and S_n degree sum of the store's spectra."""
    out = {}
    for n in range(2, 41):
        parts = list(enumerate_partitions(n))
        s_spec = cached_spectrum("S", n)
        out[n] = {
            "p": len(parts),
            "sc": sum(1 for lam in parts if lam == conjugate(lam)),
            "s_count": sum(s_spec.sizes),
            "s_degree_sum": sum(s * d for d, s in zip(s_spec.degrees, s_spec.sizes)),
            "a_count": sum(cached_spectrum("A", n).sizes),
        }
    return out


def sizes_moved(spec, moves):
    sizes = tuple(s + moves.get(d, 0) for d, s in zip(spec.degrees, spec.sizes))
    return replace(spec, sizes=sizes)


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
        assert sum(s * d ** 2 for d, s in zip(moved.degrees, moved.sizes)) == \
            group_order_of(n, moved.group)
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
        with pytest.raises(ValueError):  # an omitted status derives a verdict
            VerificationReport(check="theorem2", n=8)
        for status in (INFORMATIONAL, INCONCLUSIVE):
            assert VerificationReport(check="theorem2", n=8, status=status).consistent()

    def test_consistent_re_derives_the_verdict(self):
        # status None is derived: PASS when every inequality holds, else
        # FAIL; an explicit status is kept as given
        held, missed = Inequality("held", 2, ">", 1), Inequality("missed", 1, ">", 2)
        for status, ineqs, kept, expected in [
            (FAIL, (held, missed), FAIL, True),
            (FAIL, (held,), FAIL, False),
            (PASS, (held,), PASS, True),
            (PASS, (held, missed), PASS, False),
            (None, (held,), PASS, True),
            (None, (held, missed), FAIL, True),
            (None, (missed,), FAIL, True),
            (INFORMATIONAL, (missed,), INFORMATIONAL, True),
            (INCONCLUSIVE, (missed, missed), INCONCLUSIVE, True),
        ]:
            rep = VerificationReport(check="theorem2", n=8, status=status, inequalities=ineqs)
            assert rep.status == kept, (status, ineqs)
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
                s * Fraction(d, spec.b) ** 2 for d, s in zip(spec.degrees[1:], spec.sizes[1:])
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


class TestBranchingRule:
    """Restricting χ^λ to S_{n-1} and inducing back gives χ^λ once per
    removable node of λ and each single-node move of λ once; criterion 09
    checks the degree identity over n <= 20."""

    def test_example_31(self):
        assert len(removable_nodes((3, 1))) == 2
        assert {moved for _i, _j, moved in iter_moves((3, 1))} == {(4,), (2, 2), (2, 1, 1)}
        assert 4 * degree_sn((3, 1)) == 2 * 3 + 1 + 2 + 3

    def test_example_single_row(self):
        assert len(removable_nodes((6,))) == 1
        assert [moved for _i, _j, moved in iter_moves((6,))] == [(5, 1)]

    def test_example_22(self):
        assert len(removable_nodes((2, 2))) == 1
        assert {moved for _i, _j, moved in iter_moves((2, 2))} == {(3, 1), (2, 1, 1)}


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
    def test_move_degrees_against_standard_tableaux(self):
        # the scans take move degrees from the hook formula; they equal the
        # tableau counts, which use no hook length
        for n in range(5, 21):
            members = [lam for lams in cached_spectrum("S", n).members for lam in lams]
            assert members
            for lam in members:
                degrees = spectrum._scan_degrees(lam)
                assert degrees == {mu: count_standard_tableaux(mu) for mu in degrees}, lam

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
        # below every S_n degree: x counts every S_n character
        serve_spectra(monkeypatch, 8, [(100, 1, ()), (60, 3, ()), (40, 4, ())], b_a=30)
        assert spectrum_xy(8) == (8, 0)
