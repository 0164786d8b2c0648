"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact; there are no numeric tolerances anywhere.
"""

import hashlib
import json
import os
import time
from fractions import Fraction
from math import factorial

import pytest

from chardeg import (
    build_graph,
    cli,
    count_partitions,
    count_standard_tableaux,
    degree_sn,
    enumerate_partitions,
    epsilon_lower_bounds,
    iter_moves,
    lambda_dn,
    lambda_up,
    low_degree_count_check_all,
    near_max_count_check_all,
    ratio_lemma_check,
    removable_nodes,
    sandwich_check,
    spectrum_sn,
    up_dn_ratio,
    verify_theorem1,
    verify_theorem2,
)
from chardeg.serialize import json_text, spectrum_to_doc


def verdict(num: int, text: str) -> None:
    print(f"criterion {num:2d}: PASS - {text}")


def test_criterion_01_orthogonality():
    t0 = time.perf_counter()
    for n in range(1, 41):
        total = sum(degree_sn(lam) ** 2 for lam in enumerate_partitions(n))
        assert total == factorial(n), f"orthogonality fails at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    verdict(1, f"sum of squared degrees equals n! for n=1..40 ({elapsed:.1f}s)")


def test_criterion_02_degree_oracle_equivalence():
    checked = 0
    for n in range(19):
        for lam in enumerate_partitions(n):
            assert degree_sn(lam) == count_standard_tableaux(lam), lam
            checked += 1
    verdict(2, f"hook degree equals tableau-count recursion on {checked} shapes (n<=18)")


def test_criterion_03_theorem2():
    for n in range(7, 41):
        rep = verify_theorem2(n)
        assert rep.passed and rep.consistent(), f"n={n}: {rep.summary()}"
    verdict(3, "squared degrees below b(S_n) exceed 2 b(S_n)^2 for n=7..40")


@pytest.mark.stretch
def test_criterion_03_theorem2_stretch():
    for n in range(41, 50):
        spec = spectrum_sn(n, threads=2)
        assert sum(s * d ** 2 for d, s in zip(spec.degrees, spec.sizes)) == factorial(n)
        left = spec.sum_squares_below_top()
        assert left > 2 * spec.b * spec.b, f"n={n}"
    verdict(3, "stretch range n=41..49 verified as well")


def test_criterion_04_theorem1():
    for n in range(5, 41):
        rep = verify_theorem1(n)
        assert rep.passed and rep.consistent(), f"n={n}: {rep.summary()}"
    verdict(4, "squared degrees below b(A_n) exceed b(A_n)^2 for n=5..40")


def test_criterion_05_ratio_lemma():
    assert up_dn_ratio((2, 1)) == Fraction(4)
    rep3 = ratio_lemma_check(3)
    assert rep3.passed and any("boundary" in note for note in rep3.notes)
    for n in range(4, 41):
        rep = ratio_lemma_check(n)
        assert rep.passed and rep.consistent(), f"n={n}: {rep.summary()}"
        assert not any("boundary" in note for note in rep.notes)
    verdict(5, "1 < H(dn)H(up)/H^2 < 4 at every interior vertex for n=4..40; "
               "n=3 boundary case reported")


def test_criterion_06_counting_checks():
    for n in range(5, 41):
        low = low_degree_count_check_all(n)
        near = near_max_count_check_all(n)
        assert low.passed and low.consistent(), f"n={n}: {low.summary()}"
        assert near.passed and near.consistent(), f"n={n}: {near.summary()}"
    verdict(6, "low-degree and near-top counting bounds hold for every class, n=5..40")


def test_criterion_07_sandwich():
    for n in range(5, 41):
        rep = sandwich_check(n)
        assert rep.passed and rep.consistent(), f"n={n}: {rep.summary()}"
    verdict(7, "b(S_n)/2 < b(A_n) <= b(S_n) for n=5..40")


def test_criterion_08_graph_structure():
    for n in range(1, 41):
        graph = build_graph(n)
        seen = set()
        for comp in graph.components:
            for a, b in zip(comp, comp[1:]):
                assert lambda_dn(a) == b and lambda_up(b) == a, f"n={n}: {a} -> {b}"
            assert lambda_up(comp[0]) is None and lambda_dn(comp[-1]) is None, f"n={n}"
            seen.update(comp)
        assert len(seen) == sum(map(len, graph.components)) == count_partitions(n), f"n={n}"
    verdict(8, "the move graph is a disjoint union of maximal simple paths covering "
               "every partition (n<=40); each path meets a degree class at most twice "
               "because degrees are strictly log-concave along it (criterion 05)")


def test_criterion_09_branching():
    # n·χ(1) = |R(λ)|·χ(1) + Σ χ^μ(1) over the single-node moves μ of λ
    for n in range(2, 21):
        for lam in enumerate_partitions(n):
            moves = [moved for _i, _j, moved in iter_moves(lam)]
            deg = degree_sn(lam)
            rhs = len(removable_nodes(lam)) * deg + sum(degree_sn(c) for c in moves)
            assert n * deg == rhs, lam
            assert 1 + len(moves) < 2 * n, lam
            assert len(set(moves)) == len(moves), lam
    verdict(9, "restriction-induction degree identity exact with < 2n constituents (n<=20)")


def test_criterion_10_epsilon_lower_bounds():
    for n in range(5, 41):
        rep = epsilon_lower_bounds(n)
        assert rep.passed and rep.consistent(), f"n={n}: {rep.summary()}"
    verdict(10, "squared-degree-excess lower bounds hold for n=5..40 "
                "(square roots via certified rational enclosures)")


def test_criterion_11_trend_from_scan_csv(tmp_path):
    out = tmp_path / "trend.csv"
    assert cli.main(["scan", "--n", "40", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "48b2578dddd747ed218f58d3cf8aade2"
    rows = out.read_text().strip().splitlines()
    header = rows[0].split(",")
    eps_s_col = header.index("eps_s")
    eps_a_col = header.index("eps_a")
    eps_s = {}
    eps_a = {}
    for row in rows[1:]:
        cells = row.split(",")
        eps_s[int(cells[0])] = Fraction(cells[eps_s_col])
        eps_a[int(cells[0])] = Fraction(cells[eps_a_col])
    low_s = max(eps_s[n] for n in range(5, 11))
    high_s = min(eps_s[n] for n in range(30, 41))
    assert high_s > low_s
    low_a = max(eps_a[n] for n in range(5, 11))
    high_a = min(eps_a[n] for n in range(30, 41))
    assert high_a > low_a
    verdict(11, f"excess trend: min over n=30..40 exceeds max over n=5..10 "
                f"(S: {float(high_s):.1f} > {float(low_s):.1f}, "
                f"A: {float(high_a):.1f} > {float(low_a):.1f})")


def test_criterion_12_performance_and_determinism():
    workers = min(8, os.cpu_count() or 1)
    t0 = time.perf_counter()
    spec = spectrum_sn(50, threads=workers)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"n=50 spectrum took {elapsed:.1f}s"
    assert sum(spec.sizes) == 204226
    assert sum(s * d ** 2 for d, s in zip(spec.degrees, spec.sizes)) == factorial(50)

    seq = spectrum_sn(50, threads=1)
    par = spectrum_sn(50, threads=2)
    assert json_text(spectrum_to_doc(seq)) == json_text(spectrum_to_doc(par)) == \
        json_text(spectrum_to_doc(spec))
    verdict(12, f"n=50 spectrum over 204226 partitions in {elapsed:.1f}s with "
                f"{workers} workers; serialized output byte-identical across worker counts")


def test_induced_bound_hypotheses_active_at_50():
    # not a numbered criterion, but the stated n=50 behavior of the induced
    # bound must pass when its hypotheses hold
    from chardeg import induced_bound_check

    rep = induced_bound_check(50)
    assert rep.status == "pass" and rep.consistent()
    print("extra       : PASS - induced-character bound passes at n=50 "
          "with its hypotheses active")
