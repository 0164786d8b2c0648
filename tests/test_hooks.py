"""Hook lengths, degrees, the tableau-count oracle, and the up/dn ratio."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from chardeg import (
    conjugate,
    count_standard_tableaux,
    degree_sn,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    hook_product,
    lambda_dn,
    lambda_up,
    up_dn_ratio,
)


def brute_force_syt_count(shape):
    """Count standard fillings by trying every assignment of 1..n to cells.

    Row-major cells receive a permutation of 1..n; keep the fillings that
    increase along every row and column.  Only usable for tiny n, which is
    the point: it shares no code with either counting route under test.
    """
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    n = len(cells)
    count = 0
    for perm in permutations(range(1, n + 1)):
        grid = {cell: val for cell, val in zip(cells, perm)}
        ok = True
        for (r, c), val in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < val:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] < val:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestHookLengths:
    def test_single_node_examples(self):
        assert hook_length((2, 1), (1, 1)) == 3
        assert hook_length((9,), (1, 1)) == 9
        assert hook_length((3, 2), (1, 1)) == 4

    def test_outside_diagram_rejected(self):
        with pytest.raises(ValueError):
            hook_length((3, 1), (2, 2))
        with pytest.raises(ValueError):
            hook_length((3, 1), (3, 1))

    def test_all_hooks_positive_and_count_n(self):
        for n in range(16):
            for lam in enumerate_partitions(n):
                hooks = hook_lengths(lam)
                assert len(hooks) == n
                assert all(h >= 1 for h in hooks)

    def test_matches_per_node(self):
        for n in range(1, 11):
            for lam in enumerate_partitions(n):
                per_node = [
                    hook_length(lam, (r + 1, c + 1))
                    for r, row in enumerate(lam)
                    for c in range(row)
                ]
                assert per_node == hook_lengths(lam)


class TestHookProduct:
    def test_examples(self):
        assert hook_product(()) == 1
        assert hook_product((1,)) == 1
        assert hook_product((2, 1)) == 3
        assert hook_product((3, 2)) == 24

    def test_conjugation_invariant(self):
        for n in range(14):
            for lam in enumerate_partitions(n):
                assert hook_product(lam) == hook_product(conjugate(lam))


class TestDegrees:
    def test_examples(self):
        assert degree_sn(()) == 1
        assert degree_sn((5,)) == 1
        assert degree_sn((3, 1, 1)) == 6
        assert degree_sn((3, 2)) == 5

    def test_tableau_oracle_against_brute_force(self):
        # the memoized recursion itself is checked against raw enumeration
        for n in range(7):
            for lam in enumerate_partitions(n):
                assert count_standard_tableaux(lam) == brute_force_syt_count(lam)

    def test_degree_equals_tableau_count(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert degree_sn(lam) == count_standard_tableaux(lam)

    def test_orthogonality(self):
        for n in range(1, 26):
            assert sum(degree_sn(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)

    def test_conjugation(self):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                assert degree_sn(lam) == degree_sn(conjugate(lam))


class TestUpDnRatio:
    def test_examples(self):
        assert up_dn_ratio((2, 1)) == Fraction(4)
        assert up_dn_ratio((3, 1)) == Fraction(3)
        assert up_dn_ratio((2, 1, 1)) == Fraction(3)
        assert up_dn_ratio((2, 2)) is None
        assert up_dn_ratio((5,)) is None

    def test_closed_form_product(self):
        # the ratio telescopes into 4 * prod (x^2-1)/x^2 over interior hooks
        # of the first row and first column; derive it that way and compare
        for n in range(3, 15):
            for lam in enumerate_partitions(n):
                if lambda_up(lam) is None or lambda_dn(lam) is None:
                    continue
                expected = Fraction(4)
                for j in range(2, lam[0]):
                    x = hook_length(lam, (1, j))
                    expected *= Fraction(x * x - 1, x * x)
                for i in range(2, len(lam)):
                    y = hook_length(lam, (i, 1))
                    expected *= Fraction(y * y - 1, y * y)
                assert up_dn_ratio(lam) == expected

    def test_defined_iff_two_neighbors(self):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                both = lambda_up(lam) is not None and lambda_dn(lam) is not None
                assert (up_dn_ratio(lam) is not None) == both
