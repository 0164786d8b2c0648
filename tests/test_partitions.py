"""Partition values, enumeration, and the single-node move operations."""

import pytest

from chardeg import (
    PartitionFormatError,
    add_node,
    addable_nodes,
    conjugate,
    count_partitions,
    enumerate_partitions,
    format_partition,
    is_partition,
    is_self_conjugate,
    iter_moves,
    lambda_dn,
    lambda_to_1,
    lambda_up,
    move_node,
    parse_partition,
    removable_nodes,
    remove_node,
)
from chardeg.hooks import degree_sn


class TestParse:
    def test_plain(self):
        assert parse_partition("3,1,1") == (3, 1, 1)
        assert parse_partition("5") == (5,)

    def test_exponent_shorthand(self):
        assert parse_partition("1^5") == (1, 1, 1, 1, 1)
        assert parse_partition("2^3,1") == (2, 2, 2, 1)
        assert parse_partition("4,2^2") == (4, 2, 2)

    def test_rejects_out_of_order(self):
        with pytest.raises(PartitionFormatError):
            parse_partition("1,3")
        with pytest.raises(PartitionFormatError):
            parse_partition("2,3^2")

    @pytest.mark.parametrize("bad", ["", "3,,1", "0", "3,-1", "2^0", "2^x", "a,b"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PartitionFormatError):
            parse_partition(bad)

    def test_round_trip(self):
        for n in range(9):
            for lam in enumerate_partitions(n):
                if lam:
                    assert parse_partition(format_partition(lam)) == lam


class TestEnumerate:
    def test_n0(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_n4_exact(self):
        assert list(enumerate_partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_counts_match_pentagonal_recurrence(self):
        # stream length against the independent recurrence
        for n in range(31):
            assert sum(1 for _ in enumerate_partitions(n)) == count_partitions(n)

    def test_descending_lex_and_distinct(self):
        for n in (10, 17, 25):
            prev = None
            for lam in enumerate_partitions(n):
                assert is_partition(lam) and sum(lam) == n
                if prev is not None:
                    assert lam < prev  # strict order implies distinctness
                prev = lam

    def test_large_n_order_and_count(self):
        count = 0
        prev = None
        for lam in enumerate_partitions(60):
            if prev is not None:
                assert lam < prev
            prev = lam
            count += 1
        assert count == count_partitions(60) == 966467

    def test_max_part_restriction(self):
        for n in range(21):
            for cap in range(1, n + 1):
                got = list(enumerate_partitions(n, max_part=cap))
                want = [p for p in enumerate_partitions(n) if p and p[0] <= cap]
                assert got == want


class TestCount:
    def test_known_values(self):
        assert count_partitions(0) == 1
        assert count_partitions(5) == 7
        assert count_partitions(50) == 204226

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_partitions(-1)


class TestConjugate:
    def test_examples(self):
        assert conjugate((4, 1)) == (2, 1, 1, 1)
        assert conjugate((3, 1, 1)) == (3, 1, 1)
        assert conjugate((2, 2)) == (2, 2)
        assert conjugate(()) == ()

    def test_involutive(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam

    def test_self_conjugate(self):
        assert is_self_conjugate((3, 1, 1))
        assert is_self_conjugate((3, 2, 1))
        assert not is_self_conjugate((4, 1))
        for n in range(15):
            for lam in enumerate_partitions(n):
                assert is_self_conjugate(lam) == (conjugate(lam) == lam), lam


class TestNodes:
    def test_addable_examples(self):
        assert addable_nodes(()) == frozenset({(1, 1)})
        assert addable_nodes((3, 1)) == frozenset({(1, 4), (2, 2), (3, 1)})
        assert addable_nodes((2, 2)) == frozenset({(1, 3), (3, 1)})

    def test_removable_examples(self):
        assert removable_nodes((7,)) == frozenset({(1, 7)})
        assert removable_nodes((3, 1)) == frozenset({(1, 3), (2, 1)})
        assert removable_nodes((2, 2)) == frozenset({(2, 2)})

    def test_node_semantics(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                for row, col in addable_nodes(lam):
                    grown = add_node(lam, row)
                    assert is_partition(grown) and sum(grown) == n + 1
                    assert grown[row - 1] == col
                for row, col in removable_nodes(lam):
                    assert lam[row - 1] == col
                    shrunk = remove_node(lam, row)
                    assert is_partition(shrunk) and sum(shrunk) == n - 1

    def test_addable_is_removable_plus_one(self):
        for n in range(16):
            for lam in enumerate_partitions(n):
                assert len(addable_nodes(lam)) == len(removable_nodes(lam)) + 1

    def test_removable_counts_distinct_parts(self):
        for n in range(1, 16):
            for lam in enumerate_partitions(n):
                assert len(removable_nodes(lam)) == len(set(lam))

    def test_size_bounds(self):
        # |A|^2 - |A| <= 2n and |R|^2 + |R| <= 2n
        for n in range(31):
            for lam in enumerate_partitions(n):
                a = len(addable_nodes(lam))
                r = len(removable_nodes(lam))
                assert a * a - a <= 2 * n
                assert r * r + r <= 2 * n


class TestUpDn:
    def test_lambda_up_examples(self):
        assert lambda_up((3, 1)) == (4,)
        assert lambda_up((2, 2)) is None
        assert lambda_up((2, 2, 1)) == (3, 2)
        assert lambda_up((1,)) is None
        assert lambda_up((1, 1)) == (2,)

    def test_lambda_dn_examples(self):
        assert lambda_dn((4,)) == (3, 1)
        assert lambda_dn((2, 2)) is None
        assert lambda_dn((3, 1)) == (2, 1, 1)
        assert lambda_dn((1,)) is None

    def test_round_trip(self):
        for n in range(1, 26):
            for lam in enumerate_partitions(n):
                dn = lambda_dn(lam)
                if dn is not None:
                    assert sum(dn) == n and is_partition(dn)
                    assert lambda_up(dn) == lam
                up = lambda_up(lam)
                if up is not None:
                    assert sum(up) == n and is_partition(up)
                    assert lambda_dn(up) == lam

    def test_conjugation_duality(self):
        # dn exists iff up exists on the conjugate, and they commute
        for n in range(1, 26):
            for lam in enumerate_partitions(n):
                dn = lambda_dn(lam)
                up_conj = lambda_up(conjugate(lam))
                assert (dn is None) == (up_conj is None)
                if dn is not None:
                    assert conjugate(dn) == up_conj


class TestMoveNode:
    def test_examples(self):
        assert move_node((3, 1), 1, 2) == (2, 2)
        assert move_node((3, 1), 2, 1) == (4,)
        assert move_node((2, 2), 1, 2) is None

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            move_node((3, 1), 1, 1)
        with pytest.raises(ValueError):
            move_node((3, 1), 3, 1)
        with pytest.raises(ValueError):
            move_node((3, 1), 1, 5)
        with pytest.raises(ValueError):
            move_node((3, 1), 0, 2)

    def test_moves_match_remove_add_pairs(self):
        # independent derivation: remove any corner, then add any node of
        # the reduced shape except the one just removed
        for n in range(1, 21):
            for lam in enumerate_partitions(n):
                via_moves = {moved for _i, _j, moved in iter_moves(lam)}
                via_sets = set()
                for row, col in removable_nodes(lam):
                    reduced = remove_node(lam, row)
                    for arow, acol in addable_nodes(reduced):
                        if (arow, acol) != (row, col):
                            via_sets.add(add_node(reduced, arow))
                assert via_moves == via_sets

    def test_moves_are_distinct_and_same_n(self):
        for n in range(1, 18):
            for lam in enumerate_partitions(n):
                moves = [moved for _i, _j, moved in iter_moves(lam)]
                assert len(moves) == len(set(moves))
                for moved in moves:
                    assert is_partition(moved) and sum(moved) == n and moved != lam


class TestLambdaTo1:
    def test_examples(self):
        assert lambda_to_1((2, 2, 1)) == (3, 1, 1)
        assert lambda_to_1((3, 1)) is None
        assert lambda_to_1((2, 2)) == (3, 1)
        assert lambda_to_1((1, 1, 1)) is None
        assert lambda_to_1((1,)) is None

    def test_defined_exactly_off_dn_and_all_ones(self):
        for n in range(1, 22):
            for lam in enumerate_partitions(n):
                image = lambda_to_1(lam)
                should_exist = (
                    lambda_dn(lam) is None and len(lam) >= 2 and lam[0] >= 2
                )
                assert (image is not None) == should_exist
                if image is not None:
                    assert is_partition(image) and sum(image) == n

    def test_injective(self):
        for n in range(1, 31):
            seen = {}
            for lam in enumerate_partitions(n):
                image = lambda_to_1(lam)
                if image is not None:
                    assert image not in seen, (seen[image], lam)
                    seen[image] = lam

    def test_degree_strictly_grows(self):
        for n in range(1, 31):
            for lam in enumerate_partitions(n):
                image = lambda_to_1(lam)
                if image is not None:
                    assert degree_sn(image) > degree_sn(lam)
