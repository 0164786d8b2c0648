"""Integer partitions and the single-node moves used on Young diagrams.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0.  Nodes of a Young
diagram are (row, column) pairs, 1-based, rows growing downward.
"""

from __future__ import annotations

from typing import Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]


class PartitionFormatError(ValueError):
    """Raised for text that does not describe a valid partition."""


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing sequence of positive ints."""
    prev = None
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            return False
        if prev is not None and p > prev:
            return False
        prev = p
    return True


def format_partition(parts: Partition) -> str:
    """Canonical text form: comma separated parts, e.g. '4,2,1'."""
    return ",".join(str(p) for p in parts)


def parse_partition(text: str, max_n: int | None = None) -> Partition:
    """Parse '4,2,1' or exponent shorthand '2^3,1' into a partition tuple.

    Parts must already be in weakly decreasing order; out-of-order input is
    rejected rather than sorted.  With ``max_n`` set, text whose parts sum
    past it is rejected before any exponent token is expanded.
    """
    parts: list[int] = []
    total = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise PartitionFormatError(f"empty token in partition text {text!r}")
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            try:
                base, exp = int(base_s), int(exp_s)
            except ValueError:
                raise PartitionFormatError(f"malformed exponent token {token!r}") from None
            if exp < 1:
                raise PartitionFormatError(f"exponent must be positive in {token!r}")
        else:
            try:
                base, exp = int(token), 1
            except ValueError:
                raise PartitionFormatError(f"malformed part {token!r}") from None
        if base < 1:
            raise PartitionFormatError(f"parts must be positive, got {base} in {text!r}")
        total += base * exp
        if max_n is not None and total > max_n:
            raise PartitionFormatError(f"n >= {total} in {text!r} exceeds the limit {max_n}")
        parts.extend([base] * exp)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise PartitionFormatError(f"parts not weakly decreasing in {text!r}")
    return tuple(parts)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n in descending lexicographic order.

    Starts at (n) and ends at (1,)*n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    r: Partition = (n,)
    yield r
    while True:
        # i is the last part above 1; lower it by one and refill the tail
        # (that unit plus the trailing ones) greedily with parts of at most v
        i = (r.index(1) if r[-1] == 1 else len(r)) - 1
        if i == -1:
            return
        v = r[i] - 1
        q, rem = divmod(len(r) - i, v)
        r = r[:i] + (v,) * (q + 1) + ((rem,) if rem else ())
        yield r


_pcount = [1]  # p(0)


def count_partitions(n: int) -> int:
    """Number of partitions of n, via the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_pcount) <= n:
        m = len(_pcount)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * _pcount[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _pcount[m - g2]
            k += 1
        _pcount.append(total)
    return _pcount[n]


def conjugate(parts: Partition) -> Partition:
    """Reflect the Young diagram across its main diagonal."""
    if not parts:
        return ()
    out = []
    j = len(parts) - 1
    for c in range(1, parts[0] + 1):
        while parts[j] < c:
            j -= 1
        out.append(j + 1)
    return tuple(out)


def is_self_conjugate(parts: Partition) -> bool:
    """True when ``parts`` equals its conjugate; a first part other than the
    number of parts rules that out without conjugating."""
    return not parts or (parts[0] == len(parts) and conjugate(parts) == parts)


def _corner(parts: Partition, row: int) -> bool:
    """True when ``row`` (1-based, in range) is longer than the row below it,
    so its last cell is a removable corner."""
    return parts[row - 1] > (parts[row] if row < len(parts) else 0)


def _addable(parts: Partition, row: int) -> bool:
    """True when ``row`` (1-based) accepts a new cell at its end: row 1, a
    fresh last row, or a row strictly shorter than the row above it."""
    k = len(parts)
    return row == 1 or row == k + 1 or (row <= k and parts[row - 2] > parts[row - 1])


def addable_nodes(parts: Partition) -> frozenset[Node]:
    """Nodes whose addition yields a valid partition of n+1."""
    k = len(parts)
    return frozenset(
        (j, (parts[j - 1] if j <= k else 0) + 1) for j in range(1, k + 2) if _addable(parts, j)
    )


def removable_nodes(parts: Partition) -> frozenset[Node]:
    """Corner nodes whose removal yields a valid partition of n-1."""
    return frozenset((j, parts[j - 1]) for j in range(1, len(parts) + 1) if _corner(parts, j))


def remove_node(parts: Partition, row: int) -> Partition:
    """Remove the last cell of ``row`` (1-based); the row must be a corner."""
    if not 1 <= row <= len(parts):
        raise ValueError(f"row {row} out of range for {parts}")
    if not _corner(parts, row):
        raise ValueError(f"row {row} of {parts} is not a removable corner")
    if parts[row - 1] == 1:
        return parts[: row - 1] + parts[row:]
    return parts[: row - 1] + (parts[row - 1] - 1,) + parts[row:]


def add_node(parts: Partition, row: int) -> Partition:
    """Add a cell at the end of ``row`` (1-based, up to len+1 for a new row)."""
    k = len(parts)
    if not 1 <= row <= k + 1:
        raise ValueError(f"row {row} out of range for {parts}")
    if not _addable(parts, row):
        raise ValueError(f"row {row} of {parts} is not addable")
    if row == k + 1:
        return parts + (1,)
    return parts[: row - 1] + (parts[row - 1] + 1,) + parts[row:]


def lambda_up(parts: Partition) -> Partition | None:
    """Strip a trailing part 1 and lengthen the first row; None if undefined.

    Defined only when the partition has at least two parts and the last part
    equals 1; the result is a partition of the same n.
    """
    if len(parts) >= 2 and parts[-1] == 1:
        return (parts[0] + 1,) + parts[1:-1]
    return None


def lambda_dn(parts: Partition) -> Partition | None:
    """Shorten the first row and append a part 1; None if undefined.

    Defined only when the first part strictly exceeds the second (0 if there
    is no second part) and is at least 2.
    """
    if not parts or parts[0] < 2:
        return None
    second = parts[1] if len(parts) >= 2 else 0
    if parts[0] > second:
        return (parts[0] - 1,) + parts[1:] + (1,)
    return None


def move_node(parts: Partition, i: int, j: int) -> Partition | None:
    """Move the last cell of row i to the end of row j; None if not a partition.

    Row i must be a removable corner and row j addable once that cell is
    gone.  i == j or an out-of-range index is a contract violation.
    """
    k = len(parts)
    if i == j:
        raise ValueError("source and target rows must differ")
    if not 1 <= i <= k:
        raise ValueError(f"source row {i} out of range for {parts}")
    if not 1 <= j <= k + 1:
        raise ValueError(f"target row {j} out of range for {parts}")
    if not _corner(parts, i):
        return None
    reduced = remove_node(parts, i)
    if not _addable(reduced, j):
        return None
    return add_node(reduced, j)


def iter_moves(parts: Partition) -> Iterator[tuple[int, int, Partition]]:
    """Yield (i, j, result) for every defined single-node move, i != j, in
    ascending (i, j) order: each corner row i against the addable rows j."""
    for i in range(1, len(parts) + 1):
        if _corner(parts, i):
            reduced = remove_node(parts, i)
            for j in range(1, len(reduced) + 2):
                if j != i and _addable(reduced, j):
                    yield i, j, add_node(reduced, j)


def lambda_to_1(parts: Partition) -> Partition | None:
    """Degree-increasing rebalance for partitions with no λ_dn move.

    When the first s >= 2 parts share the value t >= 2 and the rest are
    smaller, moves the last cell of row s to row 1.  None whenever λ_dn
    exists, for single-row partitions, and for all-ones partitions.
    """
    if len(parts) < 2 or parts[0] == 1 or lambda_dn(parts) is not None:
        return None
    s = 1
    while s < len(parts) and parts[s] == parts[0]:
        s += 1
    # s >= 2 because lambda_dn is undefined here, and row s is a corner
    return move_node(parts, s, 1)
