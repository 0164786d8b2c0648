"""Hook lengths, hook-length products and exact character degrees.

Everything here is exact integer or rational arithmetic.  The degree of the
irreducible character indexed by a partition of n is n! divided by the hook
product, and that division must be exact; a remainder means a bug upstream
and raises immediately rather than returning garbage.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod

from .partitions import (
    Node,
    Partition,
    conjugate,
    lambda_dn,
    lambda_up,
    remove_node,
    removable_nodes,
)


def hook_lengths(parts: Partition) -> list[int]:
    """All hook lengths of the diagram, row by row, left to right."""
    conj = conjugate(parts)
    out: list[int] = []
    append = out.append
    for r0, row in enumerate(parts):
        base = row - r0 - 1
        for c0 in range(row):
            append(base - c0 + conj[c0])
    return out


def hook_length(parts: Partition, node: Node) -> int:
    """Hook length at one node: arm + leg + 1.  Node must lie in the diagram."""
    row, col = node
    if not (1 <= row <= len(parts) and 1 <= col <= parts[row - 1]):
        raise ValueError(f"node {node} lies outside the diagram of {parts}")
    conj = conjugate(parts)
    return (parts[row - 1] - col) + (conj[col - 1] - row) + 1


def hook_product(parts: Partition) -> int:
    """Product of all hook lengths; 1 for the empty partition."""
    return prod(hook_lengths(parts))


def degree_sn(parts: Partition) -> int:
    """Exact degree n! / H of the symmetric-group character for ``parts``."""
    n = sum(parts)
    q, r = divmod(factorial(n), hook_product(parts))
    if r:
        raise ArithmeticError(f"hook product does not divide {n}! for {parts}")
    return q


@cache
def count_standard_tableaux(parts: Partition) -> int:
    """Number of standard Young tableaux of this shape.

    Plain recursion over corner removals with memoization on the shape;
    independent of the hook machinery above, so the two can cross-check
    each other.  Intended for n up to ~25.
    """
    if not parts:
        return 1
    return sum(
        count_standard_tableaux(remove_node(parts, row))
        for row, _col in removable_nodes(parts)
    )


def up_dn_ratio(parts: Partition) -> Fraction | None:
    """Exact H(dn) * H(up) / H^2 when both neighbor moves exist, else None."""
    up = lambda_up(parts)
    dn = lambda_dn(parts)
    if up is None or dn is None:
        return None
    return Fraction(hook_product(dn) * hook_product(up), hook_product(parts) ** 2)
