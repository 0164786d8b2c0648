"""Exact-arithmetic helpers: certified square-root enclosures, decimal text."""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt


def sqrt_upper(value: int) -> Fraction:
    """A rational u with u >= sqrt(value), tight to about 12 decimals.

    Exact for perfect squares.  Used wherever an irrational bound must be
    replaced by a rational one without ever strengthening a claimed
    inequality.
    """
    if value < 0:
        raise ValueError("value must be nonnegative")
    root = isqrt(value)
    if root * root == value:
        return Fraction(root)
    scale = 10**12
    return Fraction(isqrt(value * scale * scale) + 1, scale)


def decimal_str(value: int | Fraction) -> str:
    """Render an exact value as a decimal string with 12 significant digits."""
    fr = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 12
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(d)


def clamped_square_over(numerator: Fraction, denominator: int) -> Fraction:
    """max(numerator, 0)^2 / denominator, exactly."""
    if numerator < 0:
        return Fraction(0)
    return numerator * numerator / denominator
