"""Structured pass/fail records for the verification checks.

A report stores the exact decisive inequalities, so its verdict can always
be re-derived from the stored values alone.  Statuses:

- pass / fail: the check is required and its recorded inequalities all hold
  or do not.  A report built without a status derives it from them, so a
  check module records inequalities and never writes a verdict; a verdict
  with no recorded inequality is refused at construction;
- informational: outcome recorded, never fails a run (e.g. a check forced
  outside its stated domain);
- inconclusive: a neighborhood-only method missed although the full-spectrum
  statement holds at this n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
INFORMATIONAL = "informational"
INCONCLUSIVE = "inconclusive"

_RELATIONS = {
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}

ExactValue = int | Fraction


@dataclass(frozen=True)
class Inequality:
    label: str
    left: ExactValue
    relation: str
    right: ExactValue

    def holds(self) -> bool:
        return _RELATIONS[self.relation](self.left, self.right)

    def __str__(self) -> str:
        return f"{self.label}: {self.left} {self.relation} {self.right}"


@dataclass(frozen=True)
class VerificationReport:
    check: str
    n: int
    status: str | None = None  # None: PASS when every inequality holds, else FAIL
    inequalities: tuple[Inequality, ...] = ()
    witnesses: tuple = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status is None:
            verdict = PASS if all(q.holds() for q in self.inequalities) else FAIL
            object.__setattr__(self, "status", verdict)
        if self.status in (PASS, FAIL) and not self.inequalities:
            raise ValueError(f"{self.check} n={self.n}: {self.status} records no inequality")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def consistent(self) -> bool:
        """Re-evaluate the stored inequalities against the verdict."""
        all_hold = all(q.holds() for q in self.inequalities)
        if self.status == PASS:
            return all_hold
        if self.status == FAIL:
            return not all_hold
        return True

    def summary(self) -> str:
        head = f"{self.status.upper():13s} {self.check} n={self.n}"
        if self.inequalities:
            head += "  [" + "; ".join(str(q) for q in self.inequalities) + "]"
        return head
