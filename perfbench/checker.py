"""Output checker for the chardeg benchmark.

Every operation a workload produces is checked from its JSON text alone,
without importing chardeg:

- a verification report is one operation.  It fails when its status is
  ``fail``, when a ``pass`` or ``fail`` records no inequality (a vacuous
  verdict), or when its recorded inequalities, re-evaluated in exact
  arithmetic, do not give its status;
- a spectrum document is one operation.  It fails when the sum of
  size * degree^2 over its classes is not the group order, or when its
  top degree, degree order or epsilon disagree with its classes;
- a warm-cache spectrum output is one operation, and it fails when it
  differs in any byte from the cold output of the same command.

Failures are counted and described; checking never stops at the first one.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
VERDICTS = ("pass", "fail")
STATUSES = VERDICTS + ("informational", "inconclusive")


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def exact_value(text: str) -> int | Fraction:
    """Parse the exact-string form chardeg writes: an int or ``num/den``."""
    if not isinstance(text, str):
        raise ValueError(f"exact value must be a string, got {text!r}")
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return int(text)


def report_problems(report: dict) -> list[str]:
    """Why one report document is a failed operation; empty when it is not."""
    where = f"{report.get('check')} n={report.get('n')}"
    status = report.get("status")
    if status not in STATUSES:
        return [f"{where}: unknown status {status!r}"]
    problems = []
    try:
        holds = [
            RELATIONS[q["relation"]](exact_value(q["left"]), exact_value(q["right"]))
            for q in report["inequalities"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"{where}: malformed inequality ({exc!r})"]
    if status == "fail":
        problems.append(f"{where}: status fail")
    if status in VERDICTS and not holds:
        problems.append(f"{where}: {status} with zero inequalities")
    if (status == "pass" and not all(holds)) or (status == "fail" and all(holds)):
        problems.append(f"{where}: {status} not re-derived by its inequalities")
    return problems


def check_verify_output(text: str, exit_code: int) -> tuple[Tally, list[str]]:
    """Check one ``verify --format json`` output.

    Returns the per-report tally and the command-level errors: output that
    does not parse, or an exit code other than 1 exactly when some report
    has status ``fail``.
    """
    tally = Tally()
    try:
        reports = json.loads(text)["reports"]
        if not isinstance(reports, list) or not reports:
            raise ValueError("no reports")
    except (ValueError, KeyError, TypeError) as exc:
        tally.add([f"verify output unreadable ({exc!r})"])
        return tally, [f"verify output unreadable (exit code {exit_code})"]
    for report in reports:
        tally.add(report_problems(report))
    any_fail = any(r.get("status") == "fail" for r in reports)
    errors = []
    if exit_code != (1 if any_fail else 0):
        errors.append(f"verify exit code {exit_code} with any_fail={any_fail}")
    return tally, errors


def group_order(group: str, n: int) -> int:
    if group == "S":
        return factorial(n)
    if group == "A":
        return factorial(n) // 2 if n >= 2 else 1
    raise ValueError(f"unknown group {group!r}")


def spectrum_problems(text: str, group: str, n: int) -> list[str]:
    """Why one ``spectrum --format json`` document is a failed operation."""
    where = f"spectrum {group}_{n}"
    try:
        doc = json.loads(text)
        if doc["group"] != group or doc["n"] != n:
            return [f"{where}: document is for {doc['group']}_{doc['n']}"]
        degrees = [int(c["degree"]) for c in doc["classes"]]
        sizes = [int(c["size"]) for c in doc["classes"]]
        b = int(doc["b"])
        eps = exact_value(doc["epsilon"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{where}: malformed document ({exc!r})"]
    if not degrees:
        return [f"{where}: no classes"]
    order = group_order(group, n)
    problems = []
    mass = sum(s * d * d for s, d in zip(sizes, degrees))
    if mass != order:
        problems.append(f"{where}: sum size*degree^2 = {mass} != |G| = {order}")
    if any(s < 1 for s in sizes):
        problems.append(f"{where}: class of size below 1")
    if any(a <= b_ for a, b_ in zip(degrees, degrees[1:])):
        problems.append(f"{where}: degrees not strictly decreasing")
    if b != degrees[0]:
        problems.append(f"{where}: b={b} is not the top class degree {degrees[0]}")
    if eps != Fraction(order - sizes[0] * b * b, b * b):
        problems.append(f"{where}: epsilon {eps} disagrees with the classes")
    return problems


def warm_problems(warm: bytes, cold: bytes, label: str) -> list[str]:
    """A warm-cache output fails unless it is byte-identical to the cold one."""
    if warm == cold:
        return []
    at = next((i for i, (x, y) in enumerate(zip(warm, cold)) if x != y), min(len(warm), len(cold)))
    return [f"{label}: warm output differs from cold at byte {at} "
            f"({len(warm)} vs {len(cold)} bytes)"]
