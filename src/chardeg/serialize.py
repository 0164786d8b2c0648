"""JSON / CSV / DOT rendering of spectra, graphs and reports.

Big integers always serialize as decimal strings (degrees at n = 50 are far
beyond both 64-bit and double range); exact rationals serialize as
"num/den" with a 12-significant-digit decimal convenience value alongside.
Inside CSV fields, a partition renders its parts space separated and lists
of partitions join with semicolons, so no field ever contains a comma.
Outputs carry no timestamps and are byte-stable across runs and worker
counts.
"""

from __future__ import annotations

import json
import re
from itertools import islice, zip_longest
from operator import gt

from .exact import decimal_str
from .graph import PartitionGraph
from .partitions import Partition, format_partition, parse_partition
from .report import VerificationReport
from .spectrum import (
    DegreeSpectrum,
    check_invariants,
    epsilon,
    has_built_members,
    splits,
)

SCHEMA_VERSION = 1


def csv_partition(parts: Partition) -> str:
    return " ".join(str(p) for p in parts)


def csv_partition_list(items) -> str:
    return ";".join(csv_partition(p) for p in items)


def json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _classes(spec: DegreeSpectrum):
    """(degree, size, members) per class, largest degree first; a class
    past the leading ones that keep members has none."""
    return zip_longest(spec.degrees, spec.sizes, spec.members, fillvalue=())


def spectrum_to_doc(spec: DegreeSpectrum) -> dict:
    eps = epsilon(spec)
    classes = []
    for degree, size, members in _classes(spec):
        entry = {
            "degree": str(degree),
            "size": size,
            "members": [format_partition(p) for p in members],
        }
        if spec.group == "A":
            entry["splits"] = list(splits("A", members))
        classes.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "group": spec.group,
        "n": spec.n,
        "b": str(spec.b),
        "epsilon": str(eps),
        "epsilon_decimal": decimal_str(eps),
        "members_complete": spec.members_complete,
        "classes": classes,
    }


_CLASS_JSON = '    {\n      "degree": "%d",\n      "size": %d,\n      "members": %s%s\n    }'
_SPECTRUM_JSON = (
    '{\n  "schema": %d,\n  "group": "%s",\n  "n": %d,\n  "b": "%d",\n  "epsilon": "%s",\n'
    '  "epsilon_decimal": "%s",\n  "members_complete": %s,\n  "classes": [\n%s\n  ]\n}\n'
)
_HEAD_JSON, _END_JSON = _SPECTRUM_JSON.rsplit("%s", 1)  # around the classes
_BARE_SPLITS = ',\n      "splits": []'


def _json_list(items: list[str]) -> str:
    """A non-empty list of rendered values at a class's depth, as indent=2
    lays it out."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _class_json(group: str, degree: int, size: int, members: tuple[Partition, ...]) -> str:
    """A class of ``group`` that keeps members, as ``indent=2`` lays it out."""
    listed = _json_list(['"%s"' % format_partition(p) for p in members])
    tail = ""
    if group == "A":
        tail = ',\n      "splits": ' + _json_list([str(s) for s in splits("A", members)])
    return _CLASS_JSON % (degree, size, listed, tail)


def _head_json(spec: DegreeSpectrum) -> str:
    """The document's text before its classes."""
    eps = epsilon(spec)
    return _HEAD_JSON % (SCHEMA_VERSION, spec.group, spec.n, spec.b, eps, decimal_str(eps),
                         "true" if spec.members_complete else "false")


def spectrum_json(spec: DegreeSpectrum) -> str:
    """``json_text(spectrum_to_doc(spec))``, byte for byte, written directly.

    The document's shape is fixed and none of its strings (decimal
    integers, fractions, partitions) needs escaping, so string formatting
    gives the ``indent=2`` layout without the pure-Python JSON encoder.
    ``spectrum_to_doc`` stays the reference that the tests compare with.
    """
    bare = _BARE_SPLITS if spec.group == "A" else ""
    classes = [
        _class_json(spec.group, degree, size, members) if members
        else _CLASS_JSON % (degree, size, "[]", bare)
        for degree, size, members in _classes(spec)
    ]
    return "".join((_head_json(spec), ",\n".join(classes), _END_JSON))


def _pattern(template: str, *fields: str) -> str:
    """A regex for ``template``: its literal text escaped, and its k-th %d or
    %s placeholder replaced by ``fields[k]``."""
    literals = re.split("%[ds]", template)
    if len(literals) != len(fields) + 1:
        raise ValueError("one field per placeholder")
    return re.escape(literals[0]) + "".join(
        field + re.escape(text) for field, text in zip(fields, literals[1:])
    )


_COUNT = "([1-9][0-9]*)"  # the %d of a value of at least 1
# a class that keeps members, behind the list's separator unless it is the
# first; parsed loosely, then held to its re-render
_MEMBER_CLASS = re.compile(
    "(,\n)?" + _pattern(_CLASS_JSON, _COUNT, _COUNT, r"(\[\n[^\]]*\])", "[^}]*")
)
_MEMBER = re.compile('\n {8}"([^"\n]*)"')
# a class that keeps none, behind the separator, with its degree and size
# still to fill in
_BARE_JSON = {
    alternating: ",\n" + _CLASS_JSON.replace("%s%s", "[]" + (_BARE_SPLITS if alternating else ""))
    for alternating in (False, True)
}
_BARE_CLASS = {alternating: re.compile(_pattern(template, _COUNT, _COUNT))
               for alternating, template in _BARE_JSON.items()}
_CLASSES_OPEN = _HEAD_JSON.rsplit("\n  ", 1)[1]  # the header's last line, '"classes": [\n'


def parse_spectrum_json(text: str, group: str, n: int) -> DegreeSpectrum:
    """The spectrum of ``group`` and ``n`` whose ``spectrum_json`` is
    ``text``, byte for byte, for a spectrum the cache keeps: one that
    ``has_built_members``.  Any other text raises ValueError; a spectrum
    that breaks an identity of ``check_invariants`` raises ArithmeticError.

    Each class that keeps members is parsed, re-rendered and compared with
    its span of the text, so its splits are the ones its members give.  The
    classes that keep none are read by one regex scan: each match is one
    class exactly as rendered, its degree and size canonical decimals of at
    least 1, and the matches must add up to the length of their span, which
    leaves no gap.  Degrees descend strictly.  The header is re-rendered
    from the spectrum, so ``b``, ``epsilon``, ``epsilon_decimal`` and
    ``members_complete`` are the ones the classes give.
    """
    if group not in ("S", "A"):
        raise ValueError(f"unknown group tag {group!r}")
    start = pos = text.index(_CLASSES_OPEN) + len(_CLASSES_OPEN)
    end = len(text) - len(_END_JSON)
    if end < pos or text[end:] != _END_JSON:
        raise ValueError("not the layout of a spectrum document")
    degrees, sizes, kept = [], [], []
    while match := _MEMBER_CLASS.match(text, pos, end):
        sep, degree, size, listed = match.groups()
        degree, size = int(degree), int(size)
        members = tuple(parse_partition(t, max_n=n) for t in _MEMBER.findall(listed))
        rendered = (sep or "") + _class_json(group, degree, size, members)
        if bool(sep) != bool(kept) or rendered != match[0]:
            raise ValueError(f"class of degree {degree} is not as a build renders it")
        degrees.append(degree)
        sizes.append(size)
        kept.append(members)
        pos = match.end()
    # one scan; its matches tile the rest exactly when their lengths, the
    # template's text and the digits filled in, add up to the rest's length
    alternating = group == "A"
    found = _BARE_CLASS[alternating].findall(text, pos, end)
    digits, counts = zip(*found) if found else ((), ())
    covered = (pos - start + len(found) * (len(_BARE_JSON[alternating]) - len("%d%d"))
               + sum(map(len, digits)) + sum(map(len, counts)))
    if not kept or covered != end - start:
        raise ValueError("not the layout of a spectrum document")
    degrees = (*degrees, *map(int, digits))
    sizes = (*sizes, *map(int, counts))
    if not all(map(gt, degrees, islice(degrees, 1, None))):
        raise ValueError(f"degrees out of order in {group}_{n}")
    spec = check_invariants(DegreeSpectrum(n, group, degrees, sizes, tuple(kept)))
    if not has_built_members(spec):
        raise ValueError(f"members are not the ones a build of {group}_{n} keeps")
    if _head_json(spec) != text[:start]:
        raise ValueError("header is not the one the classes give")
    return spec


def spectrum_from_doc(doc: dict) -> DegreeSpectrum:
    """Rebuild a spectrum from its document, re-validating positive sizes,
    strictly descending degrees, members only in leading classes, the splits
    and ``members_complete`` that its members give, ``b`` and ``epsilon``
    (ValueError), and ``check_invariants`` (ArithmeticError)."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    group = doc["group"]
    if group not in ("S", "A"):
        raise ValueError(f"unknown group tag {group!r}")
    n = int(doc["n"])
    degrees, sizes, kept = [], [], []
    for entry in doc["classes"]:
        degree, size = int(entry["degree"]), int(entry["size"])
        members = tuple(parse_partition(t, max_n=n) for t in entry["members"])
        if size < 1 or (degrees and degree >= degrees[-1]):
            raise ValueError(f"class sizes or degree order wrong in document for {group}_{n}")
        if group == "A" and entry["splits"] != list(splits("A", members)):
            raise ValueError("member splits disagree with the members")
        if members:
            if len(kept) < len(degrees):
                raise ValueError("members of a class below one that keeps none")
            kept.append(members)
        degrees.append(degree)
        sizes.append(size)
    spec = check_invariants(DegreeSpectrum(n, group, tuple(degrees), tuple(sizes), tuple(kept)))
    if str(spec.b) != doc["b"]:
        raise ValueError("top degree disagrees with document")
    eps = epsilon(spec)
    if doc["epsilon"] != str(eps) or doc["epsilon_decimal"] != decimal_str(eps):
        raise ValueError("epsilon disagrees with document")
    if doc["members_complete"] != spec.members_complete:
        raise ValueError("members_complete disagrees with the members")
    return spec


def spectrum_to_csv(spec: DegreeSpectrum) -> str:
    lines = ["degree,multiplicity,members,splits"]
    for degree, size, members in _classes(spec):
        counts = ";".join(str(s) for s in splits("A", members)) if spec.group == "A" else ""
        lines.append(f"{degree},{size},{csv_partition_list(members)},{counts}")
    eps = epsilon(spec)
    lines.append(f"epsilon,{eps},{decimal_str(eps)},")
    return "\n".join(lines) + "\n"


def spectrum_to_text(spec: DegreeSpectrum) -> str:
    eps = epsilon(spec)
    lines = [
        f"group: {spec.group}_{spec.n}",
        f"distinct degrees: {len(spec.degrees)}",
        f"b: {spec.b}",
        f"top multiplicity: {spec.m1_size}",
        f"epsilon: {eps} ({decimal_str(eps)})",
    ]
    for degree, size, members in _classes(spec):
        listed = "; ".join(
            f"{format_partition(p)}(x{s})" if s > 1 else format_partition(p)
            for p, s in zip(members, splits(spec.group, members))
        )
        suffix = f"  [{listed}]" if listed else ""
        lines.append(f"  {degree} x{size}{suffix}")
    return "\n".join(lines) + "\n"


def report_to_doc(report: VerificationReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "check": report.check,
        "n": report.n,
        "status": report.status,
        "inequalities": [
            {
                "label": q.label,
                "left": str(q.left),
                "relation": q.relation,
                "right": str(q.right),
            }
            for q in report.inequalities
        ],
        "witnesses": [format_partition(w) for w in report.witnesses],
        "notes": list(report.notes),
    }


def graph_to_doc(graph: PartitionGraph) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": graph.n,
        "components": [
            [format_partition(v) for v in comp] for comp in graph.components
        ],
    }


def graph_from_doc(doc: dict) -> PartitionGraph:
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    n = int(doc["n"])
    comps = tuple(
        tuple(parse_partition(t, max_n=n) for t in comp) for comp in doc["components"]
    )
    if any(sum(parts) != n for comp in comps for parts in comp):
        raise ValueError(f"a vertex is not a partition of {n}")
    return PartitionGraph(n, comps)


def graph_to_dot(graph: PartitionGraph) -> str:
    lines = [f"graph partitions_of_{graph.n} {{"]
    for comp in graph.components:
        if len(comp) == 1:
            lines.append(f'  "{format_partition(comp[0])}";')
            continue
        for a, b in zip(comp, comp[1:]):
            lines.append(f'  "{format_partition(a)}" -- "{format_partition(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
