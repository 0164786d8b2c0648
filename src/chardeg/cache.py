"""On-disk cache of the spectra above MEMBER_CAP, which keep the members of
their top two classes only and load faster than they build.

One JSON file per (group, n), byte for byte what ``spectrum --format
json`` prints: ``serialize.spectrum_json`` renders both the entry and
stdout.  A hit is parsed and validated in full, and what it prints is
rendered from the validated spectrum, never copied from the file.  Any
failure to read or admit an entry, too deep a nesting included, is a miss,
and the spectrum is silently recomputed: another schema or layout, the
wrong shape, a ``b`` or ``epsilon`` that the classes do not give, an
identity of ``check_invariants`` broken, a size below 1 or degrees out of
order, or other members than a fresh build.  The cache must never change a
result.  Positive sizes edited below the top two classes still load if
they keep the count and the mass, and for S_n Σ size·degree too; only a
full pass could catch them.  Writes go through a temp file and an atomic
rename.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .serialize import spectrum_from_doc, spectrum_json
from .spectrum import DegreeSpectrum, has_built_members


def cache_path(cache_dir: str | Path, group: str, n: int) -> Path:
    return Path(cache_dir) / f"{group.lower()}{n:03d}.json"


def load_spectrum(cache_dir: str | Path, group: str, n: int) -> DegreeSpectrum | None:
    path = cache_path(cache_dir, group, n)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("group") != group.upper() or doc.get("n") != n:
            return None  # before the invariant check computes n! for another n
        spec = spectrum_from_doc(doc)
        if not has_built_members(spec):
            return None  # a hit must print what a fresh build prints
        return spec
    except Exception:  # any entry that cannot be read or admitted: a miss only costs a build
        return None


def store_spectrum(cache_dir: str | Path, spec: DegreeSpectrum) -> Path:
    """Write ``spec``'s entry; raise ValueError for one load_spectrum rejects."""
    if not has_built_members(spec):
        raise ValueError(f"{spec.group}_{spec.n} is not a spectrum the cache keeps")
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = cache_path(directory, spec.group, spec.n)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(spectrum_json(spec))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
