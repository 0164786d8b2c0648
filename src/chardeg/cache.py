"""On-disk cache of the spectra above MEMBER_CAP, which keep the members of
their top two classes only and load faster than they build.

One JSON file per (group, n), keyed by schema version.  Entries whose
schema does not match, that fail to parse or have the wrong shape, that
violate the spectrum mass invariant, or that store other members than a
fresh build would are silently recomputed; the cache can speed things up
but must never change a result.  Writes go through a temp file and an
atomic rename.  An entry holds only the schema, the producer and the
spectrum, so its bytes depend on nothing but the result.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import __version__
from .serialize import SCHEMA_VERSION, spectrum_from_doc, spectrum_to_doc
from .spectrum import DegreeSpectrum, has_built_members


def cache_path(cache_dir: str | Path, group: str, n: int) -> Path:
    return Path(cache_dir) / f"{group.lower()}{n:03d}.json"


def load_spectrum(cache_dir: str | Path, group: str, n: int) -> DegreeSpectrum | None:
    path = cache_path(cache_dir, group, n)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry.get("schema") != SCHEMA_VERSION:
            return None
        doc = entry["spectrum"]
        if doc.get("group") != group.upper() or doc.get("n") != n:
            return None  # before the mass check computes n! for another n
        spec = spectrum_from_doc(doc)
        if not has_built_members(spec):
            return None  # a hit must print what a fresh build prints
        return spec
    # AttributeError: a list, number or null where an object or string belongs
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def store_spectrum(cache_dir: str | Path, spec: DegreeSpectrum) -> Path:
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = cache_path(directory, spec.group, spec.n)
    entry = {
        "schema": SCHEMA_VERSION,
        "producer": f"chardeg {__version__}",
        "spectrum": spectrum_to_doc(spec),
    }
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
