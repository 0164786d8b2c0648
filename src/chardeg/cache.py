"""On-disk cache of the spectra above MEMBER_CAP, which keep the members of
their top two classes only and load faster than they build.

One JSON file per (group, n), byte for byte what ``spectrum --format
json`` prints: ``serialize.spectrum_json`` renders both the entry and
stdout.  A hit must be that render exactly.  ``serialize.parse_spectrum_json``
admits only the text that ``spectrum_json`` writes for the spectrum it
parses and validates in full, and returns that spectrum: the same
``DegreeSpectrum`` a build returns, degree and size columns and the top
two classes' members.  So a hit serves every format from one value, and
``--format json`` prints the entry's own text, which the parse has proved
to be the render of that spectrum.  The entry is read as bytes and
decoded as UTF-8 without newline translation, so CRLF line ends, another
indent or an extra key are misses too.  Any failure to read or admit an
entry is a miss, and the spectrum is silently recomputed: another schema
or layout, a ``b`` or ``epsilon`` that the classes do not give, an
identity of ``check_invariants`` broken, a size below 1 or degrees out of
order, or other members than ``has_built_members`` allows, the one rule
for what the cache keeps, which ``store_spectrum`` applies too.  The
cache must never change a result.  Positive sizes edited below the top
two classes still load if they keep the count and the mass, and for S_n
Σ size·degree too; only a full pass could catch them.  Writes go through
``write_atomic``, a temp file and an atomic rename, which ``scan`` uses
for its CSV as well.
"""

from __future__ import annotations

import os
from pathlib import Path

from .serialize import parse_spectrum_json, spectrum_json
from .spectrum import DegreeSpectrum, gc_paused, has_built_members


def cache_path(cache_dir: str | Path, group: str, n: int) -> Path:
    return Path(cache_dir) / f"{group.lower()}{n:03d}.json"


def load_spectrum(
    cache_dir: str | Path, group: str, n: int
) -> tuple[DegreeSpectrum, str] | None:
    """The entry for (group, n) as its validated spectrum and its text,
    which is ``spectrum_json`` of that spectrum; None for any miss.  The
    parse allocates no reference cycles, so it runs in ``gc_paused``."""
    path = cache_path(cache_dir, group, n)
    try:
        with gc_paused():
            text = path.read_bytes().decode("utf-8")
            return parse_spectrum_json(text, group.upper(), n), text
    except Exception:  # any entry that cannot be read or admitted: a miss only costs a build
        return None


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and an atomic
    rename, creating the parent directory; a failed write leaves no temp
    file, and any earlier file at ``path`` as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def store_spectrum(cache_dir: str | Path, spec: DegreeSpectrum) -> Path:
    """Write ``spec``'s entry; raise ValueError for one load_spectrum rejects."""
    if not has_built_members(spec):
        raise ValueError(f"{spec.group}_{spec.n} is not a spectrum the cache keeps")
    path = cache_path(cache_dir, spec.group, spec.n)
    write_atomic(path, spectrum_json(spec))
    return path
