"""Traced, in-process run of one chardeg command, for the per-layer metrics.

    python3 perfbench/tracer.py OUT.json -- <chardeg arguments>
    python3 perfbench/tracer.py OUT.json --pool-replay N WORKERS

The first form wraps the public functions of every chardeg module, at every
module that has imported them, then calls ``chardeg.cli.main(argv)``.  The
command's stdout is left untouched so the caller can compare it with an
untraced run.  Per span name it records calls, inclusive time and self time
(the span minus its child spans); it also records counters, and the coarse
spans themselves as (id, name, start, end, parent id).  Everything stays in
memory until the command returns and is then written to OUT.json.

Hot leaf functions (hook products, conjugation, single-node moves and each
``next()`` of the partition generators) are aggregated but not stored one
span per call, which would hold millions of spans.  Spans inside pool
workers are not collected.

The second form times ``spectrum_sn(N)`` untraced with one worker and with
WORKERS, and writes the ratio; it stands in for the spans the pool workers
keep.

chardeg must be importable, e.g. with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

MODULES = ("partitions", "hooks", "spectrum", "graph", "report", "serialize", "cache", "cli", "exact")

# (module, function, span name, stored as individual spans)
WRAPPED = [
    ("partitions", "conjugate", "partitions.conjugate", False),
    ("partitions", "lambda_up", "partitions.moves", False),
    ("partitions", "lambda_dn", "partitions.moves", False),
    ("partitions", "lambda_to_1", "partitions.moves", False),
    ("partitions", "move_node", "partitions.moves", False),
    ("partitions", "add_node", "partitions.moves", False),
    ("partitions", "remove_node", "partitions.moves", False),
    ("partitions", "addable_nodes", "partitions.moves", False),
    ("partitions", "removable_nodes", "partitions.moves", False),
    ("hooks", "hook_lengths", "hooks.hook_lengths", False),
    ("hooks", "hook_product", "hooks.hook_product", False),
    ("spectrum", "spectrum_sn", "spectrum.build", True),
    ("spectrum", "spectrum_an", "spectrum.build", True),
    ("graph", "build_graph", "graph.build_graph", True),
    ("serialize", "spectrum_to_doc", "serialize.to_doc", True),
    ("serialize", "report_to_doc", "serialize.to_doc", False),
    ("serialize", "graph_to_doc", "serialize.to_doc", True),
    ("serialize", "json_text", "serialize.json_text", True),
    ("serialize", "spectrum_from_doc", "serialize.from_doc", True),
    ("serialize", "graph_from_doc", "serialize.from_doc", True),
    ("cache", "load_spectrum", "cache.load", True),
    ("cache", "store_spectrum", "cache.store", True),
    ("cli", "main", "cli", True),
]
GENERATORS = [
    ("partitions", "enumerate_partitions", "partitions.enumerate", "partitions.enumerated"),
    ("partitions", "iter_moves", "partitions.moves", "partitions.moves_yielded"),
]
# check functions, by the name ``verify --checks`` gives them
CHECKS = [
    ("spectrum", "verify_theorem1", "theorem1"),
    ("spectrum", "verify_theorem2", "theorem2"),
    ("spectrum", "sandwich_check", "sandwich"),
    ("graph", "ratio_lemma_check", "ratio-lemma"),
    ("graph", "low_degree_count_check", "count-lemmas"),
    ("graph", "low_degree_count_check_all", "count-lemmas"),
    ("graph", "near_max_count_check", "count-lemmas"),
    ("graph", "near_max_count_check_all", "count-lemmas"),
    ("spectrum", "move_scan_verify", "move-scan"),
    ("spectrum", "induced_bound_check", "induced-bound"),
    ("spectrum", "epsilon_lower_bounds", "epsilon-bounds"),
]


class Tracer:
    """Spans, per-name totals and counters of one traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # frame: [start, child time, span id]; the root frame never closes
        self.stack = [[self.origin, 0.0, 0]]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.check_depth = 0

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def timed(self, name: str, fn, stored: bool):
        """``fn`` wrapped in a span called ``name``."""
        stack, clock, spans = self.stack, self.clock, self.spans
        total = self.totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) + 1 if stored else parent[2]
            if stored:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[1]
                parent[1] += dur
                if stored:
                    spans[span_id - 1] = (span_id, name, frame[0], end, parent[2])

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, name: str, counter: str, fn):
        """``fn`` wrapped so that each ``next()`` is one span called ``name``."""
        stack, clock = self.stack, self.clock
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [clock(), 0.0, parent[2]]
                stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[0]
                    total[0] += 1
                    total[1] += dur
                    total[2] += dur - frame[1]
                    parent[1] += dur
                counts[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def check(self, name: str, fn):
        """A check function in a span, counting the reports that reach the CLI.

        A check called from inside another check (``move-scan`` re-runs the
        theorem checks) gets its own span but is not counted as a report.
        """
        inner = self.timed(f"check.{name}", fn, stored=True)
        reports_key = f"check.{name}.reports"
        self.counts.setdefault(reports_key, 0)

        def wrapper(*args, **kwargs):
            top = self.check_depth == 0
            self.check_depth += 1
            try:
                report = inner(*args, **kwargs)
            finally:
                self.check_depth -= 1
            if top:
                self.count(reports_key)
                self.count("report.reports")
                verdict = report.status in ("pass", "fail")
                self.count("report.failed", report.status == "fail")
                self.count("report.vacuous", verdict and not report.inequalities)
                self.count("report.inconsistent", not report.consistent())
            return report

        wrapper.__wrapped__ = fn
        return wrapper

    def document(self) -> dict:
        return {
            "totals": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [s for s in self.spans if s is not None],
        }


def _rebind(modules, original, replacement) -> None:
    bound = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError(f"no chardeg module binds {original!r}")


def install(tracer: Tracer) -> None:
    """Replace every module binding of each wrapped function with its wrapper."""
    import chardeg

    modules = [chardeg] + [importlib.import_module(f"chardeg.{m}") for m in MODULES]
    mod = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
    wrappers = {}
    for module, attr, name, stored in WRAPPED:
        fn = getattr(mod[module], attr)
        wrappers[fn] = tracer.timed(name, fn, stored)
    for module, attr, name, counter in GENERATORS:
        fn = getattr(mod[module], attr)
        wrappers[fn] = tracer.timed_generator(name, counter, fn)
    for module, attr, name in CHECKS:
        fn = getattr(mod[module], attr)
        wrappers[fn] = tracer.check(name, fn)
    for fn, wrapper in wrappers.items():
        _rebind(modules, fn, wrapper)
    # a second layer, outside the spans, counts what the calls returned
    for fn, wrapper in _outcome_counters(tracer, mod).items():
        _rebind(modules, fn, wrapper)


def _outcome_counters(tracer: Tracer, mod: dict) -> dict:
    """Wrappers that count memo hits, cache traffic, output bytes and workers."""
    for key in ("spectrum.memo_hits", "spectrum.memo_misses", "spectrum.pool_workers",
                "cache.hits", "cache.misses", "cache.bytes_read", "cache.bytes_written",
                "serialize.bytes_out"):
        tracer.count(key, 0)
    builds = tracer.totals["spectrum.build"]
    cached_spectrum = mod["spectrum"].cached_spectrum
    json_text = mod["serialize"].json_text
    load_spectrum = mod["cache"].load_spectrum
    store_spectrum = mod["cache"].store_spectrum
    cache_path = mod["cache"].cache_path

    def memo(group, n):
        before = builds[0]
        spec = cached_spectrum(group, n)
        tracer.count("spectrum.memo_misses" if builds[0] > before else "spectrum.memo_hits")
        return spec

    def counted_json_text(doc):
        text = json_text(doc)
        tracer.count("serialize.bytes_out", len(text.encode("utf-8")))
        return text

    def load(cache_dir, group, n):
        spec = load_spectrum(cache_dir, group, n)
        if spec is None:
            tracer.count("cache.misses")
        else:
            tracer.count("cache.hits")
            tracer.count("cache.bytes_read", os.path.getsize(cache_path(cache_dir, group, n)))
        return spec

    def store(cache_dir, spec):
        path = store_spectrum(cache_dir, spec)
        tracer.count("cache.bytes_written", os.path.getsize(path))
        return path

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers = max_workers or os.cpu_count() or 1
            counts = tracer.counts
            counts["spectrum.pool_workers"] = max(counts["spectrum.pool_workers"], workers)
            super().__init__(max_workers, *args, **kwargs)

    return {
        cached_spectrum: memo,
        json_text: counted_json_text,
        load_spectrum: load,
        store_spectrum: store,
        mod["spectrum"].ProcessPoolExecutor: CountedPool,
    }


def traced_main(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("chardeg.cli")
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        doc = tracer.document()
        doc["argv"] = argv
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


def pool_replay(out_path: str, n: int, workers: int) -> int:
    spectrum = importlib.import_module("chardeg.spectrum")
    seconds = []
    for threads in (1, workers):
        t0 = time.perf_counter()
        spectrum.spectrum_sn(n, threads=threads)
        seconds.append(time.perf_counter() - t0)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "workers": workers, "seconds": seconds,
                   "speedup": seconds[0] / seconds[1]}, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[1] == "--":
        return traced_main(argv[0], argv[2:])
    if len(argv) == 4 and argv[1] == "--pool-replay":
        return pool_replay(argv[0], int(argv[2]), int(argv[3]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
