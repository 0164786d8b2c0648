"""Benchmark of the chardeg CLI, run from outside the package.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a chardeg source tree (it needs ``src/chardeg``).  One
benchmark process runs the ``chardeg`` CLI one command at a time, each command
in a fresh interpreter with ``PYTHONPATH=src``, and checks every output (see
checker.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the failures found and the provenance.

Workloads (their inputs are fixed by the paper's ranges; ``--seed`` is
recorded but changes nothing, because nothing in them is random):

- paper-sweep: ``verify --range 5..40 --checks all --format json``, 1 worker,
  no cache.  Set-up: a fresh interpreter importing ``chardeg.cli``.
- stretch-sweep: ``verify --range 41..49 --checks theorem2,induced-bound``,
  1 worker, no cache.  Same set-up.
- spectrum-50: set-up fills a fresh cache directory with
  ``spectrum --n 50 --group s|a --threads 2 --format json``; the measured
  phase runs the same two commands with 1 worker against the filled cache.

``--trace 0`` runs the set-up repetitions, each followed by its share of
``--seconds`` of passes of the measured commands (at least one pass), and
reports the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once through tracer.py, checks that both give
the same stdout, and reports the per-layer metrics.  ``--smoke`` swaps in
the same commands at n <= 12.  ``--workload all`` runs every workload and
prints all of their metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
RUN_DEADLINE_S = 170  # commands of one workload run still going after this are killed
IMPORT_REPS = 15  # set-up repetitions of an interpreter importing chardeg.cli
FILL_REPS = 3  # set-up repetitions of a cold cache fill
SETUP_WORKERS = 2  # --threads of the spectrum-50 cold fill

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "partitions_per_s": "1/s",
    "ok_frac": "fraction",
}
CHECK_NAMES = ("theorem1", "theorem2", "sandwich", "ratio-lemma", "count-lemmas",
               "move-scan", "induced-bound", "epsilon-bounds")
PER_LAYER = {
    "hooks.hook_products": "count",
    "hooks.products_per_partition": "count/partition",
    "hooks.hook_product_s": "s",
    "hooks.hook_lengths_s": "s",
    "partitions.enumerated": "count",
    "partitions.enumerate_s": "s",
    "partitions.conjugate_calls": "count",
    "partitions.conjugate_s": "s",
    "partitions.moves_s": "s",
    "spectrum.builds": "count",
    "spectrum.build_s": "s",
    "spectrum.build_self_s": "s",
    "spectrum.memo_hits": "count",
    "spectrum.memo_misses": "count",
    "spectrum.pool_workers": "count",
    "spectrum.pool_speedup": "ratio",
    **{f"check.{c}.{m}": u for c in CHECK_NAMES for m, u in (("self_s", "s"), ("reports", "count"))},
    "graph.build_graph_calls": "count",
    "graph.build_graph_s": "s",
    "report.reports": "count",
    "report.failed": "count",
    "report.vacuous": "count",
    "report.inconsistent": "count",
    "serialize.to_doc_s": "s",
    "serialize.json_text_s": "s",
    "serialize.from_doc_s": "s",
    "serialize.bytes_out": "bytes",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


class GuardError(ValueError):
    """A setting run.py refuses before it starts any process."""


def check_workers(threads: int) -> int:
    """The worker count to pass as --threads, never above os.cpu_count()."""
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise GuardError(f"--threads {threads} outside 1..{cpus} (os.cpu_count())")
    return threads


def partition_counts(limit: int) -> list[int]:
    """p(0..limit), counted here rather than by the program under test."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    verify_range: tuple[int, int] | None = None
    checks: str = ""
    spectrum_n: int | None = None

    def partitions(self) -> int:
        """Partitions of every n that one pass of the measured commands covers."""
        if self.verify_range:
            lo, hi = self.verify_range
            return sum(partition_counts(hi)[lo:])
        return 2 * partition_counts(self.spectrum_n)[self.spectrum_n]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-sweep", verify_range=(5, 40), checks="all"),
        Workload("stretch-sweep", verify_range=(41, 49), checks="theorem2,induced-bound"),
        Workload("spectrum-50", spectrum_n=50),
    )
}
SMOKE = {
    "paper-sweep": {"verify_range": (5, 12)},
    "stretch-sweep": {"verify_range": (10, 12)},
    "spectrum-50": {"spectrum_n": 12},
}


@dataclass
class Plan:
    """Every command of one run, built (and guarded) before any process starts.

    Repetition k runs ``setup[k]`` and then passes of ``measured[k]``.
    Interleaving the set-up repetitions with the passes spreads the passes
    over the whole run, so one burst of load from other processes on the
    machine moves fewer of them.
    """

    setup: list[list[list[str]]]
    measured: list[list[list[str]]]
    groups: list[str] = field(default_factory=list)  # spectrum group per measured command


def chardeg(*args: str) -> list[str]:
    return [sys.executable, "-m", "chardeg.cli", *args]


def make_plan(w: Workload, work: Path, prefix: str = "cache") -> Plan:
    if w.verify_range:
        lo, hi = w.verify_range
        sweep = chardeg("verify", "--range", f"{lo}..{hi}", "--checks", w.checks,
                        "--format", "json", "--threads", str(check_workers(1)))
        imports = [sys.executable, "-c", "import chardeg.cli"]
        return Plan([[imports]] * IMPORT_REPS, [[sweep]] * IMPORT_REPS)
    n = str(w.spectrum_n)
    cold = str(check_workers(SETUP_WORKERS))
    warm = str(check_workers(1))
    groups = ["S", "A"]

    def spectrum(group, threads, rep):
        return chardeg("spectrum", "--n", n, "--group", group.lower(), "--threads", threads,
                       "--cache-dir", str(work / f"{prefix}{rep}"), "--format", "json")

    return Plan([[spectrum(g, cold, rep) for g in groups] for rep in range(FILL_REPS)],
                [[spectrum(g, warm, rep) for g in groups] for rep in range(FILL_REPS)],
                groups)


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    out: Path
    err: Path

    def stdout(self) -> bytes:
        """The command's stdout; its file is removed once read."""
        data = self.out.read_bytes()
        self.out.unlink()
        return data

    def stderr_tail(self) -> str:
        return self.err.read_text(encoding="utf-8", errors="replace")[-300:].strip()


class Runner:
    """Runs one command at a time from the source root and waits for it."""

    def __init__(self, root: Path, work: Path):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("CHARDEG_CACHE_DIR", None)
        # one string-hash layout for every command, so dict and set layouts
        # do not vary from one interpreter to the next
        self.env["PYTHONHASHSEED"] = "0"
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.seq = 0
        self.peak_kb = 0

    def run(self, argv: list[str]) -> Proc:
        self.seq += 1
        out, err = self.work / f"out{self.seq}", self.work / f"err{self.seq}"
        with open(out, "wb") as fh_out, open(err, "wb") as fh_err:
            t0 = time.perf_counter()
            # its own process group, so a timeout also ends the pool workers
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh_out, stderr=fh_err, start_new_session=True)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timeout = max(self.deadline - time.monotonic(), 0.0)
                    ready, _, _ = select.select([pidfd], [], [], timeout)
                finally:
                    os.close(pidfd)
                if not ready:
                    os.killpg(proc.pid, signal.SIGKILL)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return Proc(code, wall, usage.ru_utime + usage.ru_stime, out, err)


class Outputs:
    """Checks every output of a run and tallies the operations."""

    def __init__(self, w: Workload):
        self.n = w.spectrum_n
        self.tally = checker.Tally()
        self.errors: list[str] = []
        self.reference: dict[str, tuple] = {}

    def verify(self, p: Proc, data: bytes) -> None:
        ref = self.reference.get("verify")
        if ref is not None and data == ref[0]:
            # byte-identical to a checked pass: the same verdicts again
            tally, errors = ref[1], ref[2]
        else:
            tally, errors = checker.check_verify_output(data.decode("utf-8", "replace"), p.code)
            if ref is None:
                self.reference["verify"] = (data, tally, errors)
            else:
                errors = errors + ["verify output differs between passes"]
        if errors and p.code not in (0, 1):
            errors = errors + [f"stderr: {p.stderr_tail()}"]
        self.tally.merge(tally)
        self.errors.extend(errors)

    def spectrum(self, p: Proc, data: bytes, group: str, label: str) -> None:
        """Check one output; later outputs must match the first byte for byte."""
        if p.code != 0:
            self.errors.append(f"{label} spectrum {group}_{self.n} exited {p.code}: "
                               f"{p.stderr_tail()}")
        ref = self.reference.get(group)
        if ref is None:
            problems = checker.spectrum_problems(data.decode("utf-8", "replace"), group, self.n)
            self.reference[group] = (data, problems)
        else:
            problems = checker.warm_problems(data, ref[0], f"{label} {group}_{self.n}") or ref[1]
        self.tally.add(problems)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.errors


def measure(w: Workload, plan: Plan, runner: Runner, outputs: Outputs, seconds: int) -> dict:
    """Set-up repetitions, each followed by its share of ``seconds`` of passes."""
    setup_times, walls, cpus = [], [], []
    reps = len(plan.setup)
    for k in range(reps):
        procs = [runner.run(argv) for argv in plan.setup[k]]
        setup_times.append(sum(p.wall for p in procs))
        if plan.groups:
            for p, group in zip(procs, plan.groups):
                outputs.spectrum(p, p.stdout(), group, "cold")
        elif procs[0].code != 0:
            outputs.errors.append(f"set-up import exited {procs[0].code}: {procs[0].stderr_tail()}")
        # Start another pass only if it should end nearer the target than
        # stopping now does, so a run measures ``seconds`` give or take half a
        # pass and its length does not depend on where the last pass fell.
        while not walls or (sum(walls) + statistics.median(walls) / 2 < seconds * (k + 1) / reps
                            and time.monotonic() < runner.deadline):
            procs = [runner.run(argv) for argv in plan.measured[k]]
            walls.append(sum(p.wall for p in procs))
            cpus.append(sum(p.cpu for p in procs))
            if plan.groups:
                for p, group in zip(procs, plan.groups):
                    outputs.spectrum(p, p.stdout(), group, "warm")
            else:
                outputs.verify(procs[0], procs[0].stdout())
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": runner.peak_kb / 1024,
        "partitions_per_s": w.partitions() / wall,
        "ok_frac": 1 - outputs.tally.failed / max(outputs.tally.attempted, 1),
        "_samples": {"passes": len(walls), "walls": walls, "cpus": cpus,
                     "setup": setup_times},
    }


def trace_run(w: Workload, work: Path, runner: Runner, outputs: Outputs) -> dict:
    """One untraced and one traced run of every command; per-layer metrics.

    For spectrum-50 both runs include one cold fill, each into its own cache
    directory, because the pool, the cache writes and most serialization
    happen there.
    """
    plans = [make_plan(w, work, prefix) for prefix in ("cache", "tcache")]
    setup = [p.setup[0] if p.groups else [] for p in plans]
    commands = [s + p.measured[0] for s, p in zip(setup, plans)]
    in_measured = [i >= len(setup[0]) for i in range(len(commands[0]))]
    plain, plain_out = [], []
    for argv in commands[0]:
        plain.append(runner.run(argv))
        plain_out.append(plain[-1].stdout())
    if plans[0].groups:
        for p, data, group, m in zip(plain, plain_out, plans[0].groups * 2, in_measured):
            outputs.spectrum(p, data, group, "warm" if m else "cold")
    else:
        outputs.verify(plain[0], plain_out[0])
    docs = []
    traced_wall = untraced_wall = 0.0
    for i, argv in enumerate(commands[1]):
        cli_args = argv[len(chardeg()):]
        doc_path = work / f"trace{i}.json"
        p = runner.run([sys.executable, str(HERE / "tracer.py"), str(doc_path), "--", *cli_args])
        if p.stdout() != plain_out[i] or p.code != plain[i].code:
            outputs.errors.append(f"traced stdout or exit code differs from untraced: {cli_args}")
        try:
            docs.append(json.loads(doc_path.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            outputs.errors.append(f"no trace written for {cli_args}: {p.stderr_tail()}")
        if in_measured[i]:
            traced_wall += p.wall
            untraced_wall += plain[i].wall
    workers = max((d["counts"].get("spectrum.pool_workers", 0) for d in docs), default=0)
    speedup = 1.0  # no pool started, no speed-up
    if workers > 1:
        replay = work / "pool-replay.json"
        rp = runner.run([sys.executable, str(HERE / "tracer.py"), str(replay),
                         "--pool-replay", str(w.spectrum_n), str(check_workers(workers))])
        if rp.code == 0:
            speedup = json.loads(replay.read_text(encoding="utf-8"))["speedup"]
        else:
            outputs.errors.append(f"pool replay exited {rp.code}: {rp.stderr_tail()}")
    per_command = w.partitions() // len(plans[0].measured[0])
    metrics = layer_metrics(docs, per_command * len(docs), traced_wall / untraced_wall - 1,
                            workers, speedup)
    metrics["_samples"] = {"spans": [{"argv": d["argv"], "spans": d["spans"]} for d in docs]}
    return metrics


def layer_metrics(docs: list[dict], partitions: int, overhead: float, workers: int,
                  speedup: float) -> dict:
    def span(name, key="self_s"):
        return sum(d["totals"].get(name, {}).get(key, 0.0) for d in docs)

    def calls(name):
        return sum(d["totals"].get(name, {}).get("calls", 0) for d in docs)

    def count(key):
        return sum(d["counts"].get(key, 0) for d in docs)

    m = {
        "hooks.hook_products": calls("hooks.hook_product"),
        "hooks.products_per_partition": calls("hooks.hook_product") / max(partitions, 1),
        "hooks.hook_product_s": span("hooks.hook_product"),
        "hooks.hook_lengths_s": span("hooks.hook_lengths"),
        "partitions.enumerated": count("partitions.enumerated"),
        "partitions.enumerate_s": span("partitions.enumerate"),
        "partitions.conjugate_calls": calls("partitions.conjugate"),
        "partitions.conjugate_s": span("partitions.conjugate"),
        "partitions.moves_s": span("partitions.moves"),
        "spectrum.builds": calls("spectrum.build"),
        "spectrum.build_s": span("spectrum.build", "inclusive_s"),
        "spectrum.build_self_s": span("spectrum.build"),
        "spectrum.memo_hits": count("spectrum.memo_hits"),
        "spectrum.memo_misses": count("spectrum.memo_misses"),
        "spectrum.pool_workers": workers,
        "spectrum.pool_speedup": speedup,
    }
    for c in CHECK_NAMES:
        m[f"check.{c}.self_s"] = span(f"check.{c}")
        m[f"check.{c}.reports"] = count(f"check.{c}.reports")
    m.update({
        "graph.build_graph_calls": calls("graph.build_graph"),
        "graph.build_graph_s": span("graph.build_graph"),
        "report.reports": count("report.reports"),
        "report.failed": count("report.failed"),
        "report.vacuous": count("report.vacuous"),
        "report.inconsistent": count("report.inconsistent"),
        "serialize.to_doc_s": span("serialize.to_doc"),
        "serialize.json_text_s": span("serialize.json_text"),
        "serialize.from_doc_s": span("serialize.from_doc"),
        "serialize.bytes_out": count("serialize.bytes_out"),
        "cache.load_s": span("cache.load"),
        "cache.store_s": span("cache.store"),
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "cache.bytes_read": count("cache.bytes_read"),
        "cache.bytes_written": count("cache.bytes_written"),
        "cli.self_s": span("cli"),
        "trace.overhead_frac": overhead,
    })
    return m


def provenance(root: Path) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "chardeg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = dirty = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(w: Workload, root: Path, seconds: int, trace: bool) -> dict:
    work = root / ".perfbench_run" / f"{w.name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        outputs = Outputs(w)
        if trace:
            metrics = trace_run(w, work, runner, outputs)
            units = PER_LAYER
        else:
            metrics = measure(w, make_plan(w, work), runner, outputs, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = metrics.pop("_samples")
    return {
        "workload": w.name,
        "correct": outputs.correct,
        "attempted": outputs.tally.attempted,
        "failed": outputs.tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "samples": samples,
        "problems": outputs.tally.problems + outputs.errors,
    }


def print_result(res: dict) -> None:
    print(f"== {res['workload']}: correct={res['correct']}")
    t = res["attempted"]
    print(f"  failed_frac = {res['failed']}/{t} = {res['failed'] / max(t, 1):.6g} (ops)")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    samples = res["samples"]
    if "spans" in samples:
        print(f"  spans: {sum(len(d['spans']) for d in samples['spans'])}, in the result file")
    else:
        print(f"  samples: {json.dumps(samples)}")
    for line in res["problems"][:20]:
        print(f"  problem: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="the same commands at n <= 12")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "chardeg" / "cli.py").is_file():
        print(f"error: no chardeg source under {root / 'src'}; run from the source root",
              file=sys.stderr)
        return 1
    if not 1 <= args.seconds <= 3600:
        print("error: --seconds must be within 1..3600", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[n] for n in names]
    if args.smoke:
        workloads = [replace(w, **SMOKE[w.name]) for w in workloads]
    try:
        for w in workloads:  # guard every plan before the first process starts
            make_plan(w, root)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance(root)
    print(f"provenance: {json.dumps(prov)}")
    results = {}
    for w in workloads:
        res = run_workload(w, root, args.seconds, bool(args.trace))
        res.update(seed=args.seed, seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                   provenance=prov)
        print_result(res)
        results_dir = root / ".perfbench_run" / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{w.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
        (results_dir / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n",
                                                  encoding="utf-8")
        results[w.name] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
