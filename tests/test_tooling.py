"""The benchmark still runs against the library: its tracer finds every
name it wraps, and its checker accepts what the CLI prints.  Every source
file parses at the oldest Python that pyproject.toml supports, the
library reads no environment variable, each of its functions and
classes that no other library code reads is listed with a reason,
README's flag table lists the flags each command's parser takes, and the
pin table reaches every command in every format."""

import argparse
import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chardeg import cli

from pins import PINS

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # install() raises when a name it wraps is gone from chardeg
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_cache_traffic(tmp_path):
    # a cold then a warm traced spectrum above the member cap, the only
    # spectra the cache keeps, run the tracer's load and store wrappers
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    counts = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.json"
        proc = subprocess.run(
            [sys.executable, "perfbench/tracer.py", str(out), "--", "spectrum", "--n", "41",
             "--cache-dir", str(cache_dir), "--format", "json"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.md5(proc.stdout.encode()).hexdigest() == PINS["s41-json"].md5
        counts.append(json.loads(out.read_text())["counts"])
    size = (cache_dir / "s041.json").stat().st_size
    cold, warm = counts
    assert cold["cache.misses"] == 1 and cold["cache.hits"] == 0
    assert cold["cache.bytes_written"] == size
    assert warm["cache.hits"] == 1 and warm["cache.misses"] == 0
    assert warm["cache.bytes_read"] == size and warm["cache.bytes_written"] == 0


def test_tracer_passes_a_csv_hit_through(tmp_path):
    # the tracer's load wrapper hands on whatever load_spectrum returns, so
    # a warm csv run renders the loaded spectrum and prints the cold bytes
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    runs = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.json"
        proc = subprocess.run(
            [sys.executable, "perfbench/tracer.py", str(out), "--", "spectrum", "--n", "41",
             "--cache-dir", str(cache_dir), "--format", "csv"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, json.loads(out.read_text())["counts"]))
    (cold, cold_counts), (warm, warm_counts) = runs
    assert cold_counts["cache.misses"] == 1 and cold_counts["cache.hits"] == 0
    assert warm_counts["cache.hits"] == 1 and warm_counts["cache.misses"] == 0
    assert warm == cold and cold.startswith("degree,multiplicity,members,splits\n")


def test_importing_the_cli_leaves_the_pool_unimported():
    # only spectrum above the member cap with two or more workers starts a
    # pool, so concurrent.futures is imported when the first pool starts
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chardeg.cli; print('concurrent.futures' in sys.modules)"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool of 2 needs 2 CPUs")
def test_tracer_counts_pool_workers(tmp_path):
    # the tracer rebinds spectrum.ProcessPoolExecutor, which _build looks up
    # when it starts the pool
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(out), "--", "spectrum", "--n", "41",
         "--threads", "2", "--format", "json"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == PINS["s41-json"].md5
    assert json.loads(out.read_text())["counts"]["spectrum.pool_workers"] == 2


@pytest.mark.parametrize("workload", ["paper-sweep", "spectrum-50"])
def test_benchmark_smoke_run(tmp_path, workload):
    # a copy of the tree, so the run's results land under tmp_path; with
    # --trace 1 the run fails when traced and untraced stdout differ, and
    # every output goes through the benchmark's checker
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


def test_sources_parse_at_the_python_floor():
    # feature_version makes a newer interpreter reject syntax that the
    # requires-python floor lacks, such as except* below 3.11
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    paths = [p for part in ("src", "tests", "perfbench") for p in sorted((ROOT / part).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_library_reads_no_environment_variable():
    # a setting is a command-line flag, never a hidden knob
    env_reads = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted((ROOT / "src" / "chardeg").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                hit = isinstance(node.value, ast.Name) and node.value.id == "os" \
                    and node.attr in env_reads
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(a.name in env_reads for a in node.names)
            else:
                continue
            if hit:
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


# The module-level functions and classes of src/chardeg that no other code in
# src/chardeg names, outside __init__.py's exports, and why each stays.
UNREFERENCED = {
    "graph.low_degree_count_check": "wrapped by perfbench/tracer.py",
    "graph.near_max_count_check": "wrapped by perfbench/tracer.py",
    "partitions.addable_nodes": "wrapped by perfbench/tracer.py",
    "partitions.lambda_to_1": "wrapped by perfbench/tracer.py",
    "serialize.graph_from_doc": "wrapped by perfbench/tracer.py",
    "serialize.spectrum_from_doc": "wrapped by perfbench/tracer.py; the tests' reference parse",
    "serialize.spectrum_to_doc": "wrapped by perfbench/tracer.py; the tests' reference render",
    "graph.neighbors": "reference implementation the tests compare against",
    "hooks.count_standard_tableaux": "reference implementation the tests compare against",
    "hooks.hook_length": "reference implementation the tests compare against",
    "partitions.is_partition": "reference implementation the tests compare against",
}


def test_every_unreferenced_name_has_a_reason():
    # a name is referenced when another definition, or module-level code,
    # reads it as a name or an attribute; a name that goes unreferenced
    # must be listed with a reason, so dead code cannot land unnoticed
    read = {}  # (module, name) of a definition -> the names read inside it
    loose = set()  # the names read outside every definition
    for path in sorted((ROOT / "src" / "chardeg").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                read[path.stem, node.name] = names
            else:
                loose |= names
    unreferenced = {
        f"{module}.{name}" for module, name in read
        if name not in loose
        and not any(name in names for other, names in read.items() if other != (module, name))
    }
    assert unreferenced == UNREFERENCED.keys()


def subcommands(parser):
    """Each command's name and subparser."""
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def test_readme_flag_table_matches_the_parser():
    # README's table lists each command's option strings, -h aside, and the
    # choices of every flag that has them, written a|b, as build_parser does
    table = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "Each command accepts only the flags it honours", 1)[1].split("\n\n")[1]
    documented = {}
    for commands, flags in re.findall(r"^\| (`.+`) \| (.+) \|$", table, re.M):
        options = {}
        for flag in re.findall(r"`(--[^`]+)`", flags):
            option, _, value = flag.partition(" ")
            options[option] = set(value.split("\\|")) if "\\|" in value else None
        for command in re.findall(r"`(\w+)`", commands):
            documented[command] = options
    parsed = {
        command: {option: set(a.choices) if a.choices else None
                  for a in parser._actions for option in a.option_strings
                  if option not in ("-h", "--help")}
        for command, parser in subcommands(cli.build_parser()).items()
    }
    assert documented == parsed


def test_pins_reach_every_command_and_format():
    # every output the CLI can print is under the byte contract; a command
    # without --format is listed with the format None
    parser = cli.build_parser()
    outputs = {
        (command, choice)
        for command, sub in subcommands(parser).items()
        for choice in next((a.choices for a in sub._actions if "--format" in a.option_strings),
                           (None,))
    }
    pinned = {(args.command, getattr(args, "fmt", None))
              for args in (parser.parse_args(pin.argv.split()) for pin in PINS.values())}
    assert outputs <= pinned
