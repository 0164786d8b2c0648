"""Command-line surface: formats, cache behavior, exit codes, determinism."""

import gc
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import chardeg
from chardeg import (
    cache,
    cli,
    conjugate,
    count_partitions,
    enumerate_partitions,
    graph,
    partitions,
    spectrum,
)
from chardeg.cache import cache_path, load_spectrum, store_spectrum, write_atomic
from chardeg.hooks import degree_sn
from chardeg.partitions import format_partition, parse_partition
from chardeg.serialize import (
    json_text,
    parse_spectrum_json,
    spectrum_from_doc,
    spectrum_json,
    spectrum_to_doc,
)
from chardeg.spectrum import has_built_members, spectrum_an, spectrum_sn

from pins import PINS


def md5(text):
    # compared instead of the text, whose diff on failure takes minutes at n = 41
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegree:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "degree", "3,1,1")
        assert code == 0
        assert "degree: 6" in out
        assert "self-conjugate: yes" in out
        assert "alternating degree: 3 x2" in out
        assert "hook product: 20" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "degree", "5")
        assert code == 0
        assert "degree: 1" in out
        # A_1 = S_1: its one character does not split
        code, out, _ = run(capsys, "degree", "1")
        assert code == 0
        assert "self-conjugate: yes" in out
        assert "alternating degree: 1 x1" in out

    def test_odd_split_degree_raises(self, capsys, monkeypatch):
        # a character that splits in A_n must have even degree
        monkeypatch.setattr(cli, "splits", lambda group, members: (2,))
        with pytest.raises(ArithmeticError, match="odd degree 1"):
            cli.main(["degree", "3"])

    def test_boundary_ratio(self, capsys):
        code, out, _ = run(capsys, "degree", "2,1")
        assert code == 0
        assert "degree: 2" in out
        assert "boundary: equals 4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "degree", "3,1,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["degree"] == "6"
        assert doc["self_conjugate"] is True
        assert doc["alternating_degree"] == "3"
        assert doc["lambda_up"] == "4,1"

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "degree", "1,3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["degree", "branch"])
    def test_resource_guard(self, capsys, command):
        code, _, err = run(capsys, command, "3,2,1", "--max-n", "5")
        assert code == 2 and "exceeds" in err
        # refused before the exponent is expanded: the list would not fit
        code, _, err = run(capsys, command, "1^100000000000000000")
        assert code == 2 and "exceeds" in err
        code, out, _ = run(capsys, command, "3,2,1", "--max-n", "6")
        assert code == 0 and out


class TestBranch:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "branch", "3,1")
        assert code == 0
        assert "self multiplicity: 2" in out
        assert "degree identity: 4 * 3 = 12" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "branch", "3,1", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["self_multiplicity"] == 2
        got = {c["partition"] for c in doc["constituents"]}
        assert got == {"4", "2,2", "2,1,1"}


def test_degree_and_branch_bytes(capsys):
    # every partition of n = 1..10, both commands, both formats
    digest = hashlib.md5()
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            for cmd in ("degree", "branch"):
                for fmt in ("text", "json"):
                    code, out, _ = run(capsys, cmd, format_partition(lam), "--format", fmt)
                    digest.update(f"{cmd} {fmt} {code} {out}".encode())
    assert digest.hexdigest() == "3498ca77062b5babf8e57e0729afbdef"


def pin_params():
    """One param per row of the pin table; a spectrum row once per worker
    count."""
    for pin_id, pin in PINS.items():
        marks = pytest.mark.stretch if pin.tier == "stretch" else ()
        if pin.argv.startswith("spectrum"):
            for threads in ("1", "2"):
                yield pytest.param(f"{pin.argv} --threads {threads}", pin,
                                   id=f"{pin_id}-{threads}", marks=marks)
        else:
            yield pytest.param(pin.argv, pin, id=pin_id, marks=marks)


@pytest.mark.parametrize(("argv", "pin"), pin_params())
def test_pinned_bytes(capsys, monkeypatch, tmp_path, argv, pin):
    # the byte contract: stdout, exit code and any file written, run in an
    # empty directory so that a relative --out lands there
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv.split())
    assert code == 0 and md5(out) == pin.md5
    written = [hashlib.md5(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()]
    assert written == ([pin.written] if pin.written else [])


class TestSpectrumCmd:
    def test_csv_n5(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "5", "--group", "s", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,multiplicity,members,splits"
        assert lines[1] == "6,1,3 1 1,"
        assert lines[2] == "5,2,3 2;2 2 1,"
        assert lines[3] == "4,2,4 1;2 1 1 1,"
        assert lines[4] == "1,2,5;1 1 1 1 1,"
        assert lines[5] == "epsilon,7/3,2.33333333333,"

    def test_json_a5(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "5", "--group", "a", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["b"] == "5"
        assert doc["epsilon"] == "7/5"
        assert doc["classes"][2] == {
            "degree": "3",
            "size": 2,
            "members": ["3,1,1"],
            "splits": [2],
        }

    def test_text_n1(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "1")
        assert code == 0
        assert "b: 1" in out

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, err = run(capsys, "spectrum", "--n", "5", "--threads", threads)
        assert code == 2 and not out
        assert err == "error: --threads must be at least 1\n"

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "25", "--max-n", "20")
        assert code == 2
        assert "exceeds" in err

    def test_determinism_across_threads(self, capsys, monkeypatch):
        # the pool starts only above the member cap; no cache is read here
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 12)
        _, out1, _ = run(capsys, "spectrum", "--n", "18", "--format", "json")
        _, out2, _ = run(capsys, "spectrum", "--n", "18", "--format", "json", "--threads", "2")
        _, out3, _ = run(capsys, "spectrum", "--n", "18", "--format", "json", "--threads", "3")
        assert out1 == out2 == out3


class TestSpectrumJson:
    """``spectrum_json`` writes the bytes of its reference,
    ``json_text(spectrum_to_doc(spec))``."""

    @pytest.mark.parametrize(
        ("group", "build", "lowest"), [("S", spectrum_sn, 1), ("A", spectrum_an, 2)]
    )
    def test_equals_the_reference_with_every_member(self, group, build, lowest):
        split_counts = set()
        for n in range(lowest, 31):
            spec = build(n)
            doc = spectrum_to_doc(spec)
            assert doc["members_complete"]
            assert spectrum_json(spec) == json_text(doc), f"{group}_{n}"
            split_counts.update(s for c in doc["classes"] for s in c.get("splits", ()))
        assert split_counts == ({1, 2} if group == "A" else set())

    @pytest.mark.parametrize("build", [spectrum_sn, spectrum_an])
    def test_equals_the_reference_when_capped(self, monkeypatch, build):
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        capped = build(12)
        monkeypatch.undo()
        for spec in (capped, build(41)):
            assert not spec.members_complete
            assert md5(spectrum_json(spec)) == md5(json_text(spectrum_to_doc(spec)))

    @pytest.mark.parametrize(("build", "lowest"), [(spectrum_sn, 1), (spectrum_an, 2)])
    def test_parser_inverts_the_render(self, monkeypatch, build, lowest):
        # every class keeps members up to the cap, and only the top two above
        # it; the parse admits only what the cache keeps, the spectra above it
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 9)
        for n in range(lowest, 15):
            spec = build(n)
            text = spectrum_json(spec)
            if n <= 9:
                with pytest.raises(ValueError, match="^members are not the ones"):
                    parse_spectrum_json(text, spec.group, n)
            else:
                assert parse_spectrum_json(text, spec.group, n) == spec, n

    @pytest.mark.parametrize("build", [spectrum_sn, spectrum_an])
    def test_entries_keep_the_layout_json_text_writes(self, monkeypatch, build):
        # so edit_entry, which writes json_text, changes only the values it edits
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        capped = build(12)
        monkeypatch.undo()
        for spec in (capped, build(41)):
            entry = spectrum_json(spec)
            assert json_text(json.loads(entry)) == entry


def edit_entry(path, edit):
    """Edit the entry's document and write it back in the layout a build
    writes, so that only the edited values differ."""
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json_text(doc))


def loaded(cache_dir, group, n):
    """The spectrum of a hit, whose text must be its render; None on a miss."""
    hit = load_spectrum(cache_dir, group, n)
    if hit is None:
        return None
    spec, text = hit
    assert text == spectrum_json(spec)
    return spec


def lenient_load(cache_dir, group, n):
    """The entry read through the lenient reference, json.loads and
    spectrum_from_doc, with the loader's checks on group, n and members:
    what it admits does not depend on the layout."""
    doc = json.loads(cache_path(cache_dir, group, n).read_text())
    try:
        spec = spectrum_from_doc(doc)
    except (ValueError, ArithmeticError):
        return None
    if doc["group"] != group or doc["n"] != n or not has_built_members(spec):
        return None
    return spec


def assert_value_miss(cache_dir, group, n):
    """The entry keeps the layout a build writes, and is a miss for the
    lenient reference too: a value check refuses it, not the layout."""
    text = cache_path(cache_dir, group, n).read_text()
    assert json_text(json.loads(text)) == text
    assert lenient_load(cache_dir, group, n) is None
    assert load_spectrum(cache_dir, group, n) is None


def plant_entry(cache_dir, spec):
    """Write ``spec``'s document where its entry goes, whether or not the
    cache would keep it."""
    path = cache_path(cache_dir, spec.group, spec.n)
    path.write_text(json_text(spectrum_to_doc(spec)))
    return path


def entry_is_a_list(path):
    path.write_text("[]")


def spectrum_is_a_list(path):
    path.write_text(json.dumps({"schema": 1, "spectrum": []}))


def entry_is_nested(path):
    """Nesting too deep for the JSON decoder, which raises RecursionError."""
    path.write_text("[" * 200000 + "]" * 200000)


def member_is_a_number(path):
    def edit(doc):
        doc["classes"][0]["members"][0] = 5

    edit_entry(path, edit)


def top_member_reads_n(doc):
    """The top class's first member becomes the one-row partition (n): a
    partition of n, but not of the class's degree."""
    doc["classes"][0]["members"][0] = str(doc["n"])


def member_of_a_smaller_n(doc):
    doc["classes"][1]["members"][0] = "5"


def members_ascending(doc):
    doc["classes"][1]["members"].reverse()


def member_in_two_classes(doc):
    doc["classes"][1]["members"][0] = doc["classes"][0]["members"][0]


def member_not_a_representative(doc):
    doc["classes"][0]["members"][0] = "3,1,1,1"  # the conjugate of 4,1,1


def marked_complete(doc):
    doc["members_complete"] = True


def split_without_member(doc):
    doc["classes"][0]["splits"].append(0)  # leaves the character count as is


def member_of_n_6_with_the_degree(doc):
    """2,2,2 replaces 3,2,1,1 in S_7's top class: a partition of 6 whose hook
    product, 144 = 7!/35, gives back the class degree."""
    doc["classes"][0]["members"][1] = "2,2,2"


def swap_lower_members(doc):
    """Exchange 4,2 (degree 9) and 6 (degree 1) in an all-members S_6
    entry, each class kept strictly descending."""
    swap = {"4,2": "6", "6": "4,2"}
    for c in doc["classes"]:
        c["members"] = sorted((swap.get(m, m) for m in c["members"]),
                              key=parse_partition, reverse=True)


def swap_lower_classes(doc):
    classes = doc["classes"]
    classes[2], classes[3] = classes[3], classes[2]


def split_a_lower_class(doc):
    """A class below the top two becomes two entries of its degree."""
    classes = doc["classes"]
    i = next(i for i, c in enumerate(classes) if i >= 2 and c["size"] >= 2)
    classes.insert(i + 1, dict(classes[i], size=1))
    classes[i]["size"] -= 1


def add_empty_class(doc):
    """A class of size 0 between the third and fourth degree."""
    classes = doc["classes"]
    above, below = int(classes[2]["degree"]), int(classes[3]["degree"])
    assert above - below >= 2
    entry = dict(classes[3], degree=str((above + below) // 2), size=0)
    classes.insert(3, entry)


def negative_size_keeping_mass(doc):
    """The third class drops to size -1; the degree-1 class at the end takes
    its squared-degree mass."""
    classes = doc["classes"]
    moved = classes[2]["size"] + 1
    classes[2]["size"] = -1
    assert classes[-1]["degree"] == "1"
    classes[-1]["size"] += moved * int(classes[2]["degree"]) ** 2


def wrong_epsilon(doc):
    doc["epsilon"] = "1/2"
    doc["epsilon_decimal"] = "0.5"


def wrong_epsilon_decimal(doc):
    doc["epsilon_decimal"] += "1"  # a digit past the 12 significant ones a build writes


def sizes_moved(moves):
    """Add ``moves[degree]`` to the size of the class of each degree."""

    def edit(doc):
        assert {int(c["degree"]) for c in doc["classes"]} >= moves.keys()
        for c in doc["classes"]:
            c["size"] += moves.get(int(c["degree"]), 0)

    return edit


def entry_reindented(path):
    path.write_text(json.dumps(json.loads(path.read_text()), indent=4))


def entry_breaks_the_count(path):
    """S_12 only: the mass is kept, the character count is not."""
    edit_entry(path, sizes_moved({4455: -1, 3564: 1, 2673: 1}))


def entry_has_a_wrong_member(path):
    edit_entry(path, top_member_reads_n)


def entry_is_a_directory(path):
    path.unlink()
    path.mkdir()


@pytest.fixture
def gc_state():
    """Set the collector's state for a test and restore it afterwards."""
    was = gc.isenabled()
    yield {True: gc.enable, False: gc.disable}
    (gc.enable if was else gc.disable)()


class TestCache:
    @pytest.fixture(autouse=True)
    def member_cap_5(self, monkeypatch):
        # the cache keeps only spectra above the member cap; with the cap at
        # 5 the small spectra these tests write and read are on that side
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)

    @pytest.mark.parametrize(
        "corrupt", [entry_is_a_list, spectrum_is_a_list, member_is_a_number, entry_is_nested]
    )
    def test_wrong_shape_is_a_miss(self, capsys, tmp_path, corrupt):
        _, cold, _ = run(capsys, "spectrum", "--n", "6")
        corrupt(store_spectrum(tmp_path, spectrum_sn(6)))
        assert load_spectrum(tmp_path, "S", 6) is None
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--cache-dir", str(tmp_path))
        assert code == 0 and out == cold

    # the edited member is a partition of n in no other class: just its
    # degree gives it away
    @pytest.mark.parametrize(("group", "n", "capped"), [("S", 12, True), ("A", 12, True)])
    def test_wrong_top_member_is_a_miss(self, capsys, tmp_path, group, n, capped):
        argv = ("spectrum", "--n", str(n), "--group", group.lower())
        _, cold, _ = run(capsys, *argv)
        path = store_spectrum(tmp_path, (spectrum_sn if group == "S" else spectrum_an)(n))
        assert loaded(tmp_path, group, n).members_complete is not capped
        edit_entry(path, top_member_reads_n)
        assert_value_miss(tmp_path, group, n)
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == cold

    @pytest.mark.parametrize(
        ("group", "edit"),
        [
            ("S", member_of_a_smaller_n),
            ("S", members_ascending),
            ("S", member_in_two_classes),
            ("A", member_not_a_representative),
            ("S", marked_complete),
            ("A", split_without_member),
        ],
    )
    def test_wrong_members_are_a_miss(self, tmp_path, group, edit):
        build = spectrum_sn if group == "S" else spectrum_an
        path = store_spectrum(tmp_path, build(6))
        assert loaded(tmp_path, group, 6) is not None
        edit_entry(path, edit)
        assert_value_miss(tmp_path, group, 6)

    def test_member_of_another_n_with_the_class_degree_is_a_miss(self, tmp_path):
        path = store_spectrum(tmp_path, spectrum_sn(7))
        assert loaded(tmp_path, "S", 7) is not None
        edit_entry(path, member_of_n_6_with_the_degree)
        assert_value_miss(tmp_path, "S", 7)

    def test_incomplete_top_two_is_a_miss(self, tmp_path):
        spec = spectrum_sn(12)
        path = store_spectrum(tmp_path, spec)
        assert loaded(tmp_path, "S", 12) == spec
        edit_entry(path, lambda doc: doc["classes"][1].update(members=[]))
        assert_value_miss(tmp_path, "S", 12)

    # classes below the top two keep no members, so only the document's
    # degree order and sizes, and the epsilon they fix, give these edits away
    @pytest.mark.parametrize("group", ["S", "A"])
    @pytest.mark.parametrize(
        "edit",
        [swap_lower_classes, split_a_lower_class, add_empty_class, negative_size_keeping_mass,
         wrong_epsilon, wrong_epsilon_decimal],
    )
    def test_wrong_lower_classes_are_a_miss(self, capsys, tmp_path, group, edit):
        argv = ("spectrum", "--n", "12", "--group", group.lower())
        _, cold, _ = run(capsys, *argv)
        path = store_spectrum(tmp_path, (spectrum_sn if group == "S" else spectrum_an)(12))
        edit_entry(path, edit)
        assert_value_miss(tmp_path, group, 12)
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == cold

    # each edit keeps the mass and every size positive below the top two;
    # the other identities of check_invariants give it away
    @pytest.mark.parametrize(
        ("group", "n", "moves"),
        [
            ("S", 12, {4455: -1, 3564: 1, 2673: 1}),  # 4455² = 3564² + 2673²
            ("S", 12, {3564: 1, 297: 1, 2673: -1, 2376: -1}),  # keeps the count too
            ("A", 13, {4290: -1, 3432: 1, 2574: 1}),  # 4290² = 3432² + 2574²
        ],
        ids=["S-count", "S-degree-sum", "A-count"],
    )
    def test_size_moves_keeping_the_mass_are_a_miss(self, capsys, tmp_path, group, n, moves):
        argv = ("spectrum", "--n", str(n), "--group", group.lower())
        _, cold, _ = run(capsys, *argv)
        spec = (spectrum_sn if group == "S" else spectrum_an)(n)
        path = store_spectrum(tmp_path, spec)
        assert loaded(tmp_path, group, n) == spec
        edit_entry(path, sizes_moved(moves))
        classes = json.loads(path.read_text())["classes"]
        assert all(c["size"] >= 1 for c in classes)
        assert sum(c["size"] * int(c["degree"]) ** 2 for c in classes) == \
            sum(s * d ** 2 for d, s in zip(spec.degrees, spec.sizes))
        assert_value_miss(tmp_path, group, n)
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == cold

    @pytest.mark.parametrize("group", ["S", "A"])
    def test_extra_members_above_cap_is_a_miss(self, tmp_path, monkeypatch, group):
        build = spectrum_sn if group == "S" else spectrum_an
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 12)
        complete = build(12)
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        capped = build(12)
        store_spectrum(tmp_path, capped)
        assert loaded(tmp_path, group, 12) == capped
        with pytest.raises(ValueError):
            store_spectrum(tmp_path, complete)
        path = plant_entry(tmp_path, complete)
        assert_value_miss(tmp_path, group, 12)
        edit_entry(path, lambda doc: doc.update(members_complete=False))
        assert_value_miss(tmp_path, group, 12)

    def test_capped_entry_does_not_change_stdout(self, capsys, tmp_path):
        _, cold, _ = run(capsys, "spectrum", "--n", "12")
        store_spectrum(tmp_path, spectrum_sn(12))
        assert loaded(tmp_path, "S", 12) is not None  # so the run below is a hit
        code, out, _ = run(capsys, "spectrum", "--n", "12", "--cache-dir", str(tmp_path))
        assert code == 0 and out == cold

    def test_write_and_reuse(self, capsys, tmp_path):
        code, out1, _ = run(
            capsys, "spectrum", "--n", "9", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        # the entry is the document the run printed
        assert cache_path(tmp_path, "S", 9).read_text() == out1
        code, out2, _ = run(
            capsys, "spectrum", "--n", "9", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0 and out2 == out1

    def test_cache_round_trip_identity(self, tmp_path):
        for group, n in (("S", 11), ("A", 11)):
            spec = spectrum_sn(n) if group == "S" else spectrum_an(n)
            store_spectrum(tmp_path, spec)
            hit, text = load_spectrum(tmp_path, group, n)
            assert hit == spec
            assert text == spectrum_json(spec) == cache_path(tmp_path, group, n).read_text()

    def test_corrupt_cache_recomputed(self, capsys, tmp_path):
        path = cache_path(tmp_path, "S", 8)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ this is not json")
        code, out, _ = run(
            capsys, "spectrum", "--n", "8", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["b"] == "90"
        # rewritten with a valid entry
        assert path.read_text() == out

    def test_version_mismatch_recomputed(self, capsys, tmp_path):
        path = cache_path(tmp_path, "S", 8)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = spectrum_to_doc(spectrum_sn(8))
        path.write_text(json_text(dict(doc, schema=99)))
        assert load_spectrum(tmp_path, "S", 8) is None
        code, out, _ = run(
            capsys, "spectrum", "--n", "8", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["b"] == "90"
        assert path.read_text() == out == json_text(doc)

    def test_wrapped_entry_is_replaced(self, capsys, tmp_path):
        # the earlier layout wrapped the document in schema, producer and
        # spectrum keys; it has no group, so it is a miss and is rewritten
        spec = spectrum_sn(12)
        path = cache_path(tmp_path, "S", 12)
        wrapped = {"schema": 1, "producer": "chardeg 0.1.0", "spectrum": spectrum_to_doc(spec)}
        path.write_text(json.dumps(wrapped, indent=2) + "\n")
        assert load_spectrum(tmp_path, "S", 12) is None
        code, out, _ = run(
            capsys, "spectrum", "--n", "12", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0 and out == json_text(spectrum_to_doc(spec))
        assert path.read_text() == out
        assert loaded(tmp_path, "S", 12) == spec

    def test_env_var_is_not_read(self, capsys, tmp_path, monkeypatch):
        # --cache-dir is the one way to name the cache directory
        monkeypatch.setenv("CHARDEG_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "spectrum", "--n", "41", "--format", "json")
        assert code == 0 and md5(out) == PINS["s41-json"].md5
        assert not any(tmp_path.iterdir())

    def test_failed_write_is_a_warning(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        _, expected, _ = run(capsys, "spectrum", "--n", "8")
        code, out, err = run(capsys, "spectrum", "--n", "8", "--cache-dir", str(blocker / "sub"))
        assert code == 0 and out == expected
        assert len(err.splitlines()) == 1 and err.startswith("warning:")
        assert blocker.read_text() == "not a directory"

    def test_failed_rename_leaves_no_temp_file(self, capsys, tmp_path):
        cache_path(tmp_path, "S", 8).mkdir()  # a directory where the entry goes
        (cache_path(tmp_path, "S", 8) / "keep").write_text("")
        code, out, err = run(capsys, "spectrum", "--n", "8", "--cache-dir", str(tmp_path))
        assert code == 0 and out and err.startswith("warning:")
        assert [p.name for p in tmp_path.iterdir()] == ["s008.json"]

    def test_write_atomic(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_atomic(path, "one\n")
        write_atomic(path, "two\n")
        assert path.read_text() == "two\n" and list(path.parent.iterdir()) == [path]
        blocked = tmp_path / "dir"  # a directory where the file goes
        blocked.mkdir()
        (blocked / "keep").write_text("")
        with pytest.raises(OSError):
            write_atomic(blocked, "three\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "dir"]
        assert [p.name for p in blocked.iterdir()] == ["keep"]

    def test_entry_holds_only_result(self, tmp_path):
        spec = spectrum_sn(9)
        path = store_spectrum(tmp_path, spec)
        first = path.read_bytes()
        assert first == json_text(spectrum_to_doc(spec)).encode("utf-8")
        store_spectrum(tmp_path, spec)
        assert path.read_bytes() == first

    def test_entry_with_an_extra_key_is_rewritten(self, capsys, tmp_path):
        # a hit prints the entry's own text, so an entry must be exactly the
        # render of its spectrum; a key the renderer does not write is a miss
        spec = spectrum_sn(9)
        path = store_spectrum(tmp_path, spec)
        canonical = path.read_bytes()
        edit_entry(path, lambda doc: doc.update(created="2026-01-01T00:00:00Z"))
        assert lenient_load(tmp_path, "S", 9) == spec
        assert load_spectrum(tmp_path, "S", 9) is None
        code, out, _ = run(
            capsys, "spectrum", "--n", "9", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0 and out == spectrum_json(spec)
        assert path.read_bytes() == canonical

    def test_crlf_entry_is_a_miss(self, capsys, tmp_path):
        spec = spectrum_sn(9)
        path = store_spectrum(tmp_path, spec)
        canonical = path.read_bytes()
        path.write_bytes(canonical.replace(b"\n", b"\r\n"))
        assert lenient_load(tmp_path, "S", 9) == spec
        assert load_spectrum(tmp_path, "S", 9) is None
        code, out, _ = run(
            capsys, "spectrum", "--n", "9", "--format", "json", "--cache-dir", str(tmp_path)
        )
        assert code == 0 and out == spectrum_json(spec)
        assert path.read_bytes() == canonical

    @pytest.mark.parametrize(("build", "seed"), [(spectrum_sn, 1), (spectrum_an, 2)])
    def test_single_byte_edits_miss_or_load_their_own_render(self, tmp_path, build, seed):
        # a hit's text is printed as it is, so no edit may load with text that
        # is not the render of the spectrum it loads
        spec = build(12)
        path = store_spectrum(tmp_path, spec)
        canonical = path.read_bytes()
        rng = random.Random(seed)
        alphabet = b'0123456789 ,:"[]{}\n\r\tabe-'
        hits = 0
        for _ in range(300):
            i = rng.randrange(len(canonical))
            byte = bytes([rng.choice(alphabet + bytes([rng.randrange(256)]))])
            kind = rng.randrange(3)
            edited = canonical[:i] + (b"" if kind == 0 else byte) + canonical[i + (kind != 2):]
            if edited == canonical:
                continue
            path.write_bytes(edited)
            hit = load_spectrum(tmp_path, spec.group, 12)
            if hit is not None:
                hits += 1
                assert hit[1] == spectrum_json(hit[0]) == edited.decode("utf-8")
        assert hits == 0

    # what the parse saw: the collector paused, then the error of the miss;
    # an unreadable entry is a miss before any parse
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        ("edit", "parsed"),
        [
            (None, [False]),
            (entry_reindented, [False, ValueError]),
            (entry_breaks_the_count, [False, ArithmeticError]),
            (entry_has_a_wrong_member, [False, ValueError]),
            (entry_is_a_directory, []),
        ],
        ids=["hit", "layout", "identity", "member", "unreadable"],
    )
    def test_load_pauses_and_restores_the_collector(self, tmp_path, monkeypatch, gc_state,
                                                    enabled, edit, parsed):
        path = store_spectrum(tmp_path, spectrum_sn(12))
        if edit is not None:
            edit(path)
        seen = []

        def spied(*args):
            seen.append(gc.isenabled())
            try:
                return parse_spectrum_json(*args)
            except Exception as exc:
                seen.append(type(exc))
                raise

        monkeypatch.setattr(cache, "parse_spectrum_json", spied)
        gc_state[enabled]()
        hit = load_spectrum(tmp_path, "S", 12)
        assert gc.isenabled() is enabled
        assert (hit is None) is (edit is not None)
        assert seen == parsed


class TestCacheAtTheMemberCap:
    """At the real member cap: spectra at or below it never reach the
    cache, spectra above it are written cold and read warm."""

    @pytest.mark.parametrize(
        ("n", "group", "threads"), [(6, "s", "1"), (6, "a", "1"), (40, "s", "2"), (40, "a", "1")]
    )
    def test_no_entry_at_or_below_the_cap(self, capsys, tmp_path, n, group, threads):
        path = plant_entry(tmp_path, spectrum_sn(6))
        edit_entry(path, swap_lower_members)
        planted = path.read_bytes()
        argv = ("spectrum", "--n", str(n), "--group", group, "--threads", threads)
        _, plain, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and md5(out) == md5(plain) and not err
        assert [p.name for p in tmp_path.iterdir()] == ["s006.json"]
        assert path.read_bytes() == planted

    def test_no_entry_is_stored_at_or_below_the_cap(self, tmp_path):
        with pytest.raises(ValueError):
            store_spectrum(tmp_path, spectrum_sn(6))
        assert list(tmp_path.iterdir()) == []

    def test_no_spectrum_at_or_below_the_cap_has_built_members(self, monkeypatch):
        for n in range(2, 13):
            assert not has_built_members(spectrum_sn(n))
            assert not has_built_members(spectrum_an(n))
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 5)
        capped = spectrum_sn(12), spectrum_an(12)
        assert all(has_built_members(spec) for spec in capped)
        monkeypatch.undo()
        assert not any(has_built_members(spec) for spec in capped)

    @pytest.mark.parametrize("group", ["s", "a"])
    def test_entry_above_the_cap(self, capsys, tmp_path, group):
        argv = ("spectrum", "--n", "41", "--group", group, "--format", "json")
        _, plain, _ = run(capsys, *argv)
        code, cold, _ = run(capsys, *argv, "--threads", "2", "--cache-dir", str(tmp_path))
        assert code == 0 and md5(cold) == md5(plain)
        assert md5(cache_path(tmp_path, group, 41).read_text()) == md5(cold)
        # the entry two workers wrote loads as the spectrum one worker builds
        assert loaded(tmp_path, group.upper(), 41) == \
            (spectrum_sn if group == "s" else spectrum_an)(41)
        code, warm, _ = run(capsys, *argv, "--threads", "1", "--cache-dir", str(tmp_path))
        assert code == 0 and md5(warm) == md5(plain)

    def test_reindented_entry_is_a_miss_and_rewritten(self, capsys, tmp_path):
        spec = spectrum_sn(41)
        path = store_spectrum(tmp_path, spec)
        canonical = path.read_text()
        path.write_text(json.dumps(json.loads(canonical), indent=4))
        assert lenient_load(tmp_path, "S", 41) == spec
        assert load_spectrum(tmp_path, "S", 41) is None
        argv = ("spectrum", "--n", "41", "--format", "json", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and md5(out) == PINS["s41-json"].md5
        assert md5(path.read_text()) == md5(canonical)

    def test_hit_prints_the_entry_it_proved(self, capsys, tmp_path, monkeypatch):
        # a hit serves every format from the one spectrum the load returns
        plain = {(group, fmt): run(capsys, "spectrum", "--n", "41", "--group", group,
                                   "--format", fmt)[1]
                 for group in ("s", "a") for fmt in ("json", "csv", "text")}
        assert md5(plain["s", "json"]) == PINS["s41-json"].md5
        store_spectrum(tmp_path, spectrum_sn(41))
        store_spectrum(tmp_path, spectrum_an(41))
        # a miss would build, a re-render call spectrum_json
        for name in ("spectrum_sn", "spectrum_an", "spectrum_json"):
            monkeypatch.setattr(cli, name, None)
        for name in ("load", "loads"):  # the hit parses the layout, not JSON
            monkeypatch.setattr(json, name, None)
        for (group, fmt), expected in plain.items():
            code, out, _ = run(capsys, "spectrum", "--n", "41", "--group", group,
                               "--format", fmt, "--cache-dir", str(tmp_path))
            assert code == 0 and md5(out) == md5(expected), (group, fmt)

    @pytest.mark.parametrize("build", [spectrum_sn, spectrum_an])
    def test_round_trip_of_built_entries(self, tmp_path, build):
        for n in range(41, 46):
            spec = build(n)
            store_spectrum(tmp_path, spec)
            assert load_spectrum(tmp_path, spec.group, n) == (spec, spectrum_json(spec)), n


    def test_swapped_lower_classes_are_a_miss(self, capsys, tmp_path):
        _, plain, _ = run(capsys, "spectrum", "--n", "41")
        assert md5(plain) == PINS["s41-text"].md5
        run(capsys, "spectrum", "--n", "41", "--cache-dir", str(tmp_path))
        edit_entry(cache_path(tmp_path, "S", 41), swap_lower_classes)
        code, out, _ = run(capsys, "spectrum", "--n", "41", "--cache-dir", str(tmp_path))
        assert code == 0 and md5(out) == md5(plain)


class TestGraphCmd:
    def test_json_n4(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["components"] == [["4", "3,1", "2,1,1", "1,1,1,1"], ["2,2"]]

    def test_dot_n1(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "1", "--format", "dot")
        assert code == 0
        assert out == 'graph partitions_of_1 {\n  "1";\n}\n'

    def test_round_trip_n6(self, capsys):
        from chardeg import build_graph
        from chardeg.serialize import graph_from_doc

        code, out, _ = run(capsys, "graph", "--n", "6")
        assert code == 0
        assert graph_from_doc(json.loads(out)) == build_graph(6)


class TestVerifyCmd:
    def test_theorem2_range(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--range", "7..12", "--checks", "theorem2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_domain_rejection(self, capsys):
        code, _, err = run(capsys, "verify", "--range", "3..4", "--checks", "theorem1")
        assert code == 2
        assert "stated for n >=" in err

    def test_all_checks_small_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--range", "5..8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        statuses = {r["status"] for r in doc["reports"]}
        assert "fail" not in statuses
        checks = {r["check"] for r in doc["reports"]}
        assert {
            "theorem1",
            "theorem2",
            "sandwich",
            "ratio-lemma",
            "low-degree-count",
            "near-max-count",
            "move-scan-a",
            "move-scan-s",
            "induced-bound",
            "epsilon-bounds",
        } <= checks

    def test_override_domain(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--n",
            "5",
            "--checks",
            "theorem2",
            "--override-domain",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["status"] == "informational"

    def test_all_equals_single_checks_joined(self, capsys):
        code, out, _ = run(capsys, "verify", "--range", "5..14", "--checks", "all",
                           "--format", "json")
        assert code == 0
        joined = []
        for name in cli.CHECKS:
            code, single, _ = run(capsys, "verify", "--range", "5..14", "--checks", name,
                                  "--format", "json")
            assert code == 0
            joined.extend(json.loads(single)["reports"])
        assert json.loads(out)["reports"] == joined

    @staticmethod
    def walks(capsys, monkeypatch, checks):
        """The store's walks over a ``verify --range 5..12`` run of
        ``checks``, as (n, shards, leaves, whether the walk folded in move
        facts), the number of conjugate-pair representatives of each n, and
        the store the run left.  A leaf is a pair, counted once in the one
        class table, or a self-conjugate partition."""
        walks = []
        real_walk = spectrum._pair_shard

        def walk(n, ones, all_members, facts=None):
            pairs, selfconj = real_walk(n, ones, all_members, facts)
            leaves = sum(pairs.counts.values()) + len(selfconj)
            walks.append((n, list(ones), leaves, facts is not None))
            return pairs, selfconj

        monkeypatch.setattr(spectrum, "_pair_shard", walk)
        # an empty store, so every n of the run is built here
        spectrum.clear_spectrum_cache()
        try:
            code, _, _ = run(capsys, "verify", "--range", "5..12", "--checks", checks)
            store = spectrum._store
        finally:
            spectrum.clear_spectrum_cache()
        assert code == 0
        representatives = Counter(
            n for n in range(5, 13) for lam in enumerate_partitions(n) if lam >= conjugate(lam)
        )
        return walks, representatives, store

    def test_one_hook_product_per_conjugate_pair(self, capsys, monkeypatch):
        # one walk per n over all its shards, whose leaves, one hook product
        # each, are the representatives, each filed once for S_n and A_n;
        # the move scans take their degrees from degree_sn
        walks, representatives, _ = self.walks(capsys, monkeypatch, "all")
        assert walks == [(n, list(range((n + 1) // 2)), representatives[n], True)
                         for n in range(5, 13)]

    @pytest.mark.parametrize("name", list(cli.CHECKS))
    def test_one_pass_per_n_after_a_theorem(self, capsys, monkeypatch, name):
        # a check that reads the move facts, run after one that does not,
        # still finds them in the n's one walk
        walks, representatives, _ = self.walks(capsys, monkeypatch, f"theorem1,{name}")
        assert [(n, leaves) for n, _ones, leaves, _facts in walks] == \
            [(n, representatives[n]) for n in range(5, 13)]

    def test_only_the_move_fact_checks_walk_for_facts(self, capsys, monkeypatch):
        # the six checks that read no move facts never fold them into a
        # walk, so the store keeps none; count-lemmas asks once per n
        six = "theorem1,theorem2,sandwich,move-scan,induced-bound,epsilon-bounds"
        walks, _, store = self.walks(capsys, monkeypatch, six)
        assert [(n, facts) for n, *_, facts in walks] == [(n, False) for n in range(5, 13)]
        assert store[1] is None
        walks, _, store = self.walks(capsys, monkeypatch, six + ",count-lemmas")
        assert [(n, facts) for n, *_, facts in walks] == [(n, True) for n in range(5, 13)]
        assert store[1] is not None

    def test_store_holds_only_the_last_n(self, capsys, monkeypatch):
        spectrum.clear_spectrum_cache()
        code, _, _ = run(capsys, "verify", "--range", "5..8", "--checks", "all")
        assert code == 0
        n, facts, spectra, move_degrees = spectrum._store
        assert n == 8
        assert move_degrees and {sum(lam) for lam in move_degrees} == {8}
        low = [lam for members in facts.low.values() for lam in members]
        assert {sum(lam) for lam in low} == {8}
        assert facts.interior + len(low) == count_partitions(8)
        assert sorted(spectra) == ["A", "S"]
        assert {spec.n for spec in spectra.values()} == {8}
        # an earlier n is rebuilt on demand, with the top-two members that a
        # build above the member cap keeps, and then replaces n = 8
        with monkeypatch.context() as m:
            m.setattr(spectrum, "MEMBER_CAP", 4)
            capped = spectrum_sn(5)
        assert spectrum.cached_spectrum("S", 5) == capped
        assert spectrum._store[0] == 5 and spectrum._store[3] == {}

    def test_each_move_degree_is_computed_once(self, capsys, monkeypatch):
        # induced-bound and both move scans read the single-node moves of the
        # same maximizers, and neighbouring members share moves; each move's
        # degree is kept in the store of n, and goes with it
        calls = Counter()

        def counted(parts):
            calls[parts] += 1
            return degree_sn(parts)

        spectrum.clear_spectrum_cache()
        monkeypatch.setattr(spectrum, "degree_sn", counted)
        code, _, _ = run(capsys, "verify", "--n", "44", "--checks", "induced-bound,move-scan")
        assert code == 0
        s_spec = spectrum.cached_spectrum("S", 44)
        scanned = set(s_spec.maximizers) | set(s_spec.members[1])
        moves = {mu for lam in scanned for _i, _j, mu in partitions.iter_moves(lam)}
        assert set(calls) == moves and set(calls.values()) == {1}
        assert spectrum._store[3].keys() == moves
        spectrum.cached_spectrum("S", 12)
        assert spectrum._store[0] == 12 and spectrum._store[3] == {}
        spectrum.clear_spectrum_cache()

    def test_ratio_lemma_never_builds_the_graph(self, capsys, monkeypatch):
        from chardeg import graph

        def no_graph(n):
            raise AssertionError("ratio-lemma built the move graph")

        monkeypatch.setattr(graph, "build_graph", no_graph)
        monkeypatch.setattr(cli, "build_graph", no_graph)
        code, out, _ = run(capsys, "verify", "--range", "1..14", "--checks", "ratio-lemma")
        assert code == 0
        assert out.count("PASS") == 14

    def test_induced_bound_above_member_cap(self, capsys):
        # above the member cap the alternating branch reads the members of
        # the second symmetric class
        code, out, _ = run(capsys, "verify", "--n", "44", "--checks", "induced-bound",
                           "--format", "json")
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "pass"
        assert "alternating-hypotheses=active" in report["notes"]
        assert report["inequalities"]
        for q in report["inequalities"]:
            assert q["relation"] == ">" and Fraction(q["left"]) > Fraction(q["right"])

    def test_repeated_check_runs_once(self, capsys):
        once = run(capsys, "verify", "--n", "7", "--checks", "sandwich")
        assert run(capsys, "verify", "--n", "7", "--checks", "sandwich,sandwich") == once
        pair = run(capsys, "verify", "--n", "7", "--checks", "sandwich,theorem1")
        assert run(capsys, "verify", "--n", "7", "--checks", "sandwich,theorem1,sandwich") == pair

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "7", "--checks", "bogus")
        assert code == 2 and "unknown check" in err

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_empty_checks_rejected(self, capsys, checks):
        code, out, err = run(capsys, "verify", "--n", "7", "--checks", checks)
        assert code == 2 and not out
        assert err.startswith("error:") and "names no check" in err

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        from chardeg.report import FAIL, Inequality, VerificationReport

        def fake(n, override_domain=False):
            failing = Inequality("below-top-sum-exceeds-twice-square", 1, ">", 2)
            return VerificationReport(check="theorem2", n=n, status=FAIL, inequalities=(failing,))

        monkeypatch.setattr(cli, "verify_theorem2", fake)
        code, out, _ = run(capsys, "verify", "--n", "8", "--checks", "theorem2")
        assert code == 1
        assert out.startswith("FAIL")

    def test_bad_range(self, capsys):
        for text in ("9..3", "5-9", "a..9"):
            code, out, err = run(capsys, "verify", "--range", text, "--checks", "sandwich")
            assert code == 2 and not out
            assert len(err.splitlines()) == 1 and err.startswith("error:"), text

    def test_missing_n_and_range(self, capsys):
        code, _, err = run(capsys, "verify", "--checks", "sandwich")
        assert code == 2

    def test_n_with_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "5", "--range", "7..8", "--checks", "sandwich"])
        assert exc.value.code == 2
        assert "not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["61", "10"])
    def test_max_n_above_the_store_ceiling_rejected(self, capsys, n):
        code, out, err = run(capsys, "verify", "--n", n, "--max-n", "70",
                             "--checks", "sandwich")
        assert code == 2 and not out
        assert err.startswith("error:") and "above 60" in err
        code, out, _ = run(capsys, "verify", "--n", "10", "--max-n", "60",
                           "--checks", "sandwich")
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("name", list(cli.CHECKS))
    def test_floors_agree_with_each_checks_guard(self, monkeypatch, name):
        # the table's floor is where the check's own guard lets it run, and
        # the override floor is inside what the check accepts
        from chardeg.report import VerificationReport

        def no_pool(*args, **kwargs):
            raise AssertionError("a check started a process pool")

        monkeypatch.setattr(spectrum, "ProcessPoolExecutor", no_pool)
        floor, override_floor, runner, _ = cli.CHECKS[name]
        with pytest.raises(ValueError):
            runner(floor - 1, False)
        for reports in (runner(floor, False), runner(override_floor, True)):
            assert reports and all(isinstance(r, VerificationReport) for r in reports)

    def test_threads_other_than_one_rejected(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("verify started a process pool")

        monkeypatch.setattr(spectrum, "ProcessPoolExecutor", no_pool)
        code, out, err = run(capsys, "verify", "--n", "5", "--checks", "sandwich",
                             "--threads", "2")
        assert code == 2 and not out
        assert "only spectrum starts workers" in err
        code, out, _ = run(capsys, "verify", "--n", "5", "--checks", "sandwich",
                           "--threads", "1")
        assert code == 0 and out.startswith("PASS")


TABLE_FREE_RUNS = [
    *[pytest.param(("verify", "--range", "5..12", "--checks", name), id=name)
      for name in [*cli.CHECKS, "all"]],
    pytest.param(("scan", "--n", "12"), id="scan"),
]


@pytest.mark.parametrize("argv", TABLE_FREE_RUNS)
def test_runs_build_no_degree_table(capsys, monkeypatch, tmp_path, argv):
    # every CHECKS row, all of them together, and scan give the same bytes
    # with partition enumeration broken everywhere and conjugation broken in
    # the store: no run lists the partitions of n, as a degree table would
    out_file = tmp_path / "scan.csv"
    if argv[0] == "scan":
        argv += ("--out", str(out_file))

    def outputs():
        spectrum.clear_spectrum_cache()
        out_file.unlink(missing_ok=True)
        code, out, err = run(capsys, *argv)
        return code, out, err, out_file.read_bytes() if out_file.exists() else None

    expected = outputs()

    def broken(*args, **kwargs):
        raise AssertionError("a run listed or conjugated partitions")

    for module in (chardeg, partitions, graph):
        monkeypatch.setattr(module, "enumerate_partitions", broken)
    monkeypatch.setattr(spectrum, "conjugate", broken)
    assert outputs() == expected and expected[0] == 0


REMOVED_FLAGS = [
    *[(cmd, flag) for cmd in ("degree", "branch", "graph")
      for flag in ("--threads", "--cache-dir", "--override-domain")],
    ("spectrum", "--override-domain"),
    ("verify", "--cache-dir"),
    *[("scan", flag) for flag in ("--threads", "--cache-dir", "--override-domain", "--format")],
]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flag_not_accepted(capsys, tmp_path, command, flag):
    argv = {
        "degree": ["degree", "3,1"],
        "branch": ["branch", "3,1"],
        "graph": ["graph", "--n", "4"],
        "spectrum": ["spectrum", "--n", "4"],
        "verify": ["verify", "--n", "5", "--checks", "sandwich"],
        "scan": ["scan", "--n", "5", "--out", str(tmp_path / "t.csv")],
    }[command]
    value = {"--threads": ["1"], "--cache-dir": [str(tmp_path / "c")], "--format": ["csv"]}
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag] + value.get(flag, []))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestScanCmd:
    def test_rows_and_values(self, capsys, tmp_path):
        out_path = tmp_path / "trend.csv"
        code, out, _ = run(capsys, "scan", "--n", "10", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "n,b_s,m1,b_a,ba_equals_bs,eps_s,eps_s_decimal,eps_a,eps_a_decimal,x,y"
        assert len(lines) == 7  # header + n = 5..10
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "6" and first[3] == "5"
        assert first[5] == "7/3" and first[7] == "7/5"
        assert first[10] == "2"

    def test_single_row(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        code, _, _ = run(capsys, "scan", "--n", "5", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 2

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "--n", "8", "--out", str(a))
        run(capsys, "scan", "--n", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_guard(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "scan", "--n", "70", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_below_five_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "scan", "--n", "4", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["61", "10"])
    def test_max_n_above_the_store_ceiling_rejected(self, capsys, tmp_path, n):
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "scan", "--n", n, "--max-n", "70", "--out", str(out_path))
        assert code == 2 and not out
        assert err.startswith("error:") and "above 60" in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_target_leaves_no_partial_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out_path = blocker / "trend.csv"
        code, _, err = run(capsys, "scan", "--n", "5", "--out", str(out_path))
        assert code == 2 and "error" in err
        assert list(tmp_path.iterdir()) == [blocker]
