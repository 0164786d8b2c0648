"""Command-line surface: formats, cache behavior, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest

from chardeg import cli, conjugate, enumerate_partitions, spectrum
from chardeg.cache import cache_path, load_spectrum, store_spectrum, write_atomic
from chardeg.partitions import parse_partition
from chardeg.serialize import json_text, spectrum_json, spectrum_to_doc
from chardeg.spectrum import has_built_members, spectrum_an, spectrum_sn


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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (("--n", "24", "--group", "a"), "40beb1479a8c452cd8351399b4f12510"),
            (("--n", "24", "--group", "a", "--format", "csv"), "f525c3bd737c94728cfbc64385b1bdb6"),
            (("--n", "24", "--group", "a", "--format", "json"), "17bce929179402b57734cdd30c4dd251"),
            (("--n", "41", "--group", "s", "--format", "json"), "36e4461473a5b268ce5dd918dfad88b2"),
            (("--n", "41", "--group", "a", "--format", "json"), "68af6f8d2340e843d6307f73a6099b5f"),
        ],
        ids=["a24-text", "a24-csv", "a24-json", "s41-json", "a41-json"],
    )
    def test_golden_bytes(self, capsys, argv, expected, threads):
        code, out, _ = run(capsys, "spectrum", *argv, "--threads", threads)
        assert code == 0
        assert md5(out) == expected

    def test_determinism_across_threads(self, capsys, monkeypatch):
        # the pool starts only above the member cap; no cache is read here
        monkeypatch.setattr(spectrum, "MEMBER_CAP", 12)
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
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


def edit_entry(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


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
        assert load_spectrum(tmp_path, group, n).members_complete is not capped
        edit_entry(path, top_member_reads_n)
        assert load_spectrum(tmp_path, group, n) is None
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
        assert load_spectrum(tmp_path, group, 6) is not None
        edit_entry(path, edit)
        assert load_spectrum(tmp_path, group, 6) is None

    def test_member_of_another_n_with_the_class_degree_is_a_miss(self, tmp_path):
        path = store_spectrum(tmp_path, spectrum_sn(7))
        assert load_spectrum(tmp_path, "S", 7) is not None
        edit_entry(path, member_of_n_6_with_the_degree)
        assert load_spectrum(tmp_path, "S", 7) is None

    def test_incomplete_top_two_is_a_miss(self, tmp_path):
        spec = spectrum_sn(12)
        path = store_spectrum(tmp_path, spec)
        assert load_spectrum(tmp_path, "S", 12) == spec
        edit_entry(path, lambda doc: doc["classes"][1].update(members=[]))
        assert load_spectrum(tmp_path, "S", 12) is None

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
        assert load_spectrum(tmp_path, group, 12) is None
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
        assert load_spectrum(tmp_path, group, n) == spec
        edit_entry(path, sizes_moved(moves))
        classes = json.loads(path.read_text())["classes"]
        assert all(c["size"] >= 1 for c in classes)
        assert sum(c["size"] * int(c["degree"]) ** 2 for c in classes) == \
            sum(c.size * c.degree ** 2 for c in spec.classes)
        assert load_spectrum(tmp_path, group, n) is None
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
        assert load_spectrum(tmp_path, group, 12) == capped
        with pytest.raises(ValueError):
            store_spectrum(tmp_path, complete)
        path = plant_entry(tmp_path, complete)
        assert load_spectrum(tmp_path, group, 12) is None
        edit_entry(path, lambda doc: doc.update(members_complete=False))
        assert load_spectrum(tmp_path, group, 12) is None

    def test_capped_entry_does_not_change_stdout(self, capsys, tmp_path):
        _, cold, _ = run(capsys, "spectrum", "--n", "12")
        store_spectrum(tmp_path, spectrum_sn(12))
        assert load_spectrum(tmp_path, "S", 12) is not None  # so the run below is a hit
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
            loaded = load_spectrum(tmp_path, group, n)
            assert loaded == spec
            assert spectrum_to_doc(loaded) == spectrum_to_doc(spec)

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
        assert load_spectrum(tmp_path, "S", 12) == spec

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        code, _, _ = run(capsys, "spectrum", "--n", "7", "--format", "json")
        assert code == 0
        assert cache_path(tmp_path, "S", 7).exists()

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

    def test_entry_with_timestamp_still_loads(self, tmp_path):
        spec = spectrum_sn(9)
        path = store_spectrum(tmp_path, spec)
        entry = json.loads(path.read_text())
        entry["created"] = "2026-01-01T00:00:00Z"
        path.write_text(json.dumps(entry))
        assert load_spectrum(tmp_path, "S", 9) == spec


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
        assert load_spectrum(tmp_path, group.upper(), 41) is not None
        code, warm, _ = run(capsys, *argv, "--threads", "1", "--cache-dir", str(tmp_path))
        assert code == 0 and md5(warm) == md5(plain)

    def test_hit_prints_the_validated_spectrum_not_the_file(self, capsys, tmp_path, monkeypatch):
        path = store_spectrum(tmp_path, spectrum_sn(41))
        path.write_text(json.dumps(json.loads(path.read_text()), indent=4))
        assert load_spectrum(tmp_path, "S", 41) is not None
        monkeypatch.setattr(cli, "spectrum_sn", None)  # a miss would have to build
        argv = ("spectrum", "--n", "41", "--format", "json", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and md5(out) == "36e4461473a5b268ce5dd918dfad88b2"
        assert md5(path.read_text()) != md5(out)  # a hit leaves the entry as it is


    def test_swapped_lower_classes_are_a_miss(self, capsys, tmp_path):
        _, plain, _ = run(capsys, "spectrum", "--n", "41")
        assert md5(plain) == "84502cd247043f0fbf4b334c79c11596"
        run(capsys, "spectrum", "--n", "41", "--cache-dir", str(tmp_path))
        edit_entry(cache_path(tmp_path, "S", 41), swap_lower_classes)
        code, out, _ = run(capsys, "spectrum", "--n", "41", "--cache-dir", str(tmp_path))
        assert code == 0 and md5(out) == md5(plain)


class TestGraphCmd:
    @pytest.mark.parametrize(
        ("fmt", "digest"),
        [("json", "4eff0028d25127bd29674c3599bb047f"), ("dot", "2bdd66c7e6585104b37ee7de47592ba9")],
    )
    def test_golden_bytes_n12(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "graph", "--n", "12", "--format", fmt)
        assert code == 0 and md5(out) == digest

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

    def test_one_hook_product_per_conjugate_pair(self, capsys, monkeypatch):
        import chardeg
        from chardeg import graph, hooks, spectrum

        calls = []
        real = hooks.hook_product

        def counted(parts, conj=None):
            calls.append(parts)
            return real(parts, conj)

        for module in (chardeg, hooks, spectrum, graph, cli):
            if getattr(module, "hook_product", None) is real:
                monkeypatch.setattr(module, "hook_product", counted)
        # an empty store, so every n of the run is built here
        spectrum.clear_spectrum_cache()
        try:
            code, _, _ = run(capsys, "verify", "--range", "5..12", "--checks", "all")
        finally:
            spectrum.clear_spectrum_cache()
        assert code == 0
        representatives = {
            lam for n in range(5, 13) for lam in enumerate_partitions(n) if lam >= conjugate(lam)
        }
        assert len(calls) == len(set(calls)) == len(representatives)
        assert set(calls) == representatives

    def test_store_holds_only_the_last_n(self, capsys, monkeypatch):
        from chardeg import spectrum

        spectrum.clear_spectrum_cache()
        code, _, _ = run(capsys, "verify", "--range", "5..8", "--checks", "all")
        assert code == 0
        n, table, spectra = spectrum._store
        assert n == 8
        assert {sum(lam) for lam in table} == {8}
        assert sorted(spectra) == ["A", "S"]
        assert {spec.n for spec in spectra.values()} == {8}
        # an earlier n is rebuilt on demand, with the top-two members that a
        # build above the member cap keeps, and then replaces n = 8
        with monkeypatch.context() as m:
            m.setattr(spectrum, "MEMBER_CAP", 4)
            capped = spectrum_sn(5)
        assert spectrum.cached_spectrum("S", 5) == capped
        assert spectrum._store[0] == 5

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

    @pytest.mark.parametrize(
        "argv,expected",
        [
            pytest.param(("--range", "5..20", "--checks", "all", "--format", "json"),
                         "44516d161a26efea7c5b32340878189b",
                         id="json-44516d161a26efea7c5b32340878189b"),
            pytest.param(("--range", "5..20", "--checks", "all", "--format", "text"),
                         "8a3cdb26df5348e3bc2d7830cf0ce694",
                         id="text-8a3cdb26df5348e3bc2d7830cf0ce694"),
            pytest.param(("--range", "5..40", "--checks", "all", "--format", "json"),
                         "bcc05f3ea568c3ee39ffc9d89a420b18", id="paper-range-json"),
            pytest.param(("--range", "2..12", "--checks", "theorem1,theorem2",
                          "--override-domain"),
                         "8e38a2c932f6f81e2ebfbdf70344d6c4", id="override-domain-text"),
            pytest.param(("--range", "41..49", "--checks", "theorem2,induced-bound"),
                         "e44d190607beda893e853a9e73fe56cd", id="range41-49-text",
                         marks=pytest.mark.stretch),
        ],
    )
    def test_golden_bytes(self, capsys, argv, expected):
        # pins every report's bytes over the paper's range n = 5..40, below
        # the stated domains and past the member cap, so a refactor that
        # changes one fails here
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert md5(out) == expected

    @pytest.mark.parametrize(
        "span,expected",
        [
            (("--n", "44"), "7c540cf83417f69cbe06ba040e6ca497"),
            (("--n", "50"), "4781547ae1e23f6f6ff4cc97de509a3a"),
            pytest.param(("--range", "50..60"), "8d04e17a819273f565b17a84efaab0d7",
                         marks=pytest.mark.stretch),
        ],
        ids=["n44", "n50", "range50-60"],
    )
    def test_golden_bytes_with_induced_hypotheses_active(self, capsys, span, expected):
        # the alternating induced-bound hypotheses hold at n = 44 and the
        # symmetric ones at n = 50, which 5..20 never reaches
        code, out, _ = run(capsys, "verify", *span, "--checks", "theorem1,theorem2,sandwich,"
                           "move-scan,induced-bound,epsilon-bounds", "--format", "json")
        assert code == 0
        assert md5(out) == expected

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
