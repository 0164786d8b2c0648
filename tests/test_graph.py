"""Move-graph structure, path decomposition, and the counting checks."""

from fractions import Fraction

import pytest

from chardeg import graph, spectrum
from chardeg import (
    build_graph,
    conjugate,
    count_partitions,
    degree_sn,
    enumerate_partitions,
    lambda_dn,
    lambda_up,
    low_degree_count_check,
    low_degree_count_check_all,
    near_max_count_check,
    near_max_count_check_all,
    neighbors,
    ratio_lemma_check,
    up_dn_ratio,
)
from chardeg.report import FAIL, Inequality
from chardeg.serialize import graph_from_doc, graph_to_doc, graph_to_dot
from chardeg.spectrum import DegreeSpectrum, MoveFacts


def union_find_components(n):
    """Independent component count/sizes from the raw edge list."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lam in enumerate_partitions(n):
        parent[lam] = lam
    for lam in list(parent):
        for mu in neighbors(lam):
            ra, rb = find(lam), find(mu)
            if ra != rb:
                parent[ra] = rb
    sizes = {}
    for lam in list(parent):
        root = find(lam)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values(), reverse=True)


def visited_walk_components(n):
    """Components by the first-unvisited-vertex walk, an independent
    reference for the order and content of ``build_graph``."""
    visited = set()
    components = []
    for lam in enumerate_partitions(n):
        if lam in visited:
            continue
        path = [lam]
        while (down := lambda_dn(path[-1])) is not None:
            path.append(down)
        visited.update(path)
        components.append(tuple(path))
    return tuple(components)


class TestBuildGraph:
    def test_n4(self):
        g = build_graph(4)
        assert g.components == (
            ((4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)),
            ((2, 2),),
        )

    def test_n1(self):
        assert build_graph(1).components == (((1,),),)

    def test_n3(self):
        assert build_graph(3).components == (((3,), (2, 1), (1, 1, 1)),)

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            build_graph(0)

    def test_vertex_cover(self):
        for n in range(1, 22):
            g = build_graph(n)
            assert sum(map(len, g.components)) == count_partitions(n)

    def test_against_union_find(self):
        for n in range(1, 15):
            g = build_graph(n)
            assert sorted((len(c) for c in g.components), reverse=True) == \
                union_find_components(n)

    def test_against_visited_walk(self):
        for n in range(1, 26):
            assert build_graph(n).components == visited_walk_components(n), n

    def test_degrees(self):
        assert len(neighbors((3, 1))) == 2
        assert len(neighbors((2, 2))) == 0
        assert len(neighbors((4,))) == 1

    def test_path_adjacency_and_symmetry(self):
        for n in range(1, 22):
            for comp in build_graph(n).components:
                for a, b in zip(comp, comp[1:]):
                    assert lambda_dn(a) == b and lambda_up(b) == a
                assert lambda_up(comp[0]) is None
                assert lambda_dn(comp[-1]) is None


class TestDegreesAlongPaths:
    def test_class_intersection_passes(self):
        # the ratio lemma's lower bound d(λ)^2 > d(up) d(dn) makes degrees
        # strictly log-concave along a path: no interior minimum, and no
        # path meets a degree class more than twice
        ties = {}
        for n in range(1, 26):
            table = {lam: degree_sn(lam) for lam in enumerate_partitions(n)}
            for comp in build_graph(n).components:
                ds = [table[v] for v in comp]
                hits = {}
                for d in ds:
                    hits[d] = hits.get(d, 0) + 1
                assert max(hits.values()) <= 2, (n, comp)
                for i in range(1, len(ds) - 1):
                    assert ds[i] > min(ds[i - 1], ds[i + 1]), (n, comp[i])
                ties[n] = ties.get(n, 0) + sum(a == b for a, b in zip(ds, ds[1:]))
        # two hits do happen: at n = 4 the conjugate middle vertices of the
        # path tie
        assert ties[4] == 1


class TestRatioLemma:
    def test_boundary_at_n3(self):
        rep = ratio_lemma_check(3)
        assert rep.passed
        assert any("boundary" in note for note in rep.notes)

    def test_passes_small_range(self):
        for n in range(1, 26):
            assert ratio_lemma_check(n).passed

    def test_facts_equal_build_graph(self):
        # the pass counts the interior vertices of the move paths and records
        # their ends, grouped by degree
        for n in range(1, 26):
            facts = spectrum.move_facts(n)
            components = build_graph(n).components
            assert facts.interior == sum(max(len(c) - 2, 0) for c in components), n
            ends = {}
            for c in components:
                for lam in dict.fromkeys((c[0], c[-1])):
                    ends.setdefault(degree_sn(lam), []).append(lam)
            assert {d: sorted(v) for d, v in facts.low.items()} == \
                {d: sorted(v) for d, v in ends.items()}, n

    def test_hook_form_ratio(self, monkeypatch):
        # the walk computes the ratio at each representative with both moves
        # from its first-row and first-column hooks; conjugation swaps the
        # two moves, so λ and λ' share the ratio and the vertex degree that
        # the walk records for both
        seen = {}
        real = spectrum._ratio_terms

        def recorded(f, hooks, column, fact):
            terms = real(f, hooks, column, fact)
            # the hooks over μ are f − c + μ'_c, so they give back λ = (f, μ)
            mu = conjugate(tuple(h - f + c for c, h in enumerate(hooks)))
            seen[(f, *mu)] = Fraction(*terms)
            return terms

        monkeypatch.setattr(spectrum, "_ratio_terms", recorded)
        for n in range(1, 21):
            seen.clear()
            spectrum._pair_shard(n, range((n + 1) // 2), False, spectrum.MoveFacts())
            interior = set()
            for lam in enumerate_partitions(n):
                conj = conjugate(lam)
                assert len(neighbors(lam)) == len(neighbors(conj)), lam
                ratio = up_dn_ratio(lam)
                if ratio is not None and lam >= conj:
                    interior.add(lam)
                    assert seen[lam] == ratio == up_dn_ratio(conj), lam
            assert set(seen) == interior, n

    @pytest.mark.parametrize("dropped", ["low", "interior"])
    def test_raises_when_the_facts_miss_a_partition(self, monkeypatch, dropped):
        # a walk whose facts miss one partition of n is refused where the
        # store builds them, before any check reads them or the store is set
        real = spectrum._pair_shard

        def lossy(n, ones, all_members, facts=None):
            classes = real(n, ones, all_members, facts)
            if facts is not None:
                if dropped == "low":
                    facts.low[min(facts.low)].pop()
                else:
                    facts.interior -= 1
            return classes

        monkeypatch.setattr(spectrum, "_pair_shard", lossy)
        spectrum.clear_spectrum_cache()
        for read in (spectrum.move_facts, ratio_lemma_check, low_degree_count_check_all):
            with pytest.raises(ArithmeticError, match="cover 76 of 77 partitions"):
                read(12)
            assert spectrum._store is None


class TestCountChecks:
    def test_low_degree_examples(self):
        assert low_degree_count_check(9, 1).passed
        assert low_degree_count_check(5, 1).passed
        # n=7: every class passes
        assert low_degree_count_check_all(7).passed

    def test_near_max_examples(self):
        rep = near_max_count_check(5, 1)
        assert rep.passed
        assert rep.inequalities[0].left == 4  # degrees 5,5,4,4 inside (1.5, 6)
        assert rep.inequalities[0].right == 1
        assert near_max_count_check(7, 1).passed
        assert near_max_count_check(12, 2).passed

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            low_degree_count_check(5, 0)
        with pytest.raises(ValueError):
            near_max_count_check(5, 99)

    def test_stated_from_five(self):
        for n in range(1, 5):
            for check in (low_degree_count_check_all, near_max_count_check_all,
                          lambda n: low_degree_count_check(n, 1),
                          lambda n: near_max_count_check(n, 1)):
                with pytest.raises(ValueError, match="n >= 5"):
                    check(n)

    def test_low_degree_records_the_smallest_slack(self, monkeypatch):
        # classes of sizes 1, 1, 20, 3: twice the characters above each
        # class is 0, 2, 4, 44, so 0, 3, 5, 0 low-degree members fail r=2, 3
        monkeypatch.setattr(graph, "_class_sizes",
                            lambda n: ([100, 60, 10, 1], [1, 1, 20, 3], [0, 1, 2, 22, 25]))
        low = {60: [(6, 3), (7, 2), (5, 4)],
               10: [(4, 4, 1), (3, 3, 3), (5, 2, 2), (4, 3, 2), (3, 3, 2, 1)]}
        monkeypatch.setattr(spectrum, "move_facts", lambda n: MoveFacts(low=low))
        rep = low_degree_count_check_all(9)
        assert rep.status == FAIL and rep.consistent()
        q = rep.inequalities[0]
        assert (q.label, q.left, q.right) == ("low-degree-members[r=2]", 3, 2)
        assert rep.notes == ("classes=4", "violating r=2", "violating r=3")
        assert rep.witnesses == ((7, 2), (6, 3), (5, 4))

    def test_one_walk_per_n_from_a_cold_store(self, monkeypatch):
        # the low-degree checks ask for the move facts before the spectrum,
        # so the walk is not run once without the facts and again with them
        walked = []
        real_walk = spectrum._pair_shard

        def walk(n, *rest):
            walked.append(n)
            return real_walk(n, *rest)

        monkeypatch.setattr(spectrum, "_pair_shard", walk)
        for check in (low_degree_count_check_all, lambda n: low_degree_count_check(n, 2)):
            spectrum.clear_spectrum_cache()
            assert check(12).passed
            assert near_max_count_check_all(12).passed
            assert walked == [12]
            walked.clear()

    def test_low_members_are_keyed_by_class_degree(self):
        # every degree the walk files a low member under is an S_n class
        # degree, so the per-class counts take in every such member
        for n in range(5, 31):
            low = spectrum.move_facts(n).low
            degrees = spectrum.cached_spectrum("S", n).degrees
            assert set(low) <= set(degrees), n
            counts = [len(low.get(d, ())) for d in degrees]
            assert sum(counts) == sum(len(neighbors(lam)) < 2 for lam in enumerate_partitions(n))

    def test_near_max_records_the_smallest_slack(self, monkeypatch):
        # only class 3 (degree 10, 20 characters) fails: no character lies
        # in (10/4, 10) against 20 - 4*2 needed
        monkeypatch.setattr(spectrum, "cached_spectrum", lambda group, n: DegreeSpectrum(
            n, group, (100, 60, 10, 1), (1, 1, 20, 3), ((), ())))
        rep = near_max_count_check_all(9)
        assert rep.status == FAIL and rep.consistent()
        assert rep.inequalities == (Inequality("near-top-characters[r=3]", 0, ">=", 12),)
        assert rep.notes == ("classes=4", "violating r=3")

    def test_near_top_window_boundaries(self, monkeypatch):
        # b_1 = 43 (not a multiple of 4) counts 11 = 43 // 4 + 1 and leaves
        # out 10; b_2 = 40 counts 11 = 40 // 4 + 1 and leaves out 10, as
        # 4 * 10 = 40 is not above b_2
        monkeypatch.setattr(spectrum, "cached_spectrum", lambda group, n: DegreeSpectrum(
            n, group, (43, 40, 11, 10, 1), (1, 2, 3, 5, 7), ((), ())))
        assert near_max_count_check(9, 1).inequalities[0].left == 2 + 3
        assert near_max_count_check(9, 2).inequalities[0].left == 3

    def test_all_classes_small_range(self):
        for n in range(5, 21):
            assert low_degree_count_check_all(n).passed
            assert near_max_count_check_all(n).passed

    def test_single_r_consistent_with_bulk(self):
        for n in (6, 9, 11):
            r = 1
            while True:
                try:
                    rep = low_degree_count_check(n, r)
                except ValueError:
                    break
                assert rep.passed
                assert near_max_count_check(n, r).passed
                r += 1
            assert r > 2  # at least two classes exercised


class TestExports:
    def test_dot_n1(self):
        dot = graph_to_dot(build_graph(1))
        assert dot == 'graph partitions_of_1 {\n  "1";\n}\n'

    def test_dot_n4(self):
        dot = graph_to_dot(build_graph(4))
        assert '"4" -- "3,1";' in dot
        assert '"2,2";' in dot

    def test_json_doc_n4(self):
        doc = graph_to_doc(build_graph(4))
        assert doc["schema"] == 1
        assert doc["components"] == [
            ["4", "3,1", "2,1,1", "1,1,1,1"],
            ["2,2"],
        ]

    def test_json_round_trip(self):
        for n in (1, 4, 6, 9):
            g = build_graph(n)
            assert graph_from_doc(graph_to_doc(g)) == g

    @pytest.mark.parametrize(
        "components",
        [
            [["9,9"], ["2,2"]],  # parts sum past n
            [["1^2000000"]],  # refused before the exponent is expanded
            [["3,1"], ["1,1"]],  # parts sum short of n
        ],
    )
    def test_json_rejects_vertices_that_are_not_partitions_of_n(self, components):
        with pytest.raises(ValueError):
            graph_from_doc({"schema": 1, "n": 4, "components": components})
