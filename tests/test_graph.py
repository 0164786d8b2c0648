"""Move-graph structure, path decomposition, and the counting checks."""

import pytest

from chardeg import graph
from chardeg import (
    build_graph,
    count_partitions,
    enumerate_partitions,
    lambda_dn,
    lambda_up,
    low_degree_count_check,
    low_degree_count_check_all,
    near_max_count_check,
    near_max_count_check_all,
    neighbors,
    ratio_lemma_check,
    vertex_degree,
)
from chardeg.report import FAIL, Inequality
from chardeg.serialize import graph_from_doc, graph_to_doc, graph_to_dot
from chardeg.spectrum import DegreeClass, DegreeSpectrum, degree_table


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
            assert g.vertex_count == count_partitions(n)

    def test_against_union_find(self):
        for n in range(1, 15):
            g = build_graph(n)
            assert sorted((len(c) for c in g.components), reverse=True) == \
                union_find_components(n)

    def test_against_visited_walk(self):
        for n in range(1, 26):
            assert build_graph(n).components == visited_walk_components(n), n

    def test_degrees(self):
        assert vertex_degree((3, 1)) == 2
        assert vertex_degree((2, 2)) == 0
        assert vertex_degree((4,)) == 1

    def test_degree_counts_neighbors(self):
        for n in range(0, 21):
            for lam in enumerate_partitions(n):
                assert vertex_degree(lam) == len(neighbors(lam)), lam

    def test_path_adjacency_and_symmetry(self):
        for n in range(1, 22):
            for comp in build_graph(n).components:
                for a, b in zip(comp, comp[1:]):
                    assert lambda_dn(a) == b and lambda_up(b) == a
                assert lambda_up(comp[0]) is None
                assert lambda_dn(comp[-1]) is None


class TestStructureChecks:
    def test_class_intersection_passes(self):
        # the ratio lemma's lower bound d(λ)^2 > d(up) d(dn) makes degrees
        # strictly log-concave along a path: no interior minimum, and no
        # path meets a degree class more than twice
        ties = {}
        for n in range(1, 26):
            table = degree_table(n)
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

    def test_table_paths_equal_build_graph(self):
        # the ratio lemma walks its paths from the tops among the degree
        # table's keys, in the table's order
        for n in range(1, 26):
            assert set(graph._paths(degree_table(n))) == set(build_graph(n).components)

    @pytest.mark.parametrize("dropped", [0, -1])
    def test_raises_when_the_walk_misses_a_path(self, monkeypatch, dropped):
        paths_of = graph._paths

        def missing_one(partitions):
            paths = list(paths_of(partitions))
            del paths[dropped]
            return iter(paths)

        monkeypatch.setattr(graph, "_paths", missing_one)
        with pytest.raises(ArithmeticError, match="cover"):
            ratio_lemma_check(12)


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
        monkeypatch.setattr(graph, "_low_degree", lambda n, degrees: ([0, 3, 5, 0], {}))
        rep = low_degree_count_check_all(9)
        assert rep.status == FAIL and rep.consistent()
        q = rep.inequalities[0]
        assert (q.label, q.left, q.right) == ("low-degree-members[r=2]", 3, 2)
        assert rep.notes == ("classes=4", "violating r=2", "violating r=3")

    def test_near_max_records_the_smallest_slack(self, monkeypatch):
        # only class 3 (degree 10, 20 characters) fails: no character lies
        # in (10/4, 10) against 20 - 4*2 needed
        classes = tuple(DegreeClass(d, size, ()) for d, size in
                        ((100, 1), (60, 1), (10, 20), (1, 3)))
        monkeypatch.setattr(graph, "cached_spectrum",
                            lambda group, n: DegreeSpectrum(n, group, classes))
        rep = near_max_count_check_all(9)
        assert rep.status == FAIL and rep.consistent()
        assert rep.inequalities == (Inequality("near-top-characters[r=3]", 0, ">=", 12),)
        assert rep.notes == ("classes=4", "violating r=3")

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
