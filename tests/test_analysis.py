"""Unit tests for tree-edit distance, clustering, and error metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CallTree,
    ErrorReport,
    agglomerative_cluster,
    hierarchical_feature_clusters,
    tree_edit_distance,
)
from repro.analysis.treedit import normalized_tree_distance
from repro.analysis.clustering import euclidean
from repro.util.errors import ConfigurationError


def _tree(spec):
    return CallTree.from_nested(spec)


class TestTreeEditDistance:
    def test_identical_trees_zero(self):
        a = _tree(("loop", [("recv", []), ("send", [])]))
        b = _tree(("loop", [("recv", []), ("send", [])]))
        assert tree_edit_distance(a, b) == 0

    def test_single_relabel(self):
        a = _tree(("loop", [("recv", [])]))
        b = _tree(("loop", [("read", [])]))
        assert tree_edit_distance(a, b) == 1

    def test_single_insert(self):
        a = _tree(("loop", [("recv", [])]))
        b = _tree(("loop", [("recv", []), ("send", [])]))
        assert tree_edit_distance(a, b) == 1

    def test_symmetry(self):
        a = _tree(("loop", [("recv", []), ("hash", [("probe", [])])]))
        b = _tree(("loop", [("read", []), ("send", [])]))
        assert tree_edit_distance(a, b) == tree_edit_distance(b, a)

    def test_disjoint_trees_cost_bounded(self):
        a = _tree(("x", [("y", [])]))
        b = _tree(("p", [("q", []), ("r", [])]))
        d = tree_edit_distance(a, b)
        assert 0 < d <= a.size() + b.size()

    def test_size_and_from_nested(self):
        tree = _tree(("a", [("b", [("c", [])]), ("d", [])]))
        assert tree.size() == 4

    def test_normalized_distance_in_unit_interval(self):
        a = _tree(("loop", [("recv", [])]))
        b = _tree(("main", [("accept", []), ("epoll_ctl", [])]))
        assert 0.0 <= normalized_tree_distance(a, b) <= 1.0

    def test_none_rejected(self):
        with pytest.raises(ConfigurationError):
            tree_edit_distance(None, _tree("x"))

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_distance_nonnegative_chains(self, n, m):
        def chain(k, label):
            spec = (f"{label}{k - 1}", [])
            for i in range(k - 2, -1, -1):
                spec = (f"{label}{i}", [spec])
            return _tree(spec)

        a, b = chain(n, "a"), chain(m, "b")
        d = tree_edit_distance(a, b)
        assert d >= abs(n - m)


class TestAgglomerativeClustering:
    def test_two_obvious_groups(self):
        items = [0.0, 0.1, 0.2, 10.0, 10.1]
        clusters = agglomerative_cluster(
            items, distance=lambda a, b: abs(a - b), threshold=1.0)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [2, 3]

    def test_threshold_zero_keeps_singletons(self):
        items = [1.0, 2.0, 3.0]
        clusters = agglomerative_cluster(
            items, distance=lambda a, b: abs(a - b), threshold=0.0)
        assert len(clusters) == 3

    def test_huge_threshold_merges_all(self):
        items = [1.0, 5.0, 9.0]
        clusters = agglomerative_cluster(
            items, distance=lambda a, b: abs(a - b), threshold=100.0)
        assert len(clusters) == 1

    def test_empty_input(self):
        assert agglomerative_cluster([], lambda a, b: 0.0, 1.0) == []

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            agglomerative_cluster([1, 2], lambda a, b: -1.0, 1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            agglomerative_cluster([1], lambda a, b: 0.0, -1.0)


class TestFeatureClusters:
    def test_identical_vectors_cluster(self):
        clusters = hierarchical_feature_clusters(
            ["a", "b", "c"],
            [[1.0, 0.0], [1.0, 0.0], [0.0, 5.0]],
            threshold=0.5,
        )
        grouped = {frozenset(c) for c in clusters}
        assert frozenset({"a", "b"}) in grouped

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            hierarchical_feature_clusters(["a"], [], 1.0)

    def test_euclidean(self):
        assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)
        with pytest.raises(ConfigurationError):
            euclidean([1], [1, 2])

    def test_isa_clusters_separate_crc_from_moves(self):
        from repro.isa.instructions import catalog, feature_vector, iform
        names = ["ADD_r64_r64", "SUB_r64_r64", "CRC32_r64_r64", "DIV_r64"]
        vectors = [feature_vector(iform(n)) for n in names]
        clusters = hierarchical_feature_clusters(names, vectors, 1.0)
        cluster_of = {n: i for i, c in enumerate(clusters) for n in c}
        assert cluster_of["ADD_r64_r64"] == cluster_of["SUB_r64_r64"]
        assert cluster_of["CRC32_r64_r64"] != cluster_of["ADD_r64_r64"]
        assert cluster_of["DIV_r64"] != cluster_of["ADD_r64_r64"]


class TestErrorReport:
    def test_mean_error(self):
        report = ErrorReport()
        report.add("ipc", 1.0, 1.1)
        report.add("l1d", 0.2, 0.1)
        assert report.mean_error() == pytest.approx((0.1 + 0.5) / 2)

    def test_error_of_named_metric(self):
        report = ErrorReport()
        report.add("ipc", 2.0, 1.0)
        assert report.error_of("ipc") == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            report.error_of("nope")

    def test_infinite_errors_excluded_from_mean(self):
        report = ErrorReport()
        report.add("a", 0.0, 1.0)   # infinite
        report.add("b", 1.0, 1.0)
        assert report.mean_error() == 0.0

    def test_table_renders(self):
        report = ErrorReport()
        report.add("ipc", 1.0, 0.9)
        text = report.table()
        assert "ipc" in text and "10.0%" in text

    def test_empty_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorReport().mean_error()
