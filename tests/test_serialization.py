"""Unit tests for JSON/DOT serialisation."""

import json
from fractions import Fraction

import pytest

from repro.exceptions import PlatformError
from repro.platform.serialization import (
    load_tree,
    save_tree,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)


class TestDictRoundTrip:
    def test_round_trip_exact(self, paper_tree):
        data = tree_to_dict(paper_tree)
        rebuilt = tree_from_dict(data)
        assert rebuilt == paper_tree

    def test_round_trip_preserves_fractions(self, paper_tree):
        rebuilt = tree_from_dict(tree_to_dict(paper_tree))
        assert rebuilt.c("P4") == Fraction(18, 5)

    def test_round_trip_switch(self, fig1_tree):
        rebuilt = tree_from_dict(tree_to_dict(fig1_tree))
        assert rebuilt.is_switch("P2")

    def test_json_compatible(self, paper_tree):
        json.dumps(tree_to_dict(paper_tree))  # must not raise

    def test_rejects_wrong_format(self):
        with pytest.raises(PlatformError):
            tree_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self):
        with pytest.raises(PlatformError):
            tree_from_dict({"format": "repro-tree", "version": 99, "nodes": []})

    def test_rejects_empty(self):
        with pytest.raises(PlatformError):
            tree_from_dict({"format": "repro-tree", "version": 1, "nodes": []})

    def test_rejects_non_root_first(self):
        with pytest.raises(PlatformError):
            tree_from_dict({
                "format": "repro-tree", "version": 1,
                "nodes": [{"name": "a", "w": "1", "parent": "b", "c": "1"}],
            })

    def test_rejects_missing_fields(self):
        with pytest.raises(PlatformError):
            tree_from_dict({
                "format": "repro-tree", "version": 1,
                "nodes": [{"name": "r", "w": "1"}, {"name": "a", "w": "1"}],
            })

    @pytest.mark.parametrize("nodes", [
        [{"name": "r", "w": "1"}, "x"],
        ["x"],
        [{"name": ["a"], "w": "1"}],
        [{"name": "r", "w": "1"},
         {"name": ["a"], "w": "1", "parent": "r", "c": "1"}],
        [{"name": "r", "w": "1"},
         {"name": "a", "w": "1", "parent": {"r": 1}, "c": "1"}],
        [{"w": "1"}],
        # impossible platforms: zero denominators, w = 0 / c = 0, and
        # cycles (parents come before children, so a cycle names a parent
        # not yet seen)
        [{"name": "r", "w": "1/0"}],
        [{"name": "r", "w": "1"},
         {"name": "a", "w": "1", "parent": "r", "c": "3/0"}],
        [{"name": "r", "w": "0"}],
        [{"name": "r", "w": "-2"}],
        [{"name": "r", "w": "1"},
         {"name": "a", "w": "1", "parent": "r", "c": "0"}],
        [{"name": "r", "w": "1"},
         {"name": "a", "w": "1", "parent": "b", "c": "1"},
         {"name": "b", "w": "1", "parent": "a", "c": "1"}],
        [{"name": "r", "w": "1"},
         {"name": "a", "w": "1", "parent": "a", "c": "1"}],
        [{"name": "r", "w": "1"},
         {"name": "r", "w": "1", "parent": "r", "c": "1"}],
        # not an array at all
        5, True, 1.5, "r", {"name": "r", "w": "1"}, None,
    ])
    def test_rejects_malformed_entries(self, nodes):
        with pytest.raises(PlatformError):
            tree_from_dict({"format": "repro-tree", "version": 1,
                            "nodes": nodes})

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_rejects_a_version_that_only_equals_one(self, version):
        with pytest.raises(PlatformError, match="unsupported"):
            tree_from_dict({"format": "repro-tree", "version": version,
                            "nodes": [{"name": "r", "w": "1"}]})


class TestFiles:
    def test_save_load(self, tmp_path, paper_tree):
        path = tmp_path / "tree.json"
        save_tree(paper_tree, path)
        assert load_tree(path) == paper_tree

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PlatformError):
            load_tree(path)

    def test_load_non_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"format": "repro-tree", "name": "caf\xe9"}')
        with pytest.raises(PlatformError, match="latin1.json"):
            load_tree(path)

    @pytest.mark.parametrize("document, kind", [
        ("[1, 2]", "list"), ('"repro-tree"', "str"), ("7", "int"),
        ("null", "NoneType"),
    ])
    def test_load_non_object_names_the_type(self, tmp_path, document, kind):
        path = tmp_path / "scalar.json"
        path.write_text(document)
        with pytest.raises(PlatformError, match=f"not {kind}"):
            load_tree(path)


class TestDot:
    def test_contains_nodes_and_edges(self, paper_tree):
        dot = tree_to_dot(paper_tree)
        assert dot.startswith("digraph")
        assert '"P0" -> "P1" [label="1"];' in dot
        assert '"P1" -> "P4" [label="18/5"];' in dot

    def test_highlight(self, paper_tree):
        dot = tree_to_dot(paper_tree, highlight=frozenset({"P5"}))
        line = next(l for l in dot.splitlines() if l.strip().startswith('"P5"'))
        assert "fillcolor" in line
