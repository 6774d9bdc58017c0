import json

import numpy as np
import pytest

from ttno.errors import ValidationError
from ttno.tree import TreeTopology, edge_key

from conftest import (DEMO_EDGES, ball, boundary, demo_tree, tree_from_json,
                      tree_to_json)
from oracles import bfs_distance, pick_nonleaf_root, random_tree_edges


def test_distance_examples(tree):
    assert tree.distance(3, 3) == 0
    assert tree.distance(3, 4) == 2
    assert tree.distance(3, 8) == bfs_distance(DEMO_EDGES, 3, 8) == 5


def test_distance_is_metric(tree):
    nodes = tree.nodes
    for a in nodes:
        for b in nodes:
            d = tree.distance(a, b)
            assert d == tree.distance(b, a)
            assert (d == 0) == (a == b)
            for c in nodes:
                assert d <= tree.distance(a, c) + tree.distance(c, b)


def test_route_endpoints_and_length(tree):
    r = tree.route(3, 8)
    assert r.nodes[0] == 3 and r.nodes[-1] == 8
    assert len(r.edges) == len(r.nodes) - 1
    assert len(set(r.nodes)) == len(r.nodes)
    for (u, v), e in zip(zip(r.nodes, r.nodes[1:]), r.edges):
        assert edge_key(u, v) == e


def test_ball_examples(tree):
    assert ball(tree, 1, 0) == {1}
    assert ball(tree, 1, 1) == {1, 2, 5}
    assert boundary(tree, 1, 2) == {3, 4, 6, 7}


def test_ball_covers_everything(tree):
    for s in tree.nodes:
        ecc = max(tree.distance(s, t) for t in tree.nodes)
        assert ball(tree, s, ecc) == set(tree.nodes)
        # boundary slices partition each ball
        union = set()
        for r in range(ecc + 1):
            shell = boundary(tree, s, r)
            assert not (union & shell)
            union |= shell
        assert union == set(tree.nodes)


def test_subtree_examples(tree):
    assert tree.subtree(1) == set(range(1, 9))
    assert tree.subtree(5) == {5, 6, 7, 8}
    assert tree.subtree(6) == {6}
    # oracle: s' is in subtree(s) iff s lies on the route s' -> root
    for s in tree.nodes:
        want = {t for t in tree.nodes if s in tree.route(t, tree.root).nodes}
        assert tree.subtree(s) == want


def test_children_partition_subtree(tree):
    for s in tree.nodes:
        rest = tree.subtree(s) - {s}
        parts = [tree.subtree(c) for c in tree.children(s)]
        assert set().union(*parts) == rest if parts else not rest
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert not (p & q)


def test_structure_queries(tree):
    assert tree.children(5) == (6, 7)
    assert tree.leaves() == (3, 4, 6, 8)
    assert tree.depth() == 3
    assert tree.parent(1) is None
    assert tree.parent(8) == 7
    assert tree.neighbours(5) == (1, 6, 7)


def test_unknown_site_rejected(tree):
    with pytest.raises(ValidationError):
        tree.distance(1, 99)
    with pytest.raises(ValidationError):
        tree.subtree(0)
    with pytest.raises(ValidationError):
        ball(tree, 42, 1)


def test_random_trees_match_bfs_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(2, 65))
        edges = random_tree_edges(rng, n)
        t = TreeTopology(edges, pick_nonleaf_root(edges, n))
        for _ in range(20):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            assert t.distance(a, b) == bfs_distance(edges, a, b)


def test_re_root_preserves_edges(tree):
    t5 = tree.re_root(5)
    assert t5.edges == tree.edges
    assert t5.root == 5
    assert t5.leaves() == (3, 4, 6, 8)
    t6 = tree.re_root(6)
    assert t6.leaves() == (3, 4, 8)
    # pure function: the original is untouched
    assert tree.root == 1


def test_invariant_violations_rejected():
    with pytest.raises(ValidationError):
        TreeTopology([(0, 1), (1, 2), (2, 0)], root=0)  # cycle
    with pytest.raises(ValidationError):
        TreeTopology([(0, 1), (2, 3)], root=0)  # disconnected
    with pytest.raises(ValidationError):
        TreeTopology([(0, 0)], root=0)  # self-loop
    with pytest.raises(ValidationError):
        TreeTopology([(0, 1)], root=7)  # root not a node
    with pytest.raises(ValidationError):
        TreeTopology([(0, 1)], root=0, phys_dims={0: 0})


def test_default_phys_dim_is_two(tree):
    assert all(tree.phys_dim(s) == 2 for s in tree.nodes)
    t = TreeTopology([(0, 1)], root=0, phys_dims={1: 5})
    assert t.phys_dim(0) == 2 and t.phys_dim(1) == 5


def test_json_round_trip(tree):
    text = tree_to_json(tree)
    back = tree_from_json(text)
    assert back == tree


def test_json_order_insensitive():
    a = tree_from_json(json.dumps(
        {"root": 1, "edges": [[2, 1], [3, 2], [2, 4], [5, 1],
                              [6, 5], [7, 5], [8, 7]]}))
    assert a == demo_tree()


def test_json_rejects_bad_trees():
    with pytest.raises(ValidationError):
        tree_from_json(json.dumps({"root": 0, "edges": [[0, 1], [1, 0]]}))
    with pytest.raises(ValidationError):
        tree_from_json(json.dumps({"edges": [[0, 1]]}))
