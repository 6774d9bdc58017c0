import json
import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttno.errors import ValidationError
from ttno.tree import TreeTopology, edge_key

from conftest import (DEMO_EDGES, ball, boundary, component_without_edge,
                      demo_tree, tree_from_json, tree_to_json)
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
    # oracle: t is in subtree(s) iff s lies on the path from t to the root,
    # that is iff d(t, root) = d(t, s) + d(s, root)
    def d(a, b):
        return bfs_distance(DEMO_EDGES, a, b)

    for s in tree.nodes:
        want = {t for t in tree.nodes
                if d(t, tree.root) == d(t, s) + d(s, tree.root)}
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
    assert max(tree.rooting.depth.values()) == 3
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


def _random_rooted_trees(seed, count):
    """Seeded random trees of 1-31 sites, each under a random root; every
    fourth tree is rooted at a site with one neighbour."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 32))
        edges = random_tree_edges(rng, n)
        degree = np.bincount(np.array(edges, dtype=int).reshape(-1),
                             minlength=n)
        ends = np.flatnonzero(degree == 1)
        root = (int(rng.choice(ends)) if k % 4 == 0 and len(ends)
                else int(rng.integers(n)))
        yield rng, edges, TreeTopology(edges, root)


def _preorder(edges, root):
    """Preorder of the edge list's tree from ``root``, children ascending."""
    adj = {root: []}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    out, stack = [], [(root, None)]
    while stack:
        s, parent = stack.pop()
        out.append(s)
        stack.extend((n, s) for n in sorted(adj[s], reverse=True)
                     if n != parent)
    return tuple(out)


def test_rooting_is_a_preorder_with_ascending_children():
    assert demo_tree().rooting.order == (1, 2, 3, 4, 5, 6, 7, 8)
    assert demo_tree().last_leaf_rooting.order == (8, 7, 5, 1, 2, 3, 4, 6)
    for _, edges, tree in _random_rooted_trees(11, 60):
        for r in (tree.rooting, tree.last_leaf_rooting):
            assert r.order == _preorder(edges, r.root)
            for s in r.order:
                assert r.depth[s] == bfs_distance(edges, s, r.root)
                a, b = r.span[s]
                assert r.order[a] == s
                below = (set(tree.nodes) if s == r.root else
                         component_without_edge(tree, (s, r.up[s]), s))
                assert set(r.order[a:b]) == below


def test_neighbours_and_incident_edges_ascend():
    # one pass over the sorted edges lists each site's neighbours and edges
    # in ascending order, whatever the order and orientation of the input
    for rng, edges, tree in _random_rooted_trees(13, 60):
        edges = [e[::-1] if rng.integers(2) else e for e in edges]
        rng.shuffle(edges)
        shuffled = TreeTopology(edges, tree.root)
        assert shuffled == tree
        for s in tree.nodes:
            nbrs = shuffled.neighbours(s)
            assert list(nbrs) == sorted(
                {b for a, b in edges if a == s} | {a for a, b in edges
                                                   if b == s})
            assert shuffled.incident[s] == tuple(edge_key(s, n)
                                                 for n in nbrs)


def test_single_site_tree():
    tree = TreeTopology([], 5)
    assert (tree.nodes, tree.edges, tree.root) == ((5,), (), 5)
    assert tree.neighbours(5) == () and tree.incident == {5: ()}
    assert tree.leaves() == (5,) and tree.phys_dims == {5: 2}
    assert tree == TreeTopology.from_json_dict({"root": 5, "edges": []})


def test_steiner_matches_cut_oracle():
    for rng, edges, tree in _random_rooted_trees(5, 120):
        n = len(tree.nodes)
        for r in (tree.rooting, tree.last_leaf_rooting):
            for k in (1, 2, 3, n):
                support = {int(x) for x in rng.choice(n, min(k, n), False)}
                if k == 3:
                    support.add(r.root)
                below, top = r.steiner(
                    [int(x) for x in rng.permutation(sorted(support))])
                assert set(below) == {
                    x for x in r.order[1:] if 0 < len(support & (
                        component_without_edge(tree, (x, r.up[x]), x)))
                    < len(support)}
                # the top is a Steiner site with no member of the support
                # toward the root
                sides = {m: support & component_without_edge(tree, (top, m), m)
                         for m in tree.neighbours(top)}
                assert top in support or sum(map(bool, sides.values())) >= 2
                assert not sides.get(r.up[top])


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
    with pytest.raises(ValidationError):  # disconnected, root on a cycle
        TreeTopology([(0, 1), (2, 3), (3, 4), (4, 2)], root=2)
    with pytest.raises(ValidationError):
        TreeTopology([(0, 0)], root=0)  # self-loop
    with pytest.raises(ValidationError, match="site ids must be non-negative"):
        TreeTopology([(0, 1), (1, -2)], root=0)
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


@pytest.mark.parametrize("edges, root, phys_dims, message", [
    ([(0, 1), (1, " 2")], 1, None, "edge (1, ' 2')"),
    ([(0, 1.0)], 0, None, "edge (0, 1.0)"),
    ([(0, 1)], 0.0, None, "root 0.0"),
    ([(0, 1)], "0", None, "root '0'"),
    ([(0, 1)], 0, {"0": "3"}, "phys_dims entry '0': '3'"),
    ([(0, 1)], 0, {1: True}, "phys_dims entry 1: True"),
])
def test_non_integer_ids_rejected(edges, root, phys_dims, message):
    # int() would read each of these as a site id or a dimension
    with pytest.raises(ValidationError, match=re.escape(message)):
        TreeTopology(edges, root, phys_dims)


@pytest.mark.parametrize("phys_dims, message", [
    ({"1_0": 3}, "phys_dims entry '1_0'"),
    ({"2": 3, " 02": 4}, "phys_dims entry ' 02'"),
    ({"02": 3}, "phys_dims entry '02'"),
    ({"+2": 3}, "phys_dims entry '+2'"),
    ({"10 ": 3}, "phys_dims entry '10 '"),
])
def test_json_site_keys_in_canonical_form_only(phys_dims, message):
    # int() read "1_0" as site 10 and kept the last of "2" and " 02"
    data = {"root": 1, "edges": [[1, 2], [2, 10]], "phys_dims": phys_dims}
    with pytest.raises(ValidationError, match=re.escape(message)):
        TreeTopology.from_json_dict(data)
    tree = TreeTopology.from_json_dict(dict(data, phys_dims={"10": 3}))
    assert tree.phys_dims == {1: 2, 2: 2, 10: 3}


@pytest.mark.parametrize("edges, root, phys_dims, message", [
    ([], -1, None, "site ids must be non-negative"),
    ([(0, 1)], -1, None, "root -1 is not a site"),
    ([(0, 1)], 0, {True: 3, 0.9: 5}, "phys_dims entry True: 3"),
    ([(0, 1)], 0, {0.9: 5}, "phys_dims entry 0.9: 5"),
    ([(0, 1)], 0, {1: 3, "1": 4}, "keys 1 and '1' both name site 1"),
])
def test_python_site_ids_checked(edges, root, phys_dims, message):
    # the phys_dims keys went unchecked: {True: 3, 0.9: 5} set sites 1 and 0
    with pytest.raises(ValidationError, match=re.escape(message)):
        TreeTopology(edges, root, phys_dims)
    tree = TreeTopology([(0, 1)], 0, {np.int64(1): 3})
    assert tree.nodes == (0, 1) and tree.phys_dims == {0: 2, 1: 3}
    assert all(type(x) is int for x in (*tree.nodes, *tree.phys_dims))


@pytest.mark.parametrize("edges", [3, None, "12", {"1": 2}])
def test_json_edges_must_be_a_list(edges):
    # a number or null raised TypeError, a traceback from the CLI
    with pytest.raises(ValidationError, match="'edges' must be a list"):
        TreeTopology.from_json_dict({"root": 1, "edges": edges})


def test_numpy_integer_ids_become_ints():
    i = np.int64
    tree = TreeTopology([(i(0), i(1))], i(1), {"0": i(3)})
    assert tree.nodes == (0, 1) and tree.root == 1
    assert tree.phys_dims == {0: 3, 1: 2}
    assert all(type(x) is int for x in
               (*tree.nodes, *chain(*tree.edges), tree.root,
                *tree.phys_dims.values()))


# values of the wrong JSON type for a site id or a dimension, and integers
JSON_SWAPS = st.one_of(st.booleans(), st.floats(-2, 10),
                       st.integers(-2, 10).map(str),
                       st.lists(st.integers(0, 9), max_size=2), st.none(),
                       st.integers(-2, 10))


@given(st.sampled_from(("root", "edge", "phys_dims")), st.integers(0, 13),
       JSON_SWAPS)
def check_json_swap(field, slot, value):
    """Demo tree JSON with ``value`` put in place of the root, one edge
    endpoint or one phys_dims value: refused unless ``value`` is an int."""
    data = json.loads(json.dumps(demo_tree().to_json_dict()))
    if field == "root":
        data["root"] = value
    elif field == "edge":
        data["edges"][slot // 2][slot % 2] = value
    else:
        data["phys_dims"][str(1 + slot % 8)] = value
    try:
        tree = TreeTopology.from_json_dict(data)
    except ValidationError:
        return
    assert type(value) is int
    assert all(type(x) is int for x in
               (*tree.nodes, *chain(*tree.edges), tree.root,
                *tree.phys_dims, *tree.phys_dims.values()))


def test_tree_json_takes_integer_ids_only(hypothesis_home):
    check_json_swap()
