import hashlib
from collections import Counter

import numpy as np
import pytest

from ttno.diagram import StateDiagram, from_hamiltonian
from ttno.errors import (DuplicateTermError, PathCapExceededError,
                         ValidationError)
from ttno.operators import (Hamiltonian, ProductTerm, SiteOperator,
                            random_hamiltonian)
from ttno.oqs import TOPOLOGIES, OQSSpec, oqs_hamiltonian
from ttno.tree import TreeTopology

from conftest import demo_terms, demo_tree, pauli_term
from oracles import pick_nonleaf_root, random_tree_edges
from test_svdref import user_matrix_system


def folded_keys(h):
    return Counter(t.key() for t in h.folded_terms())


def path_keys(diagram):
    return Counter(t.key() for t in diagram.enumerate_single_paths())


def test_single_term_diagram_shape(tree):
    g = StateDiagram.from_single_term(tree,
                                      pauli_term({2: "Y", 3: "X", 4: "X"}))
    assert g.n_vertices() == 7  # one per bond
    assert g.n_hyperedges() == 8  # one per site
    labels = {s: g.eps[s][0].op.label for s in tree.nodes}
    assert labels == {1: "I", 2: "Y", 3: "X", 4: "X",
                      5: "I", 6: "I", 7: "I", 8: "I"}
    assert all(len(vs) == 1 for vs in g.w.values())
    g.validate()


def test_single_term_diagram_empty_term():
    pair = TreeTopology([(0, 1)], root=0)
    g = StateDiagram.from_single_term(pair, ProductTerm(1.0, {}))
    assert g.n_vertices() == 1
    assert g.n_hyperedges() == 2
    assert all(y.op.label == "I" for ys in g.eps.values() for y in ys)


def test_single_term_single_path(tree):
    term = pauli_term({1: "X", 2: "Y", 6: "Y"})
    g = StateDiagram.from_single_term(tree, term)
    paths = g.enumerate_single_paths()
    assert len(paths) == 1
    assert paths[0].key() == term.key()


def test_demo_hamiltonian_bond_dimensions(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    dims = g.bond_dimensions()
    assert max(dims.values()) == 3
    assert dims == {(1, 2): 3, (1, 5): 3, (2, 3): 2, (2, 4): 2,
                    (5, 6): 2, (5, 7): 2, (7, 8): 2}
    g.validate()


def test_naive_union_baseline(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian, reuse=False)
    assert all(d == 4 for d in g.bond_dimensions().values())
    # still semantically correct
    assert path_keys(g) == folded_keys(demo_hamiltonian)


def test_add_term_path_count_and_products(demo_hamiltonian):
    tree = demo_hamiltonian.tree
    terms = demo_hamiltonian.folded_terms()
    g = StateDiagram.from_single_term(tree, terms[0])
    seen = Counter([terms[0].key()])
    for t in terms[1:]:
        before = len(g.enumerate_single_paths())
        g.add_term(t)
        paths = g.enumerate_single_paths()
        assert len(paths) == before + 1
        seen[t.key()] += 1
        assert Counter(p.key() for p in paths) == seen


def test_add_duplicate_term_rejected(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    with pytest.raises(DuplicateTermError):
        g.add_term(demo_hamiltonian.terms[0])


def test_demo_path_products(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    assert path_keys(g) == folded_keys(demo_hamiltonian)


def test_single_paths_are_vertex_consistent(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    paths = g.single_paths()
    assert len(paths) == 4
    for p in paths:
        assert set(p.chosen) == set(g.tree.nodes)
        p.validate(g.tree)


def test_root_choice_invariance(demo_hamiltonian):
    base = from_hamiltonian(demo_hamiltonian).bond_dimensions()
    t5 = demo_tree(root=5)
    g5 = from_hamiltonian(Hamiltonian(t5, demo_terms()))
    assert g5.bond_dimensions() == base  # same undirected edges, same dims


def test_root_at_leaf_degrades_one_edge(demo_hamiltonian):
    base = from_hamiltonian(demo_hamiltonian).bond_dimensions()
    t6 = demo_tree(root=6)
    with pytest.warns(UserWarning):
        g6 = from_hamiltonian(Hamiltonian(t6, demo_terms()))
    dims = g6.bond_dimensions()
    assert dims[(5, 6)] == 4
    for e, d in base.items():
        if e != (5, 6):
            assert dims[e] == d


def test_nonleaf_roots_all_agree(demo_hamiltonian):
    base = from_hamiltonian(demo_hamiltonian).bond_dimensions()
    for root in (2, 5, 7):
        t = demo_tree(root=root)
        g = from_hamiltonian(Hamiltonian(t, demo_terms()))
        assert g.bond_dimensions() == base


def test_semantic_soundness_random_suite():
    rng = np.random.default_rng(321)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        n_terms = int(rng.integers(1, 31))
        n_terms = min(n_terms, 3 ** n - 1)
        h = random_hamiltonian(tree, n_terms, ("X", "Y", "Z"),
                               seed=(321, trial))
        g = from_hamiltonian(h)
        g.validate()
        assert path_keys(g) == folded_keys(h)


def test_mergeability_exclusion_random_suite():
    rng = np.random.default_rng(654)
    for trial in range(15):
        n = int(rng.integers(3, 9))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        h = random_hamiltonian(tree, 20, ("X", "Y", "Z"), seed=(654, trial))
        g = from_hamiltonian(h)
        for s, ys in g.eps.items():
            combos = [(y.op.label, y.vertex_set()) for y in ys]
            assert len(set(combos)) == len(combos)


def test_work_counter_bound_random_suite():
    # frozen constant: the max observed ratio is ~0.4 on the demo tree and
    # ~1.7 across 300 random trees of 3-11 sites
    C = 8
    rng = np.random.default_rng(77)
    tree = demo_tree()
    n_leaves, depth = len(tree.leaves()), tree.depth()
    for trial in range(60):
        n_terms = int(rng.integers(1, 31))
        h = random_hamiltonian(tree, n_terms, ("X", "Y", "Z"),
                               seed=(77, trial))
        g = from_hamiltonian(h)
        assert g.match_visits <= C * n_terms * n_leaves * depth


def test_match_visits_scale_with_lookups():
    # 40-site random recursive tree, 1,200 Pauli terms of support <= 4: the
    # climb examines ~2.1 index hits per term and leaf, where a scan of the
    # hyperedges at each site examined ~108
    rng = np.random.default_rng(1)
    edges = random_tree_edges(rng, 40)
    tree = TreeTopology(edges, pick_nonleaf_root(edges, 40))
    h = random_hamiltonian(tree, 1200, ("X", "Y", "Z"), 4, seed=(1, 1))
    g = from_hamiltonian(h)
    assert g.match_visits <= 3 * len(h.terms) * len(tree.leaves())


def _drop_full(g):
    del g._full[2][next(iter(g._full[2]))]


def _refile_full(g):
    key, y = g._full[2].popitem()
    g._full[2][(-1, *key[1:])] = y


def _repeat_open(g):
    hits = next(iter(g._open[2][1].values()))
    hits.append(hits[0])


def _drop_open(g):
    next(iter(g._open[2][0].values())).pop()


def _refile_open(g):
    key, hits = g._open[2][2].popitem()
    g._open[2][2][(-1, *key[1:])] = hits


@pytest.mark.parametrize("corrupt, message", [
    (_drop_full, "full index"), (_refile_full, "full index"),
    (_repeat_open, "open index"), (_drop_open, "open index"),
    (_refile_open, "open index")])
def test_validate_catches_index_drift(demo_hamiltonian, corrupt, message):
    g = from_hamiltonian(demo_hamiltonian)
    g.validate()
    corrupt(g)
    with pytest.raises(ValidationError, match=message):
        g.validate()


def pinned_suite():
    """Hamiltonians whose diagram dumps are pinned by digest."""
    rng = np.random.default_rng(4242)
    for trial in range(200):
        n = int(rng.integers(3, 31))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        yield random_hamiltonian(tree, int(rng.integers(1, 37)),
                                 ("X", "Y", "Z"), int(rng.integers(2, 5)),
                                 seed=(4242, trial))
    for kind in TOPOLOGIES:
        for spins, baths, boson_dim in ((2, 1, 2), (3, 2, 3), (5, 3, 2)):
            yield oqs_hamiltonian(OQSSpec(spins, baths, g=0.3 - 0.8j,
                                          boson_dim=boson_dim), kind)
    rng = np.random.default_rng(8086)
    for _ in range(10):
        yield user_matrix_system(rng)[0]
    x = SiteOperator("X", 2)
    yield Hamiltonian(TreeTopology([(1, 2), (2, 3)], root=2), [
        ProductTerm(2.0, {1: x, 2: x}),
        ProductTerm(1.0, {1: SiteOperator("2*X", 2), 3: x})])


# SHA-256 of the concatenated dumps, computed with the list-scanning
# construction that the hash indexes replaced
PINNED_DUMP_DIGEST = ("9b9153a78047f5bfa2c40194228f44dc"
                      "f904fade5c17239d496ac7f80c68cc66")


def test_dumps_pinned():
    digest = hashlib.sha256()
    for h in pinned_suite():
        digest.update(from_hamiltonian(h).dump().encode())
    assert digest.hexdigest() == PINNED_DUMP_DIGEST


def test_path_cap():
    tree = demo_tree()
    h = random_hamiltonian(tree, 12, ("X", "Y", "Z"), seed=9)
    g = from_hamiltonian(h)
    with pytest.raises(PathCapExceededError):
        g.enumerate_single_paths(cap=3)


def test_coefficients_fold_before_matching():
    # same symbol with different scalars must not share a hyperedge
    pair = TreeTopology([(0, 1), (1, 2)], root=1)
    h = Hamiltonian(pair, [
        ProductTerm(1.0, {0: SiteOperator("X", 2), 2: SiteOperator("X", 2)}),
        ProductTerm(2.0, {0: SiteOperator("X", 2), 2: SiteOperator("X", 2)}),
    ])
    g = from_hamiltonian(h)
    assert path_keys(g) == folded_keys(h)
    labels0 = sorted(y.op.label for y in g.eps[0])
    assert labels0 == ["2*X", "X"]


def test_deep_chain_builds_and_enumerates():
    # far deeper than the default recursion limit
    n = 1500
    chain = TreeTopology([(i, i + 1) for i in range(n - 1)], root=1)
    h = Hamiltonian(chain, [
        pauli_term({0: "X", 1: "X"}),
        pauli_term({n // 2: "Z"}),
        pauli_term({0: "Z", n - 1: "Z"}),
        ProductTerm(-2.0, {n - 2: SiteOperator("X", 2),
                           n - 1: SiteOperator("X", 2)}),
    ])
    g = from_hamiltonian(h)
    g.validate()
    assert path_keys(g) == folded_keys(h)


def test_dump_is_stable(demo_hamiltonian):
    a = from_hamiltonian(demo_hamiltonian).dump()
    b = from_hamiltonian(demo_hamiltonian).dump()
    assert a == b
    assert "w(1, 2):" in a and "eps[1]:" in a
