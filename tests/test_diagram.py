import gc
import hashlib
import math
import pickle
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ttno.diagram
import ttno.operators
from ttno.diagram import StateDiagram, from_hamiltonian
from ttno.errors import (DuplicateTermError, PathCapExceededError,
                         ValidationError)
from ttno.operators import (Hamiltonian, OperatorRegistry, ProductTerm,
                            SiteOperator, random_hamiltonian)
from ttno.oqs import TOPOLOGIES, OQSSpec, oqs_hamiltonian
from ttno.tree import TreeTopology

from conftest import demo_terms, demo_tree, pauli_term
from oracles import pick_nonleaf_root, random_tree_edges, reference_diagram
from test_svdref import user_matrix_system


def folded_keys(h):
    return Counter(t.key() for t in h.folded_terms())


def path_keys(diagram):
    return Counter(t.key() for t in diagram.enumerate_single_paths())


@pytest.mark.parametrize("topology", [
    demo_tree(), demo_tree(root=3), TreeTopology([], root=0),
    TreeTopology([(0, 1), (1, 2), (2, 3)], root=0)])
def test_empty_diagram(topology):
    # the empty diagram sets its identity-message caches without computing
    # them; validate() recomputes them all and compares
    g = StateDiagram(topology)
    g.validate()
    assert g.single_paths() == []
    assert g.bond_dimensions() == dict.fromkeys(topology.edges, 0)
    assert g.n_hyperedges() == 0


def test_single_term_diagram_shape(tree):
    g = StateDiagram.from_single_term(tree,
                                      pauli_term({2: "Y", 3: "X", 4: "X"}))
    assert g.n_vertices() == 7  # one per bond
    assert g.n_hyperedges() == 8  # one per site
    labels = {s: g.ops[y[0]].label for s in tree.nodes for y in g.eps[s]}
    assert labels == {1: "I", 2: "Y", 3: "X", 4: "X",
                      5: "I", 6: "I", 7: "I", 8: "I"}
    assert all(len(vs) == 1 for vs in g.w.values())
    g.validate()


def test_single_term_diagram_empty_term():
    pair = TreeTopology([(0, 1)], root=0)
    g = StateDiagram.from_single_term(pair, ProductTerm(1.0, {}))
    assert g.n_vertices() == 1
    assert g.n_hyperedges() == 2
    assert all(g.ops[y[0]].label == "I" for ys in g.eps.values() for y in ys)


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
    g = reference_diagram(demo_hamiltonian,
                          [False] * len(demo_hamiltonian.terms))
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
    # from_hamiltonian takes the term keys from the Hamiltonian's table,
    # so a raw term that folds onto one of them is refused too
    x = SiteOperator("X", 2)
    single = TreeTopology([], root=0)
    h = Hamiltonian(single, [ProductTerm(1.0, {0: x.scaled(2)})])
    g = from_hamiltonian(h)
    with pytest.raises(DuplicateTermError, match="term already represented"):
        g.add_term(ProductTerm(2.0, {0: x}))
    # the terms cannot change under the table
    with pytest.raises(AttributeError):
        h.terms.append(ProductTerm(1.0, {0: SiteOperator("Z", 2)}))


@pytest.mark.parametrize("factors, message", [
    ({9: SiteOperator("X", 2)}, "term 1 acts on unknown site 9"),
    ({0: SiteOperator("X", 3)},
     "term 1: operator 'X' (dim 3) does not match site 0 (dim 2)"),
], ids=["unknown_site", "dim_mismatch"])
def test_add_term_refuses_factors_off_the_tree(factors, message):
    # add_term skipped the Hamiltonian's checks: a KeyError for site 9, and
    # a 3x3 operator on a qubit whose bond dimensions were then reported
    chain = TreeTopology([(0, 1), (1, 2)], root=1)
    g = StateDiagram(chain).add_term(pauli_term({0: "Z"}))
    before = g.dump()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        g.add_term(ProductTerm(1.0, factors))
    assert g.dump() == before
    assert len(g.terms) == 1
    g.validate()


def test_from_hamiltonian_refuses_no_terms(tree):
    with pytest.raises(ValidationError, match="Hamiltonian has no terms"):
        from_hamiltonian(Hamiltonian(tree, []))


def test_demo_path_products(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    assert path_keys(g) == folded_keys(demo_hamiltonian)


def test_single_paths_are_vertex_consistent(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    paths = g.single_paths()
    assert len(paths) == 4
    r = g.tree.rooting
    for p in paths:
        assert set(p) == set(g.tree.nodes)
        for s in r.order[1:]:
            assert p[s][r.up_slot[s] + 1] == p[r.up[s]][r.down_slot[s] + 1]


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
            combos = [(g.ops[y[0]].label, frozenset(y[1:])) for y in ys]
            assert len(set(combos)) == len(combos)


def test_work_counter_bound_random_suite():
    # frozen constant: the max observed ratio is ~0.4 on the demo tree and
    # ~1.4 across 300 random trees of 3-11 sites
    C = 8
    rng = np.random.default_rng(77)
    tree = demo_tree()
    n_leaves, depth = len(tree.leaves()), max(tree.rooting.depth.values())
    for trial in range(60):
        n_terms = int(rng.integers(1, 31))
        h = random_hamiltonian(tree, n_terms, ("X", "Y", "Z"),
                               seed=(77, trial))
        g = from_hamiltonian(h)
        assert g.match_visits <= C * n_terms * n_leaves * depth


def random40_hamiltonian(seed):
    """1,200 Pauli terms of support <= 4 on a 40-site random recursive
    tree; at seed 1 the diagram has 1,929 vertices and 3,129 hyperedges."""
    rng = np.random.default_rng(1)
    edges = random_tree_edges(rng, 40)
    tree = TreeTopology(edges, pick_nonleaf_root(edges, 40))
    return random_hamiltonian(tree, 1200, ("X", "Y", "Z"), 4,
                              seed=(seed, 1))


def test_match_visits_scale_with_lookups():
    # the messages and cache refreshes examine ~0.45 index hits per term
    # and leaf, where climbs from every leaf examined ~2.1 and a scan of the
    # hyperedges at each site ~108
    h = random40_hamiltonian(1)
    g = from_hamiltonian(h)
    assert g.match_visits <= 3 * len(h.terms) * len(h.tree.leaves())


def test_match_visits_skip_dead_hits_and_idle_refreshes():
    # 13,447 when every hyperedge was filed on every slot and any new
    # identity recomputed the identity messages around its site: an open
    # index holds only the first hyperedge on each vertex, and a message is
    # recomputed only where the new hyperedge can change it
    g = from_hamiltonian(random40_hamiltonian(1))
    assert g.match_visits < 11_000


def demo_samples(seed):
    """The r_diff study's samples: 5/10/20/30 Pauli terms x 25 on the demo
    tree."""
    tree = demo_tree()
    return [random_hamiltonian(tree, n, ("X", "Y", "Z"), None,
                               seed=[seed, n, i])
            for n in (5, 10, 20, 30) for i in range(25)]


@pytest.mark.parametrize("make", [
    lambda: [random40_hamiltonian(1)],
    lambda: [oqs_hamiltonian(OQSSpec(24, 6, boson_dim=4), "star")],
    lambda: demo_samples(7),
], ids=["random40", "oqs_star", "demo_samples"])
def test_entry_paths_do_the_same_work(make):
    # per-term timings grow a diagram by from_single_term and add_term;
    # they describe from_hamiltonian only if both paths build the same
    # diagram with the same lookups, from folded terms or from raw ones
    for h in make():
        whole = from_hamiltonian(h)
        folded = h.folded_terms()
        by_term = StateDiagram.from_single_term(h.tree, folded[0])
        for term in folded[1:]:
            by_term.add_term(term)
        raw = StateDiagram(h.tree)
        for term in h.terms:
            raw.add_term(term)
        for g in (by_term, raw):
            assert g.dump() == whole.dump()
            assert g.match_visits == whole.match_visits


def hub_hamiltonian(n):
    """Z on each leaf of an n-leaf hub, then X on the hub and each leaf."""
    tree = TreeTopology([(0, i) for i in range(1, n + 1)], root=0)
    terms = [pauli_term({i: "Z"}) for i in range(1, n + 1)]
    terms += [pauli_term({0: "X", i: "X"}) for i in range(1, n + 1)]
    return Hamiltonian(tree, terms)


@pytest.mark.parametrize("system, visits", [
    ("random40", 9_727),
    ("oqs_star", 478),
    ("oqs_chain", 1_197),
    ("hub600", 1_200),
])
def test_match_visits_pinned(system, visits):
    # exact counts of index hits examined: a change to how the caches are
    # refreshed must examine the same hits, not merely stay under a bound
    h = {"random40": lambda: random40_hamiltonian(1),
         "oqs_star": lambda: oqs_hamiltonian(OQSSpec(24, 6, boson_dim=4),
                                             "star"),
         "oqs_chain": lambda: oqs_hamiltonian(OQSSpec(24, 6, boson_dim=4),
                                              "chain"),
         "hub600": lambda: hub_hamiltonian(600)}[system]()
    assert from_hamiltonian(h).match_visits == visits


@pytest.mark.parametrize("make", [
    lambda: random_hamiltonian(demo_tree(), 60, ("X", "Y", "Z"), 4, seed=3),
    # exchange terms carry -J, so their folds build new terms
    lambda: oqs_hamiltonian(OQSSpec(4, 2, boson_dim=3), "star"),
])
def test_each_term_keyed_and_folded_once(monkeypatch, make):
    # the Hamiltonian folds and keys each term for its duplicate check, and
    # construction reads that table: one key and one fold per term in all
    calls = Counter()
    key, fold = ProductTerm.key, ttno.operators.fold_coefficient

    def counted_key(term):
        calls["key"] += 1
        return key(term)

    def counted_fold(*args):
        calls["fold"] += 1
        return fold(*args)

    monkeypatch.setattr(ProductTerm, "key", counted_key)
    monkeypatch.setattr(ttno.operators, "fold_coefficient", counted_fold)
    g = from_hamiltonian(make())
    n = len(g.terms)
    assert calls == {"key": n, "fold": n}


def test_hub_refreshes_linear_in_leaves(monkeypatch):
    # a changed identity message from one leaf of a hub re-keys the messages
    # the hub sends its other leaves, but those stay missing while two
    # other leaves send none; recomputing them all took 359,999 calls here
    n = 600
    h = hub_hamiltonian(n)
    calls = 0
    identity_send = StateDiagram._identity_send

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return identity_send(self, *args)

    monkeypatch.setattr(StateDiagram, "_identity_send", counted)
    g = from_hamiltonian(h)
    assert calls <= 10 * n
    g.validate()


def test_broken_channel_set_shrinks():
    # every leaf of the empty star starts broken and none is at the end; a
    # set that kept its peak table would take ~150 times the empty size
    h = oqs_hamiltonian(OQSSpec(64, 6, boson_dim=2), "star")
    g = StateDiagram(h.tree)
    assert len(g._broken) > 300
    for term in h.folded_terms():
        g.add_term(term)
    assert sys.getsizeof(g._broken) <= 4 * sys.getsizeof(set(g._broken))


def test_diagram_holds_few_tracked_objects():
    # vertices are ints and hyperedges int tuples, which the garbage
    # collector stops tracking; what it still walks is per edge or site
    h = random40_hamiltonian(1)
    gc.collect()
    before = len(gc.get_objects())
    g = from_hamiltonian(h)
    gc.collect()
    assert len(gc.get_objects()) - before < g.n_vertices() + g.n_hyperedges()


def test_large_uids_compare_by_value():
    # CPython shares only the ints up to 256, and a pickle round trip gives
    # every occurrence of a larger uid its own object, so a vertex compared
    # with ``is`` instead of ``==`` goes wrong here
    h = random40_hamiltonian(1)
    g = StateDiagram(h.tree)
    for i, term in enumerate(h.folded_terms(), 1):
        g.add_term(term)
        if i == 600:
            g = pickle.loads(pickle.dumps(g))
        if i % 50 == 0:
            g.validate()
    g.validate()
    assert g.n_vertices() > 256
    assert g.dump() == reference_diagram(h).dump()


def _repeat_open(g):
    index = g._slots[2][1][1]
    key, hits = next(iter(index.items()))
    index[key] = hits + hits[:1]


def _drop_open(g):
    index = g._slots[2][0][1]
    key, hits = next(iter(index.items()))
    index[key] = hits[:-1]


def _refile_open(g):
    index = g._slots[2][2][1]
    key, hits = index.popitem()
    index[(-1, *key[1:])] = hits


def _miscount_vertex(g):
    g._degree[1][0] += 1


def _copy_slot(g):
    slots = list(g._slots[2])
    counts, index = slots[1]
    slots[1] = (list(counts), index)
    g._slots[2] = tuple(slots)


def _forget_up_message(g):
    s = next(s for s, v in g._up_id.items() if v is not None)
    g._up_id[s] = None


def _swap_up_messages(g):
    a, b = [s for s, v in g._up_id.items() if v is not None][:2]
    g._up_id[a], g._up_id[b] = g._up_id[b], g._up_id[a]


def _invent_down_message(g):
    s = next(s for s, v in g._down_id.items() if v is None)
    g._down_id[s] = g.w[next(iter(g.w))][0]


def _file_above_broken(g):
    # broken too, but not a lowest member
    g._broken.add(g._rooting.up[next(iter(g._broken))])


def _unfile_broken(g):
    g._broken.pop()


def _file_unbroken(g):
    g._broken.add(next(s for s, v in g._up_id.items() if v is not None))


def _collect_unknown_edge(g):
    g.w[(8, 9)] = []


def _share_vertex(g):
    a, b = list(g.w)[:2]
    g.w[b].append(g.w[a][0])


def _drop_vertex(g):
    g.w[(1, 2)].pop()


def _add_unknown_operator(g):
    y = next(iter(g.eps[2]))
    g.eps[2][(max(g.ops) + 1, *y[1:])] = None


def _add_crossed_hyperedge(g):
    y = next(iter(g.eps[2]))
    g.eps[2][(y[0], y[2], y[1], *y[3:])] = None


def _add_orphan_vertex(g):
    g._new_vertex((1, 2))


@pytest.mark.parametrize("corrupt, message", [
    (_collect_unknown_edge, r"vertex collection for unknown edge \(8, 9\)"),
    (_share_vertex, "vertex 0 in two collections"),
    (_drop_vertex, "vertex collections do not hold the uids 0 to"),
    (_add_unknown_operator, "at site 2 needs a known operator"),
    (_add_crossed_hyperedge, "at site 2 touches a vertex of another edge"),
    (_add_orphan_vertex, "unconnected on side"),
    (_repeat_open, "open index"), (_drop_open, "open index"),
    (_refile_open, "open index"),
    (_miscount_vertex, "hyperedge count of vertex 0"),
    (_copy_slot, r"slot of edge \(2, 3\) at site 2 is not"),
    (_forget_up_message, "identity message on edge"),
    (_swap_up_messages, "identity message on edge"),
    (_invent_down_message, "identity message on edge"),
    (_file_above_broken, "broken-channel index"),
    (_unfile_broken, "broken-channel index"),
    (_file_unbroken, "broken-channel index")])
def test_validate_catches_index_drift(demo_hamiltonian, corrupt, message):
    g = from_hamiltonian(demo_hamiltonian)
    g.validate()
    corrupt(g)
    with pytest.raises(ValidationError, match=message):
        g.validate()


def pinned_systems():
    """(Hamiltonian, operator registry or None) pairs whose diagram dumps
    and TTNO dumps are pinned by digest."""
    rng = np.random.default_rng(4242)
    for trial in range(200):
        n = int(rng.integers(3, 31))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        yield random_hamiltonian(tree, int(rng.integers(1, 37)),
                                 ("X", "Y", "Z"), int(rng.integers(2, 5)),
                                 seed=(4242, trial)), None
    for kind in TOPOLOGIES:
        for spins, baths, boson_dim in ((2, 1, 2), (3, 2, 3), (5, 3, 2)):
            yield oqs_hamiltonian(OQSSpec(spins, baths, g=0.3 - 0.8j,
                                          boson_dim=boson_dim), kind), None
    rng = np.random.default_rng(8086)
    for _ in range(10):
        yield user_matrix_system(rng)
    x = SiteOperator("X", 2)
    registry = OperatorRegistry()
    registry.register("2*X", np.diag([1.0, -1.0]))
    yield Hamiltonian(TreeTopology([(1, 2), (2, 3)], root=2), [
        ProductTerm(2.0, {1: x, 2: x}),
        ProductTerm(1.0, {1: SiteOperator("2*X", 2), 3: x})]), registry


# SHA-256 of the concatenated dumps, computed with the list-scanning
# construction that the hash indexes replaced
PINNED_DUMP_DIGEST = ("9b9153a78047f5bfa2c40194228f44dc"
                      "f904fade5c17239d496ac7f80c68cc66")


def test_dumps_pinned():
    digest = hashlib.sha256()
    for h, _ in pinned_systems():
        digest.update(from_hamiltonian(h).dump().encode())
    assert digest.hexdigest() == PINNED_DUMP_DIGEST


def test_path_cap(monkeypatch):
    tree = demo_tree()
    h = random_hamiltonian(tree, 12, ("X", "Y", "Z"), seed=9)
    g = from_hamiltonian(h)
    monkeypatch.setattr(ttno.diagram, "PATH_CAP", 3)
    with pytest.raises(PathCapExceededError):
        g.enumerate_single_paths()


def test_coefficients_fold_before_matching():
    # same symbol with different scalars must not share a hyperedge
    pair = TreeTopology([(0, 1), (1, 2)], root=1)
    h = Hamiltonian(pair, [
        ProductTerm(1.0, {0: SiteOperator("X", 2), 2: SiteOperator("X", 2)}),
        ProductTerm(2.0, {0: SiteOperator("X", 2), 2: SiteOperator("X", 2)}),
    ])
    g = from_hamiltonian(h)
    assert path_keys(g) == folded_keys(h)
    labels0 = sorted(g.ops[y[0]].label for y in g.eps[0])
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


def build(h):
    """``from_hamiltonian(h)``, validating the diagram after every term."""
    g = StateDiagram(h.tree)
    for term in h.folded_terms():
        g.add_term(term)
        g.validate()
    return g


def assert_matches_reference(h):
    assert build(h).dump() == reference_diagram(h).dump()


def oracle_suite():
    """Random trees of 1-31 sites with random roots (degree-1 roots too),
    support bounds None/2/3/4; every third system has scaled terms and an
    unscaled factor-free term at a random position."""
    rng = np.random.default_rng(6060)
    for trial in range(320):
        n = int(rng.integers(1, 32))
        tree = TreeTopology(random_tree_edges(rng, n), int(rng.integers(n)))
        support = (None, 2, 3, 4)[trial % 4]
        k = n if support is None else min(support, n)
        n_possible = sum(math.comb(n, j) * 3 ** j for j in range(1, k + 1))
        h = random_hamiltonian(tree, min(int(rng.integers(1, 40)), n_possible),
                               ("X", "Y", "Z"), support, seed=(6060, trial))
        if trial % 3 == 0:
            terms = [ProductTerm(complex(rng.choice([1, -2, 0.5j])), t.factors)
                     for t in h.terms]
            terms.insert(int(rng.integers(len(terms) + 1)),
                         ProductTerm(1.0, {}))
            h = Hamiltonian(tree, terms)
        yield trial, h


def assert_built_as_reference(h, label):
    g = from_hamiltonian(h)
    g.validate()
    assert g.dump() == reference_diagram(h).dump(), label


@pytest.mark.filterwarnings("ignore:root has a single neighbour")
def test_matches_reference_construction_on_random_trees():
    for trial, h in oracle_suite():
        assert_built_as_reference(h, trial)


def test_matches_reference_construction_on_oqs_and_random40():
    for kind in TOPOLOGIES:
        for spins, baths, boson_dim in ((2, 1, 2), (3, 2, 3), (5, 3, 2),
                                        (8, 4, 4), (24, 6, 4)):
            assert_built_as_reference(oqs_hamiltonian(
                OQSSpec(spins, baths, g=0.3 - 0.8j, boson_dim=boson_dim),
                kind), (kind, spins, baths))
    for seed in (1, 2):
        assert_built_as_reference(random40_hamiltonian(seed), seed)


X2, Y2, Z2 = (SiteOperator(label, 2) for label in "XYZ")


@pytest.mark.parametrize("edges, root, terms", [
    # the last leaf, 2, carries a factor: its own climb depends on the term
    ([(0, 1), (1, 2)], 1, [{0: X2, 1: X2}, {2: Z2}]),
    # the descent enters site 1, outside Steiner({2}), whose kid 0 sends
    # the cached identity message
    ([(0, 1), (1, 2), (2, 3)], 2,
     [{0: Z2, 2: Z2}, {1: Z2, 2: Z2}, {2: Z2}]),
    # a root with one neighbour never sends
    ([(0, 1)], 1, [{0: X2}, {1: Z2}, {0: X2, 1: Z2}, {0: Z2}]),
    ([(0, 1)], 0, [{0: X2}, {1: Z2}, {0: X2, 1: Z2}, {0: Z2}]),
    # a single site
    ([], 0, [{0: X2}, {0: Z2}, {}, (2.0, {0: Y2})]),
    # factor-free terms, unscaled and scaled, first and later
    ([(1, 2), (2, 3), (2, 4)], 2, [{}, {1: X2, 3: X2}, {3: X2}]),
    ([(1, 2), (2, 3), (2, 4)], 2, [{3: X2}, {}, {1: Z2}, (-1.0, {})]),
])
def test_matches_reference_construction_on_edge_cases(edges, root, terms):
    tree = TreeTopology(edges, root)
    h = Hamiltonian(tree, [ProductTerm(*t) if isinstance(t, tuple)
                           else ProductTerm(1.0, t) for t in terms])
    assert_matches_reference(h)


@pytest.mark.filterwarnings("ignore:root has a single neighbour")
def test_caches_exact_after_every_term():
    # validate() recomputes every identity message and rebuilds the open
    # indexes and the broken-channel set, so a change the refresh missed
    # shows at the term that made it
    for trial, h in oracle_suite():
        if trial % 4 == 0:
            build(h)
    for kind in TOPOLOGIES:
        for spins, baths, boson_dim in ((2, 1, 2), (3, 2, 3), (5, 3, 2)):
            build(oqs_hamiltonian(OQSSpec(spins, baths, g=0.3 - 0.8j,
                                          boson_dim=boson_dim), kind))


@st.composite
def tree_terms(draw):
    """The edges of a random, star or chain tree of 1-15 sites, and 1-30
    distinct terms on it of up to 4 factors X, Y or Z and coefficient 1,
    -1 or 2: few labels, so that paths share vertices often."""
    n = draw(st.integers(1, 15))
    shape = draw(st.sampled_from(("random", "star", "chain")))
    edges = [(draw(st.integers(0, k - 1)) if shape == "random"
              else 0 if shape == "star" else k - 1, k) for k in range(1, n)]
    terms = draw(st.lists(st.builds(
        ProductTerm, st.sampled_from((1.0, -1.0, 2.0)),
        st.dictionaries(st.integers(0, n - 1), st.sampled_from((X2, Y2, Z2)),
                        max_size=4)), min_size=1, max_size=30))
    return edges, list(dict.fromkeys(terms))


@given(system=tree_terms())
def check_graft_adds_only_missing_hyperedges(system):
    edges, terms = system
    for root in range(len(edges) + 1):
        h = Hamiltonian(TreeTopology(edges, root), terms)
        g = from_hamiltonian(h)
        g.validate()
        assert g.dump() == reference_diagram(h).dump()


@pytest.mark.filterwarnings("ignore:root has a single neighbour")
def test_graft_adds_only_missing_hyperedges(monkeypatch, hypothesis_home):
    # the graft adds the path's hyperedge without looking for it first: at
    # every site it visits the hyperedge is missing (module docstring of
    # ttno.diagram), on any tree at any root
    new_hyperedge = StateDiagram._new_hyperedge

    def checked(self, site, op, vs):
        assert (op.op_id, *vs) not in self.eps[site], (site, op, vs)
        return new_hyperedge(self, site, op, vs)

    monkeypatch.setattr(StateDiagram, "_new_hyperedge", checked)
    check_graft_adds_only_missing_hyperedges()


def test_marks_depend_on_the_order_of_leaf_climbs():
    # rooted at 2 the leaves are 1 and 3; the construction climbs from the
    # last leaf last, so X@1 Z@3 reuses the Z@3 path, while climbing from 3
    # first would reuse the X@1 path
    tree = TreeTopology([(1, 2), (2, 3)], root=2)
    h = Hamiltonian(tree, [pauli_term({1: "X"}), pauli_term({3: "Z"}),
                           pauli_term({1: "X", 3: "Z"})])
    dump = from_hamiltonian(h).dump()
    assert dump == reference_diagram(h).dump() == (
        "tree root=2 edges=[(1, 2), (2, 3)]\n"
        "w(1, 2): v0 v2\n"
        "w(2, 3): v1 v3\n"
        "eps[1]: (1, X, v0)\n"
        "eps[1]: (1, I, v2)\n"
        "eps[2]: (2, I, v0 v1)\n"
        "eps[2]: (2, I, v2 v3)\n"
        "eps[3]: (3, I, v1)\n"
        "eps[3]: (3, Z, v3)\n"
        "eps[3]: (3, Z, v1)\n")
    assert reference_diagram(h, leaves=(3, 1)).dump() != dump


def test_match_visits_linear_on_chain():
    # each term examines ~2 open-index hits: its own few sites, with the
    # rest of the chain taken from the identity-message caches
    n = 2000
    chain = TreeTopology([(i, i + 1) for i in range(n - 1)], root=1)
    h = Hamiltonian(chain, [ProductTerm(-1.0, {i: X2, i + 1: X2})
                            for i in range(n - 1)]
                    + [ProductTerm(0.5, {i: Z2}) for i in range(n)])
    g = from_hamiltonian(h)
    assert max(g.bond_dimensions().values()) == 3
    assert g.match_visits <= 4 * len(h.terms)
