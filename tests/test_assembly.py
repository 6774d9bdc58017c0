import numpy as np
import pytest

from ttno.assembly import (assign_indices, canonical_legs, contract_to_dense,
                           dense_element_count, element_count, emit_tensors,
                           read_ttno, write_ttno)
from ttno.diagram import StateDiagram, from_hamiltonian
from ttno.errors import DenseCapExceededError
from ttno.operators import (Hamiltonian, OperatorRegistry, ProductTerm,
                            SiteOperator, random_hamiltonian, to_dense)
from ttno.tree import TreeTopology

from conftest import demo_tree, pauli_term
from oracles import pick_nonleaf_root, random_tree_edges


def test_assign_indices_single_term(tree):
    g = StateDiagram.from_single_term(tree, pauli_term({2: "Y", 3: "X"}))
    a = assign_indices(g)
    assert all(list(m.values()) == [0] for m in a.values())


def test_assign_indices_insertion_order_and_determinism(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    a = assign_indices(g)
    for e, vs in g.w.items():
        assert [a[e][v.uid] for v in vs] == list(range(len(vs)))
    g2 = from_hamiltonian(demo_hamiltonian)
    a2 = assign_indices(g2)
    assert ([sorted(m.values()) for m in a.values()]
            == [sorted(m.values()) for m in a2.values()])
    assert g.dump() == g2.dump()


def test_canonical_leg_order(tree):
    assert canonical_legs(tree, 1) == ((1, 2), (1, 5))  # root: children only
    assert canonical_legs(tree, 5) == ((1, 5), (5, 6), (5, 7))  # parent first
    assert canonical_legs(tree, 8) == ((7, 8),)


def test_single_term_tensors_have_one_slice_each(tree):
    term = pauli_term({2: "Y", 3: "X", 4: "X"})
    g = StateDiagram.from_single_term(tree, term)
    ttno = emit_tensors(g)
    for t in ttno.tensors.values():
        assert t.nonzero_slices() == 1
        assert t.bond_dims == (1,) * len(t.legs)
    assert element_count(ttno) == 8 * 4
    assert dense_element_count(ttno) == 8 * 4


def test_single_term_contraction_is_kron(tree):
    term = pauli_term({2: "Y", 3: "X", 4: "X"})
    g = StateDiagram.from_single_term(tree, term)
    got = contract_to_dense(emit_tensors(g))
    want = to_dense(Hamiltonian(tree, [term]))
    assert np.allclose(got, want, atol=1e-12)


def test_demo_contraction_matches_dense(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    ttno = emit_tensors(g)
    got = contract_to_dense(ttno)
    want = to_dense(demo_hamiltonian)
    assert got.shape == (256, 256)
    assert np.allclose(got, want, atol=1e-12)
    # bond dims of the emitted tensors equal the diagram's
    assert ttno.bond_dimensions() == g.bond_dimensions()


def test_contraction_respects_ordering(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    ttno = emit_tensors(g)
    ordering = [3, 1, 4, 2, 8, 6, 7, 5]
    got = contract_to_dense(ttno, ordering=ordering)
    want = to_dense(demo_hamiltonian, ordering=ordering)
    assert np.allclose(got, want, atol=1e-12)


def test_contraction_linear_in_terms(demo_hamiltonian):
    tree = demo_hamiltonian.tree
    t1, t2 = demo_hamiltonian.terms[:2], demo_hamiltonian.terms[2:]
    d1 = contract_to_dense(emit_tensors(from_hamiltonian(Hamiltonian(tree, t1))))
    d2 = contract_to_dense(emit_tensors(from_hamiltonian(Hamiltonian(tree, t2))))
    total = contract_to_dense(emit_tensors(from_hamiltonian(demo_hamiltonian)))
    assert np.allclose(d1 + d2, total, atol=1e-12)


def test_sparsity_matches_hyperedge_count_when_collision_free(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    a = assign_indices(g)
    ttno = emit_tensors(g)
    for s, t in ttno.tensors.items():
        # non-zero slices never exceed the hyperedge count ...
        assert t.nonzero_slices() <= len(g.eps[s])
        # ... and match it exactly when no two hyperedges share a multi-index
        combos = {tuple(a[e][y.connected[e].uid] for e in t.legs)
                  for y in g.eps[s]}
        if len(combos) == len(g.eps[s]):
            assert t.nonzero_slices() == len(g.eps[s])
    # the demo system is collision-free everywhere
    assert all(t.nonzero_slices() == len(g.eps[s])
               for s, t in ttno.tensors.items())


def test_colliding_hyperedges_sum():
    # two terms that differ only in the middle operator share their end
    # vertices; the middle tensor element is the sum of both labels
    path = TreeTopology([(1, 2), (2, 3)], root=2)
    h = Hamiltonian(path, [pauli_term({1: "X", 2: "Y", 3: "X"}),
                           pauli_term({1: "X", 2: "Z", 3: "X"})])
    g = from_hamiltonian(h)
    assert bond_dims_all_one(g)
    ttno = emit_tensors(g)
    got = contract_to_dense(ttno)
    assert np.allclose(got, to_dense(h), atol=1e-12)
    mid = ttno.tensors[2].elements
    y = np.array([[0, -1j], [1j, 0]])
    z = np.array([[1, 0], [0, -1]])
    assert np.allclose(mid[0, 0], y + z)


def test_user_label_colliding_with_derived_label():
    # a user operator named "2*X" (here Z) must not merge with the folded
    # 2 * X at the same site
    assert SiteOperator("X", 2).scaled(2) != SiteOperator("2*X", 2)
    path = TreeTopology([(1, 2), (2, 3)], root=2)
    registry = OperatorRegistry()
    registry.register("2*X", np.diag([1.0, -1.0]))
    h = Hamiltonian(path, [
        ProductTerm(2.0, {1: SiteOperator("X", 2), 2: SiteOperator("X", 2)}),
        ProductTerm(1.0, {1: SiteOperator("2*X", 2),
                          3: SiteOperator("X", 2)}),
    ])
    g = from_hamiltonian(h)
    g.validate()
    assert len(g.eps[1]) == 2
    assert [y.op.label for y in g.eps[1]] == ["2*X", "2*X"]
    got = contract_to_dense(emit_tensors(g, registry=registry))
    want = to_dense(h, registry=registry)
    assert np.allclose(got, want, atol=1e-12, rtol=0.0)


def bond_dims_all_one(g):
    return all(d == 1 for d in g.bond_dimensions().values())


def test_random_suite_exactness():
    rng = np.random.default_rng(987)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        n_terms = min(int(rng.integers(1, 31)), 3 ** n - 1)
        h = random_hamiltonian(tree, n_terms, ("X", "Y", "Z"),
                               seed=(987, trial))
        ttno = emit_tensors(from_hamiltonian(h))
        assert np.allclose(contract_to_dense(ttno), to_dense(h), atol=1e-12)


def test_mixed_physical_dimensions():
    tree = TreeTopology([(0, 1), (1, 2)], root=1, phys_dims={1: 3})
    h = Hamiltonian(tree, [
        ProductTerm(1.0, {0: SiteOperator("X", 2), 1: SiteOperator("N", 3)}),
        ProductTerm(0.5, {1: SiteOperator("B", 3), 2: SiteOperator("Z", 2)}),
    ])
    ttno = emit_tensors(from_hamiltonian(h))
    assert np.allclose(contract_to_dense(ttno), to_dense(h), atol=1e-12)


def test_contract_cap():
    tree = demo_tree()
    h = Hamiltonian(tree, [pauli_term({1: "X"})])
    ttno = emit_tensors(from_hamiltonian(h))
    with pytest.raises(DenseCapExceededError):
        contract_to_dense(ttno, cap=16)


def test_dump_round_trip_bit_exact(tmp_path, demo_hamiltonian):
    ttno = emit_tensors(from_hamiltonian(demo_hamiltonian))
    p = tmp_path / "demo.ttno.json"
    write_ttno(ttno, str(p))
    back = read_ttno(str(p))
    for s, t in ttno.tensors.items():
        assert back.tensors[s].legs == t.legs
        assert np.array_equal(back.tensors[s].elements, t.elements)
    # write -> read -> write is byte-stable
    p2 = tmp_path / "again.ttno.json"
    write_ttno(back, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_dump_round_trip_preserves_irrationals(tmp_path):
    tree = TreeTopology([(0, 1)], root=0)
    h = Hamiltonian(tree, [ProductTerm(np.pi + 1j / 3,
                                       {0: SiteOperator("X", 2),
                                        1: SiteOperator("Y", 2)})])
    ttno = emit_tensors(from_hamiltonian(h))
    p = tmp_path / "t.json"
    write_ttno(ttno, str(p))
    back = read_ttno(str(p))
    for s in ttno.tensors:
        assert np.array_equal(back.tensors[s].elements,
                              ttno.tensors[s].elements)
