import hashlib
import json
import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ttno.assembly import (TTNO, TTNOTensor,
                           canonical_legs, contract_to_dense,
                           dense_element_count, element_count, emit_tensors,
                           read_ttno, tensors_from_blocks, write_ttno)
from ttno.closedform import (CayleyTreeSpec, cayley_tree, nn_ttno,
                             uniform_nn_interaction)
from ttno.diagram import StateDiagram, from_hamiltonian
from ttno.errors import (DenseCapExceededError, UnknownOperatorError,
                         ValidationError)
from ttno.operators import (Hamiltonian, OperatorRegistry, ProductTerm,
                            SiteOperator, random_hamiltonian, to_dense)
from ttno.oqs import OQSSpec, oqs_hamiltonian
from ttno.tree import TreeTopology

from conftest import demo_tree, pauli_term, refuse_allocation
from oracles import pick_nonleaf_root, random_tree_edges, reference_emission
from test_diagram import pinned_systems


def test_assign_indices_single_term(tree):
    g = StateDiagram.from_single_term(tree, pauli_term({2: "Y", 3: "X"}))
    ttno = emit_tensors(g)
    assert all(t.index.tolist() == [[0] * len(t.legs)]
               for t in ttno.tensors.values())


def test_assign_indices_insertion_order_and_determinism(demo_hamiltonian):
    # a vertex's bond index is its position in its edge's collection
    g = from_hamiltonian(demo_hamiltonian)
    ttno = emit_tensors(g)
    for s, t in ttno.tensors.items():
        rows = []
        for y in g.eps[s]:
            vertex = dict(zip(g.tree.incident[s], y[1:]))
            rows.append([g.w[e].index(vertex[e]) for e in t.legs])
        assert sorted(rows) == t.index.tolist()
    g2 = from_hamiltonian(demo_hamiltonian)
    ttno2 = emit_tensors(g2)
    assert all(np.array_equal(t.index, ttno2.tensors[s].index)
               for s, t in ttno.tensors.items())
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
        assert len(t.index) == 1
        assert t.bond_dims == (1,) * len(t.legs)
    assert element_count(ttno) == 8 * 4
    assert dense_element_count(ttno) == 8 * 4


def from_pairs(specs):
    """``tensors_from_blocks`` on specs whose pairs ``(multi-index,
    matrix)`` carry their matrices: each matrix gets a key of its own."""
    matrices, keyed = {}, []
    for site, legs, shape, pairs in specs:
        rows = []
        for idx, m in pairs:
            rows.append((len(matrices), *idx))
            matrices[len(matrices)] = m
        keyed.append((site, legs, shape, rows))
    return tensors_from_blocks(keyed, matrices)


def test_from_blocks_sums_pairs_and_drops_zero_sums():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    (t,) = from_pairs([(7, ((7, 8), (7, 9)), (2, 3, 2, 2), [
        ((1, 2), x), ((0, 1), z), ((1, 2), 0.5 * z), ((1, 0), x),
        ((1, 0), -x), ((0, 0), np.full((2, 2), -0.0))])]).values()
    # sorted in row-major order; X - X and +0.0 + (-0.0) are +0.0, dropped
    assert t.index.tolist() == [[0, 1], [1, 2]]
    assert t.index.dtype == np.int64 and t.blocks.dtype == complex
    assert np.array_equal(t.blocks, [z, x + 0.5 * z])
    assert t.shape == (2, 3, 2, 2) and t.bond_dims == (2, 3)
    dense = t.elements
    assert np.array_equal(dense[1, 2], x + 0.5 * z)
    assert np.count_nonzero(dense) == 6
    with pytest.raises(ValueError, match="read-only"):
        dense[0, 0] = x
    assert not t.elements.any(axis=(2, 3))[0, 0]  # rebuilt from the blocks


def test_from_blocks_sums_in_pair_order_bit_exactly():
    # four matrices on one multi-index sum left to right, as in Python; a
    # sum that cancels to +0.0 is dropped, and -0.0 entries become +0.0
    rng = np.random.default_rng(3)
    ms = [rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-8, 8, (2, 2))
          + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
    neg = np.array([[complex(-0.0, -0.0), 1.0], [complex(0.0, -0.0), 2.0]])
    y = rng.standard_normal((2, 2)) + 0j
    tensors = from_pairs([
        (2, ((1, 2),), (3, 2, 2),
         [((0,), ms[0]), ((2,), neg), ((0,), ms[1]), ((1,), y),
          ((0,), ms[2]), ((1,), -y), ((0,), ms[3])]),
        (1, ((1, 2),), (3, 2, 2), [((0,), ms[3]), ((1,), ms[0])])])
    t = tensors[2]
    assert list(tensors) == [2, 1]
    assert t.index.tolist() == [[0], [2]]  # y + (-y) is dropped
    want = ((ms[0] + ms[1]) + ms[2]) + ms[3]
    assert t.blocks[0].tobytes() == want.tobytes()
    stored = t.blocks[1].view(np.uint64)
    assert not (stored == np.array(-0.0).view(np.uint64)).any()
    assert np.array_equal(t.blocks[1], neg)
    assert tensors[1].blocks.tobytes() == np.array([ms[3], ms[0]]).tobytes()


def test_from_blocks_names_the_site_whose_sum_overflows():
    # both sites sum pairs on one multi-index; only the later one overflows
    big = np.diag([1.5e308, 0.0]).astype(complex)
    one = np.eye(2, dtype=complex)
    specs = [(s, ((4, 5),), (2, 2, 2), pairs) for s, pairs in (
        (4, [((1,), one), ((1,), one), ((0,), big)]),
        (5, [((0,), one), ((1,), big), ((1,), one), ((1,), big)]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=(
                r"^site 5: the matrices summed into block \(1,\) overflow "
                r"to non-finite entries")):
            from_pairs(specs)


def test_tensors_compare_by_identity_and_print_briefly(tree):
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    a, b = (from_pairs([(3, ((2, 3),), (2, 2, 2), [((1,), z)])])[3]
            for _ in range(2))
    assert a == a and a != b  # no elementwise comparison of the arrays
    assert repr(a) == "TTNOTensor(site=3, shape=(2, 2, 2), blocks=1)"
    op, other = (TTNO(tree, {3: t}) for t in (a, b))
    assert op == op and op != other
    assert repr(op) == f"TTNO({tree!r}, tensors=1)"


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


@pytest.mark.parametrize("n", [40, 1500])
def test_contraction_of_long_chain_with_trivial_sites(n):
    # sites of dimension 1 get no axes: 40 of them gave 80 axes (numpy
    # allows 64), and 1,500 overflowed the recursion
    mid = n // 2
    dims = {s: 1 for s in range(n)}
    dims.update({3: 2, mid: 3, n - 2: 2})
    chain = TreeTopology([(i, i + 1) for i in range(n - 1)], root=1,
                         phys_dims=dims)
    x2, z2 = SiteOperator("X", 2), SiteOperator("Z", 2)
    h = Hamiltonian(chain, [
        ProductTerm(1.0, {3: x2, mid: SiteOperator("B", 3)}),
        ProductTerm(0.5j, {mid: SiteOperator("N", 3), n - 2: x2}),
        ProductTerm(-2.0, {n - 2: z2}),
        ProductTerm(1.5, {3: z2, n - 2: z2})])
    ttno = emit_tensors(from_hamiltonian(h))
    got = contract_to_dense(ttno)
    assert got.shape == (12, 12)
    assert np.allclose(got, to_dense(h), atol=1e-12, rtol=0.0)


def test_contraction_linear_in_terms(demo_hamiltonian):
    tree = demo_hamiltonian.tree
    t1, t2 = demo_hamiltonian.terms[:2], demo_hamiltonian.terms[2:]
    d1 = contract_to_dense(emit_tensors(from_hamiltonian(Hamiltonian(tree, t1))))
    d2 = contract_to_dense(emit_tensors(from_hamiltonian(Hamiltonian(tree, t2))))
    total = contract_to_dense(emit_tensors(from_hamiltonian(demo_hamiltonian)))
    assert np.allclose(d1 + d2, total, atol=1e-12)


def test_sparsity_matches_hyperedge_count_when_collision_free(demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    ttno = emit_tensors(g)
    for s, t in ttno.tensors.items():
        # stored blocks never exceed the hyperedge count ...
        assert len(t.index) <= len(g.eps[s])
        # ... and match it exactly when no two hyperedges share a multi-index
        combos = {y[1:] for y in g.eps[s]}
        if len(combos) == len(g.eps[s]):
            assert len(t.index) == len(g.eps[s])
    # the demo system is collision-free everywhere
    assert all(len(t.index) == len(g.eps[s])
               for s, t in ttno.tensors.items())


def test_emission_resolves_each_operator_once():
    calls = Counter()

    class CountingRegistry(OperatorRegistry):
        def resolve(self, op):
            calls[op.op_id] += 1
            return super().resolve(op)

    h = oqs_hamiltonian(OQSSpec(2, 2, boson_dim=3), "star")
    ttno = emit_tensors(from_hamiltonian(h), registry=CountingRegistry())
    assert set(calls.values()) == {1}
    assert np.allclose(contract_to_dense(ttno), to_dense(h), atol=1e-12,
                       rtol=0.0)


# user matrix entries, signed zeros among them
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-17, -2.25])


@st.composite
def emission_systems(draw):
    """A Hamiltonian on a random tree of 1-5 sites, physical dimensions 1-3
    and a root that is no leaf, and its registry: per dimension a complex
    matrix ``A`` of entries from ``ENTRIES``, its negative ``B``, so that
    sums on one multi-index can cancel to zero, and another ``C``.  Terms
    act on at most three sites with few labels, so that hyperedges share
    multi-indices."""
    n = draw(st.integers(1, 5))
    edges = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    dims = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
    inner = [s for s in range(n) if sum(s in e for e in edges) > 1] or [0]
    tree = TreeTopology(edges, draw(st.sampled_from(inner)),
                        dict(enumerate(dims)))
    registry = OperatorRegistry()
    for d in sorted(set(dims)):
        a, c = (np.empty((d, d), complex) for _ in range(2))
        for m in a, c:
            for part in m.real, m.imag:
                part[...] = np.reshape(draw(st.lists(
                    ENTRIES, min_size=d * d, max_size=d * d)), (d, d))
        for label, m in ("A", a), ("B", -a), ("C", c):
            registry.register(label, m)
    terms = {}
    for _ in range(draw(st.integers(1, 12))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=3, unique=True))
        labels = [(s, draw(st.sampled_from("ABC"))) for s in sorted(support)]
        coeff = draw(st.sampled_from([1.0, -1.0, 1 / 3, 2j]))
        terms[coeff, tuple(labels)] = ProductTerm(coeff, {
            s: SiteOperator(label, dims[s]) for s, label in labels})
    return Hamiltonian(tree, terms.values()), registry


@given(system=emission_systems())
def check_emission(seen, system):
    h, registry = system
    g = from_hamiltonian(h)
    want = reference_emission(g, registry)
    for s, t in emit_tensors(g, registry).tensors.items():
        legs, shape, blocks = want[s]
        assert t.legs == legs and t.shape == shape
        assert t.index.dtype == np.int64
        assert t.index.tolist() == [list(i) for i in blocks]
        assert t.blocks.tobytes() == np.array(
            list(blocks.values()), complex).reshape(-1, *shape[-2:]).tobytes()
        shared = {y[1:] for y in g.eps[s]}  # the hyperedges' multi-indices
        seen["repeated"] += len(shared) < len(g.eps[s])
        seen["cancelled"] += len(blocks) < len(shared)


def test_emission_matches_reference(hypothesis_home):
    # emission sums the blocks of all tensors of one dimension and leg
    # count at once; each tensor must hold, bit for bit, what summing its
    # hyperedges one at a time gives, repeats and cancellations included
    seen = Counter()
    check_emission(seen)
    assert seen["repeated"] and seen["cancelled"]


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


def test_emission_refuses_unknown_operator():
    # a ValidationError from the registry is not taken for a matrix too
    # large to allocate
    pair = TreeTopology([(0, 1)], root=0)
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: SiteOperator("Q", 2)})])
    with pytest.raises(UnknownOperatorError,
                       match="no matrix for label 'Q' at dim 2"):
        emit_tensors(from_hamiltonian(h))


def test_emission_unknown_operator_names_its_site():
    # Q acts only on site 2 of the chain 0-1-2
    chain = TreeTopology([(0, 1), (1, 2)], root=1)
    x = SiteOperator("X", 2)
    h = Hamiltonian(chain, [ProductTerm(1.0, {0: x, 1: x}),
                            ProductTerm(1.0, {1: x, 2: SiteOperator("Q", 2)})])
    with pytest.raises(UnknownOperatorError,
                       match="^site 2: no matrix for label 'Q' at dim 2$"):
        emit_tensors(from_hamiltonian(h))


def test_emission_refuses_non_finite_matrices():
    # a folded coefficient that overflows an operator's matrix, and two
    # finite matrices whose sum in one block overflows; the refusal comes
    # without numpy's overflow warning
    registry = OperatorRegistry()
    registry.register("Q", np.array([[0, 1e300], [1e300, 0]]))
    registry.register("A", np.diag([1.5e308, 0.0]))
    registry.register("B", np.diag([1.5e308, 1.0]))
    pair = TreeTopology([(0, 1)], root=0)
    h = Hamiltonian(pair, [ProductTerm(1e300, {0: SiteOperator("Q", 2),
                                               1: SiteOperator("X", 2)})])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=(
                r"site 0: the matrix of operator '1e\+300\*Q' overflows to "
                r"non-finite entries")):
            emit_tensors(from_hamiltonian(h), registry=registry)
    path = TreeTopology([(1, 2), (2, 3)], root=2)
    x = SiteOperator("X", 2)
    h = Hamiltonian(path, [
        ProductTerm(1.0, {1: x, 2: SiteOperator("A", 2), 3: x}),
        ProductTerm(1.0, {1: x, 2: SiteOperator("B", 2), 3: x})])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=(
                r"site 2: the matrices summed into block \(0, 0\) overflow "
                r"to non-finite entries")):
            emit_tensors(from_hamiltonian(h), registry=registry)


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
    assert [g.ops[y[0]].label for y in g.eps[1]] == ["2*X", "2*X"]
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


def test_contract_cap(monkeypatch):
    tree = demo_tree()
    h = Hamiltonian(tree, [pauli_term({1: "X"})])
    ttno = emit_tensors(from_hamiltonian(h))
    monkeypatch.setenv("TTNO_DENSE_CAP", "16")
    with pytest.raises(DenseCapExceededError):
        contract_to_dense(ttno)


def test_unallocatable_tensor_names_site_and_shape(monkeypatch,
                                                   demo_hamiltonian):
    refuse_allocation(monkeypatch, (3, 2, 2, 2, 2))
    ttno = emit_tensors(from_hamiltonian(demo_hamiltonian))
    with pytest.raises(DenseCapExceededError,
                       match=r"site 2: .* shape \(3, 2, 2, 2, 2\)"):
        ttno.tensors[2].elements


def test_tensor_beyond_address_space():
    # 40 leaves of bond dimension 3 around site 0: its tensor would take
    # 3**40 * 64 bytes, which numpy refuses (ValueError) before allocating
    n = 40
    star = TreeTopology([(0, i) for i in range(1, n + 1)], root=0)
    h = Hamiltonian(star, [pauli_term({i: "Z"}) for i in range(1, n + 1)]
                    + [pauli_term({i: "X", i + 1: "X"}) for i in range(1, n)])
    ttno = emit_tensors(from_hamiltonian(h))
    assert dense_element_count(ttno) > 3 ** n
    with pytest.raises(DenseCapExceededError, match=r"site 0: .* \(3, 3, "):
        ttno.tensors[0].elements


def test_dump_round_trip_bit_exact(tmp_path, demo_hamiltonian):
    demo = emit_tensors(from_hamiltonian(demo_hamiltonian))
    # a block of only -0.0 entries, and a tensor with no stored block
    edited = emit_tensors(from_hamiltonian(demo_hamiltonian))
    t5 = edited.tensors[5]
    stored = [tuple(i) for i in t5.index.tolist()]
    zero_block = next(i for i in np.ndindex(t5.bond_dims)
                      if i not in stored)
    at = sum(i < zero_block for i in stored)
    edited.tensors[5] = replace(
        t5, index=np.insert(t5.index, at, zero_block, axis=0),
        blocks=np.insert(t5.blocks, at, complex(-0.0, -0.0), axis=0))
    assert len(edited.tensors[5].index) == 5
    assert np.signbit(edited.tensors[5].elements[zero_block].view(
        float)).all()
    t8 = edited.tensors[8]
    edited.tensors[8] = replace(t8, index=t8.index[:0], blocks=t8.blocks[:0])
    # a single-site tree: a tensor without bond legs
    lone = TreeTopology([], root=0)
    single = emit_tensors(from_hamiltonian(Hamiltonian(lone, [ProductTerm(
        2.0, {0: SiteOperator("X", 2)})])))
    for name, ttno in [("demo", demo), ("edited", edited),
                       ("single", single)]:
        p = tmp_path / f"{name}.ttno.json"
        write_ttno(ttno, str(p))
        back = read_ttno(str(p))
        assert back.tree == ttno.tree and list(back.tensors) == list(
            ttno.tensors)
        for s, t in ttno.tensors.items():
            assert back.tensors[s].legs == t.legs
            assert back.tensors[s].shape == t.shape
            assert np.array_equal(back.tensors[s].index, t.index)
            assert back.tensors[s].blocks.tobytes() == t.blocks.tobytes()
            assert back.tensors[s].elements.tobytes() == t.elements.tobytes()
        # write -> read -> write is byte-stable
        p2 = tmp_path / f"{name}.again.ttno.json"
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


def ttno_v2_object(ttno):
    """The whole ``ttno-v2`` object of ``ttno``, read off its dense
    tensors: every block with a non-zero bit pattern, in row-major order."""
    def entry(t):
        dense = t.elements
        index = [i for i in np.ndindex(t.bond_dims)
                 if dense[i].view(np.uint64).any()]
        blocks = [dense[i].ravel() for i in index]
        return {"legs": [list(e) for e in t.legs],
                "shape": list(dense.shape),
                "index": [list(i) for i in index],
                "re": [x.real for b in blocks for x in b.tolist()],
                "im": [x.imag for b in blocks for x in b.tolist()]}

    return {"format": "ttno-v2", "tree": ttno.tree.to_json_dict(),
            "tensors": {str(s): entry(t) for s, t in ttno.tensors.items()}}


def test_dump_bytes_equal_whole_object_json_dump(tmp_path):
    # the dump is written piece by piece; its bytes must be those of one
    # json.dump of the whole ttno-v2 object
    h = oqs_hamiltonian(OQSSpec(4, 5, g=np.pi + 1j / 3, boson_dim=4), "star")
    ttno = emit_tensors(from_hamiltonian(h))
    # one tensor filled densely, some entries -0.0
    big = max(ttno.tensors.values(), key=lambda t: math.prod(t.shape))
    rng = np.random.default_rng(3)
    index = np.array(list(np.ndindex(big.bond_dims)), dtype=np.int64)
    blocks = (rng.standard_normal((len(index),) + big.shape[-2:])
              + 1j * rng.standard_normal((len(index),) + big.shape[-2:]))
    blocks.real[rng.random(blocks.shape) < 0.1] = -0.0
    ttno.tensors[big.site] = replace(big, index=index, blocks=blocks)
    whole = ttno_v2_object(ttno)
    p = tmp_path / "star.json"
    tracemalloc.start()
    try:
        write_ttno(ttno, str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    same = p.read_text() == json.dumps(whole)  # no diff of MB-long strings
    assert same
    # memory holds one tensor's lists and string at a time: ~300 B per
    # stored entry of the big tensor, which holds 95% of the entries
    assert peak <= 400 * blocks.size


# float64 bit patterns: any, and the edge cases -0.0, the smallest and the
# largest subnormal and the largest finite, then infinities and NaNs with
# payloads
FINITE_BITS = [int(b) for b in np.array(
    [-0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.0]).view(np.uint64)]
NON_FINITE_BITS = [0x7FF0000000000000, 0xFFF0000000000000,
                   0x7FF8000000000000, 0xFFF8000000000000,
                   0x7FF0000000000001, 0x7FF800000000BEEF, 2 ** 64 - 1]


# up to three (entry, bit pattern) overrides of a block, by finiteness
EDGE_CASES = {finite: st.lists(st.tuples(
    st.integers(0, 17), st.sampled_from(
        FINITE_BITS if finite else FINITE_BITS + NON_FINITE_BITS)),
    max_size=3) for finite in (False, True)}


def bits_block(draw, d, finite):
    """A d x d complex block of random float64 bit patterns, up to three of
    them replaced by edge cases, and not all zero: only such blocks are
    stored."""
    bits = np.frombuffer(draw(st.binary(min_size=16 * d * d,
                                        max_size=16 * d * d)),
                         np.uint64).copy()
    if finite:  # clear the top exponent bit where all of them are set
        bits[bits >> 52 & 0x7FF == 0x7FF] ^= np.uint64(1 << 62)
    for k, b in draw(EDGE_CASES[finite]):
        bits[k % bits.size] = b
    assume(bits.any())
    return bits.view(complex).reshape(d, d)


@st.composite
def block_ttnos(draw):
    """A TTNO on a random tree of 1-4 sites, physical dimensions 1-3 and bond
    dimensions 1-3, whose blocks come from a pool of 1-3 blocks per
    dimension, so that blocks repeat within and across tensors, and whose
    tensors may store no block.  Half of them hold only finite entries."""
    n = draw(st.integers(1, 4))
    edges = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    dims = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
    tree = TreeTopology(edges, draw(st.integers(0, n - 1)),
                        dict(enumerate(dims)))
    bond = {e: draw(st.integers(1, 3)) for e in tree.edges}
    finite = draw(st.booleans())
    pools = {d: [bits_block(draw, d, finite)
                 for _ in range(draw(st.integers(1, 3)))]
             for d in set(dims)}
    tensors = {}
    for s in tree.nodes:
        legs, d = canonical_legs(tree, s), tree.phys_dim(s)
        shape = (*[bond[e] for e in legs], d, d)
        picks = draw(st.lists(st.integers(-1, len(pools[d]) - 1),
                              min_size=math.prod(shape[:-2]),
                              max_size=math.prod(shape[:-2])))
        stored = [(i, pools[d][k])
                  for i, k in zip(np.ndindex(shape[:-2]), picks) if k >= 0]
        tensors[s] = TTNOTensor(
            s, legs, shape,
            np.array([i for i, _ in stored], np.int64).reshape(
                len(stored), len(legs)),
            np.array([b for _, b in stored], complex).reshape(-1, d, d))
    return TTNO(tree, tensors)


@given(ttno=block_ttnos())
def check_dump_bytes(path, ttno):
    write_ttno(ttno, str(path))
    assert path.read_text() == json.dumps(ttno_v2_object(ttno))
    if not all(np.isfinite(t.blocks).all() for t in ttno.tensors.values()):
        with pytest.raises(ValidationError, match="not a finite number"):
            read_ttno(str(path))
        return
    back = read_ttno(str(path))
    assert back.tree == ttno.tree
    for s, t in ttno.tensors.items():
        assert back.tensors[s].legs == t.legs
        assert back.tensors[s].shape == t.shape
        assert np.array_equal(back.tensors[s].index, t.index)
        assert back.tensors[s].blocks.tobytes() == t.blocks.tobytes()


def test_dump_bytes_equal_json_dump_for_any_blocks(tmp_path,
                                                   hypothesis_home):
    # the writer formats each distinct block once and joins the texts; the
    # bytes must stay those of one json.dumps, for any float64 bits
    check_dump_bytes(tmp_path / "t.json")


def test_write_holds_one_tensor_of_block_texts(tmp_path):
    # 24 tensors whose blocks are all distinct: the table of block texts is
    # emptied before it outgrows the largest tensor, so the peak does not
    # grow with the number of tensors
    n, bond = 24, 16
    tree = TreeTopology([(s, s + 1) for s in range(n - 1)], root=1)
    rng = np.random.default_rng(5)
    tensors = {}
    for s in tree.nodes:
        legs = canonical_legs(tree, s)
        shape = (*[bond] * len(legs), 2, 2)
        index = np.array(list(np.ndindex(shape[:-2])), np.int64)
        tensors[s] = TTNOTensor(s, legs, shape, index, rng.standard_normal(
            (len(index), 2, 2)) + 1j * rng.standard_normal((len(index), 2, 2)))
    ttno = TTNO(tree, tensors)
    largest = max(t.blocks.size for t in tensors.values())
    assert sum(t.blocks.size for t in tensors.values()) >= 20 * largest
    p = tmp_path / "chain.json"
    tracemalloc.start()
    try:
        write_ttno(ttno, str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * largest
    assert read_ttno(str(p)).tensors[n - 1].blocks.tobytes() == (
        tensors[n - 1].blocks.tobytes())


def test_dump_size_bounded_by_stored_elements(tmp_path):
    # bytes grow with the stored entries, not with the dense tensors: the
    # dense ttno-v1 layout wrote 541,642 B for this star
    ttno = emit_tensors(from_hamiltonian(
        oqs_hamiltonian(OQSSpec(8, 4, boson_dim=4), "star")))
    p = tmp_path / "star.json"
    write_ttno(ttno, str(p))
    assert (p.stat().st_size
            <= 64 * element_count(ttno) + 256 * len(ttno.tensors))


def _truncate(text):
    return text[:len(text) // 2]


def _edit(fn):
    def apply(text):
        data = json.loads(text)
        fn(data)
        return json.dumps(data)
    return apply


def _tensor(data, s):
    return data["tensors"][str(s)]


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "not valid JSON"),
    (_edit(lambda d: d.update(format="ttno-v1")),
     "format 'ttno-v1' is not read.*rebuild"),
    (_edit(lambda d: d["tensors"].pop("8")), "site 8: no tensor"),
    (_edit(lambda d: d["tensors"].update({"9": _tensor(d, 8)})),
     "tensor for '9', which is not a site"),
    (_edit(lambda d: _tensor(d, 5).pop("index")), "site 5: .* no 'index'"),
    (_edit(lambda d: _tensor(d, 5)["legs"].reverse()), "site 5: legs"),
    (_edit(lambda d: _tensor(d, 5).update(shape=[3, 2, 2, 2])),
     r"site 5: shape \[3, 2, 2, 2\] is not a list of 5"),
    (_edit(lambda d: _tensor(d, 5).update(shape=[3, 2, 2, "2", 2])),
     "site 5: shape"),
    (_edit(lambda d: _tensor(d, 8).update(shape=[2, 3, 3])),
     r"site 8: physical dimensions \[3, 3\] disagree with the tree's 2"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [0, 2, 0])),
     r"site 5: block index \[0, 2, 0\] is out of range"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [0, -1, 0])),
     "site 5: .* out of range"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [0, 0.5, 0])),
     "site 5: block index .* is not a list of 3 integers"),
    (_edit(lambda d: _tensor(d, 5)["index"].append(_tensor(d, 5)["index"][1])),
     r"site 5: block 4: index \[1, 0, 0\] does not follow \[2, 0, 1\]"),
    (_edit(lambda d: _tensor(d, 5)["index"].reverse()),
     r"site 5: block 1: index .* does not follow .* strictly increasing"),
    (_edit(lambda d: _tensor(d, 5).update(
        re=[0.0] * 4 + _tensor(d, 5)["re"][4:],
        im=[0.0] * 4 + _tensor(d, 5)["im"][4:])),
     r"site 5: block 0 at index \[0, 0, 0\] holds only \+0.0 entries"),
    (_edit(lambda d: _tensor(d, 5)["re"].pop()),
     "site 5: 're' holds 15 numbers, not 4 blocks x 4"),
    (_edit(lambda d: _tensor(d, 5)["im"].append(0.0)),
     "site 5: 'im' holds 17 numbers"),
    (_edit(lambda d: _tensor(d, 5)["re"].__setitem__(0, "0.0")),
     "site 5: 're' must be a flat list of numbers"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [0, True, 0])),
     r"site 5: block index \[0, True, 0\] is not a list of 3 integers"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [False, 0, 0])),
     r"site 5: block index \[False, 0, 0\] is not a list of 3 integers"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [0, 0])),
     r"site 5: block index \[0, 0\] is not a list of 3 integers"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, 0)),
     "site 5: block index 0 is not a list of 3 integers"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [2 ** 70, 0, 0])),
     f"site 5: block index \\[{2 ** 70}, 0, 0\\] is out of range"),
    (_edit(lambda d: _tensor(d, 5)["index"].__setitem__(0, [0, -2 ** 70, 0])),
     f"site 5: block index \\[0, {-2 ** 70}, 0\\] is out of range"),
    (_edit(lambda d: _tensor(d, 5).update(index={"0": [0, 0, 0]})),
     "site 5: 'index' must be a list of bond multi-indices"),
    (_edit(lambda d: _tensor(d, 5)["re"].__setitem__(1, math.nan)),
     "site 5: 're' entry 1 is NaN, not a finite number"),
    (_edit(lambda d: _tensor(d, 5)["im"].__setitem__(2, -math.inf)),
     "site 5: 'im' entry 2 is -Infinity, not a finite number"),
    (lambda text: _edit(lambda d: _tensor(d, 5)["re"].__setitem__(
        3, 123.25))(text).replace("123.25", "1e400"),
     "site 5: 're' entry 3 is Infinity, not a finite number"),
    (_edit(lambda d: _tensor(d, 5)["re"].__setitem__(3, True)),
     "site 5: 're' entry 3 is true, not a finite number"),
    (_edit(lambda d: _tensor(d, 5)["im"].__setitem__(0, False)),
     "site 5: 'im' entry 0 is false, not a finite number"),
    (lambda text: f"[{text}]", "ttno dump: must be a JSON object"),
    (_edit(lambda d: _tensor(d, 8)["shape"].__setitem__(0, 5)),
     r"ttno dump: bond dimension mismatch on \(7, 8\)"),
], ids=["truncated", "format_v1", "missing_site", "unknown_site",
        "missing_field", "legs", "shape_length", "shape_type", "phys_dim",
        "index_range", "index_negative", "index_type", "index_duplicate",
        "index_order", "zero_block", "re_length", "im_length", "re_type",
        "index_true", "index_false", "index_short", "index_bare_int",
        "index_huge", "index_huge_negative", "index_not_list", "re_nan",
        "im_infinity", "re_overflow", "re_bool", "im_bool", "not_object",
        "bond_mismatch"])
def test_read_rejects_malformed_dump(tmp_path, demo_hamiltonian, corrupt,
                                     message):
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(corrupt(p.read_text()))
    with pytest.raises(ValidationError, match=message):
        read_ttno(str(p))


# a fault in a tensor's shape or legs, and the message naming it at site 2
HEAD_FAULTS = {
    "shape": (lambda t: t.update(shape=[3, 2, 2, 2]),
              "shape [3, 2, 2, 2] is not a list of 5 integers from 1 to "
              "2**63 - 1"),
    "legs": (lambda t: t["legs"].reverse(),
             "legs [[2, 4], [2, 3], [1, 2]] differ from the tree's "
             "[[1, 2], [2, 3], [2, 4]]"),
}
# a fault in a tensor's index, and the message naming it at site 2
INDEX_FAULTS = {
    "bool": (lambda rows: rows.__setitem__(0, [0, True, 0]),
             "block index [0, True, 0] is not a list of 3 integers"),
    "float": (lambda rows: rows.__setitem__(0, [0, 0.5, 0]),
              "block index [0, 0.5, 0] is not a list of 3 integers"),
    "range": (lambda rows: rows.__setitem__(0, [0, 2, 0]),
              "block index [0, 2, 0] is out of range for bond dimensions "
              "[3, 2, 2]"),
    "order": (lambda rows: rows.reverse(),
              "block 1: index [1, 1, 1] does not follow [2, 1, 1]; the index "
              "must be strictly increasing in row-major order"),
    "2**63": (lambda rows: rows.__setitem__(0, [2 ** 63, 0, 0]),
              f"block index [{2 ** 63}, 0, 0] is out of range for bond "
              f"dimensions [3, 2, 2]"),
}


@pytest.mark.parametrize("index_fault", INDEX_FAULTS)
@pytest.mark.parametrize("head_fault", HEAD_FAULTS)
@pytest.mark.parametrize("first", ["head", "index"])
def test_read_names_the_first_fault_in_dump_order(tmp_path, demo_hamiltonian,
                                                  first, head_fault,
                                                  index_fault):
    # the index checks run over the whole dump; a fault in site 2 is named
    # before one in site 5, whichever check finds each
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    head, index = HEAD_FAULTS[head_fault], INDEX_FAULTS[index_fault]
    early, late = (2, 5) if first == "head" else (5, 2)

    def corrupt(d):
        head[0](_tensor(d, early))
        index[0](_tensor(d, late)["index"])

    p.write_text(_edit(corrupt)(p.read_text()))
    message = head[1] if first == "head" else index[1]
    with pytest.raises(ValidationError, match=(
            f"^{re.escape(f'ttno dump, site 2: {message}')}$")):
        read_ttno(str(p))


def test_read_rejects_dump_nested_too_deep(tmp_path, demo_hamiltonian):
    # a tree nested 1,000 lists deep raised a bare RecursionError
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    data = json.loads(p.read_text())
    data["tree"] = "NESTED"
    p.write_text(json.dumps(data).replace('"NESTED"', "[" * 1000 + "]" * 1000))
    with pytest.raises(ValidationError,
                       match=f"^ttno dump {re.escape(str(p))}: not valid JSON "
                             r"\(maximum recursion depth exceeded"):
        read_ttno(str(p))


def test_read_accepts_tensor_without_blocks(tmp_path, demo_hamiltonian):
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: _tensor(d, 8).update(index=[], re=[], im=[]))(
        p.read_text()))
    t = read_ttno(str(p)).tensors[8]
    assert t.index.shape == (0, 1) and t.index.dtype == np.int64
    assert t.blocks.shape == (0, 2, 2) and t.blocks.dtype == complex
    assert not t.elements.any()


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace('{"format": "ttno-v2"',
                               '{"format": "ttno-v1", "format": "ttno-v2"'),
     "key 'format' is given twice$"),
    (lambda text: text.replace('"tensors": {"1": ',
                               '"tensors": {"8": {}, "1": '),
     "key '8' is given twice in tensors$"),
    (lambda text: text.replace('"5": {"legs"', '"5": {"re": [], "legs"'),
     "key 're' is given twice in tensors > 5$"),
    (lambda text: text.replace('"tree": {', '"tree": {"root": 5, '),
     "key 'root' is given twice in tree$"),
], ids=["format", "site", "re", "tree_root"])
def test_read_refuses_repeated_keys(tmp_path, demo_hamiltonian, edit,
                                    message):
    # json.load kept the last value of a repeated key, so each of these read
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    text = edit(p.read_text())
    assert text != p.read_text()
    p.write_text(text)
    with pytest.raises(ValidationError, match=f"^ttno dump {p}: {message}"):
        read_ttno(str(p))


@pytest.mark.parametrize("entry", [math.nan, True],
                         ids=["nan", "true"])
def test_read_parses_the_dump_once(tmp_path, demo_hamiltonian, monkeypatch,
                                   entry):
    # a NaN or a boolean entry was named by parsing the dump a second time
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: _tensor(d, 5)["re"].__setitem__(1, entry))(
        p.read_text()))
    parses = []
    decode = json.JSONDecoder.decode
    monkeypatch.setattr(json.JSONDecoder, "decode", lambda self, text: (
        parses.append(1), decode(self, text))[1])
    with pytest.raises(ValidationError, match=(
            f"site 5: 're' entry 1 is {json.dumps(entry)}, not a finite")):
        read_ttno(str(p))
    assert len(parses) == 1


@pytest.mark.parametrize("entry", [2 ** 64, 2 ** 1024 - 2 ** 970 - 1],
                         ids=["2**64", "largest_rounding_to_a_float"])
def test_read_takes_integer_entries_past_int64(tmp_path, demo_hamiltonian,
                                               entry):
    # numpy made a list holding 2**64 uint64, and the reader refused it as
    # "'re' must be a flat list of numbers"
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: _tensor(d, 8)["re"].__setitem__(0, entry))(
        p.read_text()))
    assert read_ttno(str(p)).tensors[8].blocks.real.flat[0] == float(entry)


@pytest.mark.parametrize("entry, message", [
    (10 ** 400, "'im' entry 2 is Infinity, not a finite number"),
    (2 ** 1024 - 2 ** 970, "'im' entry 2 is Infinity, not a finite number"),
    (-2 ** 1024, "'im' entry 2 is -Infinity, not a finite number"),
], ids=["10**400", "rounds_past_max", "minus_2**1024"])
def test_read_refuses_integers_no_float_holds(tmp_path, demo_hamiltonian,
                                              entry, message):
    # an integer that rounds past the largest float is refused as 1e400 is;
    # it was called "'im' must be a flat list of numbers"
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: _tensor(d, 8)["im"].__setitem__(2, entry))(
        p.read_text()))
    with pytest.raises(ValidationError,
                       match=f"^ttno dump, site 8: {re.escape(message)}$"):
        read_ttno(str(p))


def test_read_converts_only_tensor_entries(tmp_path, demo_hamiltonian):
    # a tree object's "re" list became an array, shown by its numpy repr
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: d["tree"]["phys_dims"].update(re=[1, 2]))(
        p.read_text()))
    with pytest.raises(ValidationError, match=re.escape(
            "ttno dump, tree: phys_dims entry 're': [1, 2] is not an integer "
            "pair")):
        read_ttno(str(p))


def test_read_refuses_unknown_tree_key(tmp_path, demo_hamiltonian):
    # the tree object is read as a tree file is: an extra key was dropped
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: d["tree"].update(phys_dim={"1": 3}))(
        p.read_text()))
    with pytest.raises(ValidationError, match=re.escape(
            "ttno dump, tree: tree JSON: unknown key 'phys_dim'")):
        read_ttno(str(p))


def test_read_refuses_integer_past_the_digit_limit(tmp_path,
                                                   demo_hamiltonian):
    # Python's int() refuses a literal of more than 4,300 digits, and
    # json raised that ValueError from read_ttno
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: _tensor(d, 8)["re"].__setitem__(0, 0.125))(
        p.read_text()).replace("0.125", "1" * 5000))
    with pytest.raises(ValidationError, match=f"^ttno dump {p}: not valid "
                                              f"JSON .*4300 digits"):
        read_ttno(str(p))


def test_tensors_share_block_arrays_without_overlap(tmp_path):
    # the blocks of all tensors of one physical dimension are one array and
    # their multi-indices one more; each tensor holds its own rows,
    # including a tensor whose only sum cancels to no block
    tree = TreeTopology([(0, 1), (1, 2), (1, 3)], root=1,
                        phys_dims={1: 4, 3: 4})
    rng = np.random.default_rng(8)

    def matrix(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    x = matrix(2)
    specs = []
    for s in tree.nodes:
        legs, d = canonical_legs(tree, s), tree.phys_dim(s)
        pairs = [(tuple(rng.integers(0, 2, len(legs)).tolist()), matrix(d))
                 for _ in range(4)]
        specs.append((s, legs, (*[2] * len(legs), d, d),
                      [((1,), x), ((1,), -x)] if s == 2 else pairs))
    emitted = TTNO(tree, from_pairs(specs))
    assert len(emitted.tensors[2].index) == 0
    p = tmp_path / "mixed.json"
    write_ttno(emitted, str(p))
    back = read_ttno(str(p))
    star = emit_tensors(from_hamiltonian(
        oqs_hamiltonian(OQSSpec(2, 2, boson_dim=4), "star")))
    for ttno in (emitted, back, star):
        assert {t.phys_dim for t in ttno.tensors.values()} == {2, 4}
        tensors = list(ttno.tensors.values())
        for t in tensors:
            assert t.blocks.shape == (len(t.index), t.phys_dim, t.phys_dim)
            assert t.index.shape == (len(t.index), len(t.legs))
        for i, a in enumerate(tensors):
            for b in tensors[i + 1:]:
                assert not np.shares_memory(a.blocks, b.blocks)
                assert not np.shares_memory(a.index, b.index)
        for d in (2, 4):
            ts = [t for t in tensors if t.phys_dim == d]
            for t in ts:
                assert t.blocks.base is ts[0].blocks.base is not None
                assert t.index.base is ts[0].index.base is not None


def test_read_refuses_bond_dimension_beyond_int64(tmp_path, demo_hamiltonian):
    # a bond dimension and block index past int64 raised OverflowError
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(_edit(lambda d: _tensor(d, 8).update(
        shape=[2 ** 70, 2, 2], index=[[0], [2 ** 65]]))(p.read_text()))
    with pytest.raises(ValidationError, match=(
            r"^ttno dump, site 8: shape \[1180591620717411303424, 2, 2\] is "
            r"not a list of 3 integers from 1 to 2\*\*63 - 1")):
        read_ttno(str(p))


class Obj(dict):
    """A parsed JSON object; the pairs in ``twice`` are written before its
    items, so that a key in both is given twice."""
    twice = ()


def to_json(x) -> str:
    """``x`` as JSON text: an ``Obj`` with its repeated pairs, a ``bytes``
    value as the raw token it holds, anything else as ``json.dumps`` writes
    it (NaN and Infinity included)."""
    if isinstance(x, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in (
            *getattr(x, "twice", ()), *x.items())) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(to_json, x)) + "]"
    return x.decode() if isinstance(x, bytes) else json.dumps(x)


def objects(x):
    """Every JSON object within ``x``, ``x`` first."""
    if isinstance(x, dict):
        yield x
        x = list(x.values())
    for v in x if isinstance(x, list) else ():
        yield from objects(v)


# values of the wrong type or range: huge, negative and fractional numbers,
# NaN and Infinity (floats), and literals that overflow a double
ODD_VALUES = st.one_of(
    st.booleans(), st.none(), st.text("0x.-", max_size=3),
    st.lists(st.integers(-1, 3), max_size=3), st.floats(),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([-1, 0, 3, 2 ** 63, 2 ** 64, 10 ** 400, 0.5, -0.0,
                     b"1e400", b"-1e999", b"[[]]"]))


FIELDS = ("legs", "shape", "index", "re", "im")


@given(data=st.data())
def check_mutated_dump(path, text, data):
    doc = json.loads(text, object_pairs_hook=Obj)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(("swap", "missing", "extra",
                                          "repeat")))
        obj = data.draw(st.sampled_from(list(objects(doc))))
        if kind == "swap":  # in a tensor's field, or in a list inside it
            holder, key = obj, data.draw(st.sampled_from(FIELDS))
            value = obj.get(key)
            while isinstance(value, list) and value and data.draw(
                    st.booleans()):
                holder, key = value, data.draw(st.integers(0, len(value) - 1))
                value = holder[key]
            holder[key] = data.draw(ODD_VALUES)
        elif kind == "extra":
            obj[data.draw(st.sampled_from(["x", "9", "0", *FIELDS]))] = (
                data.draw(ODD_VALUES))
        elif obj:
            key = data.draw(st.sampled_from(sorted(obj)))
            if kind == "missing":
                del obj[key]
            else:
                obj.twice = [(key, data.draw(st.one_of(st.just(obj[key]),
                                                       ODD_VALUES)))]
    path.write_text(to_json(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ttno = read_ttno(str(path))
        except ValidationError as exc:
            assert str(exc).startswith("ttno dump"), str(exc)
            return
        write_ttno(ttno, str(path))
        first = path.read_bytes()
        write_ttno(read_ttno(str(path)), str(path))
    assert path.read_bytes() == first


def test_read_mutated_dump_refuses_or_round_trips(tmp_path, demo_hamiltonian,
                                                  hypothesis_home):
    # a dump with up to three values of the wrong type or range, or keys
    # missing, extra or given twice, is read to a TTNO that writes back
    # stably, or refused with a ValidationError about the dump; nothing
    # else escapes, not even a warning
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    check_mutated_dump(tmp_path / "mutated.json", p.read_text())


def test_read_parses_one_tensor_of_floats_at_a_time(tmp_path):
    # element lists become arrays tensor by tensor; parsing the whole dump
    # into Python floats first peaked at ~5.4x the bytes of the tensors
    h = oqs_hamiltonian(OQSSpec(8, 4, boson_dim=4), "star")
    p = tmp_path / "star.json"
    write_ttno(emit_tensors(from_hamiltonian(h)), str(p))
    tracemalloc.start()
    try:
        back = read_ttno(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * dense_element_count(back)


def pinned_ttnos():
    """TTNOs whose dump bytes are pinned: the diagram-pinned systems, and
    the closed-form nearest-neighbour TTNO with and without a field."""
    for h, registry in pinned_systems():
        yield emit_tensors(from_hamiltonian(h), registry=registry)
    for spec in (CayleyTreeSpec(3, 2), CayleyTreeSpec(2, 3)):
        tree = cayley_tree(spec)
        for field in (None, "Z"):
            yield nn_ttno(tree, uniform_nn_interaction(tree, "X", field))


# SHA-256 of the concatenated ttno-v2 dumps, computed with the emission
# that allocated dense tensors and the writer that scanned them for blocks
PINNED_TTNO_DIGEST = ("86558eb7a07977c0004f46768a0313bc"
                      "cc3d4df41614d45a8c2d51cf1733cafd")


def test_ttno_dumps_pinned(tmp_path):
    digest = hashlib.sha256()
    p = tmp_path / "pinned.json"
    for ttno in pinned_ttnos():
        write_ttno(ttno, str(p))
        digest.update(p.read_bytes())
    assert digest.hexdigest() == PINNED_TTNO_DIGEST
