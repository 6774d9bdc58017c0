import json
import math
import tracemalloc

import numpy as np
import pytest

from ttno.assembly import (_DUMP_CHUNK, assign_indices, canonical_legs,
                           contract_to_dense, dense_element_count,
                           element_count, emit_tensors, read_ttno, write_ttno)
from ttno.diagram import StateDiagram, from_hamiltonian
from ttno.errors import DenseCapExceededError, ValidationError
from ttno.operators import (Hamiltonian, OperatorRegistry, ProductTerm,
                            SiteOperator, random_hamiltonian, to_dense)
from ttno.oqs import OQSSpec, oqs_hamiltonian
from ttno.tree import TreeTopology

from conftest import demo_tree, pauli_term, refuse_allocation
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


def test_unallocatable_tensor_names_site_and_shape(monkeypatch,
                                                   demo_hamiltonian):
    g = from_hamiltonian(demo_hamiltonian)
    refuse_allocation(monkeypatch, (3, 2, 2, 2, 2))
    with pytest.raises(DenseCapExceededError,
                       match=r"site 2: .* shape \(3, 2, 2, 2, 2\)"):
        emit_tensors(g)


def test_tensor_beyond_address_space():
    # 40 leaves of bond dimension 3 around site 0: its tensor would take
    # 3**40 * 64 bytes, which numpy refuses (ValueError) before allocating
    n = 40
    star = TreeTopology([(0, i) for i in range(1, n + 1)], root=0)
    h = Hamiltonian(star, [pauli_term({i: "Z"}) for i in range(1, n + 1)]
                    + [pauli_term({i: "X", i + 1: "X"}) for i in range(1, n)])
    g = from_hamiltonian(h)
    with pytest.raises(DenseCapExceededError, match=r"site 0: .* \(3, 3, "):
        emit_tensors(g)


def test_dump_round_trip_bit_exact(tmp_path, demo_hamiltonian):
    demo = emit_tensors(from_hamiltonian(demo_hamiltonian))
    # a block of only -0.0 entries, and a tensor with no stored block
    edited = emit_tensors(from_hamiltonian(demo_hamiltonian))
    t5 = edited.tensors[5]
    zero_block = tuple(np.argwhere(~t5.stored_blocks())[0])
    t5.elements[zero_block] = complex(-0.0, -0.0)
    assert t5.nonzero_slices() == 5
    edited.tensors[8].elements[...] = 0
    assert edited.tensors[8].nonzero_slices() == 0
    # a single-site tree: a tensor without bond legs
    lone = TreeTopology([], root=0, nodes=[0])
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
            assert back.tensors[s].elements.shape == t.elements.shape
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


def test_dump_bytes_equal_whole_object_json_dump(tmp_path):
    # the dump is written piece by piece; its bytes must be those of one
    # json.dump of the whole ttno-v2 object
    h = oqs_hamiltonian(OQSSpec(4, 5, g=np.pi + 1j / 3, boson_dim=4), "star")
    ttno = emit_tensors(from_hamiltonian(h))
    # one tensor filled densely, some entries -0.0, so that its index and
    # entry lists span several encoding slices
    big = max(ttno.tensors.values(), key=lambda t: t.elements.size)
    rng = np.random.default_rng(3)
    big.elements[...] = (rng.standard_normal(big.elements.shape)
                         + 1j * rng.standard_normal(big.elements.shape))
    big.elements.real[rng.random(big.elements.shape) < 0.1] = -0.0
    assert math.prod(big.bond_dims) > _DUMP_CHUNK

    def entry(t):
        index = [i for i in np.ndindex(t.bond_dims)
                 if t.elements[i].view(np.uint64).any()]
        blocks = [t.elements[i].ravel() for i in index]
        return {"legs": [list(e) for e in t.legs],
                "shape": list(t.elements.shape),
                "index": [list(i) for i in index],
                "re": [x.real for b in blocks for x in b.tolist()],
                "im": [x.imag for b in blocks for x in b.tolist()]}

    whole = {"format": "ttno-v2", "tree": ttno.tree.to_json_dict(),
             "tensors": {str(s): entry(t) for s, t in ttno.tensors.items()}}
    p = tmp_path / "star.json"
    write_ttno(ttno, str(p))
    same = p.read_text() == json.dumps(whole)  # no diff of MB-long strings
    assert same


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
     "site 5: block index .* is listed twice"),
    (_edit(lambda d: _tensor(d, 5)["re"].pop()),
     "site 5: 're' holds 15 numbers, not 4 blocks x 4"),
    (_edit(lambda d: _tensor(d, 5)["im"].append(0.0)),
     "site 5: 'im' holds 17 numbers"),
    (_edit(lambda d: _tensor(d, 5)["re"].__setitem__(0, "0.0")),
     "site 5: 're' must be a flat list of numbers"),
], ids=["truncated", "format_v1", "missing_site", "unknown_site",
        "missing_field", "legs", "shape_length", "shape_type", "phys_dim",
        "index_range", "index_negative", "index_type", "index_duplicate",
        "re_length", "im_length", "re_type"])
def test_read_rejects_malformed_dump(tmp_path, demo_hamiltonian, corrupt,
                                     message):
    p = tmp_path / "demo.json"
    write_ttno(emit_tensors(from_hamiltonian(demo_hamiltonian)), str(p))
    p.write_text(corrupt(p.read_text()))
    with pytest.raises(ValidationError, match=message):
        read_ttno(str(p))


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
    assert peak <= 3 * sum(t.elements.nbytes for t in back.tensors.values())
