import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from ttno.errors import (DenseCapExceededError, DuplicateTermError,
                         UnknownOperatorError, ValidationError)
from ttno.operators import (DEFAULT_REGISTRY, Hamiltonian, OperatorRegistry,
                            ProductTerm, SiteOperator, fold_coefficient,
                            random_hamiltonian, to_dense)
from ttno.oqs import OQSSpec, oqs_hamiltonian, oqs_terms
from ttno.tree import TreeTopology

from conftest import demo_terms, demo_tree, pauli_term
from oracles import (elementwise_dense, kron_dense, pick_nonleaf_root,
                     random_tree_edges)
from test_diagram import random40_hamiltonian

X = DEFAULT_REGISTRY.lookup("X", 2)
Y = DEFAULT_REGISTRY.lookup("Y", 2)
Z = DEFAULT_REGISTRY.lookup("Z", 2)


def test_registry_defaults():
    assert np.allclose(DEFAULT_REGISTRY.lookup("I", 3), np.eye(3))
    b = DEFAULT_REGISTRY.lookup("B", 3)
    bdag = DEFAULT_REGISTRY.lookup("Bdag", 3)
    n = DEFAULT_REGISTRY.lookup("N", 3)
    assert np.allclose(bdag, b.conj().T)
    assert np.allclose(bdag @ b, n)
    with pytest.raises(UnknownOperatorError):
        DEFAULT_REGISTRY.lookup("Q", 2)


def test_registry_builds_factory_operators_once():
    registry = OperatorRegistry()
    b = registry.lookup("B", 4)
    assert registry.lookup("B", 4) is b
    assert registry.resolve(SiteOperator("B", 4)) is b
    with pytest.raises(ValueError, match="read-only"):
        b[0, 1] = 2.0
    assert registry.lookup("N", 3) is registry.lookup("N", 3)
    # a label registered later shadows the factory, also once built
    registry.register("N", np.eye(3))
    assert np.array_equal(registry.lookup("N", 3), np.eye(3))
    assert np.allclose(registry.lookup("N", 4), np.diag([0, 1, 2, 3]))
    assert OperatorRegistry().lookup("B", 4) is not b


def test_site_operator_symbolic_equality():
    a = SiteOperator("X", 2)
    assert a == SiteOperator("X", 2)
    assert a != SiteOperator("X", 3)
    assert a != SiteOperator("Y", 2)


def test_identity_label_guard():
    with pytest.raises(ValidationError):
        ProductTerm(1.0, {0: SiteOperator("I", 2)})


def test_registry_reserves_identity_label():
    registry = OperatorRegistry()
    with pytest.raises(ValidationError, match="'I'"):
        registry.register("I", X)
    assert np.array_equal(registry.resolve(SiteOperator("I", 2)), np.eye(2))
    registry.register("I", np.eye(3))  # the identity itself may be given


def test_registry_refuses_non_finite_matrix():
    registry = OperatorRegistry()
    with pytest.raises(ValidationError,
                       match="operator 'Q': matrix entries must be finite"):
        registry.register("Q", np.array([[np.nan, 0], [1, 0]]))
    with pytest.raises(UnknownOperatorError):
        registry.lookup("Q", 2)


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"),
                                   complex(1, float("-inf"))])
def test_non_finite_coefficient_rejected(coeff):
    with pytest.raises(ValidationError, match="not finite"):
        ProductTerm(coeff, {0: SiteOperator("X", 2)})


@pytest.mark.parametrize("factors, message", [
    ({9: SiteOperator("X", 2)}, "term 1 acts on unknown site 9"),
    ({2: SiteOperator("X", 3)},
     "term 1: operator 'X' (dim 3) does not match site 2 (dim 2)"),
], ids=["unknown_site", "dim_mismatch"])
def test_hamiltonian_refuses_factors_off_the_tree(tree, factors, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Hamiltonian(tree, [pauli_term({1: "X"}), ProductTerm(1.0, factors)])


def test_fold_unit_coefficient_is_noop():
    t = pauli_term({2: "Y", 3: "X", 4: "X"})
    assert fold_coefficient(t, 1, 2) is t


def test_fold_into_smallest_site():
    j = 2.0
    t = ProductTerm(-j, {0: SiteOperator("X", 2), 1: SiteOperator("X", 2)})
    f = fold_coefficient(t, 0, 2)
    assert f.coefficient == 1.0
    assert f.factors[0].label == "-2*X"
    assert f.factors[1].label == "X"
    assert np.allclose(DEFAULT_REGISTRY.resolve(f.factors[0]), -j * X)


def test_fold_scalar_matrix_oracle():
    g = 0.5
    t = ProductTerm(g, {4: SiteOperator("Z", 2), 7: SiteOperator("B", 2)})
    f = fold_coefficient(t, 0, 2)
    assert np.allclose(DEFAULT_REGISTRY.resolve(f.factors[4]), g * Z)
    assert f.factors[7].label == "B"


def test_fold_all_identity_term():
    t = ProductTerm(2.5, {})
    f = fold_coefficient(t, root=3, root_dim=2)
    assert f.coefficient == 1.0
    assert list(f.factors) == [3]
    assert np.allclose(DEFAULT_REGISTRY.resolve(f.factors[3]), 2.5 * np.eye(2))


def test_fold_preserves_dense():
    tree = demo_tree()
    terms = [ProductTerm(-1.5, dict(t.factors)) for t in demo_terms()]
    h = Hamiltonian(tree, terms)
    folded = Hamiltonian(tree, h.folded_terms())
    assert np.allclose(to_dense(h), to_dense(folded), atol=1e-12)


def test_equal_folds_share_one_operator():
    # the 3 exchange terms per spin pair fold -J into X, Y or Z on the
    # earlier spin: one derived operator each, whatever was built before
    spec = OQSSpec(4, 1, coupling=0.75)
    terms = oqs_terms(spec)
    h = oqs_hamiltonian(spec, "star")
    exchange = [f for f, t in zip(h.folded_terms(), terms)
                if t.coefficient != 1.0]
    firsts = [f.factors[min(f.factors)] for f in exchange]
    assert len({id(op) for op in firsts}) == 3
    for op in firsts:
        alone = SiteOperator(op.base_label, 2).scaled(-0.75)
        assert (op.label, op.op_id) == (alone.label, alone.op_id)
        assert op.label == f"-0.75*{op.base_label}"
    again = oqs_hamiltonian(spec, "star")
    assert list(again.folded) == list(h.folded)
    assert ([op.label for f in again.folded_terms()
             for op in f.factors.values()]
            == [op.label for f in h.folded_terms()
                for op in f.factors.values()])


def test_scaled_reuses_the_table_entry():
    x, table = SiteOperator("X", 2), {}
    a = x.scaled(2.0, table)
    assert x.scaled(2, table) is a
    assert SiteOperator("X", 2, scale=0.5).scaled(4.0, table) is a
    assert x.scaled(2.0) is not a and x.scaled(2.0) == a
    assert list(table) == [("X", 2, 2.0)]


def test_term_equality_is_order_insensitive():
    a = ProductTerm(1.0, {1: SiteOperator("X", 2), 5: SiteOperator("Z", 2)})
    b = ProductTerm(1.0, {5: SiteOperator("Z", 2), 1: SiteOperator("X", 2)})
    assert a == b and hash(a) == hash(b)


def test_to_dense_single_site():
    t = TreeTopology([], root=1)
    h = Hamiltonian(t, [ProductTerm(1.0, {1: SiteOperator("X", 2)})])
    assert np.allclose(to_dense(h), X)


def test_duplicate_terms_rejected():
    t = TreeTopology([], root=1)
    dup = ProductTerm(1.0, {1: SiteOperator("X", 2)})
    with pytest.raises(DuplicateTermError):
        Hamiltonian(t, [dup, ProductTerm(1.0, {1: SiteOperator("X", 2)})])


def test_duplicate_names_both_terms():
    t = TreeTopology([(0, 1)], root=0)
    x0, z1 = SiteOperator("X", 2), SiteOperator("Z", 2)
    terms = [ProductTerm(1.0, {0: x0}), ProductTerm(1.0, {1: z1}),
             ProductTerm(2.0, {0: x0}), ProductTerm(1.0, {1: z1})]
    with pytest.raises(DuplicateTermError, match=re.escape(
            "term 3 repeats term 1: ProductTerm(1 * [Z@1])")):
        Hamiltonian(t, terms)


def test_duplicates_detected_after_folding():
    t = TreeTopology([], root=0)
    a = ProductTerm(2.0, {0: SiteOperator("X", 2)})
    b = ProductTerm(1.0, {0: SiteOperator("X", 2).scaled(2.0)})
    with pytest.raises(DuplicateTermError):
        Hamiltonian(t, [a, b])


def test_demo_dense_against_elementwise_oracle(demo_hamiltonian):
    ordering = [1, 2, 3, 4, 5, 6, 7, 8]  # ascending site order
    got = to_dense(demo_hamiltonian)
    mats = {"X": X, "Y": Y, "Z": Z}
    raw = [(t.coefficient, {s: mats[op.label] for s, op in t.factors.items()})
           for t in demo_hamiltonian.terms]
    want = elementwise_dense({s: 2 for s in ordering}, raw, ordering)
    assert got.shape == (256, 256)
    assert np.allclose(got, want, atol=1e-12)


def test_to_dense_linear_in_terms(demo_hamiltonian):
    tree = demo_hamiltonian.tree
    t1 = demo_hamiltonian.terms[:2]
    t2 = demo_hamiltonian.terms[2:]
    total = to_dense(Hamiltonian(tree, t1)) + to_dense(Hamiltonian(tree, t2))
    assert np.allclose(total, to_dense(demo_hamiltonian), atol=1e-12)


def test_to_dense_matches_kron_chain_bit_for_bit():
    # random trees of dimension-1, qubit and boson sites, user matrices at
    # every dimension, complex coefficients, identity terms included
    rng = np.random.default_rng(4242)
    labels = {1: ("A",), 2: ("A", "X", "Y"), 3: ("A", "B", "N")}
    for i in range(60):
        n = int(rng.integers(1, 8))
        edges = random_tree_edges(rng, n)
        dims = {s: int(rng.choice((1, 2, 3))) for s in range(n)}
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n), dims)
        registry = OperatorRegistry()
        for d in labels:
            registry.register("A", rng.normal(size=(d, d))
                              + 1j * rng.normal(size=(d, d)))
        terms = []
        for _ in range(int(rng.integers(1, 12))):
            support = rng.choice(n, size=int(rng.integers(0, n + 1)),
                                 replace=False)
            terms.append(ProductTerm(complex(*rng.normal(size=2)), {
                int(s): SiteOperator(str(rng.choice(labels[dims[s]])),
                                     dims[s]) for s in support}))
        h = Hamiltonian(tree, terms)
        assert (to_dense(h, registry=registry).tobytes()
                == kron_dense(h, registry).tobytes()), i


def test_to_dense_peak_is_about_one_output_matrix():
    # the Kronecker chain held a full-size block per term, and its partial
    # products, beside the output
    chain = TreeTopology([(i, i + 1) for i in range(9)], root=1)
    h = random_hamiltonian(chain, 40, ("X", "Y", "Z"), 3, seed=77)
    tracemalloc.start()
    try:
        out = to_dense(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1024, 1024)
    assert peak < 1.1 * out.nbytes


def test_dense_cap(monkeypatch):
    tree = demo_tree()
    h = Hamiltonian(tree, [pauli_term({1: "X"})])
    monkeypatch.setenv("TTNO_DENSE_CAP", "128")
    with pytest.raises(DenseCapExceededError):
        to_dense(h)


def test_custom_registry_matrices():
    reg = OperatorRegistry()
    q = np.array([[0, 2], [0, 0]], dtype=complex)
    reg.register("Q", q)
    t = TreeTopology([(0, 1)], root=0)
    h = Hamiltonian(t, [ProductTerm(1.0, {0: SiteOperator("Q", 2),
                                          1: SiteOperator("Q", 2)})])
    assert np.allclose(to_dense(h, registry=reg), np.kron(q, q))


def test_random_hamiltonian_deterministic(tree):
    h1 = random_hamiltonian(tree, 30, ("X", "Y", "Z"), seed=11)
    h2 = random_hamiltonian(tree, 30, ("X", "Y", "Z"), seed=11)
    assert [t.key() for t in h1.terms] == [t.key() for t in h2.terms]
    h3 = random_hamiltonian(tree, 30, ("X", "Y", "Z"), seed=12)
    assert [t.key() for t in h3.terms] != [t.key() for t in h1.terms]


def test_random_hamiltonian_terms_distinct(tree):
    h = random_hamiltonian(tree, 50, ("X", "Y"), max_support=2, seed=5)
    keys = [t.key() for t in h.terms]
    assert len(set(keys)) == len(keys) == 50


def test_random_hamiltonian_pigeonhole():
    single = TreeTopology([], root=0)
    random_hamiltonian(single, 3, ("X", "Y", "Z"), seed=1)  # exactly possible
    with pytest.raises(ValidationError):
        random_hamiltonian(single, 4, ("X", "Y", "Z"), seed=1)
    pair = TreeTopology([(0, 1)], root=0)
    with pytest.raises(ValidationError):
        # 2*3 one-site + 9 two-site terms = 15 possibilities
        random_hamiltonian(pair, 16, ("X", "Y", "Z"), seed=1)


@pytest.mark.parametrize("n_terms, max_support, bad", [
    (2.5, None, "n_terms 2.5"),
    (True, None, "n_terms True"),
    (3, 1.5, "max_support 1.5"),
    (3, True, "max_support True"),
])
def test_random_hamiltonian_rejects_non_integer_counts(tree, n_terms,
                                                       max_support, bad):
    # 2.5 drew 3 terms, True drew 1, and 1.5 raised TypeError from numpy
    with pytest.raises(ValidationError, match=f"^{bad} must be an integer$"):
        random_hamiltonian(tree, n_terms, ("X", "Y", "Z"), max_support,
                           seed=1)


def test_random_hamiltonian_rejects_identity_label(tree):
    with pytest.raises(ValidationError):
        random_hamiltonian(tree, 1, ("I", "X"), seed=1)


def test_random_hamiltonian_rejects_repeated_label(tree):
    # counted with the repeat, 6,560 distinct terms would seem to exist
    # where there are 255, and the draw would never end
    with pytest.raises(ValidationError, match="repeat 'X'"):
        random_hamiltonian(tree, 300, ("X", "Y", "X"), seed=1)


def test_site_operator_refuses_non_integer_dim_and_non_string_label(tree):
    # a bool dim stayed True, and 2.0 shared the op_id of 2
    with pytest.raises(ValidationError, match="dimension True"):
        SiteOperator("X", True)
    with pytest.raises(ValidationError, match="dimension 2.0"):
        SiteOperator("X", 2.0)
    with pytest.raises(ValidationError, match="label 1 must be a string"):
        SiteOperator(1, 2)
    with pytest.raises(ValidationError, match="label 1 must be a string"):
        random_hamiltonian(tree, 3, [1, 2], seed=1)
    assert type(SiteOperator("X", np.int64(2)).dim) is int


def test_random_hamiltonian_label_frequencies():
    pair = TreeTopology([(0, 1)], root=0)
    counts = {s: {"X": 0, "Y": 0, "Z": 0} for s in (0, 1)}
    picks = {s: 0 for s in (0, 1)}
    for i in range(10_000):
        h = random_hamiltonian(pair, 1, ("X", "Y", "Z"), seed=(400, i))
        for s, op in h.terms[0].factors.items():
            counts[s][op.label] += 1
            picks[s] += 1
    for s in (0, 1):
        for lbl in ("X", "Y", "Z"):
            assert abs(counts[s][lbl] / picks[s] - 1 / 3) < 0.02


def _size_weights(n_sites, n_labels, k_max):
    w = np.array([math.comb(n_sites, k) * n_labels ** k
                  for k in range(1, k_max + 1)], dtype=float)
    return w / w.sum()


@pytest.mark.parametrize("weights", [
    _size_weights(1, 3, 1),  # k_max == 1
    _size_weights(2, 3, 2),
    _size_weights(8, 3, 8),  # the demo tree, unbounded support
    _size_weights(40, 3, 4),  # random40
    _size_weights(40, 2, 40),
    np.array([0.5, 0.25, 0.125, 0.125]),
])
def test_random_stream_inverse_cdf_and_label_array(weights):
    # random_hamiltonian draws a term's support size by inverting the
    # cumulative weights, as Generator.choice(k_max, p=w) does, and its
    # labels with one integers(n, size=k) call, which equals k scalar calls;
    # between them sits the same choice(replace=False) of sites
    k_max, n_sites, n_labels = len(weights), max(len(weights), 40), 3
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    for seed in range(60):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            k = 1 + int(old.choice(k_max, p=weights))
            assert k == 1 + int(cdf.searchsorted(new.random(), side="right"))
            assert np.array_equal(old.choice(n_sites, size=k, replace=False),
                                  new.choice(n_sites, size=k, replace=False))
            labels = [int(old.integers(n_labels)) for _ in range(k)]
            assert new.integers(n_labels, size=k).tolist() == labels
        assert old.bit_generator.state == new.bit_generator.state


def _term_stream(hamiltonians) -> str:
    """SHA-256 over the (site, label) sequence of every term, in order."""
    digest = hashlib.sha256()
    for h in hamiltonians:
        for t in h.terms:
            digest.update(" ".join(f"{s}:{op.label}" for s, op in
                                   sorted(t.factors.items())).encode())
            digest.update(b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def test_random_stream_pinned():
    # a numpy upgrade or a refactor that changes the draws changes every
    # seeded study; this fails first
    demo = demo_tree()
    mixed = TreeTopology([(0, 1), (1, 2)], root=1, phys_dims={2: 4})
    pair = TreeTopology([(0, 1)], root=0)
    single = TreeTopology([], root=0)
    hs = [random40_hamiltonian(1)]
    hs += [random_hamiltonian(demo, n, ("X", "Y", "Z"), None, seed=[1, n, i])
           for n in (5, 10, 20, 30) for i in range(3)]
    hs += [random_hamiltonian(mixed, 6, ("B", "N"), 2, seed=3),
           random_hamiltonian(pair, 15, ("X", "Y", "Z"), seed=4),
           random_hamiltonian(single, 3, ("X", "Y", "Z"), 1, seed=5)]
    assert _term_stream(hs) == (
        "ba733f3f95ac98eff425c17adea68dd35819851c355de6113591071a19b511a2")


@pytest.mark.parametrize("call, message", [
    (lambda tree: SiteOperator("", 2), "operator label must be non-empty"),
    (lambda tree: SiteOperator("X", 0), "operator dimension must be >= 1"),
    (lambda tree: OperatorRegistry().register("Q", np.zeros((2, 3))),
     "matrix for 'Q' must be square"),
    (lambda tree: random_hamiltonian(tree, 0, ("X",), seed=1),
     "n_terms must be >= 1"),
    (lambda tree: random_hamiltonian(tree, 1, ("X",), max_support=0, seed=1),
     "max_support must be >= 1"),
], ids=["empty_label", "dim_zero", "non_square", "no_terms", "no_support"])
def test_refusals_by_message(tree, call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(tree)
