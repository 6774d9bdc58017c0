import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttno.diagram import from_hamiltonian
from ttno.errors import UnknownOperatorError, ValidationError
from ttno.operators import (DEFAULT_DENSE_CAP, Hamiltonian, OperatorRegistry,
                            ProductTerm, SiteOperator, random_hamiltonian,
                            to_dense)
from ttno.oqs import TOPOLOGIES, OQSSpec, oqs_hamiltonian
from ttno.svdref import (RANK_REL_TOL, BenchRecord, BondReport, detail_csv,
                         optimal_bond_dims, r_diff, run_bench, summary_csv)
from ttno.tree import TreeTopology

from conftest import (component_without_edge, demo_tree, pauli_term,
                      r_diff_stderr)
from oracles import dense_bond_dims, pick_nonleaf_root, random_tree_edges


def test_single_term_all_ranks_one(tree):
    h = Hamiltonian(tree, [pauli_term({2: "Y", 3: "X", 4: "X"})])
    assert set(optimal_bond_dims(h).values()) == {1}


def test_demo_optimal_dims(demo_hamiltonian):
    opt = optimal_bond_dims(demo_hamiltonian)
    alg = from_hamiltonian(demo_hamiltonian).bond_dimensions()
    assert max(opt.values()) <= 3
    assert all(opt[e] <= alg[e] for e in opt)


def test_independent_factors_give_full_rank():
    pair = TreeTopology([(0, 1)], root=0)
    for k, labels in [(1, "X"), (2, "XY"), (3, "XYZ")]:
        h = Hamiltonian(pair, [pauli_term({0: a, 1: a}) for a in labels])
        assert optimal_bond_dims(h)[(0, 1)] == k


def test_rank_symmetric_under_transposed_bipartition(demo_hamiltonian):
    # group rows on the other side of each cut; ranks must agree
    tree = demo_hamiltonian.tree
    sites = list(tree.nodes)
    dims = [2] * len(sites)
    dense = to_dense(demo_hamiltonian)
    tensor = dense.reshape(dims + dims)
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    base = optimal_bond_dims(demo_hamiltonian)
    for e in tree.edges:
        side = component_without_edge(tree, e, e[1])  # opposite anchor
        axes_a = [pos[s] for s in sites if s in side]
        axes_b = [pos[s] for s in sites if s not in side]
        perm = (axes_a + [a + n for a in axes_a]
                + axes_b + [b + n for b in axes_b])
        rows = int(np.prod([dims[a] for a in axes_a])) ** 2
        mat = tensor.transpose(perm).reshape(rows, -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.count_nonzero(sv > 1e-10 * sv[0]))
        assert rank == base[e]


def test_matches_dense_on_random_demo_systems(tree):
    # seeds disjoint from acceptance criterion 4 (20240901)
    for i in range(300):
        n_terms = 1 + i % 30
        max_support = (None, 2, 3)[i % 3]
        h = random_hamiltonian(tree, n_terms, ("X", "Y", "Z"), max_support,
                               seed=(5150, i))
        assert optimal_bond_dims(h) == dense_bond_dims(h), i


def test_matches_dense_on_oqs_models():
    checked = 0
    for kind, spins, baths, boson_dim in itertools.product(
            TOPOLOGIES, (2, 3), (1, 2), (2, 3, 4)):
        if 2 ** spins * boson_dim ** (spins * baths) > DEFAULT_DENSE_CAP:
            continue
        spec = OQSSpec(spins, baths, coupling=0.7, g=0.3 - 0.8j, omega=1.1,
                       boson_dim=boson_dim)
        h = oqs_hamiltonian(spec, kind)
        assert optimal_bond_dims(h) == dense_bond_dims(h), (kind, spec)
        checked += 1
    assert checked == 30


def user_matrix_system(rng, n_sites=6):
    """Random tree with site dimensions 2 and 3, user operators A and B per
    dimension plus a linearly dependent C = a A + b B, complex couplings."""
    edges = random_tree_edges(rng, n_sites)
    dims = {s: int(rng.choice((2, 3))) for s in range(n_sites)}
    tree = TreeTopology(edges, pick_nonleaf_root(edges, n_sites), dims)
    registry = OperatorRegistry()
    for d in (2, 3):
        a, b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                for _ in range(2))
        registry.register("A", a)
        registry.register("B", b)
        registry.register("C", complex(*rng.normal(size=2)) * a
                          + complex(*rng.normal(size=2)) * b)
    n_terms = int(rng.integers(1, 16))
    shape = random_hamiltonian(tree, n_terms, ("A", "B", "C"),
                               int(rng.integers(1, 5)),
                               seed=int(rng.integers(2 ** 31)))
    terms = [ProductTerm(complex(*rng.normal(size=2)), t.factors)
             for t in shape.terms]
    return Hamiltonian(tree, terms), registry


def test_matches_dense_on_user_matrices():
    rng = np.random.default_rng(8086)
    for i in range(120):
        h, registry = user_matrix_system(rng)
        assert (optimal_bond_dims(h, registry)
                == dense_bond_dims(h, registry)), i


@st.composite
def user_matrix_systems(draw):
    """A random tree of 2-6 sites, site 0 of dimension 2 or 3 and the others
    of dimension 2; per dimension, user operators A and B and a linearly
    dependent C = a A + b B, all real or all complex; 1-10 distinct terms
    of up to 3 factors from A, B, C (and X, Z at dimension 2), with real or
    complex coefficients."""
    n = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    dims = {s: 2 for s in range(n)}
    dims[0] = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    im = draw(st.sampled_from((0.0, 1.0)))
    registry = OperatorRegistry()
    for d in set(dims.values()):
        a, b = (rng.normal(size=(d, d)) + im * 1j * rng.normal(size=(d, d))
                for _ in range(2))
        registry.register("A", a)
        registry.register("B", b)
        x, y = rng.normal(size=2) + im * 1j * rng.normal(size=2)
        registry.register("C", x * a + y * b)
    labels = {2: "ABCXZ", 3: "ABC"}
    factors = st.dictionaries(st.integers(0, n - 1), st.integers(0, 4),
                              max_size=3)
    coeff = st.builds(complex, st.sampled_from((1.0, -0.5, 2.0)),
                      st.sampled_from((0.0, 0.0, 0.75)))
    terms = draw(st.dictionaries(
        factors.map(lambda f: tuple(sorted(f.items()))), coeff,
        min_size=1, max_size=10))
    tree = TreeTopology(edges, pick_nonleaf_root(edges, n), dims)
    return Hamiltonian(tree, [
        ProductTerm(c, {s: SiteOperator(labels[dims[s]][k % len(
            labels[dims[s]])], dims[s]) for s, k in key})
        for key, c in terms.items()]), registry


@given(system=user_matrix_systems())
def check_blocks_match_dense(system, seen):
    h, registry = system
    seen["oracle"] = True
    dims = optimal_bond_dims(h, registry)
    seen["oracle"] = False
    assert dims == dense_bond_dims(h, registry)


def test_blocks_match_dense_on_random_user_matrices(monkeypatch,
                                                    hypothesis_home):
    # every path of the per-block rank: LAPACK in complex and in float64
    # for blocks of several rows and columns, and the 2-norm of a block of
    # one row with several entries
    seen = {"oracle": False, "dtypes": set(), "row_entries": 0}
    svd, hypot = np.linalg.svd, math.hypot

    def recording_svd(a, *args, **kwargs):
        if seen["oracle"]:
            seen["dtypes"].add(a.dtype)
        return svd(a, *args, **kwargs)

    def recording_hypot(*xs):
        if seen["oracle"]:
            seen["row_entries"] = max(seen["row_entries"], len(xs))
        return hypot(*xs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(math, "hypot", recording_hypot)
    check_blocks_match_dense(seen=seen)
    assert seen["dtypes"] == {np.dtype(complex), np.dtype(float)}
    assert seen["row_entries"] >= 2


@pytest.mark.parametrize("small, rank", [(1 + 1e-6, 2), (1 - 1e-6, 1)])
def test_threshold_across_one_entry_blocks(small, rank):
    # X x X and Z x Z are blocks of one entry each: the smaller singular
    # value is held against RANK_REL_TOL times the other block's
    pair = TreeTopology([(0, 1)], root=0)
    x, z = SiteOperator("X", 2), SiteOperator("Z", 2)
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: x, 1: x}),
                           ProductTerm(RANK_REL_TOL * small, {0: z, 1: z})])
    assert optimal_bond_dims(h) == {(0, 1): rank}


@pytest.mark.parametrize("small, rank", [(1 + 1e-6, 3), (1 - 1e-6, 2)])
def test_threshold_inside_a_two_by_two_block(small, rank):
    # Y and Z on both sites make one 2 x 2 block with singular values
    # 2e-10 and 1e-10 * small; sigma_0 = 1 is X x X, another block, so the
    # SVD's smaller value is held against RANK_REL_TOL * 1, not against
    # the largest value of its own block
    def rotation(t):
        return np.array([[math.cos(t), -math.sin(t)],
                         [math.sin(t), math.cos(t)]])

    c = (rotation(0.3) @ np.diag([2.0, small]) @ rotation(0.7).T
         * RANK_REL_TOL)
    pair = TreeTopology([(0, 1)], root=0)
    op = {a: SiteOperator(a, 2) for a in "XYZ"}
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: op["X"], 1: op["X"]})] + [
        ProductTerm(c[i, j], {0: op[a], 1: op[b]})
        for i, a in enumerate("YZ") for j, b in enumerate("YZ")])
    assert optimal_bond_dims(h) == {(0, 1): rank}


def test_unknown_label_names_term_and_site():
    pair = TreeTopology([(0, 1)], root=0)
    x, q = SiteOperator("X", 2), SiteOperator("Q", 2)
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: x, 1: x}),
                           ProductTerm(1.0, {0: x, 1: q})])
    with pytest.raises(UnknownOperatorError,
                       match="^term 1, site 1: no matrix for label 'Q' "
                             "at dim 2$"):
        optimal_bond_dims(h)


X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("two_x, coeff, site, expected", [
    (np.diag([1.0, -1.0]), 1.0, 3, {(1, 2): 2, (2, 3): 2}),
    # "2*X" registered as 2 X: the first two terms cancel exactly
    (2 * X_MATRIX, -1.0, 2, {(1, 2): 1, (2, 3): 1}),
])
def test_matches_dense_on_label_collision(two_x, coeff, site, expected):
    tree = TreeTopology([(1, 2), (2, 3)], root=2)
    registry = OperatorRegistry()
    registry.register("2*X", two_x)
    x, z = SiteOperator("X", 2), SiteOperator("Z", 2)
    h = Hamiltonian(tree, [
        ProductTerm(2.0, {1: x, 2: x}),
        ProductTerm(coeff, {1: SiteOperator("2*X", 2), site: x}),
        ProductTerm(1.0, {1: z, 3: z})])
    assert optimal_bond_dims(h, registry) == dense_bond_dims(h, registry)
    assert optimal_bond_dims(h, registry) == expected


CHAIN3 = TreeTopology([(0, 1), (1, 2)], 1)
Z_MATRIX = np.diag([1.0, -1.0])


@pytest.mark.parametrize("scale", [1e300, 1e3, 1.0, 1e-300, 5e-324])
def test_rank_at_any_operator_scale(scale):
    # at 1e300 the Gram-Schmidt squared norms overflowed, and at 1e-300
    # they vanished: both operators expanded to nothing and edge (0, 1)
    # read 1
    registry = OperatorRegistry()
    registry.register("BZ", scale * Z_MATRIX)
    registry.register("BX", scale * X_MATRIX)
    x, z = SiteOperator("X", 2), SiteOperator("Z", 2)
    h = Hamiltonian(CHAIN3, [
        ProductTerm(1.0, {0: SiteOperator("BZ", 2), 1: x}),
        ProductTerm(1.0, {0: SiteOperator("BX", 2), 1: z})])
    want = {(0, 1): 2, (1, 2): 1}
    assert optimal_bond_dims(h, registry) == want
    assert from_hamiltonian(h).bond_dimensions() == want


@pytest.mark.parametrize("coeff", [1e200, 1e-200, 1e-320])
def test_rank_at_any_coefficient_scale(coeff):
    # at 1e200 the squared norms of the folds raised OverflowError
    x, z = SiteOperator("X", 2), SiteOperator("Z", 2)
    h = Hamiltonian(CHAIN3, [ProductTerm(coeff, {0: x, 1: x}),
                             ProductTerm(coeff, {0: z, 1: z})])
    assert optimal_bond_dims(h) == {(0, 1): 2, (1, 2): 1}


def test_overflowing_basis_coefficient_names_the_term():
    registry = OperatorRegistry()
    registry.register("BZ", 1e300 * Z_MATRIX)
    h = Hamiltonian(CHAIN3, [
        ProductTerm(1.0, {1: SiteOperator("X", 2)}),
        ProductTerm(1e10, {0: SiteOperator("BZ", 2)})])
    with pytest.raises(ValidationError,
                       match=r"^term 1: a basis-string coefficient "
                             r"overflows: ProductTerm\(10000000000 \* "
                             r"\[BZ@0\]\)$"):
        optimal_bond_dims(h, registry)


def test_transverse_field_chain_beyond_dense_cap():
    # 2^200-dimensional: only the term-based oracle can do this
    n = 200
    tree = TreeTopology([(i, i + 1) for i in range(n - 1)], root=0)
    x, z = SiteOperator("X", 2), SiteOperator("Z", 2)
    terms = ([ProductTerm(-1.0, {i: x, i + 1: x}) for i in range(n - 1)]
             + [ProductTerm(0.5, {i: z}) for i in range(n)])
    t0 = time.perf_counter()
    dims = optimal_bond_dims(Hamiltonian(tree, terms))
    print(f"\n200-site transverse-field chain oracle: "
          f"{time.perf_counter() - t0:.2f}s")
    assert dims == {e: 3 for e in tree.edges}


def test_transverse_field_chain_5000_sites():
    n = 5000
    tree = TreeTopology([(i, i + 1) for i in range(n - 1)], root=1)
    x, z = SiteOperator("X", 2), SiteOperator("Z", 2)
    h = Hamiltonian(tree, [ProductTerm(-1.0, {i: x, i + 1: x})
                           for i in range(n - 1)]
                    + [ProductTerm(0.5, {i: z}) for i in range(n)])
    t0 = time.perf_counter()
    dims = optimal_bond_dims(h)
    elapsed = time.perf_counter() - t0
    print(f"\n5,000-site transverse-field chain oracle: {elapsed:.2f}s")
    assert dims == {e: 3 for e in tree.edges}
    assert elapsed < 1.0


def test_fully_matched_one_sided_strings_fold_to_exact_zero():
    # across 0-1 each string wholly on site 0 matches the crossing row of
    # its Pauli, so the folded norm is exactly 0; in floats, sum-then-
    # subtract of these squares leaves 5.6e-17, and its square root would
    # be a fourth singular value
    pair = TreeTopology([(0, 1), (1, 2)], root=1)
    op = {lbl: SiteOperator(lbl, 2) for lbl in "XYZ"}
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: op[a], 1: op[a]})
                           for a in "XYZ"]
                    + [ProductTerm(c, {0: op[a]})
                       for c, a in zip((0.1, 1.1, 0.7), "XYZ")])
    assert optimal_bond_dims(h) == dense_bond_dims(h) == {(0, 1): 3,
                                                          (1, 2): 1}


@pytest.mark.parametrize("first", [0, 1])
def test_oracle_memo_keyed_by_matrix_content(first):
    # one label, two matrices: a memo keyed by label or op_id would hand
    # the second registry the first one's expansion
    pair = TreeTopology([(0, 1)], root=0)
    a, x = SiteOperator("A", 2), SiteOperator("X", 2)
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: a, 1: a}),
                           ProductTerm(1.0, {0: x, 1: x})])
    registries = []
    for matrix in (X_MATRIX, np.diag([1.0, -1.0])):
        registries.append(OperatorRegistry())
        registries[-1].register("A", matrix)
    order = registries[first:] + registries[:first]
    assert [optimal_bond_dims(h, r) for r in order] == [
        dense_bond_dims(h, r) for r in order]
    assert [optimal_bond_dims(h, r)[(0, 1)] for r in registries] == [1, 2]


def test_oracle_memo_sees_a_register_between_calls():
    # one registry and one h: a memo keyed by op ids alone would hand the
    # second call the expansion of the matrix "A" had before
    pair = TreeTopology([(0, 1)], root=0)
    a, x = SiteOperator("A", 2), SiteOperator("X", 2)
    h = Hamiltonian(pair, [ProductTerm(1.0, {0: a, 1: a}),
                           ProductTerm(1.0, {0: x, 1: x})])
    registry = OperatorRegistry()
    registry.register("A", X_MATRIX)
    assert optimal_bond_dims(h, registry) == dense_bond_dims(h, registry)
    assert optimal_bond_dims(h, registry) == {(0, 1): 1}
    registry.register("A", np.diag([1.0, -1.0]))
    assert optimal_bond_dims(h, registry) == dense_bond_dims(h, registry)
    assert optimal_bond_dims(h, registry) == {(0, 1): 2}


def test_matches_dense_on_dimensions_1_2_and_4():
    # basis strings count positions in steps of K = 16, the d^2 of a d = 4
    # site; d = 1 sites carry only the identity.  User matrices A and B, a
    # dependent C = a A + b B and a zero matrix O at every dimension: most
    # expansions have several components, and O's has none
    rng = np.random.default_rng(1624)
    checked = 0
    while checked < 80:
        n = int(rng.integers(2, 8))
        dims = {s: int(rng.choice((1, 2, 4))) for s in range(n)}
        if math.prod(dims.values()) > 256:
            continue
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n), dims)
        registry = OperatorRegistry()
        for d in (1, 2, 4):
            m = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
            registry.register("A", m[0])
            registry.register("B", m[1])
            registry.register("C", complex(*rng.normal(size=2)) * m[0]
                              + complex(*rng.normal(size=2)) * m[1])
            registry.register("O", np.zeros((d, d)))
        terms = {}
        for _ in range(int(rng.integers(1, 16))):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)),
                                 replace=False)
            factors = {int(s): SiteOperator(str(rng.choice(list("ABCO"))),
                                            dims[s]) for s in support}
            key = tuple(sorted((s, op.label) for s, op in factors.items()))
            terms[key] = ProductTerm(complex(*rng.normal(size=2)), factors)
        h = Hamiltonian(tree, terms.values())
        assert (optimal_bond_dims(h, registry)
                == dense_bond_dims(h, registry)), checked
        checked += 1


def test_dominance_over_random_suite(tree):
    results = run_bench(tree, [10], 40, seed=1717)
    for rec in results[10]:
        for e in rec.report.alg:
            assert rec.report.opt[e] <= rec.report.alg[e]


def test_r_diff_zero_when_equal(tree):
    dims = {e: 2 for e in tree.edges}
    rec = BenchRecord(1, 0, 5, BondReport(dict(dims), dict(dims)))
    assert r_diff([rec]) == 0.0


def test_r_diff_arithmetic(tree):
    # 2 samples, 7 bonds, total excess 7 -> 0.5
    alg = {e: 3 for e in tree.edges}
    opt_a = dict(alg)
    opt_a[(1, 2)] = 1
    opt_a[(1, 5)] = 1
    opt_a[(2, 3)] = 1  # excess 6
    opt_b = dict(alg)
    opt_b[(7, 8)] = 2  # excess 1
    recs = [BenchRecord(1, 0, 5, BondReport(alg, opt_a)),
            BenchRecord(1, 1, 5, BondReport(alg, opt_b))]
    assert r_diff(recs) == pytest.approx(0.5)


def test_r_diff_empty_rejected():
    with pytest.raises(ValidationError):
        r_diff([])


def test_r_diff_without_bonds_rejected():
    # a single-site tree has no bond to average over
    rec = BenchRecord(1, 0, 1, BondReport({}, {}))
    with pytest.raises(ValidationError, match="without bonds"):
        r_diff([rec])


@pytest.mark.parametrize("short_first", [False, True],
                         ids=["short_last", "short_first"])
def test_r_diff_refuses_records_whose_edge_sets_differ(tree, short_first):
    dims = {e: 2 for e in tree.edges}
    short = dict(dims)
    short.pop((7, 8))
    recs = [BenchRecord(1, 0, 5, BondReport(dims, dict(dims))),
            BenchRecord(1, 1, 5, BondReport(short, dict(short)))]
    with pytest.raises(ValidationError,
                       match=r"^records have inconsistent edge sets: record 1 "
                             rf"\(sample {int(not short_first)}, 5 terms\) "
                             r"differs from record 0$"):
        r_diff(recs[::-1] if short_first else recs)


def test_r_diff_refuses_records_over_other_edges_of_equal_count():
    # only the bond counts were compared: excess 2 on (1, 2) and 0 on
    # (5, 6) averaged to 1.0
    recs = [BenchRecord(1, 0, 5, BondReport({(1, 2): 3}, {(1, 2): 1})),
            BenchRecord(1, 1, 5, BondReport({(5, 6): 1}, {(5, 6): 1}))]
    with pytest.raises(ValidationError,
                       match=r"^records have inconsistent edge sets: record 1 "
                             r"\(sample 1, 5 terms\) differs from record 0$"):
        r_diff(recs)


def test_bond_report_edge_sets_must_match(tree):
    alg = {e: 2 for e in tree.edges}
    opt = dict(alg)
    opt.pop((7, 8))
    with pytest.raises(ValidationError):
        BondReport(alg, opt)


def test_bench_deterministic(tree):
    a = run_bench(tree, [5], 10, seed=42)
    b = run_bench(tree, [5], 10, seed=42)
    assert detail_csv(a) == detail_csv(b)
    assert summary_csv(a) == summary_csv(b)


def test_r_diff_trend_with_term_count(tree):
    results = run_bench(tree, [5, 30], 60, seed=2025)
    lo, hi = r_diff(results[5]), r_diff(results[30])
    se = r_diff_stderr(results[5]) + r_diff_stderr(results[30])
    assert hi >= lo - 2 * se
    assert r_diff(results[30]) > 0  # strictly positive at 30 terms


def test_root_at_leaf_degrades_mean_excess():
    import warnings
    base_tree = demo_tree()
    leaf_tree = demo_tree(root=6)
    n = 120
    res_base = run_bench(base_tree, [20], n, seed=31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res_leaf = run_bench(leaf_tree, [20], n, seed=31)
    mean_base = r_diff(res_base[20])
    mean_leaf = r_diff(res_leaf[20])
    assert mean_leaf > mean_base
