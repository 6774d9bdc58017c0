"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
import warnings

import numpy as np
import pytest

from ttno.assembly import (contract_to_dense, dense_element_count,
                           element_count, emit_tensors)
from ttno.closedform import (CayleyTreeSpec, brute_force_root_bond,
                             cayley_tree, fixed_range_bond_bound, nn_ttno,
                             uniform_nn_interaction)
from ttno.diagram import from_hamiltonian
from ttno.operators import (DEFAULT_REGISTRY, Hamiltonian, random_hamiltonian,
                            to_dense)
from ttno.oqs import OQSSpec, n_sites, oqs_hamiltonian, reported_bond_dims
from ttno.svdref import r_diff, run_bench
from ttno.tree import TreeTopology

from closedform_fixtures import cayley_site_count, zero_field_nn_ttno
from conftest import demo_terms, demo_tree, r_diff_stderr
from oqs_fixtures import (chain_fixture_kind, chain_reference_matrices,
                          operator_matrices_equivalent)
from oracles import pick_nonleaf_root, random_tree_edges, reference_diagram
from test_closedform import random_distinct_interaction
from test_oqs import chain_tensor_as_matrix

# frozen from one-off calibration of match_visits; the worst ratio over the
# 2,000 criterion-4 samples is ~0.4
WORK_BOUND_CONSTANT = 8

BENCH_TERM_COUNTS = (5, 10, 20, 30)
BENCH_SAMPLES = 500


@pytest.fixture(scope="module")
def bench_results():
    tree = demo_tree()
    return run_bench(tree, BENCH_TERM_COUNTS, BENCH_SAMPLES, seed=20240901)


def _report(n, detail, t0):
    print(f"\nACCEPTANCE criterion {n}: PASS ({time.perf_counter() - t0:.1f}s)"
          f" - {detail}")


def test_criterion_1_demo_bond_dimensions(demo_hamiltonian):
    t0 = time.perf_counter()
    dims = from_hamiltonian(demo_hamiltonian).bond_dimensions()
    assert max(dims.values()) == 3
    naive = reference_diagram(demo_hamiltonian,
                              [False] * len(demo_hamiltonian.terms)
                              ).bond_dimensions()
    assert all(d == 4 for d in naive.values())
    assert time.perf_counter() - t0 < 1.0
    _report(1, f"max bond 3 vs naive 4 on every edge ({dims})", t0)


def test_criterion_2_root_choice(demo_hamiltonian):
    t0 = time.perf_counter()
    base = from_hamiltonian(demo_hamiltonian).bond_dimensions()
    g5 = from_hamiltonian(Hamiltonian(demo_tree(root=5), demo_terms()))
    assert (sorted(g5.bond_dimensions().values())
            == sorted(base.values()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g6 = from_hamiltonian(Hamiltonian(demo_tree(root=6), demo_terms()))
    dims6 = g6.bond_dimensions()
    assert dims6[(5, 6)] == 4
    assert all(dims6[e] == base[e] for e in base if e != (5, 6))
    assert time.perf_counter() - t0 < 1.0
    _report(2, "root-5 multiset identical; root-6 grows only edge (5,6) to 4",
            t0)


def test_criterion_3_semantic_exactness():
    t0 = time.perf_counter()
    tree = demo_tree()
    rng = np.random.default_rng(777)
    worst = 0.0
    for i in range(200):
        n_terms = int(rng.integers(1, 31))
        h = random_hamiltonian(tree, n_terms, ("X", "Y", "Z"), seed=(777, i))
        ttno = emit_tensors(from_hamiltonian(h))
        err = np.max(np.abs(contract_to_dense(ttno) - to_dense(h)))
        worst = max(worst, float(err))
        assert err <= 1e-12
    assert time.perf_counter() - t0 < 120.0
    _report(3, f"200 random systems, worst |diff| = {worst:.2e} <= 1e-12", t0)


def test_criterion_4_dominance_and_trend(bench_results):
    t0 = time.perf_counter()
    violations = 0
    for records in bench_results.values():
        for rec in records:
            for e in rec.report.alg:
                if rec.report.opt[e] > rec.report.alg[e]:
                    violations += 1
    assert violations == 0
    curve = [(t, r_diff(bench_results[t]), r_diff_stderr(bench_results[t]))
             for t in BENCH_TERM_COUNTS]
    for (ta, ra, sa), (tb, rb, sb) in zip(curve, curve[1:]):
        slack = 2.0 * np.hypot(sa, sb)
        assert rb >= ra - slack, f"r_diff dropped from {ta} to {tb} terms"
    _report(4, "zero dominance violations; r_diff "
               + " -> ".join(f"{r:.4f}" for _, r, _ in curve), t0)


def test_criterion_5_nearest_neighbour_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        inter, reg = random_distinct_interaction(tree, rng)
        ttno = nn_ttno(tree, inter, registry=reg)
        dense = to_dense(inter.to_hamiltonian(tree), registry=reg)
        assert np.allclose(contract_to_dense(ttno), dense, atol=1e-12)
        dims = ttno.bond_dimensions()
        assert all(d <= 3 for d in dims.values())
        for e in tree.edges:
            child = e[0] if tree.parent(e[0]) == e[1] else e[1]
            if tree.is_leaf(child):
                assert dims[e] == 2

    # single-site additions change exactly the stated element per site:
    # all-zero index at the root, index 2 at a leaf, (0,...,0,2) elsewhere
    star = TreeTopology([(0, 1), (0, 2), (0, 3)], root=0)
    fields = uniform_nn_interaction(star, "X", field_label="Z")
    dressed = nn_ttno(star, fields)
    plain = zero_field_nn_ttno(star, "X")
    assert np.allclose(contract_to_dense(dressed),
                       to_dense(fields.to_hamiltonian(star)), atol=1e-12)
    z = DEFAULT_REGISTRY.lookup("Z", 2)
    changed = []
    for s in star.nodes:
        delta = dressed.tensors[s].elements - plain.tensors[s].elements
        for idx in zip(*np.nonzero(np.abs(delta).sum(axis=(-2, -1)))):
            assert np.allclose(delta[idx], z)
            changed.append((s, idx))
    assert sorted(changed) == [(0, (0, 0, 0)), (1, (2,)), (2, (2,)), (3, (2,))]
    assert time.perf_counter() - t0 < 60.0
    _report(5, "50 random trees exact; leaf bonds 2, others <= 3; "
               "field delta at the stated positions only", t0)


def test_criterion_6_cayley_bounds():
    t0 = time.perf_counter()
    for kappa in (2, 3, 4):
        for depth in (1, 2, 3, 4):
            spec = CayleyTreeSpec(kappa, depth)
            for chi in range(1, depth + 1):
                assert (fixed_range_bond_bound(spec, chi)
                        == brute_force_root_bond(spec, chi))
            for chi in range(depth + 1, 2 * depth):
                assert (fixed_range_bond_bound(spec, chi)
                        == brute_force_root_bond(spec, chi))
    for chi in range(1, 6):
        assert fixed_range_bond_bound(CayleyTreeSpec(2, 5), chi) == chi + 2
    from fractions import Fraction
    for kappa in range(2, 6):
        for chi in range(2, 9):
            lhs = sum(Fraction(kappa - 1) ** (d - 1)
                      * Fraction(kappa - 1) ** (chi - d - 1)
                      for d in range(1, chi))
            assert lhs == (chi - 1) * Fraction(kappa - 1) ** (chi - 2)
    spec = CayleyTreeSpec(3, 2)
    uncorrected = 1 + spec.depth * spec.degree * (spec.degree - 1) ** (spec.depth - 1)
    built = len(cayley_tree(spec).nodes)
    assert built == cayley_site_count(spec) == 10
    assert uncorrected == 13 and uncorrected != built
    assert time.perf_counter() - t0 < 10.0
    _report(6, "closed forms == brute force (both ranges); chain column is "
               "chi+2; pair identity exact; site count 10 not 13", t0)


def test_criterion_7_oqs_profiles_and_counts():
    t0 = time.perf_counter()
    spec = OQSSpec(4, 3, boson_dim=2)
    for kind in ("chain", "ftp", "star"):
        dims = from_hamiltonian(oqs_hamiltonian(spec, kind)).bond_dimensions()
        for e, want in reported_bond_dims(kind, spec).items():
            assert dims[e] == want, (kind, e)

    ttno = emit_tensors(from_hamiltonian(oqs_hamiltonian(spec, "chain")))
    fix = chain_reference_matrices(spec)
    for site in range(n_sites(spec)):
        mat = chain_tensor_as_matrix(ttno, spec, site)
        assert operator_matrices_equivalent(
            mat, fix[chain_fixture_kind(spec, site)]), site

    table = []
    for n in range(4, 9):
        for m in range(1, 7):
            s2 = OQSSpec(n, m)
            counts = {}
            for kind in ("chain", "ftp"):
                t2 = emit_tensors(from_hamiltonian(oqs_hamiltonian(s2, kind)))
                counts[kind] = (element_count(t2), dense_element_count(t2))
            assert counts["ftp"][0] < counts["chain"][0], (n, m)
            table.append((n, m, counts["ftp"], counts["chain"]))

    print("\n  crossover table (n_spins, n_baths, ftp(sparse,dense), "
          "chain(sparse,dense), ftp_dense<chain_dense):")
    claim_disagreements = []
    for n, m, ftp, chain in table:
        dense_better = ftp[1] < chain[1]
        print(f"    N={n} M={m}  ftp={ftp}  chain={chain}  "
              f"dense_better={dense_better}")
        # headline claim: the dense saving kicks in once M reaches 3
        if (m >= 3) != dense_better and not dense_better:
            claim_disagreements.append((n, m))
        if m < 3 and dense_better:
            claim_disagreements.append((n, m))
    if claim_disagreements:
        print(f"  NOTE: dense-count crossover differs from the M>=3 claim at "
              f"{sorted(set(claim_disagreements))} (logged, not failed)")
    assert time.perf_counter() - t0 < 120.0
    _report(7, "profiles exact for chain/ftp/star; reference matrices match; "
               "fork beats chain in stored elements for all N=4..8, M=1..6",
            t0)


def test_criterion_8_runtime_bound(bench_results):
    t0 = time.perf_counter()
    tree = demo_tree()
    n_leaves, depth = len(tree.leaves()), max(tree.rooting.depth.values())
    worst = 0.0
    for n_terms, records in bench_results.items():
        budget = WORK_BOUND_CONSTANT * n_terms * n_leaves * depth
        for rec in records:
            worst = max(worst, rec.match_visits
                        / (n_terms * n_leaves * depth))
            assert rec.match_visits <= budget
    _report(8, f"match visits <= {WORK_BOUND_CONSTANT} * terms * leaves * "
               f"depth (worst ratio {worst:.2f})", t0)
