import math

import numpy as np
import pytest

from ttno.assembly import (contract_to_dense, dense_element_count,
                           element_count, emit_tensors)
from ttno.diagram import from_hamiltonian
from ttno.errors import ValidationError
from ttno.operators import to_dense
from ttno.oqs import (OQSSpec, boson_site, chain_topology, ftp_topology,
                      n_sites, oqs_hamiltonian, oqs_terms, reported_bond_dims,
                      spin_site, star_topology)
from ttno.svdref import optimal_bond_dims

from oqs_fixtures import (chain_fixture_kind, chain_reference_matrices,
                          operator_matrices_equivalent)


def chain_tensor_as_matrix(ttno, spec, site):
    """Chain-site tensor as a (left bond, right bond, d, d) array."""
    t = ttno.tensors[site]
    arr = t.elements
    if site == 0:
        return arr[np.newaxis]
    if site == n_sites(spec) - 1:
        return arr[:, np.newaxis]
    if t.legs == ((site - 1, site), (site, site + 1)):
        return arr
    return arr.transpose(1, 0, 2, 3)


def test_term_counts():
    assert len(oqs_terms(OQSSpec(2, 0))) == 3
    assert len(oqs_terms(OQSSpec(1, 1))) == 3
    spec = OQSSpec(4, 3)
    assert len(oqs_terms(spec)) == 3 * 3 + 2 * 4 * 3 + 4 * 3


def test_spec_validation():
    with pytest.raises(ValidationError):
        OQSSpec(0, 1)
    with pytest.raises(ValidationError):
        OQSSpec(1, -1)
    with pytest.raises(ValidationError):
        OQSSpec(1, 1, boson_dim=1)


def test_dense_is_hermitian():
    h = oqs_hamiltonian(OQSSpec(2, 1), "chain")
    dense = to_dense(h)
    assert np.allclose(dense, dense.conj().T, atol=1e-12)


def test_topology_shapes():
    spec = OQSSpec(3, 2)
    chain = chain_topology(spec)
    assert len(chain.nodes) == 9
    assert all(len(chain.neighbours(s)) <= 2 for s in chain.nodes)
    assert [spin_site(spec, s) for s in range(3)] == [0, 3, 6]

    ftp = ftp_topology(spec)
    assert set(ftp.neighbours(spin_site(spec, 1))) == {
        spin_site(spec, 0), spin_site(spec, 2), boson_site(spec, 1, 0)}
    assert ftp.neighbours(boson_site(spec, 1, 1)) == (boson_site(spec, 1, 0),)

    star = star_topology(OQSSpec(2, 3))
    s0 = spin_site(OQSSpec(2, 3), 0)
    assert len(star.neighbours(s0)) == 4  # other spin + 3 bosons


def test_roots_are_not_leaves():
    for kind in ("chain", "ftp", "star"):
        for spec in (OQSSpec(2, 2), OQSSpec(4, 3), OQSSpec(3, 0)):
            t = oqs_hamiltonian(spec, kind).tree
            assert len(t.neighbours(t.root)) > 1


def test_reported_profiles_all_topologies():
    spec = OQSSpec(4, 3)
    for kind in ("chain", "ftp", "star"):
        h = oqs_hamiltonian(spec, kind)
        dims = from_hamiltonian(h).bond_dimensions()
        for e, want in reported_bond_dims(kind, spec).items():
            assert dims[e] == want, (kind, e, dims[e], want)


def test_reported_profiles_require_interior_sites():
    with pytest.raises(ValidationError):
        reported_bond_dims("chain", OQSSpec(2, 3))
    with pytest.raises(ValidationError):
        reported_bond_dims("chain", OQSSpec(4, 1))


def test_profiles_stable_under_boson_dim():
    a = from_hamiltonian(oqs_hamiltonian(OQSSpec(3, 2, boson_dim=2), "chain"))
    b = from_hamiltonian(oqs_hamiltonian(OQSSpec(3, 2, boson_dim=4), "chain"))
    assert a.bond_dimensions() == b.bond_dimensions()


def test_topologies_agree_densely():
    spec = OQSSpec(2, 2)
    dense = {}
    for kind in ("chain", "ftp", "star"):
        h = oqs_hamiltonian(spec, kind)
        ttno = emit_tensors(from_hamiltonian(h))
        got = contract_to_dense(ttno)
        assert np.allclose(got, to_dense(h), atol=1e-12)
        dense[kind] = got
    assert np.allclose(dense["chain"], dense["ftp"], atol=1e-12)
    assert np.allclose(dense["chain"], dense["star"], atol=1e-12)


def test_chain_contraction_small():
    h = oqs_hamiltonian(OQSSpec(2, 2), "chain")
    ttno = emit_tensors(from_hamiltonian(h))
    assert np.allclose(contract_to_dense(ttno), to_dense(h), atol=1e-12)


def test_fixture_nonzero_counts():
    fix = chain_reference_matrices(OQSSpec(4, 3))
    spin = fix["spin"]
    flat = spin.reshape(-1, 2, 2)
    assert int(np.count_nonzero(flat.any(axis=(1, 2)))) == 9
    # identities on the whole bond diagonal, coupling and frequency in the
    # first bond column
    bos = fix["boson_mid"]
    d = bos.shape[-1]
    for i in range(6):
        assert np.allclose(bos[i, i], np.eye(d))
    g = OQSSpec(4, 3).g
    b = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        b[k, k + 1] = np.sqrt(k + 1)
    assert np.allclose(bos[1, 0], g * b + np.conj(g) * b.conj().T)
    assert np.allclose(bos[5, 0], OQSSpec(4, 3).omega * np.diag(np.arange(d)))


def test_chain_tensors_match_fixtures():
    spec = OQSSpec(4, 3)
    h = oqs_hamiltonian(spec, "chain")
    ttno = emit_tensors(from_hamiltonian(h))
    fix = chain_reference_matrices(spec)
    for site in range(n_sites(spec)):
        mat = chain_tensor_as_matrix(ttno, spec, site)
        kind = chain_fixture_kind(spec, site)
        assert operator_matrices_equivalent(mat, fix[kind]), (site, kind)


def test_fixture_matching_rejects_wrong_tensors():
    spec = OQSSpec(4, 3)
    fix = chain_reference_matrices(spec)
    wrong = fix["spin"].copy()
    wrong[4, 2] = 2.5 * np.eye(2)  # not proportional to any Pauli
    assert not operator_matrices_equivalent(wrong, fix["spin"])
    assert not operator_matrices_equivalent(fix["boson_mid"],
                                            fix["boson_group_end"])


def test_element_count_comparison_ftp_vs_chain():
    rows = []
    for n in range(4, 9):
        for m in range(1, 7):
            spec = OQSSpec(n, m)
            counts = {}
            for kind in ("chain", "ftp"):
                ttno = emit_tensors(
                    from_hamiltonian(oqs_hamiltonian(spec, kind)))
                counts[kind] = (element_count(ttno),
                                dense_element_count(ttno))
            assert counts["ftp"][0] < counts["chain"][0], (n, m, counts)
            rows.append((n, m, counts["ftp"], counts["chain"]))
    # dense-allocation crossover lands at two baths per spin here; the
    # sparse count favours the fork layout for every bath count
    dense_cross = {m: all(r[2][1] < r[3][1] for r in rows if r[1] == m)
                   for m in range(1, 7)}
    assert not dense_cross[1]
    assert all(dense_cross[m] for m in range(2, 7))


def dense_count_at(tree, dims):
    """Entries of the dense tensors on ``tree`` at the bond dimensions
    ``dims``: per site, the product of its bond dimensions times d^2."""
    return sum(math.prod(dims[e] for e in tree.incident[s])
               * tree.phys_dim(s) ** 2 for s in tree.nodes)


def test_crossover_at_optimal_bond_dims():
    # the paper's claim: the fork layout needs fewer tensor entries than the
    # chain (the MPO) from three baths per spin on, both at their optimal
    # bond dimensions; the construction's chain sits above its optimum,
    # which moves the crossover to two baths (test above)
    for n in range(4, 9):
        for m in range(1, 7):
            counts = {}
            for kind in ("chain", "ftp"):
                h = oqs_hamiltonian(OQSSpec(n, m, boson_dim=2), kind)
                counts[kind] = dense_count_at(h.tree, optimal_bond_dims(h))
            assert (counts["ftp"] < counts["chain"]) == (m >= 3), (
                n, m, counts)
    # the count is the library's at the construction's bond dimensions
    g = from_hamiltonian(h)
    assert dense_count_at(h.tree, g.bond_dimensions()) == (
        dense_element_count(emit_tensors(g)))


def test_star_spin_tensor_grows_exponentially_with_baths():
    sizes = []
    for m in (1, 2, 3, 4):
        spec = OQSSpec(3, m)
        ttno = emit_tensors(from_hamiltonian(oqs_hamiltonian(spec, "star")))
        t = ttno.tensors[spin_site(spec, 1)]  # interior spin
        sizes.append(t.elements.size)
    for a, b in zip(sizes, sizes[1:]):
        assert b == 3 * a  # one more dim-3 leg per extra bath


def test_operator_matrix_equivalence_gauge():
    # permutation alone fails, permutation + per-index scale succeeds
    a = np.zeros((2, 2, 2, 2), dtype=complex)
    b = np.zeros((2, 2, 2, 2), dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    a[0, 0], a[1, 1], a[0, 1] = eye, eye, -2.0 * x
    b[1, 1], b[0, 0], b[1, 0] = eye, eye, x
    assert operator_matrices_equivalent(a, b, allow_scaling=True)
    assert not operator_matrices_equivalent(a, b, allow_scaling=False)
