from fractions import Fraction

import numpy as np
import pytest

from ttno.assembly import contract_to_dense
from ttno.closedform import (CayleyTreeSpec, NNInteraction, all_to_all_bound,
                             brute_force_all_to_all_bond,
                             brute_force_root_bond, cayley_tree,
                             fixed_range_bond_bound, nn_bond_dimensions,
                             nn_ttno, uniform_nn_interaction)
from ttno.diagram import from_hamiltonian
from ttno.errors import ValidationError
from ttno.operators import (DEFAULT_REGISTRY, OperatorRegistry, SiteOperator,
                            to_dense)
from ttno.tree import TreeTopology

from closedform_fixtures import (_site_pairs, all_to_all_hamiltonian,
                                 cayley_shell_count, cayley_site_count,
                                 fixed_range_hamiltonian, zero_field_nn_ttno)
from oracles import pick_nonleaf_root, random_tree_edges


def random_distinct_interaction(tree, rng, with_fields=False):
    """Every edge gets its own random operator pair (registered matrices)."""
    reg = OperatorRegistry()
    edge_ops = {}
    for e in tree.edges:
        ops = {}
        for s in e:
            lbl = f"A{e[0]}_{e[1]}@{s}"
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            reg.register(lbl, mat)
            ops[s] = SiteOperator(lbl, 2)
        edge_ops[e] = ops
    single = {}
    if with_fields:
        for s in tree.nodes:
            lbl = f"F@{s}"
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            reg.register(lbl, mat)
            single[s] = SiteOperator(lbl, 2)
    return NNInteraction(edge_ops, single), reg


# -- nearest neighbour --------------------------------------------------------

def test_nn_two_site_tree():
    pair = TreeTopology([(0, 1)], root=0)
    inter = uniform_nn_interaction(pair, "X")
    ttno = nn_ttno(pair, inter)
    x = DEFAULT_REGISTRY.lookup("X", 2)
    assert np.allclose(contract_to_dense(ttno), np.kron(x, x), atol=1e-12)
    assert ttno.bond_dimensions() == {(0, 1): 2}


def test_nn_demo_tree_uniform_xx(tree):
    inter = uniform_nn_interaction(tree, "X")
    ttno = nn_ttno(tree, inter)
    dense = to_dense(inter.to_hamiltonian(tree))
    assert np.allclose(contract_to_dense(ttno), dense, atol=1e-12)
    dims = ttno.bond_dimensions()
    assert all(d <= 3 for d in dims.values())
    for e in tree.edges:
        child = e[0] if tree.parent(e[0]) == e[1] else e[1]
        assert dims[e] == (2 if tree.is_leaf(child) else 3)


def test_nn_ising_star_field_delta():
    star = TreeTopology([(0, 1), (0, 2), (0, 3)], root=0)
    plain = uniform_nn_interaction(star, "X")
    with_fields = uniform_nn_interaction(star, "X", field_label="Z")
    t1 = nn_ttno(star, with_fields)
    # shape-stable baseline: a zero field keeps the inner channel everywhere
    # the field build has it, so only genuine element changes remain
    t0 = zero_field_nn_ttno(star, "X")
    dense = to_dense(with_fields.to_hamiltonian(star))
    assert np.allclose(contract_to_dense(t1), dense, atol=1e-12)
    assert np.allclose(contract_to_dense(t0),
                       to_dense(plain.to_hamiltonian(star)), atol=1e-12)
    z = DEFAULT_REGISTRY.lookup("Z", 2)
    # the field build changes exactly the stated element per site: the
    # all-zero root element and the index-2 leaf element
    changed = []
    for s in star.nodes:
        delta = t1.tensors[s].elements - t0.tensors[s].elements
        for idx in zip(*np.nonzero(np.abs(delta).sum(axis=(-2, -1)))):
            changed.append((s, idx))
            assert np.allclose(delta[idx], z)
    assert sorted(changed) == [(0, (0, 0, 0)), (1, (2,)), (2, (2,)),
                               (3, (2,))]


def test_nn_random_trees_with_distinct_operators():
    rng = np.random.default_rng(5150)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        inter, reg = random_distinct_interaction(tree, rng,
                                                 with_fields=bool(trial % 2))
        ttno = nn_ttno(tree, inter, registry=reg)
        dense = to_dense(inter.to_hamiltonian(tree), registry=reg)
        assert np.allclose(contract_to_dense(ttno), dense, atol=1e-12)
        assert ttno.bond_dimensions() == nn_bond_dimensions(tree, inter)


def test_nn_algorithmic_build_matches_and_is_not_worse():
    from ttno.assembly import emit_tensors

    rng = np.random.default_rng(31337)
    for trial in range(8):
        n = int(rng.integers(3, 9))
        edges = random_tree_edges(rng, n)
        tree = TreeTopology(edges, pick_nonleaf_root(edges, n))
        inter, reg = random_distinct_interaction(tree, rng)
        h = inter.to_hamiltonian(tree)
        g = from_hamiltonian(h)
        alg = g.bond_dimensions()
        closed = nn_bond_dimensions(tree, inter)
        assert all(alg[e] <= closed[e] for e in tree.edges)
        got = contract_to_dense(emit_tensors(g, registry=reg))
        assert np.allclose(got, to_dense(h, registry=reg), atol=1e-12)


def test_nn_bond_dims_independent_of_system_size():
    for n in (8, 16, 32):
        chain = TreeTopology([(i, i + 1) for i in range(n - 1)], root=1)
        inter = uniform_nn_interaction(chain, "X")
        dims = nn_ttno(chain, inter).bond_dimensions()
        assert max(dims.values()) == 3
        alg = from_hamiltonian(inter.to_hamiltonian(chain)).bond_dimensions()
        assert max(alg.values()) <= 3


def test_nn_interaction_must_cover_edges(tree):
    inter = uniform_nn_interaction(tree, "X")
    del inter.edge_ops[(7, 8)]
    with pytest.raises(ValidationError):
        nn_ttno(tree, inter)


def test_nn_ttno_rooted_at_a_leaf():
    # a root with one neighbour needs no re-rooting: its one child leg
    # carries the same three channels as any other bond
    for edges, root in [([(0, 1), (1, 2)], 0),
                        ([(0, 1), (1, 2), (1, 3), (3, 4)], 4)]:
        t = TreeTopology(edges, root=root)
        inter = uniform_nn_interaction(t, "X", field_label="Z")
        ttno = nn_ttno(t, inter)
        assert np.allclose(contract_to_dense(ttno),
                           to_dense(inter.to_hamiltonian(t)), atol=1e-12)
        assert ttno.bond_dimensions() == nn_bond_dimensions(t, inter)


def _off_endpoint(tree):
    inter = uniform_nn_interaction(tree, "X")
    inter.edge_ops[(7, 8)] = {7: SiteOperator("X", 2), 6: SiteOperator("X", 2)}
    return nn_ttno(tree, inter)


def _field_off_tree(tree):
    inter = uniform_nn_interaction(tree, "X")
    inter.single_site[9] = SiteOperator("Z", 2)
    return nn_ttno(tree, inter)


@pytest.mark.parametrize("call, message", [
    (_off_endpoint, r"edge \(7, 8\) operators must sit on its endpoints"),
    (_field_off_tree, "single-site operator at unknown site 9"),
    (lambda tree: CayleyTreeSpec(3, 0), "Cayley depth must be >= 1"),
    (lambda tree: brute_force_root_bond(CayleyTreeSpec(3, 2), 0),
     "chi must be >= 1"),
], ids=["edge_op_off_endpoint", "field_off_tree", "cayley_depth_0",
        "chi_0"])
def test_closedform_refusals_name_the_fault(tree, call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(tree)


# -- Cayley trees --------------------------------------------------------------

def test_cayley_tree_examples():
    chain = cayley_tree(CayleyTreeSpec(2, 3))
    assert len(chain.nodes) == 7
    assert max(len(chain.neighbours(s)) for s in chain.nodes) == 2
    t32 = cayley_tree(CayleyTreeSpec(3, 2))
    assert len(t32.nodes) == 10
    t42 = cayley_tree(CayleyTreeSpec(4, 2))
    assert len(t42.nodes) == 17


def test_cayley_tree_degrees_and_leaf_depth():
    for kappa in (2, 3, 4):
        for depth in (1, 2, 3):
            spec = CayleyTreeSpec(kappa, depth)
            t = cayley_tree(spec)
            for s in t.nodes:
                deg = len(t.neighbours(s))
                assert deg == kappa or deg == 1
            for leaf in t.leaves():
                assert t.distance(t.root, leaf) == depth
            assert cayley_site_count(spec) == len(t.nodes)


def test_cayley_site_count_favours_construction():
    # a depth-independent summand would give 13 sites at degree 3, depth 2;
    # the built tree has 10
    spec = CayleyTreeSpec(3, 2)
    printed = 1 + spec.depth * spec.degree * (spec.degree - 1) ** (spec.depth - 1)
    assert printed == 13
    assert cayley_site_count(spec) == len(cayley_tree(spec).nodes) == 10
    assert cayley_site_count(CayleyTreeSpec(2, 3)) == 7


def test_shell_count_examples_and_brute_force():
    assert cayley_shell_count(CayleyTreeSpec(3, 2), 1) == 1
    assert cayley_shell_count(CayleyTreeSpec(3, 2), 2) == 2
    assert cayley_shell_count(CayleyTreeSpec(4, 3), 3) == 9
    with pytest.raises(ValidationError):
        cayley_shell_count(CayleyTreeSpec(3, 2), 0)
    for kappa in (2, 3, 4):
        for depth in (1, 2, 3):
            spec = CayleyTreeSpec(kappa, depth)
            t = cayley_tree(spec)
            child = t.children(t.root)[0]
            sub = t.subtree(child)
            for radius in range(1, 2 * depth):
                brute = sum(1 for s in sub
                            if t.distance(t.root, s) == radius)
                assert cayley_shell_count(spec, radius) == brute


def test_pair_count_identity_exact_integers():
    # sum_{d=1}^{chi-1} (k-1)^(d-1) (k-1)^(chi-d-1) == (chi-1)(k-1)^(chi-2)
    for kappa in range(2, 6):
        for chi in range(1, 9):
            lhs = sum(Fraction(kappa - 1) ** (d - 1)
                      * Fraction(kappa - 1) ** (chi - d - 1)
                      for d in range(1, chi))
            rhs = (chi - 1) * Fraction(kappa - 1) ** (chi - 2) if chi >= 2 else 0
            assert lhs == rhs


def test_fixed_range_bound_matches_brute_force():
    for kappa in (2, 3, 4):
        for depth in (1, 2, 3, 4):
            spec = CayleyTreeSpec(kappa, depth)
            for chi in range(1, 2 * depth):
                assert (fixed_range_bond_bound(spec, chi)
                        == brute_force_root_bond(spec, chi)), (kappa, depth, chi)


def test_shell_count_matches_pair_enumeration():
    # per root edge, the pairs with exactly one endpoint in its subtree:
    # every edge of a Cayley tree's root sees the same count, and the brute
    # force reports it plus the two trivial values
    for kappa in (2, 3, 4):
        for depth in (1, 2, 3, 4):
            spec = CayleyTreeSpec(kappa, depth)
            t = cayley_tree(spec)
            subtrees = [t.subtree(c) for c in t.children(t.root)]
            ranges = {chi: (lambda dist, chi=chi: dist == chi)
                      for chi in range(1, 2 * depth + 1)}
            ranges["all"] = lambda dist: 1 <= dist <= 2 * depth - 1
            for chi, in_range in ranges.items():
                pairs = _site_pairs(t, in_range)
                counts = {sum((a in sub) != (b in sub) for a, b in pairs)
                          for sub in subtrees}
                assert len(counts) == 1, (kappa, depth, chi)
                got = (brute_force_all_to_all_bond(spec) if chi == "all"
                       else brute_force_root_bond(spec, chi))
                assert got == counts.pop() + 2, (kappa, depth, chi)


def test_fixed_range_chain_is_linear():
    spec = CayleyTreeSpec(2, 5)
    for chi in range(1, 6):
        assert fixed_range_bond_bound(spec, chi) == chi + 2


def test_fixed_range_chi_one_is_three():
    for kappa in (2, 3, 4):
        assert fixed_range_bond_bound(CayleyTreeSpec(kappa, 3), 1) == 3


def test_fixed_range_range_checks():
    spec = CayleyTreeSpec(3, 2)
    with pytest.raises(ValidationError):
        fixed_range_bond_bound(spec, 0)
    with pytest.raises(ValidationError):
        fixed_range_bond_bound(spec, 4)


def test_all_to_all_examples():
    assert all_to_all_bound(CayleyTreeSpec(3, 1)) == 3
    for kappa in (2, 3, 4):
        for depth in (1, 2, 3):
            spec = CayleyTreeSpec(kappa, depth)
            assert all_to_all_bound(spec) == brute_force_all_to_all_bond(spec)


def test_all_to_all_asymptotics():
    # the root bond grows as (degree-1)^(2*(depth-1)); per-site-count ratios
    # grow like (degree-1)^(depth-1), i.e. the bound is quadratic in the
    # site count, not linear (brute-force counting is the ground truth here)
    kappa = 3
    normalised = [all_to_all_bound(CayleyTreeSpec(kappa, d))
                  / (kappa - 1) ** (2 * (d - 1))
                  for d in range(1, 7)]
    assert max(normalised) < 6.5
    assert normalised[-1] / normalised[-2] < 1.2  # converging prefactor
    per_site = [all_to_all_bound(CayleyTreeSpec(kappa, d))
                / cayley_site_count(CayleyTreeSpec(kappa, d))
                for d in range(1, 7)]
    assert all(b > 1.7 * a for a, b in zip(per_site[2:], per_site[3:]))


def test_algorithm_reaches_all_to_all_bound():
    spec = CayleyTreeSpec(3, 2)
    t = cayley_tree(spec)
    h = all_to_all_hamiltonian(t, 2 * spec.depth - 1)
    dims = from_hamiltonian(h).bond_dimensions()
    bound = all_to_all_bound(spec)
    for e in t.incident[t.root]:
        assert dims[e] == bound


def test_algorithm_matches_fixed_range_bound():
    # the bound counts two trivial channels unconditionally; the build only
    # pays for a channel some term actually uses, so correct for ranges
    # nobody realises strictly inside/outside a root subtree
    for kappa, depth, chi in [(3, 2, 1), (3, 2, 2), (3, 2, 3), (2, 4, 3),
                              (3, 3, 4)]:
        spec = CayleyTreeSpec(kappa, depth)
        t = cayley_tree(spec)
        h = fixed_range_hamiltonian(t, chi)
        dims = from_hamiltonian(h).bond_dimensions()
        bound = fixed_range_bond_bound(spec, chi)
        child = t.children(t.root)[0]
        inside = t.subtree(child)
        pairs = _site_pairs(t, lambda dist: dist == chi)
        has_inside = any(a in inside and b in inside for a, b in pairs)
        has_outside = any(a not in inside and b not in inside
                          for a, b in pairs)
        want = bound - (not has_inside) - (not has_outside)
        got = max(dims[e] for e in t.incident[t.root])
        assert got == want
        assert got <= bound
