"""Cayley-tree counts and pair-interaction Hamiltonians that the tests
check the closed-form bounds against."""

import numpy as np

from ttno.assembly import TTNO
from ttno.closedform import CayleyTreeSpec, nn_ttno, uniform_nn_interaction
from ttno.errors import ValidationError
from ttno.operators import (Hamiltonian, OperatorRegistry, ProductTerm,
                            SiteOperator)
from ttno.tree import TreeTopology


def zero_field_nn_ttno(tree: TreeTopology, label: str = "X") -> TTNO:
    """``nn_ttno`` of the uniform ``label`` interaction plus a field ``O``
    whose matrix is zero on every (dim-2) site: the operator without a field,
    in the tensor shapes of a field build, so the two compare element by
    element."""
    reg = OperatorRegistry()
    reg.register("O", np.zeros((2, 2)))
    return nn_ttno(tree, uniform_nn_interaction(tree, label, field_label="O"),
                   registry=reg)


def cayley_site_count(spec: CayleyTreeSpec) -> int:
    """Node count of the constructed tree: 1 + sum_k degree*(degree-1)^(k-1)."""
    kappa = spec.degree
    return 1 + sum(kappa * (kappa - 1) ** (k - 1)
                   for k in range(1, spec.depth + 1))


def cayley_shell_count(spec: CayleyTreeSpec, radius: int) -> int:
    """Sites of one child subtree at distance exactly ``radius`` from the root."""
    if radius < 1:
        raise ValidationError("radius must be >= 1")
    if radius > spec.depth:
        return 0
    return (spec.degree - 1) ** (radius - 1)


def _site_pairs(tree: TreeTopology, in_range) -> list[tuple[int, int]]:
    """Site pairs ``a < b`` (node order) whose distance satisfies
    ``in_range``."""
    nodes = tree.nodes
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
            if in_range(tree.distance(a, b))]


def _pair_interaction_terms(tree: TreeTopology, pairs) -> list[ProductTerm]:
    """Two-site terms with operators pairwise distinct across all terms."""
    terms = []
    for a, b in pairs:
        terms.append(ProductTerm(1.0, {
            a: SiteOperator(f"A[{a};{a}-{b}]", tree.phys_dim(a)),
            b: SiteOperator(f"A[{b};{a}-{b}]", tree.phys_dim(b)),
        }))
    return terms


def fixed_range_hamiltonian(tree: TreeTopology, chi: int) -> Hamiltonian:
    """All pairs at distance exactly chi, each with its own operator pair."""
    pairs = _site_pairs(tree, lambda dist: dist == chi)
    if not pairs:
        raise ValidationError(f"no site pairs at distance {chi}")
    return Hamiltonian(tree, _pair_interaction_terms(tree, pairs))


def all_to_all_hamiltonian(tree: TreeTopology, chi_max: int) -> Hamiltonian:
    pairs = _site_pairs(tree, lambda dist: 1 <= dist <= chi_max)
    return Hamiltonian(tree, _pair_interaction_terms(tree, pairs))
