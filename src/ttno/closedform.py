"""Closed-form constructions and bounds.

Two families: an explicit TTNO for nearest-neighbour interactions on an
arbitrary tree (optionally with single-site terms), and bond-dimension
arithmetic for fixed-range / all-to-all two-site interactions on full
Cayley trees, cross-checked against brute-force pair counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import TTNO, TTNOTensor, canonical_legs
from .errors import ValidationError
from .operators import (DEFAULT_REGISTRY, Hamiltonian, OperatorRegistry,
                        ProductTerm, SiteOperator)
from .tree import Edge, TreeTopology, edge_key

# -- nearest-neighbour TTNO ---------------------------------------------------

# Bond-index meaning on an edge (parent p, child c):
#   0 -> the term acts trivially on the subtree below c
#   1 -> the term is the interaction across (p, c)
#   2 -> the term acts non-trivially only inside the subtree below c


@dataclass
class NNInteraction:
    """One operator pair per tree edge, plus optional single-site operators.

    ``edge_ops[e]`` maps both endpoint sites of ``e`` to the operator each
    applies in that edge's interaction term.
    """

    edge_ops: dict[Edge, dict[int, SiteOperator]]
    single_site: dict[int, SiteOperator] = field(default_factory=dict)

    def validate(self, tree: TreeTopology) -> None:
        if set(self.edge_ops) != set(tree.edges):
            raise ValidationError("interaction must cover tree edges exactly once")
        for e, ops in self.edge_ops.items():
            if set(ops) != set(e):
                raise ValidationError(f"edge {e} operators must sit on its endpoints")
        for s in self.single_site:
            if s not in tree.phys_dims:
                raise ValidationError(f"single-site operator at unknown site {s}")

    def to_hamiltonian(self, tree: TreeTopology) -> Hamiltonian:
        self.validate(tree)
        terms = [ProductTerm(1.0, dict(self.edge_ops[e])) for e in tree.edges]
        terms += [ProductTerm(1.0, {s: op})
                  for s, op in sorted(self.single_site.items())]
        return Hamiltonian(tree, terms)


def uniform_nn_interaction(tree: TreeTopology, label: str = "X",
                           field_label: str | None = None) -> NNInteraction:
    """Same operator label at every endpoint (and optionally every site)."""
    edge_ops = {e: {e[0]: SiteOperator(label, tree.phys_dim(e[0])),
                    e[1]: SiteOperator(label, tree.phys_dim(e[1]))}
                for e in tree.edges}
    single = {}
    if field_label is not None:
        single = {s: SiteOperator(field_label, tree.phys_dim(s))
                  for s in tree.nodes}
    return NNInteraction(edge_ops, single)


def nn_bond_dimensions(tree: TreeTopology, interaction: NNInteraction,
                       reserve_inner=()) -> dict[Edge, int]:
    """2 on bonds into bare leaves, 3 elsewhere (or where a leaf has a field).

    Bonds in ``reserve_inner`` keep the inner channel even when nothing uses
    it, which gives shape-stable tensors across interaction variants.
    """
    reserved = {edge_key(*e) for e in reserve_inner}
    dims = {}
    for e in tree.edges:
        child = e[0] if tree.parent(e[0]) == e[1] else e[1]
        inside = tree.subtree(child)
        has_inner = (not tree.is_leaf(child)) or any(
            s in interaction.single_site for s in inside)
        dims[e] = 3 if has_inner or e in reserved else 2
    return dims


def nn_ttno(tree: TreeTopology, interaction: NNInteraction,
            registry: OperatorRegistry | None = None,
            reserve_inner=()) -> TTNO:
    """Explicit TTNO for sum of per-edge interactions (+ single-site terms)."""
    if tree.is_leaf(tree.root) and len(tree.nodes) > 2:
        raise ValidationError("root must not be a leaf (re-root the tree first)")
    interaction.validate(tree)
    registry = registry or DEFAULT_REGISTRY
    dims = nn_bond_dimensions(tree, interaction, reserve_inner)

    tensors: dict[int, TTNOTensor] = {}
    for s in tree.nodes:
        legs = canonical_legs(tree, s)
        d = tree.phys_dim(s)
        shape = tuple(dims[e] for e in legs) + (d, d)
        arr = np.zeros(shape, dtype=complex)
        eye = np.eye(d, dtype=complex)
        parent = tree.parent(s)
        p_axis = 0 if parent is not None else None
        child_axes = {c: (1 if parent is not None else 0) + i
                      for i, c in enumerate(tree.children(s))}

        def put(index_map: dict[int, int], matrix: np.ndarray) -> None:
            idx = [0] * len(legs)
            for axis, val in index_map.items():
                idx[axis] = val
            arr[tuple(idx)] += matrix

        if parent is not None:
            put({}, eye)  # trivial everywhere at and below this site
            op_p = interaction.edge_ops[edge_key(parent, s)][s]
            put({p_axis: 1}, registry.resolve(op_p))
        for c, axis in child_axes.items():
            e = edge_key(s, c)
            op_c = interaction.edge_ops[e][s]
            started = {axis: 1} if parent is None else {axis: 1, p_axis: 2}
            put(started, registry.resolve(op_c))
            if dims[e] == 3:
                passthrough = {axis: 2} if parent is None else {axis: 2, p_axis: 2}
                put(passthrough, eye)
        if s in interaction.single_site:
            z = registry.resolve(interaction.single_site[s])
            put({} if parent is None else {p_axis: 2}, z)
        tensors[s] = TTNOTensor(s, legs, arr)
    return TTNO(tree, tensors)


# -- Cayley trees --------------------------------------------------------------


@dataclass(frozen=True)
class CayleyTreeSpec:
    degree: int
    depth: int

    def __post_init__(self):
        if self.degree < 2:
            raise ValidationError("Cayley degree must be >= 2")
        if self.depth < 1:
            raise ValidationError("Cayley depth must be >= 1")


def cayley_tree(spec: CayleyTreeSpec) -> TreeTopology:
    """Full Cayley tree: root of the given degree, interior nodes of the same
    degree, all leaves at distance ``depth`` from the root."""
    edges = []
    next_id = 1
    frontier = [0]
    for level in range(spec.depth):
        new_frontier = []
        for node in frontier:
            n_kids = spec.degree if level == 0 else spec.degree - 1
            for _ in range(n_kids):
                edges.append((node, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return TreeTopology(edges, root=0)


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


def _cross_subtree_pairs(spec: CayleyTreeSpec, chi: int) -> int:
    """Pairs (c, c') at distance ``chi`` through the root with c, c' in two
    fixed distinct child subtrees: one term per shell split."""
    kappa = spec.degree
    lo = max(1, chi - spec.depth)
    hi = min(spec.depth, chi - 1)
    return sum((kappa - 1) ** (delta - 1) * (kappa - 1) ** (chi - delta - 1)
               for delta in range(lo, hi + 1))


def fixed_range_bond_bound(spec: CayleyTreeSpec, chi: int) -> int:
    """Maximum bond dimension for all pairwise interactions at distance chi.

    For chi <= depth this is the closed form 2 + chi*(degree-1)^(chi-1);
    beyond the depth the shell-split sum is evaluated directly (the closed
    form's prefactor becomes 2*depth - chi + 1).
    """
    kappa, depth = spec.degree, spec.depth
    if not 1 <= chi <= 2 * depth - 1:
        raise ValidationError(f"chi must be in 1..{2 * depth - 1}")
    if chi <= depth:
        return 2 + chi * (kappa - 1) ** (chi - 1)
    cross = (kappa - 1) * _cross_subtree_pairs(spec, chi)
    return 2 + cross  # no root-anchored pairs beyond the depth


def _site_pairs(tree: TreeTopology, in_range) -> list[tuple[int, int]]:
    """Site pairs ``a < b`` (node order) whose distance satisfies
    ``in_range``."""
    nodes = tree.nodes
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
            if in_range(tree.distance(a, b))]


def _max_root_crossing(spec: CayleyTreeSpec, in_range) -> int:
    """Pairs whose distance satisfies ``in_range`` and whose route crosses a
    root edge, plus the two trivial index values; max over root edges."""
    tree = cayley_tree(spec)
    pairs = _site_pairs(tree, in_range)
    best = 0
    for child in tree.children(tree.root):
        inside = tree.subtree(child)
        crossing = 0
        for a, b in pairs:
            if (a in inside) != (b in inside):
                crossing += 1
        best = max(best, crossing + 2)
    return best


def brute_force_root_bond(spec: CayleyTreeSpec, chi: int) -> int:
    """Ground truth: count pairs at distance exactly chi whose route crosses
    a root edge, plus the two trivial index values; max over root edges."""
    if chi < 1:
        raise ValidationError("chi must be >= 1")
    return _max_root_crossing(spec, lambda dist: dist == chi)


def all_to_all_bound(spec: CayleyTreeSpec) -> int:
    """Root bond dimension for all pair interactions of range 1..2*depth-1:
    the fixed-range channels of every range share the two trivial ones."""
    return 2 + sum(fixed_range_bond_bound(spec, chi) - 2
                   for chi in range(1, 2 * spec.depth))


def brute_force_all_to_all_bond(spec: CayleyTreeSpec) -> int:
    chi_max = 2 * spec.depth - 1
    return _max_root_crossing(spec, lambda dist: 1 <= dist <= chi_max)


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
