"""Closed-form constructions and bounds.

Two families: an explicit TTNO for nearest-neighbour interactions on an
arbitrary tree (optionally with single-site terms), and formulas for the
root bond dimension of fixed-range / all-to-all two-site interactions on
full Cayley trees, cross-checked against a count by depth on the built tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .assembly import TTNO, canonical_legs, tensors_from_blocks
from .errors import ValidationError
from .operators import (DEFAULT_REGISTRY, Hamiltonian, OperatorRegistry,
                        ProductTerm, SiteOperator, identity)
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
    single = {s: SiteOperator(field_label, tree.phys_dim(s))
              for s in tree.nodes if field_label is not None}
    return NNInteraction(edge_ops, single)


def nn_bond_dimensions(tree: TreeTopology,
                       interaction: NNInteraction) -> dict[Edge, int]:
    """3 on each bond whose child is not a leaf or carries a field, else 2:
    only then can a term act inside the child's subtree (index value 2)."""
    dims = {}
    for e in tree.edges:
        child = e[0] if tree.parent(e[0]) == e[1] else e[1]
        inner = not tree.is_leaf(child) or child in interaction.single_site
        dims[e] = 3 if inner else 2
    return dims


def nn_ttno(tree: TreeTopology, interaction: NNInteraction,
            registry: OperatorRegistry | None = None) -> TTNO:
    """Explicit TTNO for sum of per-edge interactions (+ single-site terms),
    each block at its multi-index in leg order: the parent leg's value
    (none at the root), then the children's, all 0 but at most one."""
    interaction.validate(tree)
    registry = registry or DEFAULT_REGISTRY
    dims = nn_bond_dimensions(tree, interaction)

    matrices = {}  # op_id -> matrix, each operator resolved once

    def key(op: SiteOperator) -> int:
        if op.op_id not in matrices:
            matrices[op.op_id] = registry.resolve(op)
        return op.op_id

    specs = []
    for s in tree.nodes:
        legs = canonical_legs(tree, s)
        d = tree.phys_dim(s)
        shape = tuple(dims[e] for e in legs) + (d, d)
        eye = key(identity(d))
        parent = tree.parent(s)
        kids = tree.children(s)
        zeros = (0,) * len(kids)
        done, rows = (), []  # (op_id, *multi-index)
        if parent is not None:
            done = (2,)  # the parent leg once a term has acted at or below s
            op_p = interaction.edge_ops[edge_key(parent, s)][s]
            rows += [(eye, 0, *zeros), (key(op_p), 1, *zeros)]
        for i, c in enumerate(kids):
            e = edge_key(s, c)
            rows.append((key(interaction.edge_ops[e][s]), *done, *zeros[:i],
                         1, *zeros[i + 1:]))
            if dims[e] == 3:
                rows.append((eye, *done, *zeros[:i], 2, *zeros[i + 1:]))
        if s in interaction.single_site:
            rows.append((key(interaction.single_site[s]), *done, *zeros))
        specs.append((s, legs, shape, rows))
    return TTNO(tree, tensors_from_blocks(specs, matrices))


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

    @cached_property
    def shells(self) -> tuple[list[int], list[list[int]]]:
        """Sites per depth of the built tree, and of each root subtree (each
        one run of the preorder): counted once per spec, so a sweep over
        chi builds the tree once."""
        rooting = cayley_tree(self).rooting
        subtrees = []
        for s in rooting.order[1:]:
            if rooting.depth[s] == 1:
                subtrees.append([0] * (self.depth + 1))
            subtrees[-1][rooting.depth[s]] += 1
        root = [1] + [0] * self.depth  # the root alone
        return [sum(n) for n in zip(root, *subtrees)], subtrees


def cayley_tree(spec: CayleyTreeSpec) -> TreeTopology:
    """Full Cayley tree: root of the given degree, interior nodes of the same
    degree, all leaves at distance ``depth`` from the root."""
    edges, frontier = [], [0]
    for level in range(spec.depth):
        n_kids = spec.degree if level == 0 else spec.degree - 1
        parents = [node for node in frontier for _ in range(n_kids)]
        frontier = range(len(edges) + 1, len(edges) + 1 + len(parents))
        edges += zip(parents, frontier)
    return TreeTopology(edges, root=0)


def fixed_range_bond_bound(spec: CayleyTreeSpec, chi: int) -> int:
    """Maximum bond dimension for all pairwise interactions at distance chi,
    ``2 + min(chi, 2*depth - chi + 1) * (degree-1)^(chi-1)``: the two
    trivial values plus one per pair across a root edge.  Such a pair has a
    site at distance ``delta`` from the root inside the edge's subtree, one
    of ``(degree-1)^(delta-1)``, and one at ``chi - delta`` outside it, one
    of ``(degree-1)^(chi-delta)`` (the root at 0).  Both distances are at
    most ``depth``: ``min(chi, 2*depth - chi + 1)`` values of ``delta``."""
    kappa, depth = spec.degree, spec.depth
    if not 1 <= chi <= 2 * depth - 1:
        raise ValidationError(f"chi must be in 1..{2 * depth - 1}")
    return 2 + min(chi, 2 * depth - chi + 1) * (kappa - 1) ** (chi - 1)


def _max_root_crossing(spec: CayleyTreeSpec, in_range) -> int:
    """Pairs whose distance satisfies ``in_range`` and whose route crosses a
    root edge, plus the two trivial index values; max over root edges.  A
    pair crosses the edge above one endpoint when the other lies outside its
    subtree (the root always does), at the sum of the two depths."""
    total, shells = spec.shells
    levels = range(len(total))
    return 2 + max(sum(inside[a] * (total[b] - inside[b])
                       for a in levels for b in levels if in_range(a + b))
                   for inside in shells)


def brute_force_root_bond(spec: CayleyTreeSpec, chi: int) -> int:
    """Ground truth: pairs of the built tree at distance exactly chi across
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
    """The same count for every distance 1..2*depth-1 at once."""
    chi_max = 2 * spec.depth - 1
    return _max_root_crossing(spec, lambda dist: 1 <= dist <= chi_max)
