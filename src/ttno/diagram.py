"""Labelled directed hypergraphs encoding sum-of-products operators.

A state diagram partitions its vertices into one collection ``w[e]`` per
tree edge and its hyperedges into one collection ``eps[s]`` per site.  Each
hyperedge carries a single-site operator label and touches exactly one
vertex on every edge incident to its site.  A *single path* picks one
hyperedge per site, consistently across shared vertices; the label product
of a path is one product term, and the multiset of all paths is the
operator the diagram represents.

Construction is incremental: a first term gives a diagram with one vertex
per edge, and every further term is grafted on by matching its factors
against existing structure from the leaves upward.  A matched vertex means
"the new term, restricted to the far side of this edge, is already present
as a unique continuation"; everything left unmatched gets fresh vertices
and hyperedges.  Per term exactly one new single path appears.

Both stages look hyperedges up in per-site hash indexes instead of scanning
them.  The *full* index of a site maps ``(op_id, vertex per incident edge)``
to its hyperedge, so the graft asks once whether the new path's hyperedge
exists.  The *open* index of a site's i-th incident edge maps ``(op_id,
vertices on the other edges)`` to the hyperedges with that key in creation
order (at a leaf the key is the operator alone), so the climb, which can
extend the match only through a site with exactly one unmarked edge, looks
up the hyperedges that agree with every mark and takes the first whose
free vertex it may reuse: the one a scan in creation order would find.
"""

from __future__ import annotations

import warnings

from .errors import (DuplicateTermError, PathCapExceededError,
                     ValidationError)
from .operators import (Hamiltonian, ProductTerm, SiteOperator,
                        fold_coefficient, identity)
from .tree import Edge, TreeTopology, edge_key

DEFAULT_PATH_CAP = 10 ** 6


class Vertex:
    """A bond-index value on one tree edge."""

    __slots__ = ("uid", "edge", "sides")

    def __init__(self, uid: int, edge: Edge):
        self.uid = uid
        self.edge = edge
        # hyperedges touching this vertex, keyed by which endpoint's site
        # collection they belong to
        self.sides: dict[int, list[HyperEdge]] = {edge[0]: [], edge[1]: []}

    def __repr__(self):
        return f"v{self.uid}{self.edge}"


class HyperEdge:
    """A labelled tensor element at one site."""

    __slots__ = ("uid", "site", "op", "connected")

    def __init__(self, uid: int, site: int, op: SiteOperator,
                 connected: dict[Edge, Vertex]):
        self.uid = uid
        self.site = site
        self.op = op
        self.connected = connected

    def vertex_set(self) -> frozenset:
        return frozenset(v.uid for v in self.connected.values())

    def __repr__(self):
        vs = " ".join(f"v{v.uid}" for v in self.connected.values())
        return f"y{self.uid}({self.op.label}@{self.site}; {vs})"


class SinglePath:
    """One hyperedge per site, consistent across shared vertices."""

    __slots__ = ("chosen",)

    def __init__(self, chosen: dict[int, HyperEdge]):
        self.chosen = chosen

    def term(self) -> ProductTerm:
        factors = {s: y.op for s, y in self.chosen.items()
                   if not y.op.is_identity()}
        return ProductTerm(1.0, factors)

    def validate(self, tree: TreeTopology) -> None:
        for a, b in tree.edges:
            e = edge_key(a, b)
            if self.chosen[a].connected[e] is not self.chosen[b].connected[e]:
                raise ValidationError(
                    f"path hyperedges disagree on the vertex of edge {e}")


class StateDiagram:
    """Vertex and hyperedge collections over a tree, built term by term.

    Finished diagrams should be treated as immutable; construction mutates
    internal state and is single-threaded.
    """

    def __init__(self, tree: TreeTopology):
        self.tree = tree
        self.w: dict[Edge, list[Vertex]] = {e: [] for e in tree.edges}
        self.eps: dict[int, list[HyperEdge]] = {s: [] for s in tree.nodes}
        self.terms: list[ProductTerm] = []
        self._term_keys: set = set()
        self._next_vertex = 0
        self._next_hyperedge = 0
        self._identity = {s: identity(tree.phys_dim(s)) for s in tree.nodes}
        self._incident = {s: tree.incident_edges(s) for s in tree.nodes}
        self._leaves = tree.leaves()
        # per site: (op_id, *vertices in incident-edge order) -> hyperedge
        self._full: dict[int, dict[tuple, HyperEdge]] = {
            s: {} for s in tree.nodes}
        # per site and incident edge i: (op_id, *vertices on the other
        # edges) -> hyperedges in creation order
        self._open: dict[int, list[dict[tuple, list[HyperEdge]]]] = {
            s: [{} for _ in self._incident[s]] for s in tree.nodes}
        # open-index hits examined while matching (runtime-bound probe)
        self.match_visits = 0

    # -- construction ------------------------------------------------------

    def _fold(self, term: ProductTerm) -> ProductTerm:
        root = self.tree.root
        return fold_coefficient(term, root, self.tree.phys_dim(root))

    def _new_vertex(self, edge: Edge) -> Vertex:
        v = Vertex(self._next_vertex, edge)
        self._next_vertex += 1
        self.w[edge].append(v)
        return v

    def _new_hyperedge(self, site: int, op: SiteOperator,
                       vs: tuple[Vertex, ...]) -> HyperEdge:
        """A hyperedge at ``site`` on the vertices ``vs``, one per incident
        edge in incident-edge order, filed in the indexes."""
        y = HyperEdge(self._next_hyperedge, site, op,
                      dict(zip(self._incident[site], vs)))
        self._next_hyperedge += 1
        self.eps[site].append(y)
        full, opens = _index_keys(op.op_id, vs)
        self._full[site][full] = y
        for v, index, key in zip(vs, self._open[site], opens):
            v.sides[site].append(y)
            index.setdefault(key, []).append(y)
        return y

    def _want(self, term: ProductTerm, site: int) -> SiteOperator:
        return term.factors.get(site) or self._identity[site]

    @classmethod
    def from_single_term(cls, tree: TreeTopology,
                         term: ProductTerm) -> "StateDiagram":
        """One vertex per edge, one hyperedge per site."""
        diagram = cls(tree)
        term = diagram._fold(term)
        vertices = {e: diagram._new_vertex(e) for e in tree.edges}
        for s in tree.nodes:
            vs = tuple([vertices[e] for e in diagram._incident[s]])
            diagram._new_hyperedge(s, diagram._want(term, s), vs)
        diagram.terms.append(term)
        diagram._term_keys.add(term.key())
        return diagram

    def add_term(self, term: ProductTerm, reuse: bool = True) -> "StateDiagram":
        """Graft one more product term onto the diagram (in place).

        With ``reuse=False`` the matching stage is skipped and the term's
        path is added fully disconnected (the naive-union baseline).
        """
        term = self._fold(term)
        if term.key() in self._term_keys:
            raise DuplicateTermError(f"term already represented: {term!r}")

        # marked[e] is the vertex of edge e that the new path passes through;
        # at most one mark per edge.
        marked: dict[Edge, Vertex] = {}
        if reuse:
            for leaf in self._leaves:
                self._mark_matching(leaf, term, marked)

        for s in self.tree.nodes:
            incident = self._incident[s]
            for e in incident:
                if e not in marked:
                    marked[e] = self._new_vertex(e)
            want = self._want(term, s)
            vs = tuple([marked[e] for e in incident])
            if (want.op_id, *vs) not in self._full[s]:
                self._new_hyperedge(s, want, vs)

        self.terms.append(term)
        self._term_keys.add(term.key())
        return self

    def _mark_matching(self, leaf: int, term: ProductTerm,
                       marked: dict[Edge, Vertex]) -> None:
        """Climb away from a leaf, marking vertices whose far side already
        realises the new term's factors uniquely.

        A hyperedge can extend the match only if it agrees with every mark
        at its site and leaves exactly one incident edge free, so a site with
        no or several unmarked edges ends the climb without a lookup."""
        site = leaf
        while True:
            incident = self._incident[site]
            free = None
            others = []
            for i, e in enumerate(incident):
                v = marked.get(e)
                if v is not None:
                    others.append(v)
                elif free is None:
                    free = i
                else:
                    return
            if free is None:
                return
            e = incident[free]
            key = (self._want(term, site).op_id, *others)
            for y in self._open[site][free].get(key, ()):
                self.match_visits += 1
                v = y.connected[e]
                if len(v.sides[site]) == 1:
                    # a shared v would drag extra hyperedges into the path
                    marked[e] = v
                    site = e[0] if e[1] == site else e[1]
                    break
            else:
                return

    # -- queries -------------------------------------------------------------

    def bond_dimensions(self) -> dict[Edge, int]:
        return {e: len(vs) for e, vs in self.w.items()}

    def n_vertices(self) -> int:
        return sum(len(vs) for vs in self.w.values())

    def n_hyperedges(self) -> int:
        return sum(len(ys) for ys in self.eps.values())

    def enumerate_single_paths(self, cap: int = DEFAULT_PATH_CAP) -> list[ProductTerm]:
        """All single paths as coefficient-folded product terms."""
        return [p.term() for p in self.single_paths(cap=cap)]

    def single_paths(self, cap: int = DEFAULT_PATH_CAP) -> list[SinglePath]:
        """All single paths through the diagram."""
        tree = self.tree
        root = tree.root
        # pre-order site list, children ascending
        order: list[int] = []
        stack = [root]
        while stack:
            s = stack.pop()
            order.append(s)
            stack.extend(reversed(tree.children(s)))

        # below[v.uid]: sub-paths of the subtree under v's child site that
        # pass through v; children are counted before their parents
        below: dict[int, int] = {}

        def count(site: int, cands) -> int:
            total = 0
            for y in cands:
                n = 1
                for c in tree.children(site):
                    n *= below[y.connected[edge_key(site, c)].uid]
                total += n
            return total

        for site in reversed(order[1:]):
            for v in self.w[edge_key(tree.parent(site), site)]:
                below[v.uid] = count(site, v.sides[site])
        total = count(root, self.eps[root])
        if total > cap:
            raise PathCapExceededError(
                f"{total} single paths exceed the cap {cap}")

        # depth-first over ``order``: candidates[i] iterates the hyperedges
        # of order[i] on the vertex its parent's chosen hyperedge put on
        # their shared edge
        paths: list[SinglePath] = []
        chosen: dict[int, HyperEdge] = {}
        candidates = [iter(self.eps[root])]
        while candidates:
            y = next(candidates[-1], None)
            if y is None:
                candidates.pop()
                continue
            idx = len(candidates) - 1
            chosen[order[idx]] = y
            if idx + 1 == len(order):
                paths.append(SinglePath(dict(chosen)))
                continue
            site = order[idx + 1]
            parent = tree.parent(site)
            v_in = chosen[parent].connected[edge_key(parent, site)]
            candidates.append(iter(v_in.sides[site]))
        return paths

    # -- consistency ---------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raise ValidationError if broken."""
        seen_v = set()
        for e, vs in self.w.items():
            if e not in self.tree.edges:
                raise ValidationError(f"vertex collection for unknown edge {e}")
            for v in vs:
                if v.uid in seen_v:
                    raise ValidationError(f"vertex {v.uid} in two collections")
                seen_v.add(v.uid)
                if v.edge != e:
                    raise ValidationError(f"vertex {v.uid} misfiled")
                for side in e:
                    if len(v.sides[side]) < 1:
                        raise ValidationError(
                            f"vertex {v.uid} unconnected on side {side}")
        seen_y = set()
        for s, ys in self.eps.items():
            combos = set()
            for y in ys:
                if y.uid in seen_y:
                    raise ValidationError(f"hyperedge {y.uid} in two collections")
                seen_y.add(y.uid)
                if y.site != s:
                    raise ValidationError(f"hyperedge {y.uid} misfiled")
                incident = set(self.tree.incident_edges(s))
                if set(y.connected) != incident:
                    raise ValidationError(
                        f"hyperedge {y.uid} does not touch every incident edge")
                for e, v in y.connected.items():
                    if v.edge != e:
                        raise ValidationError(
                            f"hyperedge {y.uid} touches a vertex of another edge")
                combo = (y.op.op_id, y.vertex_set())
                if combo in combos:
                    raise ValidationError(
                        f"mergeable duplicate hyperedges at site {s}: "
                        f"{y.op.label} on {sorted(combo[1])}")
                combos.add(combo)
            keys = [_index_keys(y.op.op_id, tuple(
                y.connected[e] for e in self._incident[s])) for y in ys]
            full = self._full[s]
            if len(full) != len(ys) or any(
                    full.get(k) is not y for y, (k, _) in zip(ys, keys)):
                raise ValidationError(
                    f"full index of site {s} disagrees with its hyperedges")
            for i, index in enumerate(self._open[s]):
                filed = [(k, y) for k, hits in index.items() for y in hits]
                if (len(filed) != len(ys) or set(filed)
                        != {(k[i], y) for y, (_, k) in zip(ys, keys)}):
                    raise ValidationError(
                        f"open index of edge {self._incident[s][i]} at site "
                        f"{s} disagrees with its hyperedges")

    # -- debugging -----------------------------------------------------------

    def dump(self) -> str:
        """Stable line-oriented text rendering."""
        lines = [f"tree root={self.tree.root} edges={list(self.tree.edges)}"]
        for e in self.tree.edges:
            ids = " ".join(f"v{v.uid}" for v in self.w[e])
            lines.append(f"w{e}: {ids}")
        for s in self.tree.nodes:
            for y in self.eps[s]:
                vs = " ".join(
                    f"v{y.connected[e].uid}" for e in sorted(y.connected))
                lines.append(f"eps[{s}]: ({s}, {y.op.label}, {vs})")
        return "\n".join(lines) + "\n"


# -- module-level operations ---------------------------------------------


def _index_keys(op_id: int,
                vs: tuple[Vertex, ...]) -> tuple[tuple, list[tuple]]:
    """Key of a hyperedge with operator ``op_id`` on the vertices ``vs``
    (incident-edge order) in its site's full index, and in the open index of
    each incident edge."""
    return ((op_id, *vs),
            [(op_id, *vs[:i], *vs[i + 1:]) for i in range(len(vs))])



def from_hamiltonian(h: Hamiltonian, reuse: bool = True) -> StateDiagram:
    """Build the diagram of a whole Hamiltonian, terms in list order."""
    if not h.terms:
        raise ValidationError("Hamiltonian has no terms")
    if len(h.tree.nodes) > 2 and len(h.tree.neighbours(h.tree.root)) == 1:
        warnings.warn(
            "root has a single neighbour; bond dimensions will generally "
            "be worse than for an interior root",
            stacklevel=2)
    terms = h.folded_terms()
    diagram = StateDiagram.from_single_term(h.tree, terms[0])
    for term in terms[1:]:
        diagram.add_term(term, reuse=reuse)
    return diagram
