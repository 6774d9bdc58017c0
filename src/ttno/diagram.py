"""Labelled directed hypergraphs encoding sum-of-products operators.

A state diagram partitions its vertices into one collection ``w[e]`` per
tree edge and its hyperedges into one collection ``eps[s]`` per site.  Each
hyperedge carries a single-site operator label and touches exactly one
vertex on every edge incident to its site.  A *single path* picks one
hyperedge per site, consistently across shared vertices; the label product
of a path is one product term, and the multiset of all paths is the
operator the diagram represents.

Construction is incremental: a first term gives a diagram with one vertex
per edge, and every further term is grafted on.  The new term's path
shares a *marked* vertex with the diagram on some edges; everything left
unmarked gets fresh vertices and hyperedges, so per term exactly one new
single path appears.

Marks are messages on the tree rooted at its last leaf L, the last of
``tree.leaves()``.  A site whose other edges are all marked sends a message
over the remaining one: the free vertex of the first hyperedge, in creation
order, that carries the site's operator for the term and agrees with those
marks, provided no other hyperedge at the site shares that vertex.  An edge
takes the message sent toward L if there is one, else the one sent from
L's side; the latter all lie on one descent from L, which a site passes on
while exactly one of its edges is unmarked.  A root with one neighbour is
no leaf and never sends.  These are the marks of climbs started from every
leaf in ``leaves()`` order, the climb from L last; another order can give
other marks.

A message sent from a side that carries none of the term's factors is an
*identity message*.  The diagram caches them per edge and direction and
indexes the *broken channels*, edges without an identity message toward L,
by their sites farthest from L.  A new hyperedge can change the identity
messages its site sends only if it is an identity or shares the vertex of
one, and the caches are refreshed from those sites.  A term with support S
therefore costs work on Steiner(S), on the climb from its top toward L up
to the first missing message, on one descent and on the broken channels;
the graft visits only the sites that send nothing, in site order, so
vertex and hyperedge uids are those of a graft over every site.

Messages are looked up in per-site hash indexes instead of scans.  The
*full* index of a site maps ``(op_id, vertex per incident edge)`` to its
hyperedge, so the graft asks once whether the new path's hyperedge exists.
The *open* index of a site's i-th incident edge maps ``(op_id, vertices on
the other edges)`` to the hyperedges with that key in creation order (at a
leaf the key is the operator alone): the candidates of the message the site
sends over edge i.
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
        self._rooting = tree.last_leaf_rooting
        self._incident = self._rooting.incident
        # a root with one neighbour is no leaf, starts no climb and so
        # never sends
        root = tree.root
        self._mute = (root if root != self._rooting.leaf
                      and len(self._incident[root]) == 1 else None)
        # per site: (op_id, *vertices in incident-edge order) -> hyperedge
        self._full: dict[int, dict[tuple, HyperEdge]] = {
            s: {} for s in tree.nodes}
        # per site and incident edge i: (op_id, *vertices on the other
        # edges) -> hyperedges in creation order
        self._open: dict[int, list[dict[tuple, list[HyperEdge]]]] = {
            s: [{} for _ in self._incident[s]] for s in tree.nodes}
        # identity messages of every site s but the rooting's leaf: the one
        # s sends toward the leaf and the one it receives from there, None
        # where undefined; _broken holds the lowest sites that send none
        self._up_id: dict[int, Vertex | None] = {}
        self._down_id: dict[int, Vertex | None] = {}
        self._broken: set[int] = set()
        # open-index hits examined by the term messages and the identity
        # message caches (runtime-bound probe)
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
        (diagram._up_id, diagram._down_id,
         diagram._broken) = diagram._identity_messages()
        return diagram

    def add_term(self, term: ProductTerm, reuse: bool = True) -> "StateDiagram":
        """Graft one more product term onto the diagram (in place).

        With ``reuse=False`` the matching stage is skipped and the term's
        path is added fully disconnected (the naive-union baseline).
        """
        term = self._fold(term)
        key = term.key()
        if key in self._term_keys:
            raise DuplicateTermError(f"term already represented: {term!r}")
        if reuse:
            self._graft(term, *self._match(term))
        else:  # every site, every edge unmarked
            self._graft(term, self.tree.nodes, dict.fromkeys(self.tree.nodes))
        self.terms.append(term)
        self._term_keys.add(key)
        return self

    def _lookup(self, site: int, free: int, key: tuple) -> Vertex | None:
        """The message ``site`` sends over its incident edge number
        ``free``, given ``key``: its operator and the marks on its other
        edges.  That is the free vertex of the first hyperedge filed under
        ``key`` that no other hyperedge at ``site`` shares (a shared vertex
        would drag extra hyperedges into the path)."""
        e = self._incident[site][free]
        for y in self._open[site][free].get(key, ()):
            self.match_visits += 1
            v = y.connected[e]
            if len(v.sides[site]) == 1:
                return v
        return None

    def _match(self, term: ProductTerm) -> tuple[list[int], dict]:
        """The sites the graft must visit, in site order, and the marks
        there: a dict from an edge's endpoint away from the rooting's leaf
        to the edge's mark, or None for none, holding every edge whose mark
        depends on the term; any other edge takes its cached identity
        message.  Every site not returned sends a message over its one
        unmarked edge, so the path's hyperedge there exists already."""
        r = self._rooting
        up_of, kids, depth, leaf = r.up, r.kids, r.depth, r.leaf
        factors = term.factors
        ident = self._identity
        cached = self._up_id
        # marks[s]: the mark of the edge from s toward the leaf, or None;
        # first the sites of Steiner(S), with its top t
        marks: dict[int, Vertex | None] = {}
        t = None
        for s in factors or (leaf,):
            if t is None:
                marks[s] = None
                t = s
                continue
            if s in marks:
                continue
            marks[s] = None
            x = s
            while True:
                if depth[x] > depth[t]:
                    x = up_of[x]
                    if x in marks:
                        break
                    marks[x] = None
                else:
                    t = up_of[t]
                    if t in marks:
                        break
                    marks[t] = None
        # messages toward the leaf, deepest first (so a site's kids in
        # Steiner(S) hold theirs), then on from t until the first miss
        mute, up_slot = self._mute, r.up_slot
        cands: set[int] = set()
        order = sorted(marks, key=depth.__getitem__, reverse=True)
        for a in order:
            if a == leaf:
                break
            v = None
            if a != mute:
                ins = []
                for c in kids[a]:
                    v = marks[c] if c in marks else cached[c]
                    if v is None:
                        break
                    ins.append(v)
                else:
                    op = factors.get(a) or ident[a]
                    v = self._lookup(a, up_slot[a], (op.op_id, *ins))
            marks[a] = v
            if v is None:
                cands.add(a)
            elif a == order[-1] and up_of[a] != leaf:
                order.append(up_of[a])
        head = order[-1]
        # the descent from the leaf's side: above the miss it follows
        # identity messages, so the cache says whether it reaches the miss
        a = None
        if t == leaf:
            a = leaf
            cands.add(leaf)
        elif marks[head] is not None:
            cands.add(leaf)
        else:
            c = head
            while c != leaf:
                v = self._down_id[c]
                if v is not None:
                    marks[c] = v
                    break
                c = up_of[c]
                marks[c] = None
                cands.add(c)
            if marks[head] is not None:
                a = head
        # a site passes the descent on while exactly one of its edges is
        # unmarked, and is then no graft site
        far = r.far
        while a is not None:
            key = [(factors.get(a) or ident[a]).op_id]
            free = None
            for i, c in enumerate(far[a]):
                v = marks[c] if c in marks else cached[c]
                if v is not None:
                    key.append(v)
                elif free is None:
                    free = i
                else:
                    free = None
                    break
            if free is None:
                break
            v = self._lookup(a, free, tuple(key))
            if v is None:
                break
            cands.discard(a)
            a = far[a][free]
            marks[a] = v
            cands.add(a)
        # each broken identity channel runs from a lowest member toward the
        # leaf until it meets a site marked above or an ancestor of t
        span = r.span
        top = span[t][0]
        for x in self._broken:
            while (x not in marks and x not in cands
                   and not span[x][0] <= top < span[x][1]):
                cands.add(x)
                x = up_of[x]
        return sorted(cands), marks

    def _graft(self, term: ProductTerm, sites, marks: dict) -> None:
        """At each of ``sites`` in order, give every unmarked edge a fresh
        vertex and add the path's hyperedge if it is missing; then refresh
        the identity messages the new hyperedges can change.  ``marks``
        maps an edge's endpoint away from the leaf to its mark, None for
        none; edges it does not name take the cached identity message."""
        far_of = self._rooting.far
        incident = self._incident
        ups, downs = self._up_id, self._down_id
        factors = term.factors
        dirty = []
        for s in sites:
            far = far_of[s]
            vs = []
            for c, e in zip(far, incident[s]):
                v = marks[c] if c in marks else ups[c]
                if v is None:
                    v = marks[c] = self._new_vertex(e)
                vs.append(v)
            vs = tuple(vs)
            want = factors.get(s) or self._identity[s]
            if (want.op_id, *vs) in self._full[s]:
                continue
            self._new_hyperedge(s, want, vs)
            # an identity can become a message of s, and a vertex that is
            # one stops being one once a second hyperedge at s shares it
            if s not in factors:
                dirty.append(s)
                continue
            for v, c in zip(vs, far):
                if v is (ups[s] if c == s else downs[c]):
                    dirty.append(s)
                    break
        if dirty:
            self._refresh(dirty)

    def _refresh(self, dirty: list[int]) -> None:
        """Recompute the identity messages sent from the ``dirty`` sites and
        pass every change on: first toward the leaf, then away from it."""
        r = self._rooting
        up_of, kids, leaf = r.up, r.kids, r.leaf
        ups, downs = self._up_id, self._down_id
        touched = {}
        stack = list(dirty)
        while stack:
            s = stack.pop()
            touched[s] = None
            if s == leaf:
                continue
            v = self._identity_up(s, ups)
            if v is not ups[s]:
                was, ups[s] = ups[s], v
                if (was is None) != (v is None):
                    self._file_broken(s)
                    self._file_broken(up_of[s])
                stack.append(up_of[s])
        stack = [c for s in touched for c in kids[s]]
        while stack:
            c = stack.pop()
            v = self._identity_down(c, ups, downs)
            if v is not downs[c]:
                downs[c] = v
                stack.extend(kids[c])

    def _is_broken(self, site: int, ups: dict) -> bool:
        """Whether ``site`` sends no identity message toward the leaf while
        all its kids do, given the messages ``ups``."""
        return (site != self._rooting.leaf and ups[site] is None
                and None not in map(ups.__getitem__, self._rooting.kids[site]))

    def _file_broken(self, site: int) -> None:
        if self._is_broken(site, self._up_id):
            self._broken.add(site)
        else:
            self._broken.discard(site)

    def _identity_up(self, site: int, ups: dict) -> Vertex | None:
        """The identity message ``site`` sends toward the leaf once its
        kids have sent theirs, ``ups``."""
        if site == self._mute:
            return None
        key = (self._identity[site].op_id,
               *map(ups.__getitem__, self._rooting.kids[site]))
        if None in key:
            return None
        return self._lookup(site, self._rooting.up_slot[site], key)

    def _identity_down(self, site: int, ups: dict,
                       downs: dict) -> Vertex | None:
        """The identity message ``site`` receives from the leaf's side: its
        neighbour p toward the leaf sends it once p has received one
        (``downs``) and every other kid of p has sent one (``ups``)."""
        r = self._rooting
        p = r.up[site]
        key = [self._identity[p].op_id]
        for c in r.far[p]:
            if c != site:
                v = downs[p] if c == p else ups[c]
                if v is None:
                    return None
                key.append(v)
        return self._lookup(p, r.down_slot[site], tuple(key))

    def _identity_messages(self) -> tuple[dict, dict, set]:
        """Every identity message computed afresh: the caches ``_up_id``,
        ``_down_id`` and ``_broken`` as they should be."""
        r = self._rooting
        ups: dict[int, Vertex | None] = {}
        downs: dict[int, Vertex | None] = {}
        for s in reversed(r.order[1:]):
            ups[s] = self._identity_up(s, ups)
        for s in r.order[1:]:
            downs[s] = self._identity_down(s, ups, downs)
        return ups, downs, {s for s in r.order if self._is_broken(s, ups)}

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
        visits = self.match_visits
        ups, downs, broken = self._identity_messages()
        self.match_visits = visits
        r = self._rooting
        for s in r.order[1:]:
            p = r.up[s]
            for v, cached, a, b in ((ups[s], self._up_id.get(s), s, p),
                                    (downs[s], self._down_id.get(s), p, s)):
                if v is not cached:
                    raise ValidationError(
                        f"identity message on edge {edge_key(s, p)} from "
                        f"site {a} to site {b} is stale in the cache")
        stray = broken ^ self._broken
        if stray:
            raise ValidationError(
                f"broken-channel index disagrees at site {min(stray)}")

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
