"""Labelled directed hypergraphs encoding sum-of-products operators.

A state diagram partitions its vertices into one collection ``w[e]`` per
tree edge and its hyperedges into one collection ``eps[s]`` per site.  Each
hyperedge carries a single-site operator label and touches exactly one
vertex on every edge incident to its site.  A *single path* picks one
hyperedge per site, consistently across shared vertices; the label product
of a path is one product term, and the multiset of all paths is the
operator the diagram represents.

The diagram is held in plain integers, as a finite automaton holds its
states and transitions.  A vertex is its uid, numbered from 0 in creation
order over all edges, so ``w[e]`` is a list of uids.  A hyperedge at site
``s`` is its own key, the int tuple ``(op_id, *vertex uids)`` with one
vertex per incident edge of ``s`` in neighbour order, which is also
ascending edge order.  ``eps[s]`` is a dict of those keys in creation
order, and ``ops`` maps each ``op_id`` to the operator whose label the dump
prints.  Two flat lists indexed by uid count the hyperedges on each vertex
at either endpoint of its edge.  So once the garbage collector has run, no
container per vertex, hyperedge or index key is left for it to walk.  Two
rules come with int vertices: compare them with ``==`` and ``!=``, never
``is`` (CPython shares only the ints up to 256), and never test one for
truth, since uid 0 is a vertex; None stands for no vertex.

Construction is incremental: a diagram starts empty and each term is
grafted on once, as folded, keyed and checked for duplicates by the
Hamiltonian (``from_hamiltonian``) or by ``add_term``.  The new term's path
shares a *marked* vertex with the diagram on some edges; everything left
unmarked gets fresh vertices and hyperedges, so per term exactly one new
single path appears.  On the empty diagram nothing is marked, so the first
term gets one vertex per edge and one hyperedge per site.

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
by their sites farthest from L.  One send rule gives every identity
message: what a site sends over one of its edges is keyed by its identity
operator and by the identity messages it receives on its other edges, and
a root with one neighbour sends none.  A new hyperedge y at site s changes
the message s sends over its edge j only if y's vertex on j is that
message, which y now shares, or if the message is missing and y is an
identity carrying the incoming identity messages on every other edge of s.
Only those messages are recomputed, and one dependency rule passes a change
on, in both directions: when the message into a site over one edge
changes, the messages the site sends over its other edges are re-keyed,
none of them while two of its other incoming messages are missing, only
the one over the missing edge while one is, and all of them otherwise.
Messages sent toward L are keyed by none sent from L's side, so they
settle first.  So at a hub whose leaves mostly send nothing, a changed
leaf recomputes O(1) messages, not one per leaf.  The broken-channel set
is copied once it holds a quarter of its peak size, since a set never
shrinks its table and every term iterates the table.  A term with support
S therefore costs work on Steiner(S), on the climb from its top toward L
up to the first missing message, on one descent and on the broken
channels; the graft visits only the sites that send nothing, in site
order, so vertex uids and hyperedge order are those of a graft over every
site.

The graft never finds the path's hyperedge at a site already.  A site
``_match`` returns gets a fresh vertex, or has only marks its neighbours
sent into it (a site that sends a mark holds the path's hyperedge and is
not returned).  Each such mark is the one vertex the term's path on the
sender's side runs through, so the site holds the path's hyperedge only if
the whole path exists, and the duplicate check refuses that term first.

Messages are looked up in per-site hash indexes instead of scans.  The
*open* index of a site's i-th incident edge maps ``(op_id, vertices on the
other edges)`` to the tuple of hyperedges with that key in creation order
(at a leaf the key is the operator alone): the candidates of the message
the site sends over edge i.  It holds a hyperedge only if it was the first
at its site on its vertex of edge i.  A later one shares that vertex, and
since counts never fall it could never be a message.
"""

from __future__ import annotations

import warnings

from .errors import (DuplicateTermError, PathCapExceededError,
                     ValidationError)
# fold_coefficient is unused here; the fold-count test patches it here too
from .operators import (Hamiltonian, ProductTerm, SiteOperator,
                        fold_coefficient, identity, take_term)
from .tree import Edge, TreeTopology, edge_key

PATH_CAP = 10 ** 6


class StateDiagram:
    """Vertex and hyperedge collections over a tree, built term by term.

    Finished diagrams should be treated as immutable; construction mutates
    internal state and is single-threaded.
    """

    def __init__(self, tree: TreeTopology):
        """The empty diagram on ``tree``: no vertices, no hyperedges."""
        self.tree = tree
        self.w: dict[Edge, list[int]] = {e: [] for e in tree.edges}
        self.eps: dict[int, dict[tuple, None]] = {s: {} for s in tree.nodes}
        self.ops: dict[int, SiteOperator] = {}
        # the folded terms grafted so far, by key, in order
        self.terms: dict[tuple, ProductTerm] = {}
        self._derived: dict = {}  # add_term's scaled operators
        ids = {d: identity(d) for d in set(tree.phys_dims.values())}
        self._identity = {s: ids[d] for s, d in tree.phys_dims.items()}
        r = self._rooting = tree.last_leaf_rooting
        self._incident, self._far, self._span = tree.incident, r.far, r.span
        self._up_slot = r.up_slot
        # a root with one neighbour is no leaf, starts no climb and so
        # never sends
        root = tree.root
        self._mute = (root if root != r.root
                      and len(self._incident[root]) == 1 else None)
        # _degree[k][v]: how many hyperedges touch vertex v at endpoint k of
        # its edge; _degree_at[s][i] is the list that counts them at site s
        # for the vertices of its i-th incident edge
        self._degree: tuple[list[int], list[int]] = ([], [])
        self._degree_at = {s: tuple(self._degree[e[1] == s]
                                    for e in self._incident[s])
                           for s in tree.nodes}
        # per site and incident edge i: (op_id, *vertices on the other
        # edges) -> hyperedges in creation order
        self._open: dict[int, list[dict[tuple, tuple]]] = {
            s: [{} for _ in self._incident[s]] for s in tree.nodes}
        # open-index hits examined by the term messages and the identity
        # message caches (runtime-bound probe)
        self.match_visits = 0
        # identity messages of every site s but the rooting's leaf: the one
        # s sends toward the leaf and the one it receives from there, None
        # where undefined; _broken holds the lowest sites that send none.
        # With no hyperedge no site sends, so the lowest are the leaves.
        self._up_id = dict.fromkeys(r.order[1:])
        self._down_id = dict.fromkeys(r.order[1:])
        self._broken = {s for s in r.order[1:] if not r.kids[s]}
        self._broken_peak = len(self._broken)

    # -- construction ------------------------------------------------------

    def _new_vertex(self, edge: Edge) -> int:
        v = len(self._degree[0])
        for counts in self._degree:
            counts.append(0)
        self.w[edge].append(v)
        return v

    def _new_hyperedge(self, site: int, op: SiteOperator,
                       vs: tuple[int, ...]) -> None:
        """The hyperedge of ``op`` at ``site`` on the vertices ``vs``, one
        per incident edge in incident-edge order, filed in the indexes."""
        y = (op.op_id, *vs)
        self.eps[site][y] = None
        self.ops.setdefault(op.op_id, op)
        for i, (counts, index) in enumerate(zip(self._degree_at[site],
                                                self._open[site])):
            v = vs[i]
            counts[v] += 1
            # only the first hyperedge at site on v can ever be found: the
            # count of v there never falls back to 1
            if counts[v] == 1:
                key = y[:i + 1] + y[i + 2:]
                index[key] = index.get(key, ()) + (y,)

    @classmethod
    def from_single_term(cls, tree: TreeTopology,
                         term: ProductTerm) -> "StateDiagram":
        """One vertex per edge, one hyperedge per site."""
        return cls(tree).add_term(term)

    def add_term(self, term: ProductTerm) -> "StateDiagram":
        """Graft one more product term onto the diagram (in place), checked,
        folded and keyed as a ``Hamiltonian`` takes it."""
        term, key = take_term(term, len(self.terms), self.tree,
                              self._derived)
        if key in self.terms:
            raise DuplicateTermError(f"term already represented: {term!r}")
        self._graft(term, *self._match(term))
        self.terms[key] = term
        return self

    def _lookup(self, site: int, free: int, key: tuple) -> int | None:
        """The message ``site`` sends over its incident edge number
        ``free``, given ``key``: its operator and the marks on its other
        edges.  That is the free vertex of the first hyperedge filed under
        ``key`` that no other hyperedge at ``site`` shares (a shared vertex
        would drag extra hyperedges into the path).  Only the first
        hyperedge on each vertex is filed, so every hit examined had its
        vertex to itself when it was filed."""
        counts = self._degree_at[site][free]
        for y in self._open[site][free].get(key, ()):
            self.match_visits += 1
            v = y[free + 1]
            if counts[v] == 1:
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
        up_of, kids, depth, leaf = r.up, r.kids, r.depth, r.root
        factors = term.factors
        ident = self._identity
        cached = self._up_id
        # marks[s]: the mark of the edge from s toward the leaf, or None;
        # first the sites of Steiner(S), with its top t
        marks: dict[int, int | None]
        marks, t = r.steiner(factors or (leaf,))
        marks[t] = None
        # messages toward the leaf, deepest first (so a site's kids in
        # Steiner(S) hold theirs), then on from t until the first miss
        mute, up_slot = self._mute, self._up_slot
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
        far = self._far
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
        span = self._span
        top = span[t][0]
        for x in self._broken:
            while (x not in marks and x not in cands
                   and not span[x][0] <= top < span[x][1]):
                cands.add(x)
                x = up_of[x]
        return sorted(cands), marks

    def _graft(self, term: ProductTerm, sites, marks: dict) -> None:
        """At each of ``sites`` in order, give every unmarked edge a fresh
        vertex and add the path's hyperedge, never there yet; then refresh
        the identity messages the new hyperedges can change: at the new
        hyperedge's site, a message whose vertex it now shares, and a
        missing message over an edge where the new hyperedge is an
        identity carrying the incoming identity messages on all the site's
        other edges.  ``marks`` maps an edge's endpoint away from the leaf
        to its mark, None for none; edges it does not name take the cached
        identity message."""
        far_of = self._far
        incident = self._incident
        ups, downs = self._up_id, self._down_id
        factors = term.factors
        stale_ups, stale_downs = [], []
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
            self._new_hyperedge(s, want, vs)
            # the slots j where the new hyperedge is an identity that
            # carries the incoming identity message on every slot but j
            carries = ()
            if s not in factors:
                off = [j for j, c in enumerate(far)
                       if vs[j] != (downs[s] if c == s else ups[c])]
                carries = (off if len(off) == 1
                           else range(len(far)) if not off else ())
            for j, c in enumerate(far):
                sent = ups[s] if c == s else downs[c]
                if vs[j] == sent or (sent is None and j in carries):
                    (stale_ups if c == s else stale_downs).append((s, j))
        if stale_ups or stale_downs:
            self._refresh(stale_ups, stale_downs)

    def _refresh(self, stale_ups: list, stale_downs: list) -> None:
        """Recompute the identity messages named by the (site, slot) pairs
        ``stale_ups``, sent toward the leaf, and ``stale_downs``, sent away
        from it, and pass each change on only to the messages keyed by
        it."""
        r = self._rooting
        far = self._far
        ups, downs = self._up_id, self._down_id
        # messages toward the leaf are keyed by none from its side, so they
        # settle first
        for stack in (stale_ups, stale_downs):
            while stack:
                s, slot = stack.pop()
                c = far[s][slot]
                v = self._identity_send(s, slot, ups, downs)
                if c == s:
                    if v == ups[s]:
                        continue
                    was, ups[s] = ups[s], v
                    x, back = r.up[s], r.down_slot[s]
                    if (was is None) != (v is None):
                        self._file_broken(s)
                        self._file_broken(x)
                else:
                    if v == downs[c]:
                        continue
                    downs[c] = v
                    x, back = c, r.up_slot[c]
                # x sends a message keyed by v on each other slot; while
                # another of its inputs is missing only the message over
                # that slot can be complete, while two are none can
                xs = far[x]
                gap = None
                for j, k in enumerate(xs):
                    if j != back and (downs[x] if k == x else ups[k]) is None:
                        if gap is not None:
                            break
                        gap = j
                else:
                    for j in range(len(xs)) if gap is None else (gap,):
                        if j != back:
                            (stale_ups if xs[j] == x
                             else stale_downs).append((x, j))

    def _is_broken(self, site: int, ups: dict) -> bool:
        """Whether ``site`` sends no identity message toward the leaf while
        all its kids do, given the messages ``ups``."""
        return (site != self._rooting.root and ups[site] is None
                and None not in map(ups.__getitem__, self._rooting.kids[site]))

    def _file_broken(self, site: int) -> None:
        broken = self._broken
        if self._is_broken(site, self._up_id):
            broken.add(site)
            self._broken_peak = max(self._broken_peak, len(broken))
        elif site in broken:
            broken.remove(site)
            # a set never shrinks its table, and _match iterates the whole
            # table on every term: copy it once it holds a quarter of its
            # peak, which costs O(1) per discard amortised
            if 4 * len(broken) < self._broken_peak:
                self._broken = set(broken)
                self._broken_peak = len(broken)

    def _identity_send(self, site: int, slot: int, ups: dict,
                       downs: dict) -> int | None:
        """The identity message ``site`` sends over its incident edge number
        ``slot``, keyed by what it receives on its other edges: ``downs[site]``
        on its edge toward the leaf and ``ups[c]`` from each kid ``c``."""
        if site == self._mute:
            return None
        key = [self._identity[site].op_id]
        for j, c in enumerate(self._far[site]):
            if j != slot:
                v = downs[site] if c == site else ups[c]
                if v is None:
                    return None
                key.append(v)
        return self._lookup(site, slot, tuple(key))

    def _identity_messages(self) -> tuple[dict, dict, set]:
        """Every identity message computed afresh: the caches ``_up_id``,
        ``_down_id`` and ``_broken`` as they should be."""
        r = self._rooting
        ups: dict[int, int | None] = {}
        downs: dict[int, int | None] = {}
        for s in reversed(r.order[1:]):
            ups[s] = self._identity_send(s, r.up_slot[s], ups, downs)
        for s in r.order[1:]:
            downs[s] = self._identity_send(r.up[s], r.down_slot[s], ups,
                                           downs)
        return ups, downs, {s for s in r.order if self._is_broken(s, ups)}

    # -- queries -------------------------------------------------------------

    def bond_dimensions(self) -> dict[Edge, int]:
        return {e: len(vs) for e, vs in self.w.items()}

    def n_vertices(self) -> int:
        return len(self._degree[0])

    def n_hyperedges(self) -> int:
        return sum(len(ys) for ys in self.eps.values())

    def enumerate_single_paths(self) -> list[ProductTerm]:
        """All single paths as coefficient-folded product terms."""
        ops = self.ops
        return [ProductTerm(1.0, {s: ops[y[0]] for s, y in path.items()
                                  if not ops[y[0]].is_identity()})
                for path in self.single_paths()]

    def single_paths(self) -> list[dict[int, tuple]]:
        """All single paths through the diagram, each a dict from site to
        its hyperedge; more than ``PATH_CAP`` of them is an error."""
        # sites in preorder, children ascending
        r = self.tree.rooting
        root, order, up, kids = r.root, r.order, r.up, r.kids
        down_slot = r.down_slot
        # on[s][v]: the hyperedges at s on the vertex v of its edge toward
        # the root, in creation order
        on: dict[int, dict[int, list[tuple]]] = {}
        for s in order[1:]:
            on[s] = groups = {}
            i = r.up_slot[s] + 1
            for y in self.eps[s]:
                groups.setdefault(y[i], []).append(y)
        # below[v]: sub-paths of the subtree under v's child site that pass
        # through v; children are counted before their parents
        below = [0] * self.n_vertices()

        def count(site: int, cands) -> int:
            total = 0
            for y in cands:
                n = 1
                for c in kids[site]:
                    n *= below[y[down_slot[c] + 1]]
                total += n
            return total

        for site in reversed(order[1:]):
            for v, ys in on[site].items():
                below[v] = count(site, ys)
        total = count(root, self.eps[root])
        if total > PATH_CAP:
            raise PathCapExceededError(
                f"{total} single paths exceed the cap {PATH_CAP}")

        # depth-first over ``order``: candidates[i] iterates the hyperedges
        # of order[i] on the vertex its parent's chosen hyperedge put on
        # their shared edge
        paths: list[dict[int, tuple]] = []
        chosen: dict[int, tuple] = {}
        candidates = [iter(self.eps[root])]
        while candidates:
            y = next(candidates[-1], None)
            if y is None:
                candidates.pop()
                continue
            idx = len(candidates) - 1
            chosen[order[idx]] = y
            if idx + 1 == len(order):
                paths.append(dict(chosen))
                continue
            site = order[idx + 1]
            v_in = chosen[up[site]][down_slot[site] + 1]
            candidates.append(iter(on[site].get(v_in, ())))
        return paths

    # -- consistency ---------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raise ValidationError if broken.

        Hyperedges at a site are the keys of one dict and touch one vertex
        of each incident edge, so no two of them can merge."""
        edge_of: dict[int, Edge] = {}
        for e, vs in self.w.items():
            if e not in self.tree.edges:
                raise ValidationError(f"vertex collection for unknown edge {e}")
            for v in vs:
                if v in edge_of:
                    raise ValidationError(f"vertex {v} in two collections")
                edge_of[v] = e
        n = self.n_vertices()
        if edge_of.keys() != set(range(n)) or len(self._degree[1]) != n:
            raise ValidationError(
                f"vertex collections do not hold the uids 0 to {n - 1}")
        degree = ([0] * n, [0] * n)
        for s, ys in self.eps.items():
            incident = self._incident[s]
            opens: list[dict[tuple, tuple]] = [{} for _ in incident]
            for y in ys:
                if y[0] not in self.ops or len(y) != len(incident) + 1:
                    raise ValidationError(
                        f"hyperedge {y} at site {s} needs a known operator "
                        f"and one vertex per incident edge")
                for i, (e, index) in enumerate(zip(incident, opens)):
                    v = y[i + 1]
                    if edge_of.get(v) != e:
                        raise ValidationError(
                            f"hyperedge {y} at site {s} touches a vertex of "
                            f"another edge")
                    counts = degree[e[1] == s]
                    counts[v] += 1
                    if counts[v] == 1:
                        key = y[:i + 1] + y[i + 2:]
                        index[key] = index.get(key, ()) + (y,)
            for e, index, want in zip(incident, self._open[s], opens):
                if index != want:
                    raise ValidationError(
                        f"open index of edge {e} at site {s} disagrees with "
                        f"its hyperedges")
        for k, (counts, cached) in enumerate(zip(degree, self._degree)):
            for v, (c, c_cached) in enumerate(zip(counts, cached)):
                if c < 1:
                    raise ValidationError(
                        f"vertex {v} unconnected on side {edge_of[v][k]}")
                if c != c_cached:
                    raise ValidationError(
                        f"hyperedge count of vertex {v} on side "
                        f"{edge_of[v][k]} is {c_cached}, not {c}")
        visits = self.match_visits
        ups, downs, broken = self._identity_messages()
        self.match_visits = visits
        r = self._rooting
        for s in r.order[1:]:
            p = r.up[s]
            for v, cached, a, b in ((ups[s], self._up_id.get(s), s, p),
                                    (downs[s], self._down_id.get(s), p, s)):
                if v != cached:
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
            ids = " ".join(f"v{v}" for v in self.w[e])
            lines.append(f"w{e}: {ids}")
        for s in self.tree.nodes:
            for y in self.eps[s]:
                vs = " ".join(f"v{v}" for v in y[1:])
                lines.append(f"eps[{s}]: ({s}, {self.ops[y[0]].label}, {vs})")
        return "\n".join(lines) + "\n"


# -- module-level operations ---------------------------------------------


def from_hamiltonian(h: Hamiltonian) -> StateDiagram:
    """The diagram of a whole Hamiltonian: its folded terms, in order."""
    if not h.terms:
        raise ValidationError("Hamiltonian has no terms")
    if len(h.tree.nodes) > 2 and len(h.tree.neighbours(h.tree.root)) == 1:
        warnings.warn(
            "root has a single neighbour; bond dimensions will generally "
            "be worse than for an interior root",
            stacklevel=2)
    diagram = StateDiagram(h.tree)
    diagram.terms = dict(h.folded)
    for term in diagram.terms.values():
        diagram._graft(term, *diagram._match(term))
    return diagram
