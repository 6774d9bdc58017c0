"""Rooted unordered trees of quantum sites.

Sites are opaque non-negative integers.  The tree is stored undirected with
the root recorded separately, so re-rooting is a cheap pure function.
Canonical iteration order is ascending site id everywhere.

Every rooted view of a tree is a :class:`Rooting`.  ``TreeTopology.rooting``,
at the chosen root, answers the parent, child, leaf, depth, distance and
subtree queries; ``TreeTopology.last_leaf_rooting`` is the view that diagram
construction and the rank oracle share, and ``Rooting.steiner`` gives both
the Steiner tree of a support.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ValidationError

Edge = tuple[int, int]


def edge_key(a: int, b: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (a, b) if a <= b else (b, a)


class Rooting:
    """The tree with neighbour lists ``nbrs`` rooted at ``root``.

    One depth-first walk, kids in neighbour order, gives ``up[s]``, the
    neighbour of ``s`` toward ``root`` (None at ``root``), ``kids[s]``, the
    other neighbours, ``depth[s]``, the number of edges to ``root``, and
    ``order``, the sites in preorder.  Only the sites reachable from
    ``root`` are rooted.

    Computed on first use: ``span[s]``, the half-open range of positions in
    ``order`` of the sites at or below ``s``, so ``a`` is ``b`` or lies
    toward ``root`` from it exactly when
    ``span[a][0] <= span[b][0] < span[a][1]``; ``far[s]``, each edge of ``s``
    in neighbour order (``TreeTopology.incident[s]``) named by its endpoint
    farther from ``root``; ``up_slot[s]``, the position of ``up[s]`` in
    ``nbrs[s]``; and ``down_slot[s]``, that of ``s`` in ``nbrs[up[s]]``.
    """

    def __init__(self, nbrs: dict[int, tuple[int, ...]], root: int):
        self.nbrs, self.root = nbrs, root
        up: dict[int, int | None] = {root: None}
        depth = {root: 0}
        kids: dict[int, tuple[int, ...]] = {}
        order = []
        stack = [root]
        while stack:
            s = stack.pop()
            order.append(s)
            d = depth[s] + 1
            # testing ``up``, not the parent, ends the walk on a cycle too
            kids[s] = below = tuple([n for n in nbrs[s] if n not in up])
            for n in below:
                up[n] = s
                depth[n] = d
            stack.extend(below[::-1])
        self.up, self.kids, self.depth = up, kids, depth
        self.order = tuple(order)

    @cached_property
    def span(self) -> dict[int, tuple[int, int]]:
        # a subtree ends where the subtree of its last kid ends
        order, kids = self.order, self.kids
        end: dict[int, int] = {}
        for i in range(len(order) - 1, -1, -1):
            s = order[i]
            k = kids[s]
            end[s] = end[k[-1]] if k else i + 1
        return {s: (i, end[s]) for i, s in enumerate(order)}

    def steiner(self, sites) -> tuple[dict[int, None], int]:
        """The Steiner tree of ``sites``, a non-empty iterable in any order:
        its sites other than its top, as the keys of a new dict (values
        None), and its top, the lowest common ancestor of ``sites``."""
        up, depth = self.up, self.depth
        below: dict[int, None] = {}
        top = None
        for s in sites:
            if top is None:
                top = s
                continue
            # climb from s and from the top, the deeper first, until s
            # meets the tree so far
            while s not in below and s != top:
                if depth[s] > depth[top]:
                    below[s] = None
                    s = up[s]
                else:
                    below[top] = None
                    top = up[top]
        return below, top

    @cached_property
    def far(self) -> dict[int, tuple[int, ...]]:
        up = self.up
        return {s: tuple(s if n == up[s] else n for n in self.nbrs[s])
                for s in self.order}

    @cached_property
    def up_slot(self) -> dict[int, int]:
        return {s: self.nbrs[s].index(self.up[s]) for s in self.order[1:]}

    @cached_property
    def down_slot(self) -> dict[int, int]:
        return {s: self.nbrs[self.up[s]].index(s) for s in self.order[1:]}


class TreeTopology:
    """Connected acyclic graph over integer site ids with a chosen root.

    Parameters
    ----------
    edges:
        Iterable of site pairs.  May be empty for a single-site system.
    root:
        Root site.  Must be a member of the node set.
    phys_dims:
        Optional map site -> physical dimension (default 2 per site).
    nodes:
        Optional explicit node set; required for a single-site tree,
        otherwise inferred from the edges.
    """

    def __init__(self, edges, root, phys_dims=None, nodes=None):
        edge_set: set[Edge] = set()
        node_set: set[int] = set(nodes) if nodes is not None else set()
        for edge in edges:
            try:
                a, b = edge
                a, b = int(a), int(b)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"edge {edge!r} must be a pair of "
                                      f"integer site ids") from exc
            if a == b:
                raise ValidationError(f"self-loop at site {a}")
            if a < 0 or b < 0:
                raise ValidationError("site ids must be non-negative")
            e = edge_key(a, b)
            if e in edge_set:
                raise ValidationError(f"duplicate edge {e}")
            edge_set.add(e)
            node_set.add(a)
            node_set.add(b)
        if not node_set:
            raise ValidationError("tree must contain at least one site")
        try:
            root = int(root)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"root {root!r} is not an integer site id") from exc
        if root not in node_set:
            raise ValidationError(f"root {root} is not a site")
        if len(edge_set) != len(node_set) - 1:
            raise ValidationError(
                f"{len(node_set)} sites need {len(node_set) - 1} edges, "
                f"got {len(edge_set)}"
            )

        self.nodes: tuple[int, ...] = tuple(sorted(node_set))
        self.edges: tuple[Edge, ...] = tuple(sorted(edge_set))
        self.root: int = root

        adj: dict[int, list[int]] = {s: [] for s in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {s: tuple(sorted(ns)) for s, ns in adj.items()}

        self.phys_dims: dict[int, int] = {s: 2 for s in self.nodes}
        if phys_dims:
            for s, d in phys_dims.items():
                try:
                    s, d = int(s), int(d)
                except (TypeError, ValueError) as exc:
                    raise ValidationError(f"phys_dims entry {s!r}: {d!r} "
                                          f"is not an integer pair") from exc
                if s not in node_set:
                    raise ValidationError(f"phys_dim for unknown site {s}")
                if d < 1:
                    raise ValidationError(f"phys_dim {d} at site {s} must be >= 1")
                self.phys_dims[s] = d

        # also the connectivity check
        self.rooting = Rooting(self._adj, root)
        if len(self.rooting.order) != len(self.nodes):
            raise ValidationError("tree is not connected")

    # -- structure queries -------------------------------------------------

    def _check(self, s: int) -> int:
        if s not in self._adj:
            raise ValidationError(f"unknown site {s}")
        return s

    def neighbours(self, s: int) -> tuple[int, ...]:
        return self._adj[self._check(s)]

    def parent(self, s: int) -> int | None:
        return self.rooting.up[self._check(s)]

    def children(self, s: int) -> tuple[int, ...]:
        return self.rooting.kids[self._check(s)]

    def leaves(self) -> tuple[int, ...]:
        kids = self.rooting.kids
        return tuple(s for s in self.nodes if not kids[s])

    def is_leaf(self, s: int) -> bool:
        return not self.rooting.kids[self._check(s)]

    def depth(self) -> int:
        return max(self.rooting.depth.values())

    def phys_dim(self, s: int) -> int:
        return self.phys_dims[self._check(s)]

    # -- metric ------------------------------------------------------------

    def distance(self, a: int, b: int) -> int:
        """The number of edges between ``a`` and ``b``."""
        self._check(a)
        self._check(b)
        return len(self.rooting.steiner((a, b))[0])

    def subtree(self, s: int) -> set[int]:
        """Sites whose route to the root passes through ``s`` (incl. ``s``)."""
        a, b = self.rooting.span[self._check(s)]
        return set(self.rooting.order[a:b])

    @cached_property
    def incident(self) -> dict[int, tuple[Edge, ...]]:
        """The edges of each site in neighbour order, for every rooting."""
        return {s: tuple(edge_key(s, n) for n in nbrs)
                for s, nbrs in self._adj.items()}

    @cached_property
    def last_leaf_rooting(self) -> Rooting:
        """This tree rooted at its last leaf, ``leaves()[-1]``, computed
        once per tree."""
        return Rooting(self._adj, self.leaves()[-1])

    # -- misc ----------------------------------------------------------------

    def re_root(self, new_root: int) -> "TreeTopology":
        """Same undirected tree, rooted elsewhere."""
        self._check(new_root)
        return TreeTopology(self.edges, new_root, dict(self.phys_dims),
                            nodes=self.nodes)

    def __eq__(self, other):
        return (isinstance(other, TreeTopology)
                and self.edges == other.edges
                and self.root == other.root
                and self.phys_dims == other.phys_dims
                and self.nodes == other.nodes)

    def __repr__(self):
        return (f"TreeTopology({len(self.nodes)} sites, root={self.root}, "
                f"{len(self.edges)} edges)")

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "root": self.root,
            "phys_dims": {str(s): d for s, d in self.phys_dims.items()},
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TreeTopology":
        if not isinstance(data, dict):
            raise ValidationError("tree JSON must be an object")
        try:
            edges = data["edges"]
            root = data["root"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"tree JSON missing field: {exc}") from exc
        phys = data.get("phys_dims", {})
        if not isinstance(phys, dict):
            raise ValidationError("tree JSON 'phys_dims' must be an object "
                                  "mapping site ids to dimensions")
        # int() would read true as 1 and round 2.5 down to 2
        if isinstance(root, (bool, float)):
            raise ValidationError(f"root {root!r} is not an integer site id")
        for edge in edges if isinstance(edges, list) else ():
            if isinstance(edge, list) and any(isinstance(a, (bool, float))
                                              for a in edge):
                raise ValidationError(f"edge {edge!r} must be a pair of "
                                      f"integer site ids")
        for s, d in phys.items():
            if isinstance(d, (bool, float)):
                raise ValidationError(f"phys_dims entry {s!r}: {d!r} is not "
                                      f"an integer")
        nodes = None
        if not edges:
            nodes = [root]
        return cls(edges, root, phys, nodes=nodes)

