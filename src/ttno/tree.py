"""Rooted unordered trees of quantum sites.

Sites are opaque non-negative integers.  The tree is stored undirected with
the root recorded separately, so re-rooting is a cheap pure function.
Canonical iteration order is ascending site id everywhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError

Edge = tuple[int, int]


def edge_key(a: int, b: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Route:
    """The unique simple path between two sites."""

    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]


class LeafRooting:
    """A tree rooted at its last leaf ``leaf = tree.leaves()[-1]``.

    ``incident[s]`` is ``tree.incident_edges(s)``.  ``up[s]`` is the
    neighbour of ``s`` toward ``leaf`` (None at ``leaf``) and ``kids[s]``
    the other neighbours, in neighbour order; ``far[s]`` names each edge of
    ``s``, in neighbour order, by its endpoint farther from ``leaf``.
    ``up_slot[s]`` is the position of ``up[s]`` in ``neighbours(s)`` and
    ``down_slot[s]`` that of ``s`` in ``neighbours(up[s])``.  ``order``
    lists every site after its ``up``.  ``depth[s]`` counts the edges to
    ``leaf``, and ``span[s]`` is the half-open preorder range of the sites
    at or below ``s``, so ``a`` is ``b`` or lies toward ``leaf`` from it
    exactly when ``span[a][0] <= span[b][0] < span[a][1]``.
    """

    def __init__(self, tree: "TreeTopology"):
        self.leaf = leaf = tree.leaves()[-1]
        nbrs = {s: tree.neighbours(s) for s in tree.nodes}
        self.incident = {s: tree.incident_edges(s) for s in tree.nodes}
        up: dict[int, int | None] = {leaf: None}
        depth = {leaf: 0}
        order = [leaf]
        for s in order:
            for n in nbrs[s]:
                if n not in up:
                    up[n] = s
                    depth[n] = depth[s] + 1
                    order.append(n)
        self.up, self.depth, self.order = up, depth, tuple(order)
        self.kids = {s: tuple(n for n in nbrs[s] if n != up[s])
                     for s in order}
        self.far = {s: tuple(s if n == up[s] else n for n in nbrs[s])
                    for s in order}
        self.up_slot = {s: nbrs[s].index(up[s]) for s in order[1:]}
        self.down_slot = {s: nbrs[up[s]].index(s) for s in order[1:]}
        size = {}
        for s in reversed(order):
            size[s] = 1 + sum(size[c] for c in self.kids[s])
        first = {leaf: 0}
        for s in order:
            nxt = first[s] + 1
            for c in self.kids[s]:
                first[c] = nxt
                nxt += size[c]
        self.span = {s: (first[s], first[s] + size[s]) for s in order}


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

        self._adj: dict[int, tuple[int, ...]] = {s: () for s in self.nodes}
        adj: dict[int, list[int]] = {s: [] for s in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for s in self.nodes:
            self._adj[s] = tuple(sorted(adj[s]))

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

        # Rooted structure via BFS from the root; also checks connectivity.
        parent: dict[int, int | None] = {root: None}
        depth: dict[int, int] = {root: 0}
        queue = deque([root])
        while queue:
            s = queue.popleft()
            for n in self._adj[s]:
                if n not in parent:
                    parent[n] = s
                    depth[n] = depth[s] + 1
                    queue.append(n)
        if len(parent) != len(self.nodes):
            raise ValidationError("tree is not connected")
        self._parent = parent
        self._depth_of = depth
        children: dict[int, list[int]] = {s: [] for s in self.nodes}
        for s in self.nodes:
            p = parent[s]
            if p is not None:
                children[p].append(s)
        self._children = {s: tuple(sorted(c)) for s, c in children.items()}

    # -- structure queries -------------------------------------------------

    def _check(self, s: int) -> int:
        if s not in self._parent:
            raise ValidationError(f"unknown site {s}")
        return s

    def neighbours(self, s: int) -> tuple[int, ...]:
        return self._adj[self._check(s)]

    def parent(self, s: int) -> int | None:
        return self._parent[self._check(s)]

    def children(self, s: int) -> tuple[int, ...]:
        return self._children[self._check(s)]

    def leaves(self) -> tuple[int, ...]:
        return tuple(s for s in self.nodes if not self._children[s])

    def is_leaf(self, s: int) -> bool:
        return not self._children[self._check(s)]

    def depth(self) -> int:
        return max(self._depth_of.values())

    def phys_dim(self, s: int) -> int:
        return self.phys_dims[self._check(s)]

    def incident_edges(self, s: int) -> tuple[Edge, ...]:
        return tuple(edge_key(s, n) for n in self.neighbours(s))

    # -- metric ------------------------------------------------------------

    def route(self, a: int, b: int) -> Route:
        """Unique path from ``a`` to ``b`` (inclusive)."""
        self._check(a)
        self._check(b)
        # climb to the common ancestor using root depths
        left, right = [a], [b]
        x, y = a, b
        while x != y:
            if self._depth_of[x] >= self._depth_of[y]:
                x = self._parent[x]
                left.append(x)
            else:
                y = self._parent[y]
                right.append(y)
        nodes = tuple(left + right[-2::-1])
        edges = tuple(edge_key(u, v) for u, v in zip(nodes, nodes[1:]))
        return Route(nodes, edges)

    def distance(self, a: int, b: int) -> int:
        return len(self.route(a, b).edges)

    def subtree(self, s: int) -> set[int]:
        """Sites whose route to the root passes through ``s`` (incl. ``s``)."""
        self._check(s)
        out = {s}
        stack = list(self._children[s])
        while stack:
            c = stack.pop()
            out.add(c)
            stack.extend(self._children[c])
        return out

    @cached_property
    def last_leaf_rooting(self) -> LeafRooting:
        """This tree rooted at its last leaf, computed once per tree."""
        return LeafRooting(self)

    # -- misc ----------------------------------------------------------------

    def re_root(self, new_root: int) -> "TreeTopology":
        """Same undirected tree, rooted elsewhere."""
        self._check(new_root)
        return TreeTopology(self.edges, new_root, dict(self.phys_dims),
                            nodes=self.nodes)

    def component_without_edge(self, edge: Edge, anchor: int) -> set[int]:
        """Sites reachable from ``anchor`` without crossing ``edge``."""
        e = edge_key(*edge)
        seen = {anchor}
        stack = [anchor]
        while stack:
            s = stack.pop()
            for n in self._adj[s]:
                if edge_key(s, n) == e or n in seen:
                    continue
                seen.add(n)
                stack.append(n)
        return seen

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
        phys = data.get("phys_dims") or {}
        if not isinstance(phys, dict):
            raise ValidationError("tree JSON 'phys_dims' must be an object "
                                  "mapping site ids to dimensions")
        nodes = None
        if not edges:
            nodes = [root]
        return cls(edges, root, phys, nodes=nodes)

