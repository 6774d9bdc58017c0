"""Rooted unordered trees of quantum sites.

Sites are opaque non-negative integers: the endpoints of the edges, or the
root alone for a single-site tree (``TreeTopology([], root)``).  The tree is
stored undirected with the root recorded separately, so re-rooting is a
cheap pure function.  Canonical iteration order is ascending site id
everywhere.

Every rooted view of a tree is a :class:`Rooting`.  ``TreeTopology.rooting``,
at the chosen root, answers the parent, child, leaf, depth, distance and
subtree queries; ``TreeTopology.last_leaf_rooting`` is the view that diagram
construction and the rank oracle share, and ``Rooting.steiner`` gives both
the Steiner tree of a support.
"""

from __future__ import annotations

import numbers
from functools import cached_property

from .errors import ValidationError

Edge = tuple[int, int]


def as_int(x) -> int | None:
    """``x`` as an int if it is an integer other than a bool, else None;
    ``int()`` would read true as 1 and round 2.5 down to 2."""
    if type(x) is int:
        return x
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    return None


def json_key_int(key: str) -> int | None:
    """The int that a JSON object key spells, if it spells it as ``str()``
    does, else None; ``int()`` would read ``"1_0"`` as 10 and ``" 02"`` as
    2."""
    try:
        n = int(key)
    except ValueError:
        return None
    return n if str(n) == key else None


class UniqueKeys:
    """``object_pairs_hook`` for ``json.load``: each object becomes a dict,
    but the first key that one object gives twice, whose last value the
    default would keep silently, is named by ``repeat``, with the keys and
    list positions that lead to it."""
    repeat = _at = None

    def __call__(self, pairs: list) -> dict:
        obj = dict(pairs)
        if self._at is not None:  # climbing from the object at fault
            for k, v in pairs:
                for i, x in enumerate(v if type(v) is list else [v]):
                    if x is self._at:
                        self._path[:0] = [k] if x is v else [k, i]
                        self._at = obj
                        self.repeat = (f"{self._key} in "
                                       f"{' > '.join(map(str, self._path))}")
        elif len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            self.repeat = self._key = f"key {key!r} is given twice"
            self._at, self._path = obj, []
        return obj


def _known_keys(obj: dict, where: str, *allowed: str) -> None:
    """Refuse the first key of ``obj`` that nothing reads, which would be
    dropped silently (``coef`` for ``coeff``); ``where`` names ``obj``."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where}: unknown key {key!r}, not one "
                                  f"of {', '.join(map(repr, allowed))}")


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
        Iterable of site pairs; the sites are their endpoints.  Empty for
        the single-site tree at ``root``.
    root:
        Root site.  Must be an endpoint of an edge if there are any.
    phys_dims:
        Optional map site -> physical dimension (default 2 per site).
    """

    def __init__(self, edges, root, phys_dims=None):
        site_id = as_int(root)
        if site_id is None:
            raise ValidationError(f"root {root!r} is not an integer site id")
        root = site_id
        edge_set: set[Edge] = set()
        node_set: set[int] = set()
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                a = b = None
            if type(a) is not int or type(b) is not int:  # as_int's fast path
                a, b = as_int(a), as_int(b)
                if a is None or b is None:
                    raise ValidationError(f"edge {edge!r} must be a pair of "
                                          f"integer site ids")
            if a == b:
                raise ValidationError(f"self-loop at site {a}")
            if a < 0 or b < 0:
                raise ValidationError("site ids must be non-negative")
            e = (a, b) if a < b else (b, a)
            if e in edge_set:
                raise ValidationError(f"duplicate edge {e}")
            edge_set.add(e)
            node_set.add(a)
            node_set.add(b)
        if not edge_set:
            if root < 0:
                raise ValidationError("site ids must be non-negative")
            node_set.add(root)
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

        # sorted edges (a, b), a < b, list each site's neighbours and edges
        # in ascending order; ``incident[s]`` is the edges of ``s`` in
        # neighbour order, for every rooting
        adj: dict[int, list[int]] = {s: [] for s in self.nodes}
        incident: dict[int, list[Edge]] = {s: [] for s in self.nodes}
        for e in self.edges:
            a, b = e
            adj[a].append(b)
            adj[b].append(a)
            incident[a].append(e)
            incident[b].append(e)
        self._adj = {s: tuple(ns) for s, ns in adj.items()}
        self.incident = {s: tuple(es) for s, es in incident.items()}

        self.phys_dims: dict[int, int] = {s: 2 for s in self.nodes}
        if phys_dims:
            keys: dict[int, object] = {}
            for key, dim in phys_dims.items():  # as_int's fast path inline
                s = key if type(key) is int else (
                    json_key_int(key) if isinstance(key, str) else as_int(key))
                d = dim if type(dim) is int else as_int(dim)
                if s is None or d is None:
                    raise ValidationError(f"phys_dims entry {key!r}: {dim!r} "
                                          f"is not an integer pair")
                if s in keys:
                    raise ValidationError(f"phys_dims keys {keys[s]!r} and "
                                          f"{key!r} both name site {s}")
                keys[s] = key
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
    def last_leaf_rooting(self) -> Rooting:
        """This tree rooted at its last leaf, ``leaves()[-1]``, computed
        once per tree."""
        return Rooting(self._adj, self.leaves()[-1])

    # -- misc ----------------------------------------------------------------

    def re_root(self, new_root: int) -> "TreeTopology":
        """Same undirected tree, rooted elsewhere."""
        self._check(new_root)
        return TreeTopology(self.edges, new_root, dict(self.phys_dims))

    def __eq__(self, other):
        return (isinstance(other, TreeTopology)
                and self.edges == other.edges
                and self.root == other.root
                and self.phys_dims == other.phys_dims)

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
        _known_keys(data, "tree JSON", "root", "edges", "phys_dims")
        try:
            edges = data["edges"]
            root = data["root"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"tree JSON missing field: {exc}") from exc
        if not isinstance(edges, list):
            raise ValidationError("tree JSON 'edges' must be a list of site "
                                  "pairs")
        phys = data.get("phys_dims", {})
        if not isinstance(phys, dict):
            raise ValidationError("tree JSON 'phys_dims' must be an object "
                                  "mapping site ids to dimensions")
        return cls(edges, root, phys)

