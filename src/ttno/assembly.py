"""Read TTNO tensors off a state diagram, and contract small TTNOs densely.

Leg convention: parent bond first, then child bonds by ascending child id,
then the two physical legs (row = output, column = input).  The root has no
parent leg; its trivial leg is dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diagram import StateDiagram
from .errors import ValidationError
from .operators import DEFAULT_REGISTRY, OperatorRegistry, dense_layout
from .tree import Edge, TreeTopology, edge_key


def assign_indices(diagram: StateDiagram) -> dict[Edge, dict[int, int]]:
    """Per edge, vertex uid -> bond index, numbered by insertion order
    within each edge collection."""
    return {e: {v.uid: i for i, v in enumerate(vs)}
            for e, vs in diagram.w.items()}


def canonical_legs(tree: TreeTopology, site: int) -> tuple[Edge, ...]:
    """Bond-leg order at a site: parent edge first, then children ascending."""
    legs = []
    p = tree.parent(site)
    if p is not None:
        legs.append(edge_key(p, site))
    legs.extend(edge_key(site, c) for c in tree.children(site))
    return tuple(legs)


@dataclass
class TTNOTensor:
    site: int
    legs: tuple[Edge, ...]
    elements: np.ndarray  # shape (*bond_dims, d, d)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return self.elements.shape[:-2]

    @property
    def phys_dim(self) -> int:
        return self.elements.shape[-1]

    def nonzero_slices(self) -> int:
        flat = self.elements.reshape(-1, self.phys_dim, self.phys_dim)
        return int(np.count_nonzero(flat.any(axis=(1, 2))))


@dataclass
class TTNO:
    tree: TreeTopology
    tensors: dict[int, TTNOTensor]

    def bond_dimensions(self) -> dict[Edge, int]:
        dims: dict[Edge, int] = {}
        for t in self.tensors.values():
            for e, d in zip(t.legs, t.bond_dims):
                if dims.setdefault(e, d) != d:
                    raise ValidationError(f"bond dimension mismatch on {e}")
        return dims


def emit_tensors(diagram: StateDiagram,
                 registry: OperatorRegistry | None = None) -> TTNO:
    """Dense tensors from the diagram; hyperedges on the same multi-index
    accumulate additively (their label matrices sum into one element)."""
    registry = registry or DEFAULT_REGISTRY
    index = assign_indices(diagram)
    tree = diagram.tree
    dims = diagram.bond_dimensions()
    tensors: dict[int, TTNOTensor] = {}
    for s in tree.nodes:
        legs = canonical_legs(tree, s)
        d = tree.phys_dim(s)
        shape = tuple(dims[e] for e in legs) + (d, d)
        arr = np.zeros(shape, dtype=complex)
        for y in diagram.eps[s]:
            idx = tuple(index[e][y.connected[e].uid] for e in legs)
            arr[idx] += registry.resolve(y.op)
        tensors[s] = TTNOTensor(s, legs, arr)
    return TTNO(tree, tensors)


def contract_to_dense(ttno: TTNO, ordering=None,
                      cap: int | None = None) -> np.ndarray:
    """Full contraction over all bond legs, as a dense matrix.

    The output row/column indices run over the physical spaces in the given
    site ordering (default: ascending site id), consistent with
    :func:`ttno.operators.to_dense`.
    """
    tree = ttno.tree
    ordering, total = dense_layout(tree, ordering, cap)

    def sub(site: int) -> tuple[np.ndarray, list[int]]:
        """Contract the subtree at ``site``.

        Returns an array shaped (parent_dim, OUT, IN) -- parent axis omitted
        at the root -- plus the site order of the flattened OUT/IN axes.
        """
        t = ttno.tensors[site]
        arr = t.elements
        kids = tree.children(site)
        has_parent = tree.parent(site) is not None
        # current axes: (parent?, child_1..child_k, d_out, d_in)
        sites_order = [site]
        # start with OUT/IN = this site's physical legs
        n_child = len(kids)
        for i, c in enumerate(kids):
            carr, csites = sub(c)
            child_axis = (1 if has_parent else 0)  # children consumed in order
            # arr axes: (parent?, child_i..child_k, OUT, IN)
            arr = np.tensordot(arr, carr, axes=([child_axis], [0]))
            # new axes: (parent?, child_{i+1}..k, OUT, IN, OUT_c, IN_c)
            base = (1 if has_parent else 0) + (n_child - i - 1)
            out_dim = arr.shape[base]
            in_dim = arr.shape[base + 1]
            oc = arr.shape[base + 2]
            ic = arr.shape[base + 3]
            arr = np.moveaxis(arr, base + 2, base + 1)
            # axes: (..., OUT, OUT_c, IN, IN_c)
            new_shape = arr.shape[:base] + (out_dim * oc, in_dim * ic)
            arr = arr.reshape(new_shape)
            sites_order.extend(csites)
        return arr, sites_order

    arr, sites_order = sub(tree.root)
    # arr has shape (OUT, IN) with the site order of "sites_order"
    dims = [tree.phys_dim(s) for s in sites_order]
    arr = arr.reshape(dims + dims)
    pos = {s: i for i, s in enumerate(sites_order)}
    n = len(sites_order)
    perm = [pos[s] for s in ordering] + [pos[s] + n for s in ordering]
    arr = arr.transpose(perm)
    return arr.reshape(total, total)


def element_count(ttno: TTNO) -> int:
    """Stored operator-valued entries: non-zero bond slices times d^2."""
    return sum(t.nonzero_slices() * t.phys_dim ** 2
               for t in ttno.tensors.values())


def dense_element_count(ttno: TTNO) -> int:
    """Allocated entries: full bond-dimension products times d^2."""
    return sum(t.elements.size for t in ttno.tensors.values())


# -- dump format ------------------------------------------------------------

def ttno_to_json_dict(ttno: TTNO) -> dict:
    tensors = {}
    for s, t in ttno.tensors.items():
        flat = t.elements.reshape(-1)
        tensors[str(s)] = {
            "legs": [list(e) for e in t.legs],
            "shape": list(t.elements.shape),
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }
    return {"format": "ttno-v1",
            "tree": ttno.tree.to_json_dict(),
            "tensors": tensors}


def ttno_from_json_dict(data: dict) -> TTNO:
    if data.get("format") != "ttno-v1":
        raise ValidationError("not a ttno-v1 dump")
    tree = TreeTopology.from_json_dict(data["tree"])
    tensors = {}
    for s_str, td in data["tensors"].items():
        s = int(s_str)
        shape = tuple(td["shape"])
        arr = (np.array(td["re"], dtype=float)
               + 1j * np.array(td["im"], dtype=float)).reshape(shape)
        legs = tuple(edge_key(*e) for e in td["legs"])
        tensors[s] = TTNOTensor(s, legs, arr)
    ttno = TTNO(tree, tensors)
    ttno.bond_dimensions()  # shared-edge consistency
    return ttno


def write_ttno(ttno: TTNO, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(ttno_to_json_dict(ttno), fh)


def read_ttno(path: str) -> TTNO:
    with open(path) as fh:
        return ttno_from_json_dict(json.load(fh))
