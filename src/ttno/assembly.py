"""Read TTNO tensors off a state diagram, contract small TTNOs densely, and
dump them to JSON.

Leg convention: parent bond first, then child bonds by ascending child id,
then the two physical legs (row = output, column = input).  The root has no
parent leg; its trivial leg is dropped.

Dump format ``ttno-v2`` is block-sparse: ``{"format": "ttno-v2", "tree":
..., "tensors": {"<site>": {"legs", "shape", "index", "re", "im"}}}``.
``index`` lists the bond multi-index of every stored d x d block in
row-major order; ``re`` and ``im`` hold those blocks' entries, row-major and
concatenated.  A block is stored when any of its entries has a non-zero bit
pattern, so ``-0.0`` survives and a dump reads back bit-identical.  The
dense ``ttno-v1`` format is not read: rebuild such a dump from its inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diagram import StateDiagram
from .errors import DenseCapExceededError, ValidationError
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

    def stored_blocks(self) -> np.ndarray:
        """Boolean mask of shape ``bond_dims``: True where the d x d block
        holds an entry whose bit pattern is not zero (so ``-0.0`` counts).
        These are the blocks a dump stores."""
        bits = np.ascontiguousarray(self.elements, dtype=complex)
        bits = bits.view(np.uint64).reshape(self.bond_dims + (-1,))
        return bits.any(axis=-1)

    def nonzero_slices(self) -> int:
        return int(np.count_nonzero(self.stored_blocks()))


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


def _zeros(site: int, shape: tuple[int, ...]) -> np.ndarray:
    """The zero tensor of ``site``; DenseCapExceededError naming the site
    and shape if it cannot be allocated."""
    try:
        return np.zeros(shape, dtype=complex)
    except (MemoryError, ValueError) as exc:
        # ValueError: the byte count overflows the address space
        gib = math.prod(shape) * np.dtype(complex).itemsize / 2 ** 30
        raise DenseCapExceededError(
            f"site {site}: the dense tensor of shape {shape} ({gib:.2f} GiB) "
            f"cannot be allocated; shrink the system") from exc


def emit_tensors(diagram: StateDiagram,
                 registry: OperatorRegistry | None = None) -> TTNO:
    """Dense tensors from the diagram; hyperedges on the same multi-index
    accumulate additively (their label matrices sum into one element).

    A tensor too large to allocate raises DenseCapExceededError naming its
    site and shape."""
    registry = registry or DEFAULT_REGISTRY
    index = assign_indices(diagram)
    tree = diagram.tree
    dims = diagram.bond_dimensions()
    tensors: dict[int, TTNOTensor] = {}
    for s in tree.nodes:
        legs = canonical_legs(tree, s)
        d = tree.phys_dim(s)
        arr = _zeros(s, tuple(dims[e] for e in legs) + (d, d))
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
    """Stored operator-valued entries: stored blocks (the non-zero bond
    slices, see ``TTNOTensor.stored_blocks``) times d^2."""
    return sum(t.nonzero_slices() * t.phys_dim ** 2
               for t in ttno.tensors.values())


def dense_element_count(ttno: TTNO) -> int:
    """Allocated entries: full bond-dimension products times d^2."""
    return sum(t.elements.size for t in ttno.tensors.values())


# -- dump format ------------------------------------------------------------

# rows (floats, or block indices) per json.dumps call when writing a dump:
# keeps every temporary list and string small
_DUMP_CHUNK = 4096


def _write_list(fh, rows: np.ndarray) -> None:
    """``json.dumps(rows.tolist())``, encoded a slice of rows at a time."""
    fh.write("[")
    for i in range(0, len(rows), _DUMP_CHUNK):
        if i:
            fh.write(", ")
        fh.write(json.dumps(rows[i:i + _DUMP_CHUNK].tolist())[1:-1])
    fh.write("]")


def _parsed_floats(obj: dict) -> dict:
    """``json.load`` hook: a tensor entry's ``re`` and ``im`` lists become
    float arrays as soon as the entry is parsed, so that only one tensor's
    floats are Python objects at a time.  A value that is not a flat list
    of numbers is left as parsed, for ``read_ttno`` to reject."""
    for key in ("re", "im"):
        if isinstance(obj.get(key), list):
            try:
                values = np.array(obj[key])
            except (TypeError, ValueError):  # ragged nesting
                continue
            if values.ndim == 1 and values.dtype.kind in "fi":
                obj[key] = values.astype(float)
    return obj


def write_ttno(ttno: TTNO, path: str) -> None:
    """Write the ``ttno-v2`` dump of ``ttno`` (layout in the module
    docstring).

    The bytes are those of ``json.dump`` on the whole object, but every
    piece goes through the C encoder of ``json.dumps`` and no list is held
    whole.
    """
    with open(path, "w") as fh:
        fh.write('{"format": "ttno-v2", "tree": ')
        fh.write(json.dumps(ttno.tree.to_json_dict()))
        fh.write(', "tensors": {')
        for i, (s, t) in enumerate(ttno.tensors.items()):
            stored = t.stored_blocks()
            entries = t.elements[stored].reshape(-1)
            fh.write(f'{", " if i else ""}"{s}": {{"legs": '
                     f'{json.dumps([list(e) for e in t.legs])}, "shape": '
                     f'{json.dumps(list(t.elements.shape))}, "index": ')
            _write_list(fh, np.argwhere(stored))
            fh.write(', "re": ')
            _write_list(fh, entries.real)
            fh.write(', "im": ')
            _write_list(fh, entries.imag)
            fh.write("}")
        fh.write("}}")


def _read_tensor(tree: TreeTopology, s: int, td) -> TTNOTensor:
    """Check one parsed tensor entry against the tree and scatter its
    blocks into a zero tensor of its shape."""
    def bad(message: str) -> ValidationError:
        return ValidationError(f"ttno dump, site {s}: {message}")

    if not isinstance(td, dict):
        raise bad("the tensor entry must be an object")
    for key in ("legs", "shape", "index", "re", "im"):
        if key not in td:
            raise bad(f"the tensor has no {key!r}")
    legs = canonical_legs(tree, s)
    if td["legs"] != [list(e) for e in legs]:
        raise bad(f"legs {td['legs']!r} differ from the tree's "
                  f"{[list(e) for e in legs]}")
    shape, d = td["shape"], tree.phys_dim(s)
    if (not isinstance(shape, list) or len(shape) != len(legs) + 2
            or not all(type(n) is int and n >= 1 for n in shape)):
        raise bad(f"shape {shape!r} is not a list of {len(legs) + 2} "
                  f"positive integers")
    if shape[-2:] != [d, d]:
        raise bad(f"physical dimensions {shape[-2:]} disagree with the "
                  f"tree's {d}")
    bond, rows, seen = shape[:-2], td["index"], set()
    if not isinstance(rows, list):
        raise bad("'index' must be a list of bond multi-indices")
    for r in rows:
        if not (isinstance(r, list) and len(r) == len(bond)
                and all(type(i) is int for i in r)):
            raise bad(f"block index {r!r} is not a list of {len(bond)} "
                      f"integers")
        if not all(0 <= i < n for i, n in zip(r, bond)):
            raise bad(f"block index {r} is out of range for bond "
                      f"dimensions {bond}")
        if tuple(r) in seen:
            raise bad(f"block index {r} is listed twice")
        seen.add(tuple(r))
    for key in ("re", "im"):
        if not isinstance(td[key], np.ndarray):  # left so by the hook
            raise bad(f"{key!r} must be a flat list of numbers")
        if td[key].size != len(rows) * d * d:
            raise bad(f"{key!r} holds {td[key].size} numbers, not "
                      f"{len(rows)} blocks x {d * d}")
    arr = _zeros(s, tuple(shape))
    strides = [math.prod(bond[i + 1:]) for i in range(len(bond))]
    flat = (np.array(rows, dtype=np.int64).reshape(len(rows), len(bond))
            @ np.array(strides, dtype=np.int64))
    blocks = arr.reshape(-1, d * d)
    # real and imaginary parts are set apart: re + 1j * im would turn an
    # imaginary -0.0 into +0.0
    blocks.real[flat] = td["re"].reshape(-1, d * d)
    blocks.imag[flat] = td["im"].reshape(-1, d * d)
    return TTNOTensor(s, legs, arr)


def read_ttno(path: str) -> TTNO:
    """Read a ``ttno-v2`` dump back into dense tensors, bit-identical to
    the ones written.  Malformed or inconsistent content raises
    ValidationError naming the site or field at fault; a ``ttno-v1`` dump
    must be rebuilt from its inputs."""
    try:
        with open(path) as fh:
            data = json.load(fh, object_hook=_parsed_floats)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"ttno dump {path}: not valid JSON "
                              f"({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError("ttno dump: must be a JSON object")
    if data.get("format") != "ttno-v2":
        raise ValidationError(
            f"ttno dump: format {data.get('format')!r} is not read, only "
            f"'ttno-v2'; rebuild the dump with `ttno build` or `ttno oqs`")
    tree = TreeTopology.from_json_dict(data.get("tree"))
    entries = data.get("tensors")
    if not isinstance(entries, dict):
        raise ValidationError("ttno dump: 'tensors' must be an object "
                              "mapping site ids to tensors")
    sites = {str(s): s for s in tree.nodes}
    for key, s in sites.items():
        if key not in entries:
            raise ValidationError(f"ttno dump, site {s}: no tensor")
    for key in entries:
        if key not in sites:
            raise ValidationError(f"ttno dump: tensor for {key!r}, which is "
                                  f"not a site of the tree")
    ttno = TTNO(tree, {sites[k]: _read_tensor(tree, sites[k], td)
                       for k, td in entries.items()})
    ttno.bond_dimensions()  # shared-edge consistency
    return ttno
