"""Read TTNO tensors off a state diagram, contract small TTNOs densely, and
dump them to JSON.

Leg convention: parent bond first, then child bonds by ascending child id,
then the two physical legs (row = output, column = input).  The root has no
parent leg; its trivial leg is dropped.

A tensor is held as its stored d x d blocks, in the layout of the dump:
``index`` lists the bond multi-index of every stored block in row-major
order and ``blocks`` holds those blocks.  A block is stored when any of its
entries has a non-zero bit pattern, so ``-0.0`` survives and a dump reads
back bit-identical.  The dense array is built only on request, to verify.

Dump format ``ttno-v2``: ``{"format": "ttno-v2", "tree": ..., "tensors":
{"<site>": {"legs", "shape", "index", "re", "im"}}}``, where ``re`` and
``im`` hold the blocks' entries, row-major and concatenated, all finite.
Writer and reader hold one tensor's entries as Python objects at a time:
one ``json.dumps`` call per tensor, one array per parsed list.  The dense
``ttno-v1`` format is not read: rebuild such a dump from its inputs.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diagram import StateDiagram
from .errors import DenseCapExceededError, ValidationError
from .operators import DEFAULT_REGISTRY, OperatorRegistry, dense_layout
from .tree import Edge, Rooting, TreeTopology


def canonical_legs(tree: TreeTopology, site: int) -> tuple[Edge, ...]:
    """Bond-leg order at a site: parent edge first, then children ascending."""
    tree.parent(site)  # checks the site
    return _in_leg_order(tree.rooting, site, tree.incident[site])


def _in_leg_order(r: Rooting, s: int, items):
    """``items``, one per neighbour of ``s`` in neighbour order, as a tuple in
    leg order: the parent's first, then the kids' in their order."""
    if s == r.root:
        return tuple(items)
    j = r.up_slot[s]
    return (items[j], *items[:j], *items[j + 1:])


@dataclass(eq=False)
class TTNOTensor:
    """One site's tensor of shape ``(*bond_dims, d, d)``, held as its stored
    blocks: ``blocks[k]`` sits at bond multi-index ``index[k]``.  ``==`` is
    identity; compare ``shape``, ``index`` and ``blocks`` for content."""
    site: int
    legs: tuple[Edge, ...]
    shape: tuple[int, ...]
    index: np.ndarray  # (n_blocks, n_legs) int64, rows in row-major order
    blocks: np.ndarray  # (n_blocks, d, d) complex

    @classmethod
    def from_blocks(cls, site: int, legs: tuple[Edge, ...],
                    shape: tuple[int, ...], pairs) -> "TTNOTensor":
        """The tensor holding the sums of ``(multi-index, d x d matrix)``
        pairs: matrices on one multi-index add up in pair order, starting
        from a block of ``+0.0``; sums whose entries are all ``+0.0`` are
        not stored.  A sum that overflows raises ValidationError naming the
        site and the multi-index."""
        d, sums = shape[-1], {}
        for idx, matrix in pairs:
            if idx in sums:
                with np.errstate(over="ignore", invalid="ignore"):
                    matrix = sums[idx] + matrix
                if not np.isfinite(matrix).all():
                    raise ValidationError(
                        f"site {site}: the matrices summed into block {idx} "
                        f"overflow to non-finite entries")
            sums[idx] = matrix
        keys = sorted(sums)
        index = np.array(keys, dtype=np.int64).reshape(len(keys), len(legs))
        blocks = np.array([sums[k] for k in keys], complex).reshape(-1, d, d)
        blocks += 0.0  # as if summed from +0.0: -0.0 entries become +0.0
        kept = blocks.view(np.uint64).any(axis=(1, 2))
        if np.count_nonzero(kept) < len(kept):
            index, blocks = index[kept], blocks[kept]
        return cls(site, tuple(legs), tuple(shape), index, blocks)

    def __repr__(self):
        return (f"TTNOTensor(site={self.site}, shape={self.shape}, "
                f"blocks={len(self.index)})")

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return self.shape[:-2]

    @property
    def phys_dim(self) -> int:
        return self.shape[-1]

    @property
    def elements(self) -> np.ndarray:
        """The dense tensor, built read-only on each access; a tensor too
        large to allocate raises DenseCapExceededError naming its site and
        shape."""
        try:
            arr = np.zeros(self.shape, dtype=complex)
        except (MemoryError, ValueError) as exc:
            # ValueError: the byte count overflows the address space
            gib = math.prod(self.shape) * np.dtype(complex).itemsize / 2 ** 30
            raise DenseCapExceededError(
                f"site {self.site}: the dense tensor of shape {self.shape} "
                f"({gib:.2f} GiB) cannot be allocated; shrink the "
                f"system") from exc
        if len(self.blocks):  # arr[()] cannot take zero blocks
            arr[tuple(self.index.T)] = self.blocks
        arr.flags.writeable = False
        return arr


@dataclass(eq=False)
class TTNO:
    tree: TreeTopology
    tensors: dict[int, TTNOTensor]

    def __repr__(self):
        return f"TTNO({self.tree!r}, tensors={len(self.tensors)})"

    def bond_dimensions(self) -> dict[Edge, int]:
        dims: dict[Edge, int] = {}
        for t in self.tensors.values():
            for e, d in zip(t.legs, t.bond_dims):
                if dims.setdefault(e, d) != d:
                    raise ValidationError(f"bond dimension mismatch on {e}")
        return dims


def emit_tensors(diagram: StateDiagram,
                 registry: OperatorRegistry | None = None) -> TTNO:
    """Tensors from the diagram.  A vertex's bond index is its position in
    its edge's collection; a hyperedge ``(op_id, *uids)`` puts the matrix of
    ``op_id``, resolved once per emission, at the bond indices of its
    vertices in leg order.  Hyperedges on the same multi-index accumulate
    additively (their matrices sum into one block).  An operator whose
    matrix cannot be allocated raises DenseCapExceededError naming it, its
    dimension and the lowest site of that dimension; one whose matrix, or
    a block sum, is not finite raises ValidationError naming the site."""
    registry = registry or DEFAULT_REGISTRY
    tree = diagram.tree
    r = tree.rooting
    # uid -> bond index
    index = [0] * diagram.n_vertices()
    for vs in diagram.w.values():
        for i, v in enumerate(vs):
            index[v] = i
    matrices = {}
    for k, op in diagram.ops.items():
        try:
            # an overflow is refused below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                m = matrices[k] = registry.resolve(op)
        except ValidationError:
            raise
        except (MemoryError, ValueError) as exc:
            # ValueError: the byte count overflows the address space
            site = min(s for s in tree.nodes if tree.phys_dim(s) == op.dim)
            gib = op.dim ** 2 * np.dtype(complex).itemsize / 2 ** 30
            raise DenseCapExceededError(
                f"site {site}: the {op.dim} x {op.dim} matrix of operator "
                f"{op.label!r} ({gib:.2f} GiB) cannot be allocated; shrink "
                f"the physical dimension") from exc
        if not np.isfinite(m).all():
            site = min(s for s in tree.nodes
                       if any(y[0] == k for y in diagram.eps[s]))
            raise ValidationError(
                f"site {site}: the matrix of operator {op.label!r} "
                f"overflows to non-finite entries")
    dims, eps, phys = diagram.bond_dimensions(), diagram.eps, tree.phys_dims
    tensors: dict[int, TTNOTensor] = {}
    for s in tree.nodes:
        legs = _in_leg_order(r, s, tree.incident[s])
        # where each leg's vertex sits in a hyperedge key, after its op_id
        slots = _in_leg_order(r, s, range(1, len(legs) + 1))
        pairs = [(tuple([index[y[i]] for i in slots]), matrices[y[0]])
                 for y in eps[s]]
        tensors[s] = TTNOTensor.from_blocks(
            s, legs, (*[dims[e] for e in legs], phys[s], phys[s]), pairs)
    return TTNO(tree, tensors)


def contract_to_dense(ttno: TTNO, ordering=None) -> np.ndarray:
    """Full contraction over all bond legs, as a dense matrix.

    The output row/column indices run over the physical spaces in the given
    site ordering (default: ascending site id), consistent with
    :func:`ttno.operators.to_dense`.
    """
    tree = ttno.tree
    ordering, total = dense_layout(tree, ordering)
    # per contracted subtree: an array shaped (parent_dim, OUT, IN) --
    # parent axis omitted at the root -- and the sites of dimension > 1
    # that the OUT/IN axes run over, slowest first
    done: dict[int, tuple[np.ndarray, list[int]]] = {}
    for site in reversed(tree.rooting.order):
        arr = ttno.tensors[site].elements
        lead = 0 if tree.parent(site) is None else 1
        sites = [site] if tree.phys_dim(site) > 1 else []
        for c in tree.children(site):  # consumed in leg order
            carr, csites = done.pop(c)
            # (parent?, child_i..child_k, OUT, IN)
            # -> (parent?, child_{i+1}..child_k, OUT, IN, OUT_c, IN_c)
            arr = np.tensordot(arr, carr, axes=([lead], [0]))
            *rest, out_dim, in_dim, oc, ic = arr.shape
            # -> (..., OUT, OUT_c, IN, IN_c), merged pairwise
            arr = np.moveaxis(arr, -2, -3).reshape(
                tuple(rest) + (out_dim * oc, in_dim * ic))
            sites += csites
        done[site] = (arr, sites)
    arr, sites = done[tree.root]
    dims = [tree.phys_dim(s) for s in sites]
    pos = {s: i for i, s in enumerate(sites)}
    axes = [pos[s] for s in ordering if s in pos]
    arr = arr.reshape(dims + dims).transpose(axes + [i + len(dims)
                                                      for i in axes])
    return arr.reshape(total, total)


def element_count(ttno: TTNO) -> int:
    """Stored operator-valued entries: stored blocks times d^2."""
    return sum(len(t.index) * t.phys_dim ** 2 for t in ttno.tensors.values())


def dense_element_count(ttno: TTNO) -> int:
    """Entries of the dense tensors: bond-dimension products times d^2."""
    return sum(math.prod(t.shape) for t in ttno.tensors.values())


# -- dump format ------------------------------------------------------------


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
                obj[key] = values.astype(float, copy=False)
    return obj


def write_ttno(ttno: TTNO, path: str) -> None:
    """Write the ``ttno-v2`` dump of ``ttno`` (layout in the module
    docstring).

    The bytes are those of ``json.dump`` on the whole object, but each
    tensor entry is one ``json.dumps`` call and one write, so memory holds
    one tensor's lists and string at a time.
    """
    with open(path, "w") as fh:
        fh.write('{"format": "ttno-v2", "tree": ')
        fh.write(json.dumps(ttno.tree.to_json_dict()))
        fh.write(', "tensors": {')
        for i, (s, t) in enumerate(ttno.tensors.items()):
            entries = t.blocks.reshape(-1)
            fh.write(f'{", " if i else ""}"{s}": ' + json.dumps({
                "legs": t.legs, "shape": t.shape, "index": t.index.tolist(),
                "re": entries.real.tolist(), "im": entries.imag.tolist()}))
        fh.write("}}")


def _read_tensor(tree: TreeTopology, s: int, td) -> TTNOTensor:
    """Check one parsed tensor entry against the tree and build its index
    and blocks."""
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
    shape, d = td["shape"], tree.phys_dims[s]
    if (not isinstance(shape, list) or len(shape) != len(legs) + 2
            or not all(type(n) is int and n >= 1 for n in shape)):
        raise bad(f"shape {shape!r} is not a list of {len(legs) + 2} "
                  f"positive integers")
    if shape[-2:] != [d, d]:
        raise bad(f"physical dimensions {shape[-2:]} disagree with the "
                  f"tree's {d}")
    bond, rows = shape[:-2], td["index"]
    if not isinstance(rows, list):
        raise bad("'index' must be a list of bond multi-indices")
    # whole-list passes in C; the loop below finds and words a failure
    if not (set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {len(bond)}
            and set(map(type, chain.from_iterable(rows))) <= {int}
            and all(0 <= min(c) and max(c) < n
                    for c, n in zip(zip(*rows), bond))
            and all(map(operator.lt, rows, rows[1:]))):
        for k, r in enumerate(rows):
            if not (isinstance(r, list) and len(r) == len(bond)
                    and all(type(i) is int for i in r)):
                raise bad(f"block index {r!r} is not a list of {len(bond)} "
                          f"integers")
            if not all(0 <= i < n for i, n in zip(r, bond)):
                raise bad(f"block index {r} is out of range for bond "
                          f"dimensions {bond}")
            if k and r <= rows[k - 1]:  # lists compare in row-major order
                raise bad(f"block {k}: index {r} does not follow "
                          f"{rows[k - 1]}; the index must be strictly "
                          f"increasing in row-major order")
    for key in ("re", "im"):
        if not isinstance(td[key], np.ndarray):  # left so by the hook
            raise bad(f"{key!r} must be a flat list of numbers")
        if td[key].size != len(rows) * d * d:
            raise bad(f"{key!r} holds {td[key].size} numbers, not "
                      f"{len(rows)} blocks x {d * d}")
    blocks = np.empty((len(rows), d, d), dtype=complex)
    # real and imaginary parts are set apart: re + 1j * im would turn an
    # imaginary -0.0 into +0.0
    blocks.real = td["re"].reshape(-1, d, d)
    blocks.imag = td["im"].reshape(-1, d, d)
    kept = blocks.view(np.uint64).any(axis=(1, 2))
    if np.count_nonzero(kept) < len(kept):
        zero = np.flatnonzero(~kept)[0]
        raise bad(f"block {zero} at index {rows[zero]} holds only +0.0 "
                  f"entries, which are not stored")
    index = np.array(rows, dtype=np.int64).reshape(len(rows), len(bond))
    return TTNOTensor(s, legs, tuple(shape), index, blocks)


def read_ttno(path: str) -> TTNO:
    """Read a ``ttno-v2`` dump back into tensors bit-identical to the ones
    written.  Malformed or inconsistent content, a NaN, an infinite or a
    boolean entry among them, raises ValidationError naming the site or
    field at fault; a ``ttno-v1`` dump must be rebuilt from its inputs."""
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text, object_hook=_parsed_floats)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"ttno dump {path}: not valid JSON "
                              f"({exc})") from exc
    # the hook reads a true or false among numbers as 1.0 or 0.0; the writer
    # prints neither, so only a dump that holds one is read again below
    booleans = "true" in text or "false" in text
    del text  # not held while the tensors are built
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
    tensors = {sites[k]: _read_tensor(tree, sites[k], td)
               for k, td in entries.items()}
    # nor NaN, Infinity or a literal that overflows, such as 1e400
    if booleans or not all(np.isfinite(t.blocks).all()
                           for t in tensors.values()):
        with open(path) as fh:
            raw = json.load(fh)["tensors"]
        for k, td in raw.items():
            for key in ("re", "im"):
                for i, x in enumerate(td[key]):
                    if type(x) is bool or not math.isfinite(x):
                        raise ValidationError(
                            f"ttno dump, site {k}: {key!r} entry {i} is "
                            f"{json.dumps(x)}, not a finite number")
    ttno = TTNO(tree, tensors)
    ttno.bond_dimensions()  # shared-edge consistency
    return ttno
