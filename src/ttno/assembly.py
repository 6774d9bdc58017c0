"""Read TTNO tensors off a state diagram, contract small TTNOs densely, and
dump them to JSON.

Leg convention: parent bond first, then child bonds by ascending child id,
then the two physical legs (row = output, column = input).  The root has no
parent leg; its trivial leg is dropped.

A tensor is held as its stored d x d blocks, in the layout of the dump:
``index`` lists the bond multi-index of every stored block in row-major
order and ``blocks`` holds those blocks.  A block is stored when any of its
entries has a non-zero bit pattern, so ``-0.0`` survives and a dump reads
back bit-identical.  The tensors of one physical dimension hold rows of
one block array and one multi-index array, built and checked once at
emission and read.  The dense array is built only on request, to verify.

Dump format ``ttno-v2``: ``{"format": "ttno-v2", "tree": ..., "tensors":
{"<site>": {"legs", "shape", "index", "re", "im"}}}``, where ``re`` and
``im`` hold the blocks' entries, row-major and concatenated, all finite.
The writer keeps one table from a block's bytes to its ``re`` and ``im``
texts, so each distinct block is formatted once per dump: a tensor's new
blocks take one ``json.dumps`` call per part, split at once into block
texts, and every tensor's lists are joins of block texts.  The table is
emptied before it would hold more blocks than the largest tensor so far,
so it holds about two tensors' texts at a time.  The reader parses the
dump once, holds one tensor's entries as Python objects at a time, one
array per parsed list, and names a bad entry from what it parsed.  The
dense ``ttno-v1`` format is not read: rebuild such a dump from its inputs.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diagram import StateDiagram
from .errors import (DenseCapExceededError, UnknownOperatorError,
                     ValidationError)
from .operators import DEFAULT_REGISTRY, OperatorRegistry, dense_size
from .tree import Edge, Rooting, TreeTopology, UniqueKeys


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


def tensors_from_blocks(specs) -> dict[int, TTNOTensor]:
    """Tensors from ``(site, legs, shape, pairs)`` specs, each holding the
    sums of its ``(multi-index, d x d matrix)`` pairs: matrices on one
    multi-index add up in pair order, as if from a block of ``+0.0``, and
    sums whose entries are all ``+0.0`` are not stored.  A sum that is not
    finite raises ValidationError naming the first such site in ``specs``
    and its first such multi-index."""
    heads, groups = [], {}
    for site, legs, shape, pairs in specs:
        # per d: each block's first matrix, and the row and matrix of each
        # later pair on a multi-index
        first, rows, later = groups.setdefault(shape[-1], ([], [], []))
        sums = dict(reversed(pairs))  # each multi-index's first matrix
        keys = sorted(sums)
        if len(sums) < len(pairs):
            row, seen = {k: r for r, k in enumerate(keys, len(first))}, set()
            for idx, m in pairs:
                if idx in seen:
                    rows.append(row[idx])
                    later.append(m)
                seen.add(idx)
        first += [sums[k] for k in keys]
        heads.append((site, tuple(legs), tuple(shape), keys))
    stacks = {}
    for d, (first, rows, later) in groups.items():
        blocks = stacks[d] = np.array(first, complex).reshape(-1, d, d)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(blocks, rows, np.array(later, complex).reshape(-1, d, d))
        blocks += 0.0  # as if summed from +0.0: -0.0 entries become +0.0
    tensors, bad = _tensors(heads, stacks, drop_zeros=True)
    if bad:
        t, k = bad
        raise ValidationError(
            f"site {t.site}: the matrices summed into block "
            f"{tuple(t.index[k].tolist())} overflow to non-finite entries")
    return tensors


def _tensors(heads, stacks: dict[int, np.ndarray], drop_zeros: bool):
    """The tensors of ``(site, legs, shape, multi-indices)`` heads, in their
    order, whose blocks are stacked per dimension ``d`` in ``stacks[d]``:
    each holds rows of that array and of one int64 array of multi-indices.
    Blocks of only ``+0.0`` entries are dropped if ``drop_zeros``, else
    refused as a dump's.  Also returns the first tensor and row with a
    non-finite entry, or None."""
    tensors, clean = dict.fromkeys(h[0] for h in heads), True
    for d, blocks in stacks.items():
        hs = [h for h in heads if h[2][-1] == d]
        kept = blocks.view(np.uint64).any(axis=(1, 2))
        if drop_zeros and not kept.all():
            rows, blocks = iter(kept.tolist()), blocks[kept]
            hs = [(*h[:3], [k for k in h[3] if next(rows)]) for h in hs]
        index = np.fromiter(chain.from_iterable(chain.from_iterable(
            h[3] for h in hs)), np.int64)
        row = pos = 0
        for site, legs, shape, keys in hs:
            n, width = len(keys), len(legs)
            tensors[site] = TTNOTensor(site, legs, shape, index[
                pos:pos + n * width].reshape(n, width), blocks[row:row + n])
            row, pos = row + n, pos + n * width
        clean &= bool((drop_zeros or kept.all()) and np.isfinite(blocks).all())
    for t in () if clean else tensors.values():
        zero = np.flatnonzero(~t.blocks.view(np.uint64).any(axis=(1, 2)))
        if len(zero):
            raise ValidationError(
                f"ttno dump, site {t.site}: block {zero[0]} at index "
                f"{t.index[zero[0]].tolist()} holds only +0.0 entries, "
                f"which are not stored")
        bad = np.flatnonzero(~np.isfinite(t.blocks).all(axis=(1, 2)))
        if len(bad):
            return tensors, (t, bad[0])
    return tensors, None


def emit_tensors(diagram: StateDiagram,
                 registry: OperatorRegistry | None = None) -> TTNO:
    """Tensors from the diagram.  A vertex's bond index is its position in
    its edge's collection; a hyperedge ``(op_id, *uids)`` puts the matrix of
    ``op_id``, resolved once per emission, at the bond indices of its
    vertices in leg order.  Hyperedges on the same multi-index accumulate
    additively (their matrices sum into one block).  An operator whose
    matrix cannot be allocated raises DenseCapExceededError naming it, its
    dimension and the lowest site of that dimension; a label the registry
    does not know raises UnknownOperatorError, and a matrix, or a block
    sum, that is not finite raises ValidationError, both naming the site."""
    registry = registry or DEFAULT_REGISTRY
    tree = diagram.tree
    r = tree.rooting

    def site_of(k: int) -> int:
        """The lowest site with a hyperedge of ``op_id`` k."""
        return min(s for s in tree.nodes
                   if any(y[0] == k for y in diagram.eps[s]))

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
        except UnknownOperatorError as exc:
            raise UnknownOperatorError(f"site {site_of(k)}: {exc}") from exc
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
            raise ValidationError(
                f"site {site_of(k)}: the matrix of operator {op.label!r} "
                f"overflows to non-finite entries")
    dims, eps, phys = diagram.bond_dimensions(), diagram.eps, tree.phys_dims

    def specs():
        for s in tree.nodes:
            legs = _in_leg_order(r, s, tree.incident[s])
            # where each leg's vertex sits in a hyperedge key, after its op_id
            slots = _in_leg_order(r, s, range(1, len(legs) + 1))
            yield s, legs, (*[dims[e] for e in legs], phys[s], phys[s]), [
                (tuple([index[y[i]] for i in slots]), matrices[y[0]])
                for y in eps[s]]
    return TTNO(tree, tensors_from_blocks(specs()))


def contract_to_dense(ttno: TTNO) -> np.ndarray:
    """Full contraction over all bond legs, as a dense matrix.

    The output row/column indices run over the physical spaces in
    ascending site order, consistent with :func:`ttno.operators.to_dense`.
    """
    tree = ttno.tree
    total = dense_size(tree)
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
    axes = [pos[s] for s in tree.nodes if s in pos]
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


_FIELDS = ("legs", "shape", "index", "re", "im")  # of a tensor entry


def _parsed_floats(obj: dict) -> dict:
    """The reader's JSON hook, after ``UniqueKeys``: a tensor entry's ``re``
    and ``im`` lists become float arrays as soon as the entry is parsed, so
    that only one tensor's floats are Python objects at a time.  A list is
    converted if every entry is an int or a float, an integer to the float
    it rounds to (past the float range, an infinity, refused as ``1e400``
    is); any other list is left for ``_read_tensor`` to word."""
    if all(key in obj for key in _FIELDS):
        for key in ("re", "im"):
            values = obj[key]
            if type(values) is list and set(map(type, values)) <= {int, float}:
                try:
                    obj[key] = np.array(values, float)
                except OverflowError:  # float(int) raises, float(str) rounds
                    obj[key] = np.array([float(str(x)) for x in values])
    return obj


def _block_texts(text: str, size: int) -> list[str]:
    """The texts of the blocks whose entries, ``size`` per block, make up the
    JSON list ``text``: ``"[a, b, c, d]"`` gives ``["a, b", "c, d"]`` for
    ``size`` 2."""
    entries = text[1:-1].split(", ")
    return [", ".join(entries[k:k + size])
            for k in range(0, len(entries), size)]


def write_ttno(ttno: TTNO, path: str) -> None:
    """Write the ``ttno-v2`` dump of ``ttno`` (layout in the module
    docstring).

    The bytes are those of ``json.dump`` on the whole object, but each
    tensor entry is one write, and each distinct block is formatted once
    per dump: a table maps a block's bytes to the texts of its ``re`` and
    ``im`` entries.  A tensor's blocks that are not in the table are
    formatted together, one ``json.dumps`` call per part, and split into
    block texts; its lists are joins of block texts.  The table is emptied
    before it would hold more blocks than the largest tensor so far, so
    memory holds about two tensors' texts at a time.
    """
    texts: dict[bytes, tuple[str, str]] = {}  # block bytes -> re, im text
    largest = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"format": "ttno-v2", "tree": ')
        fh.write(json.dumps(ttno.tree.to_json_dict()))
        fh.write(', "tensors": {')
        for i, (s, t) in enumerate(ttno.tensors.items()):
            size = t.phys_dim ** 2  # entries per block
            keys = np.ascontiguousarray(t.blocks, dtype=complex).reshape(
                len(t.blocks), size).view(f"V{16 * size}").ravel().tolist()
            largest = max(largest, len(keys))
            new = [k for k in dict.fromkeys(keys) if k not in texts]
            if len(texts) + len(new) > largest:
                texts.clear()
                new = list(dict.fromkeys(keys))
            if new:
                entries = np.frombuffer(b"".join(new), complex)
                texts.update(zip(new, zip(
                    _block_texts(json.dumps(entries.real.tolist()), size),
                    _block_texts(json.dumps(entries.imag.tolist()), size))))
            re = f"[{', '.join([texts[k][0] for k in keys])}]"
            im = f"[{', '.join([texts[k][1] for k in keys])}]"
            head = json.dumps({"legs": t.legs, "shape": t.shape,
                               "index": t.index.tolist()})
            fh.write(f'{", " if i else ""}"{s}": {head[:-1]}, "re": {re}, '
                     f'"im": {im}}}')
        fh.write("}}")


def _read_tensor(tree: TreeTopology, s: int, td) -> tuple:
    """Check one parsed tensor entry against the tree, and return its site,
    legs, shape and list of multi-indices."""
    def bad(message: str) -> ValidationError:
        return ValidationError(f"ttno dump, site {s}: {message}")

    if not isinstance(td, dict):
        raise bad("the tensor entry must be an object")
    for key in _FIELDS:
        if key not in td:
            raise bad(f"the tensor has no {key!r}")
    legs = canonical_legs(tree, s)
    if td["legs"] != [list(e) for e in legs]:
        raise bad(f"legs {td['legs']!r} differ from the tree's "
                  f"{[list(e) for e in legs]}")
    shape, d = td["shape"], tree.phys_dims[s]
    if (not isinstance(shape, list) or len(shape) != len(legs) + 2
            or not all(type(n) is int and 1 <= n < 2 ** 63 for n in shape)):
        raise bad(f"shape {shape!r} is not a list of {len(legs) + 2} "
                  f"integers from 1 to 2**63 - 1")
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
        values = td[key]
        # the hook left a list: name a boolean if it is the first non-number
        for i, x in enumerate(values if type(values) is list else ()):
            if type(x) not in (int, float):
                if type(x) is bool:
                    raise bad(f"{key!r} entry {i} is {json.dumps(x)}, not a "
                              f"finite number")
                break
        if not isinstance(values, np.ndarray):
            raise bad(f"{key!r} must be a flat list of numbers")
        if values.size != len(rows) * d * d:
            raise bad(f"{key!r} holds {values.size} numbers, not "
                      f"{len(rows)} blocks x {d * d}")
    return s, legs, tuple(shape), rows


def read_ttno(path: str) -> TTNO:
    """Read a ``ttno-v2`` dump back into tensors bit-identical to the ones
    written.  Malformed or inconsistent content, a NaN, an infinite or a
    boolean entry among them, raises ValidationError naming the site or
    field at fault; a ``ttno-v1`` dump must be rebuilt from its inputs."""
    keys = UniqueKeys()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=lambda pairs: (
                _parsed_floats(keys(pairs))))
    except ValueError as exc:
        # a decode error, or an integer literal past int's digit limit
        raise ValidationError(f"ttno dump {path}: not valid JSON "
                              f"({exc})") from exc
    if keys.repeat:
        raise ValidationError(f"ttno dump {path}: {keys.repeat}")
    if not isinstance(data, dict):
        raise ValidationError("ttno dump: must be a JSON object")
    if data.get("format") != "ttno-v2":
        raise ValidationError(
            f"ttno dump: format {data.get('format')!r} is not read, only "
            f"'ttno-v2'; rebuild the dump with `ttno build` or `ttno oqs`")
    try:
        tree = TreeTopology.from_json_dict(data.get("tree"))
    except ValidationError as exc:
        raise ValidationError(f"ttno dump, tree: {exc}") from exc
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
    heads, groups, stacks = [], {}, {}
    for k, td in entries.items():
        heads.append(_read_tensor(tree, sites[k], td))
        groups.setdefault(heads[-1][2][-1], []).append(td)
    for d, tds in groups.items():
        blocks = stacks[d] = np.empty(
            (sum(td["re"].size for td in tds) // d // d, d, d), complex)
        # real and imaginary parts are set apart: re + 1j * im would turn an
        # imaginary -0.0 into +0.0
        blocks.real = np.concatenate([td["re"] for td in tds]).reshape(-1, d, d)
        blocks.imag = np.concatenate([td["im"] for td in tds]).reshape(-1, d, d)
    tensors, bad = _tensors(heads, stacks, drop_zeros=False)
    if bad:  # a NaN, Infinity or overflowing literal (1e400): name it
        t = bad[0]
        for key, part in ("re", t.blocks.real), ("im", t.blocks.imag):
            wrong = np.flatnonzero(~np.isfinite(part))
            if len(wrong):
                raise ValidationError(
                    f"ttno dump, site {t.site}: {key!r} entry {wrong[0]} is "
                    f"{json.dumps(part.flat[wrong[0]])}, not a finite number")
    ttno = TTNO(tree, tensors)
    try:
        ttno.bond_dimensions()  # shared-edge consistency
    except ValidationError as exc:
        raise ValidationError(f"ttno dump: {exc}") from exc
    return ttno
