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
one block array and one multi-index array.  Emission sums the blocks of
all tensors of one dimension and leg count together, and the reader checks
the multi-indices of the whole dump at once.  The dense array is built only
on request, to verify.

Dump format ``ttno-v2``: ``{"format": "ttno-v2", "tree": ..., "tensors":
{"<site>": {"legs", "shape", "index", "re", "im"}}}``, where ``re`` and
``im`` hold the blocks' entries, row-major and concatenated, all finite.
The writer keeps one table from a block's bytes to its ``re`` and ``im``
texts, so each distinct block is formatted once per dump: a tensor's new
blocks take one ``json.dumps`` call per part, split at once into block
texts, and every tensor's lists are joins of block texts.  Likewise a
second table gives each distinct ``index`` its text once, and the
``legs`` and ``shape`` of all tensors take one call.  The tables are
emptied before they outgrow the largest tensors so far, so they hold
about two tensors' texts at a time.  The reader parses the dump once,
holds one tensor's entries as Python objects at a time, one array per
parsed list, checks each tensor's ``legs``, ``shape``, ``re`` and ``im``
and then every ``index`` in whole-dump passes; a failed pass reruns the
tensor-by-tensor checks in dump order to name the first fault.  The dense
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


def tensors_from_blocks(specs, matrices,
                        bond_index: np.ndarray | None = None
                        ) -> dict[int, TTNOTensor]:
    """Tensors from ``(site, legs, shape, rows)`` specs, each holding the
    sums of its rows, int tuples ``(key, *multi-index)`` where
    ``matrices[key]`` is a d x d matrix: matrices on one multi-index add up
    in row order, as if from a block of ``+0.0``, and sums whose entries are
    all ``+0.0`` are not stored.  With ``bond_index``, an int array, each
    multi-index entry ``v`` stands for ``bond_index[v]``.  A sum that is not
    finite raises ValidationError naming the first such site in ``specs``
    and its first such multi-index.

    The rows of all tensors of one dimension and leg count are summed
    together: sorted stably by tensor and multi-index, each block's first
    matrix is taken from one table of the matrices and the later ones are
    added to it in order."""
    heads, groups = [], {}
    for site, legs, shape, rows in specs:
        groups.setdefault((shape[-1], len(legs)), []).append(len(heads))
        heads.append([site, tuple(legs), tuple(shape), rows, None])
    tables: dict[int, tuple[dict, list]] = {}  # per d: key -> row, matrices
    for key, m in matrices.items():
        at, ms = tables.setdefault(len(m), ({}, []))
        at[key] = len(ms)
        ms.append(m)
    # per d: for each group of its tensors, their block counts, multi-index
    # rows and blocks
    parts: dict[int, list] = {}
    for (d, width), ks in groups.items():
        at, ms = tables.get(d, ({}, []))
        table = np.array(ms, complex).reshape(-1, d, d)
        ns = [len(heads[k][3]) for k in ks]
        rows = np.fromiter(chain.from_iterable(chain.from_iterable(
            heads[k][3] for k in ks)), np.int64, (width + 1) * sum(ns)
        ).reshape(-1, width + 1)
        index = rows[:, 1:] if bond_index is None else bond_index[rows[:, 1:]]
        ops = np.fromiter(map(at.__getitem__, rows[:, 0].tolist()), np.intp,
                          len(rows))
        tensor = np.repeat(np.arange(len(ks)), ns)
        order = np.lexsort((*index.T[::-1], tensor))
        index, ops, tensor = index[order], ops[order], tensor[order]
        first = np.ones(len(order), bool)  # the first row on its block
        first[1:] = ((index[1:] != index[:-1]).any(axis=1)
                     | (tensor[1:] != tensor[:-1]))
        blocks = table[ops[first]]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(blocks, np.cumsum(first)[~first] - 1,
                      table[ops[~first]])
        blocks += 0.0  # as if summed from +0.0: -0.0 entries become +0.0
        kept = blocks.view(np.uint64).any(axis=(1, 2))
        parts.setdefault(d, []).append((
            ks, np.bincount(tensor[first][kept], minlength=len(ks)).tolist(),
            index[first][kept], blocks[kept]))
    stacks = {d: np.concatenate([p[3] for p in ps]) for d, ps in parts.items()}
    index = np.concatenate([p[2].ravel() for ps in parts.values() for p in ps])
    pos = 0
    for d, ps in parts.items():
        row = 0
        for ks, counts, idx, _ in ps:
            width = idx.shape[1]
            for k, n in zip(ks, counts):
                heads[k][3] = index[pos:pos + n * width].reshape(n, width)
                heads[k][4] = stacks[d][row:row + n]
                pos, row = pos + n * width, row + n
    tensors, bad = _tensors(heads, stacks)
    if bad:
        t, k = bad
        raise ValidationError(
            f"site {t.site}: the matrices summed into block "
            f"{tuple(t.index[k].tolist())} overflow to non-finite entries")
    return tensors


def _tensors(heads, stacks: dict[int, np.ndarray]):
    """The tensors of ``(site, legs, shape, index, blocks)`` heads, in their
    order, where ``index`` is an int64 array of one row per block and
    ``blocks`` rows of ``stacks[d]``, one array per dimension ``d``.  A
    block of only ``+0.0`` entries is refused as a dump's.  Also returns
    the first tensor and row with a non-finite entry, or None."""
    tensors = {h[0]: TTNOTensor(*h) for h in heads}
    clean = all(blocks.view(np.uint64).any(axis=(1, 2)).all()
                and np.isfinite(blocks).all() for blocks in stacks.values())
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

    # uid -> bond index, its position in its edge's collection
    w, index = diagram.w.values(), np.empty(diagram.n_vertices(), np.int64)
    index[np.fromiter(chain.from_iterable(w), np.intp, len(index))] = (
        np.fromiter(chain.from_iterable(map(range, map(len, w))), np.int64,
                    len(index)))
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
            # hyperedge keys are rows, once their vertices are in leg order
            rows = eps[s]
            if s != r.root and r.up_slot[s]:
                rows = list(map(operator.itemgetter(0, *_in_leg_order(
                    r, s, range(1, len(legs) + 1))), rows))
            yield s, legs, (*[dims[e] for e in legs], phys[s], phys[s]), rows
    return TTNO(tree, tensors_from_blocks(specs(), matrices, index))


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


# the keys of a tensor entry, in order
_FIELDS = dict.fromkeys(("legs", "shape", "index", "re", "im")).keys()


def _parsed_floats(obj: dict) -> dict:
    """The reader's JSON hook, after ``UniqueKeys``: a tensor entry's ``re``
    and ``im`` lists become float arrays as soon as the entry is parsed, so
    that only one tensor's floats are Python objects at a time.  A list is
    converted if every entry is an int or a float, an integer to the float
    it rounds to (past the float range, an infinity, refused as ``1e400``
    is); any other list is left for ``_read_tensor`` to word."""
    if obj.keys() >= _FIELDS:
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
    memory holds about two tensors' texts at a time.  A second table maps
    an index's shape and bytes to its text, and is emptied before it would
    hold more entries than four times the widest index so far: an index
    text takes a few bytes per entry, against tens for the lists that
    format it.  The ``legs`` and ``shape`` of all tensors, which grow with
    the tree and not with the blocks, take one ``json.dumps`` call.
    """
    texts: dict[bytes, tuple[str, str]] = {}  # block bytes -> re, im text
    indexes: dict[tuple, str] = {}  # index shape and bytes -> its text
    largest = widest = held = 0  # held: the index entries in the table
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"format": "ttno-v2", "tree": ')
        fh.write(json.dumps(ttno.tree.to_json_dict()))
        fh.write(', "tensors": {')
        # every tensor's legs and shape in one call, split per tensor at the
        # braces between them, the only braces they hold
        heads = json.dumps([{"legs": t.legs, "shape": t.shape}
                            for t in ttno.tensors.values()])[2:-2].split("}, {")
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
            key = (t.index.shape, t.index.tobytes())
            if key not in indexes:
                widest = max(widest, t.index.size)
                if held + t.index.size > 4 * widest:
                    indexes.clear()
                    held = 0
                indexes[key] = json.dumps(t.index.tolist())
                held += t.index.size
            fh.write(f'{", " if i else ""}"{s}": {{{heads[i]}, "index": '
                     f'{indexes[key]}, "re": {re}, "im": {im}}}')
        fh.write("}}")


def _read_tensor(tree: TreeTopology, s: int, td, check_index: bool) -> tuple:
    """Check one parsed tensor entry against the tree, its multi-indices
    only if ``check_index``, and return its site, legs, shape and list of
    multi-indices."""
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
            or not set(map(type, shape)) <= {int}
            or not 1 <= min(shape) <= max(shape) < 2 ** 63):
        raise bad(f"shape {shape!r} is not a list of {len(legs) + 2} "
                  f"integers from 1 to 2**63 - 1")
    if shape[-2:] != [d, d]:
        raise bad(f"physical dimensions {shape[-2:]} disagree with the "
                  f"tree's {d}")
    bond, rows = shape[:-2], td["index"]
    if not isinstance(rows, list):
        raise bad("'index' must be a list of bond multi-indices")
    for k, r in enumerate(rows if check_index else ()):
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


def _index_arrays(heads) -> list[np.ndarray] | None:
    """The lists of multi-indices of ``(site, legs, shape, rows)`` heads as
    int64 arrays of one row per block, all views of one array, or None if
    a row is not a list of one int per leg within the bond dimensions or a
    tensor's rows do not strictly increase in row-major order.  The checks
    are whole-dump passes in C: one type pass over all rows, then one array
    per row width, compared with the bond dimensions repeated per row and
    row by row within each tensor."""
    rows = list(chain.from_iterable(h[3] for h in heads))
    if not (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        return None
    widths: dict[int, list[int]] = {}  # row width -> its heads, by position
    for k, h in enumerate(heads):
        widths.setdefault(len(h[1]), []).append(k)
    groups = [(w, ks, list(chain.from_iterable(heads[k][3] for k in ks)))
              for w, ks in widths.items()]
    if not all(set(map(len, rs)) <= {w} for w, _, rs in groups):
        return None
    try:  # an int past int64 is out of range
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(
            rs for _, _, rs in groups)), np.int64,
            sum(w * len(rs) for w, _, rs in groups))
    except OverflowError:
        return None
    arrays, pos = [None] * len(heads), 0
    for w, ks, rs in groups:
        a = flat[pos:pos + w * len(rs)].reshape(len(rs), w)
        pos += a.size
        ns = [len(heads[k][3]) for k in ks]
        # as uint64, a negative entry is out of range too
        bond = np.array([heads[k][2][:-2] for k in ks], np.uint64)
        if not (a.view(np.uint64)
                < np.repeat(bond.reshape(len(ks), w), ns, 0)).all():
            return None
        # within a tensor, the first entry where a row differs from the one
        # before must rise; rows of no entries are all equal
        step = a[1:] - a[:-1]
        rises = (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0
                 if w else np.zeros(len(step), bool))
        tensor = np.repeat(np.arange(len(ks)), ns)
        if not (rises | (tensor[1:] != tensor[:-1])).all():
            return None
        for k, row in zip(ks, np.cumsum(ns).tolist()):
            arrays[k] = a[row - len(heads[k][3]):row]
    return arrays


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
    except (ValueError, RecursionError) as exc:
        # a decode error, an integer literal past int's digit limit, or
        # arrays or objects nested too deep to decode
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
    try:
        heads = [_read_tensor(tree, sites[k], td, check_index=False)
                 for k, td in entries.items()]
        arrays = _index_arrays(heads)
    except ValidationError:
        arrays = None
    if arrays is None:  # the loop below finds and words the first fault
        for k, td in entries.items():
            _read_tensor(tree, sites[k], td, check_index=True)
    groups, stacks = {}, {}
    for td, h in zip(entries.values(), heads):
        groups.setdefault(h[2][-1], []).append(td)
    for d, tds in groups.items():
        blocks = stacks[d] = np.empty(
            (sum(td["re"].size for td in tds) // d // d, d, d), complex)
        # real and imaginary parts are set apart: re + 1j * im would turn an
        # imaginary -0.0 into +0.0
        blocks.real = np.concatenate([td["re"] for td in tds]).reshape(-1, d, d)
        blocks.imag = np.concatenate([td["im"] for td in tds]).reshape(-1, d, d)
    row = dict.fromkeys(stacks, 0)
    for k, (s, legs, shape, _) in enumerate(heads):
        d, n = shape[-1], len(arrays[k])
        heads[k] = (s, legs, shape, arrays[k], stacks[d][row[d]:row[d] + n])
        row[d] += n
    tensors, bad = _tensors(heads, stacks)
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
