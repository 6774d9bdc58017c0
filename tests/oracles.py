"""Independent reference implementations used to freeze expected values.

These deliberately avoid the package's own code paths: BFS on a raw edge
list, an element-wise Kronecker sum, and a recursive-attachment random tree
generator.  Four build on package code.  The Kronecker chain is the
reference for the in-place ``to_dense``.  The dense rank oracle uses
``to_dense`` (itself checked against the element-wise sum) and stands apart
from the term-based ``optimal_bond_dims`` it checks.  The reference diagram
construction uses the diagram's vertex and hyperedge filing and its hash
indexes but none of the support-local matching it checks.  The reference
emission reads a diagram one hyperedge at a time, with the registry's
matrices but none of the batched block summing it checks.
"""

from collections import deque

import numpy as np

from ttno.diagram import StateDiagram
from ttno.operators import (DEFAULT_REGISTRY, dense_size, identity,
                            to_dense)
from ttno.tree import edge_key
from ttno.svdref import RANK_REL_TOL

from conftest import component_without_edge


def bfs_distance(edges, a, b):
    """Shortest-path length on an undirected edge list."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if a == b:
        return 0
    seen = {a: 0}
    queue = deque([a])
    while queue:
        s = queue.popleft()
        for n in adj.get(s, ()):
            if n not in seen:
                seen[n] = seen[s] + 1
                if n == b:
                    return seen[n]
                queue.append(n)
    raise ValueError(f"{b} unreachable from {a}")


def elementwise_dense(site_dims, terms, ordering):
    """Dense sum of product terms, one matrix element at a time.

    ``terms`` is a list of (coefficient, {site: matrix}) pairs; sites absent
    from a factor map act as identities.  Completely independent of np.kron.
    """
    dims = [site_dims[s] for s in ordering]
    total = int(np.prod(dims))

    def digits(flat):
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        return out[::-1]

    h = np.zeros((total, total), dtype=complex)
    for i in range(total):
        di = digits(i)
        for j in range(total):
            dj = digits(j)
            acc = 0.0 + 0.0j
            for coeff, factors in terms:
                val = coeff
                for k, s in enumerate(ordering):
                    m = factors.get(s)
                    if m is None:
                        if di[k] != dj[k]:
                            val = 0.0
                            break
                    else:
                        val *= m[di[k], dj[k]]
                        if val == 0.0:
                            break
                acc += val
            h[i, j] = acc
    return h


def kron_dense(h, registry=None):
    """Dense matrix of ``h`` as a sum over terms of Kronecker chains in
    ascending site order, identities included."""
    registry = registry or DEFAULT_REGISTRY
    tree = h.tree
    total = dense_size(tree)
    out = np.zeros((total, total), dtype=complex)
    for term in h.terms:
        block = np.array([[term.coefficient]], dtype=complex)
        for s in tree.nodes:
            op = term.factors.get(s) or identity(tree.phys_dim(s))
            block = np.kron(block, registry.resolve(op))
        out += block
    return out


def random_tree_edges(rng, n_sites):
    """Random recursive tree on sites 0..n_sites-1."""
    return [(int(rng.integers(0, i)), i) for i in range(1, n_sites)]


def pick_nonleaf_root(edges, n_sites):
    if n_sites <= 2:
        return 0
    degree = [0] * n_sites
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for s in range(n_sites):
        if degree[s] > 1:
            return s
    return 0


def dense_bond_dims(h, registry=None):
    """Rank of the dense operator's matricization across every tree edge.

    The reference for ``ttno.svdref.optimal_bond_dims``: rows carry the
    (output, input) physical indices of one side of the cut, columns the
    other side, with the same relative rank tolerance and ``max(rank, 1)``.
    """
    tree = h.tree
    sites = list(tree.nodes)
    dims = [tree.phys_dim(s) for s in sites]
    tensor = to_dense(h, registry=registry).reshape(dims + dims)
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    out = {}
    for e in tree.edges:
        side = component_without_edge(tree, e, e[0])
        axes_a = [pos[s] for s in sites if s in side]
        axes_b = [pos[s] for s in sites if s not in side]
        perm = (axes_a + [a + n for a in axes_a]
                + axes_b + [b + n for b in axes_b])
        rows = int(np.prod([dims[a] for a in axes_a], dtype=np.int64)) ** 2
        mat = tensor.transpose(perm).reshape(rows, -1)
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv.size == 0 or sv[0] == 0.0:
            rank = 0
        else:
            rank = int(np.count_nonzero(sv > RANK_REL_TOL * sv[0]))
        out[e] = max(rank, 1)
    return out


def reference_diagram(h, reuse=None, leaves=None):
    """``from_hamiltonian(h)`` built by climbs from every leaf and a graft
    over every site, the construction that support-local matching replaced.

    Starting from the empty diagram, per term a climb starts at each leaf in
    ``leaves`` order (default ``tree.leaves()``) and passes a site that has
    exactly one unmarked edge, marking it with the first vertex the site's
    open index offers that no other hyperedge at the site shares; then
    every site, in site order, gets fresh vertices on its unmarked edges and
    the path's hyperedge if it is missing.  ``reuse[i]`` false skips the
    climbs for term i (on the empty diagram they mark nothing).  Only the
    diagram's indexes are used; its identity-message caches go stale.
    """
    g = StateDiagram(h.tree)
    for i, term in enumerate(h.folded_terms()):
        marked = {}
        if reuse is None or reuse[i]:
            for leaf in leaves or h.tree.leaves():
                _climb(g, leaf, term, marked)
        for s in h.tree.nodes:
            incident = g._incident[s]
            for e in incident:
                if e not in marked:
                    marked[e] = g._new_vertex(e)
            want = term.factors.get(s) or g._identity[s]
            vs = tuple(marked[e] for e in incident)
            if (want.op_id, *vs) not in g.eps[s]:
                g._new_hyperedge(s, want, vs)
        g.terms[term.key()] = term
    return g


def _climb(g, site, term, marked):
    while True:
        incident = g._incident[site]
        unmarked = [i for i, e in enumerate(incident) if e not in marked]
        if len(unmarked) != 1:
            return
        free = unmarked[0]
        e = incident[free]
        want = term.factors.get(site) or g._identity[site]
        key = (want.op_id, *(marked[f] for f in incident if f != e))
        for y in g._open[site][free].get(key, ()):
            v = y[free + 1]
            if g._degree_at[site][free][v] == 1:
                marked[e] = v
                site = e[0] if e[1] == site else e[1]
                break
        else:
            return


def reference_emission(g, registry=None):
    """``emit_tensors(g, registry)`` one hyperedge at a time, per site: its
    legs (the edge to its parent first, then those to its children by
    ascending id), its shape, and a dict from each stored multi-index, in
    row-major order, to its block.  A hyperedge's multi-index holds the
    position of each of its vertices in its edge's collection, in leg
    order; the matrices on one multi-index are summed from a block of
    ``+0.0`` in hyperedge order, and sums of only ``+0.0`` entries are
    dropped."""
    registry = registry or DEFAULT_REGISTRY
    tree = g.tree
    edge_of, pos = {}, {}
    for e, vs in g.w.items():
        for i, v in enumerate(vs):
            edge_of[v], pos[v] = e, i
    out = {}
    for s in tree.nodes:
        p, d = tree.parent(s), tree.phys_dim(s)
        legs = tuple(edge_key(s, n) for n in (
            [] if p is None else [p]) + sorted(tree.children(s)))
        sums = {}
        for y in g.eps[s]:
            at = {edge_of[v]: pos[v] for v in y[1:]}
            idx = tuple(at[e] for e in legs)
            block = sums.get(idx, np.zeros((d, d), complex))
            sums[idx] = block + registry.resolve(g.ops[y[0]])
        shape = (*(len(g.w[e]) for e in legs), d, d)
        out[s] = (legs, shape, {idx: sums[idx] for idx in sorted(sums)
                                if sums[idx].view(np.uint64).any()})
    return out
