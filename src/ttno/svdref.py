"""Minimal-bond-dimension oracle via operator Schmidt ranks, plus the
benchmark statistic comparing it with the diagram construction.

The smallest bond dimension any TTNO can have across a tree edge is the
operator Schmidt rank of H across that cut: the rank of H reshaped so that
rows carry the (output, input) physical indices of one side and columns
the other.  It is computed from the terms, never from a dense matrix.

Per site, the operators used there are expanded by Gram-Schmidt in an
orthonormal basis of their span under the normalised Hilbert-Schmidt
product tr(A^dag B) / d, with the identity as basis element 0; the per-site
Gram matrices are resolved through the registry, so bosons and user
matrices (also linearly dependent ones) are handled.  The expansions are
memoised (a bounded cache) under the registry's ``state``, which changes
with every ``register``, the dimension and the operators' ids in first-seen
order.  Products of basis elements are orthonormal, so H becomes one sparse
coefficient vector over basis strings, sorted tuples of ints ``pos * K + m``
for element ``m >= 1`` at the site of preorder position ``pos`` on the tree
rooted at its last leaf (``tree.last_leaf_rooting``), K the largest d^2 on
the tree.  Cutting every string at an edge turns it into a matrix C whose
singular values are those of the dense matricization times one common
factor.

The cut is support-local.  The part of a string below an edge, whose sites
hold the positions ``[a, b)``, lies between ``a * K`` and ``b * K``, found
by bisection, and a string enters only the edges of the Steiner tree of its
support (``Rooting.steiner``).  A string wholly on one side of an edge is a
row (or column) of C with one entry, at the identity of the other side.  It
enters C only where a crossing string has the same part on that side: one
loop over the crossing rows gives a row its lower part's entry in the
identity column and collects the top row's matched strings above.  The
others fold into one row and one column, a unitary that keeps the singular
values.  The folded norms come from the sum of |c|^2 over the strings wholly
below the edge (a subtree sum, accumulated at the lowest common ancestor of
each support) or wholly above it, less the matched strings.  These sums are
exact, integer multiples of 2^-1074: in floats, a fold whose strings are all
matched leaves a residue of ~1e-16 where the true value is 0, and its square
root is a singular value far above the rank tolerance.

C is block-diagonal up to a permutation, so its singular values are those of
its blocks, found by a union-find over the rows joined through shared
columns.  A block of one row or one column has one, its 2-norm; any other
block folds its rows, then its columns, of one entry (no fold crosses a
block) and takes one SVD, in float64 when its entries are all real.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import diagram as sd
from .errors import UnknownOperatorError, ValidationError
from .operators import (DEFAULT_REGISTRY, Hamiltonian, OperatorRegistry,
                        SiteOperator, random_hamiltonian)
from .tree import Edge, TreeTopology

RANK_REL_TOL = 1e-10
# Gram-Schmidt components (and the residual) of a site operator below this
# fraction of its norm are dropped: a residual that small makes the operator
# a combination of the earlier ones, and what is dropped moves singular
# values far less than RANK_REL_TOL
GRAM_REL_TOL = 1e-12
# every finite float is a whole multiple of 2**-1074, so squared norms held
# as integer multiples of it add and subtract exactly
_FIX = 1074
_FIX_ONE = 1 << _FIX

# ints pos * K + m, ascending, as the module docstring sets out
BasisString = tuple[int, ...]
# (registry state, d, op ids) -> _gram_schmidt of their matrices
_EXPANSIONS: dict[tuple, tuple] = {}


def _gram_schmidt(d: int, matrices
                  ) -> tuple[tuple[tuple[int, complex], ...], ...]:
    """[(basis index, coefficient)] of each d x d matrix in a Gram-Schmidt
    basis of the identity and the matrices, in the given order; index 0 is
    the identity."""
    # unscaled vectors and vdot / d: the identity has unit norm and
    # orthogonal Paulis or bosonic ladders give exact zeros
    basis = [np.eye(d, dtype=complex).ravel()]
    out = []
    for matrix in matrices:
        resid = matrix.ravel()
        cut = GRAM_REL_TOL * math.sqrt(np.vdot(resid, resid).real / d)
        coeffs = []
        for b in basis:
            c = np.vdot(b, resid) / d
            resid = resid - c * b
            coeffs.append(c)
        norm = math.sqrt(np.vdot(resid, resid).real / d)
        if norm > cut:
            basis.append(resid / norm)
            coeffs.append(norm)
        out.append(tuple((m, complex(c)) for m, c in enumerate(coeffs)
                         if abs(c) > cut))
    return tuple(out)


def _site_expansions(h: Hamiltonian, registry: OperatorRegistry,
                     base: dict[int, int]
                     ) -> dict[int, dict[int, list[tuple[int, complex]]]]:
    """Per site, op_id -> (``base[s] + m``, or 0 for m = 0, coefficient) of
    the operator in the Gram-Schmidt basis of the site's operators in
    first-seen order.  A label the registry does not know raises
    UnknownOperatorError naming the first term and the site that use it."""
    by_site: dict[int, dict[int, SiteOperator]] = {}
    for term in h.terms:
        for s, op in term.factors.items():
            by_site.setdefault(s, {}).setdefault(op.op_id, op)

    def matrix(s: int, op: SiteOperator) -> np.ndarray:
        try:
            return registry.resolve(op)
        except UnknownOperatorError as exc:
            i = next(i for i, t in enumerate(h.terms)
                     if t.factors.get(s) == op)
            raise UnknownOperatorError(f"term {i}, site {s}: {exc}") from exc

    out = {}
    for s, ops in by_site.items():
        d = h.tree.phys_dim(s)
        key = (registry.state, d, tuple(ops))
        exps = _EXPANSIONS.get(key)
        if exps is None:
            exps = _gram_schmidt(d, [matrix(s, op) for op in ops.values()])
            if len(_EXPANSIONS) >= 256:
                del _EXPANSIONS[next(iter(_EXPANSIONS))]
            _EXPANSIONS[key] = exps
        out[s] = {i: [(base[s] + m if m else 0, c) for m, c in exp]
                  for i, exp in zip(ops, exps)}
    return out


def _basis_coefficients(h: Hamiltonian, registry: OperatorRegistry,
                        base: dict[int, int]) -> dict[BasisString, complex]:
    """H as coefficients over orthonormal product basis strings, the site
    ``s`` of element ``m`` named by ``base[s] + m``."""
    expansions = _site_expansions(h, registry, base)
    out: dict[BasisString, complex] = {}
    for term in h.terms:
        # factors of one component go straight into ``ones`` until one
        # branches; the coefficients multiply in ascending site order
        ones, c, strings = [], term.coefficient, None
        for s, op in sorted(term.factors.items()):
            exp = expansions[s][op.op_id]
            if strings is None and len(exp) == 1:
                (v, x), = exp
                c *= x
                if v:
                    ones.append(v)
                continue
            if strings is None:
                strings = [((), c)]
            strings = [(key + (v,) if v else key, b * x)
                       for key, b in strings for v, x in exp]
        for key, c in [((), c)] if strings is None else strings:
            key = tuple(sorted([*ones, *key]))
            out[key] = out.get(key, 0.0) + c
    return out


def _fixed(c: complex) -> int:
    """|c|^2 in units of 2**-_FIX, exactly."""
    n, d = (abs(c) ** 2).as_integer_ratio()
    return n << (_FIX + 1 - d.bit_length())


def _fold_single_entry_rows(rows) -> list[dict]:
    """Rows with one entry, replaced per column by one row holding their
    2-norm: a unitary on those rows, so the singular values stay."""
    kept, folded = [], {}
    for row in rows:
        if len(row) == 1:
            (col, c), = row.items()
            folded[col] = folded.get(col, 0.0) + abs(c) ** 2
        else:
            kept.append(row)
    kept.extend({col: math.sqrt(n2)} for col, n2 in folded.items())
    return kept


def _schmidt_rank(rows: list[dict]) -> int:
    """Numerical rank of the sparse matrix ``rows`` ({col: value} each)."""
    # union-find over the rows, joined through shared columns: the roots met
    # point to the row in hand, so one backward pass resolves every row
    root = list(range(len(rows)))
    owner: dict[BasisString, int] = {}
    for i, row in enumerate(rows):
        for col in row:
            j = owner.setdefault(col, i)
            while root[j] != j:
                root[j] = j = root[root[j]]
            root[j] = i
    for i in range(len(rows) - 1, -1, -1):
        root[i] = root[root[i]]
    blocks: dict[int, list[dict]] = {}
    for i, row in enumerate(rows):
        blocks.setdefault(root[i], []).append(row)
    sv = []
    for block in blocks.values():
        # one row, or rows of one entry (then all in one column): the one
        # singular value is the block's 2-norm
        if len(block) == 1 or all(len(row) == 1 for row in block):
            sv.append(math.hypot(*[abs(c) for row in block
                                   for c in row.values()]))
            continue
        block = _fold_single_entry_rows(block)
        cols: dict[BasisString, dict[int, complex]] = {}
        for i, row in enumerate(block):
            for col, c in row.items():
                cols.setdefault(col, {})[i] = c
        cols = _fold_single_entry_rows(cols.values())
        mat = np.zeros((len(cols), len(block)), dtype=complex)
        for j, col in enumerate(cols):
            for i, c in col.items():
                mat[j, i] = c
        sv.extend(np.linalg.svd(mat if mat.imag.any() else mat.real,
                                compute_uv=False))
    top = max(sv)
    return int(sum(s > RANK_REL_TOL * top for s in sv)) if top else 0


def optimal_bond_dims(h: Hamiltonian,
                      registry: OperatorRegistry | None = None
                      ) -> dict[Edge, int]:
    """Operator Schmidt rank of ``h`` across every tree edge (at least 1)."""
    tree = h.tree
    r = tree.last_leaf_rooting
    up, span, order = r.up, r.span, r.order
    k = max(d * d for d in tree.phys_dims.values())
    base = {s: i * k for i, s in enumerate(order)}
    coeffs = _basis_coefficients(h, registry or DEFAULT_REGISTRY, base)
    c0 = coeffs.pop((), 0.0)
    # edges are named by their endpoint t away from the last leaf; the
    # sites below edge t hold the positions span[t]
    crossing = {t: {} for t in order}  # t -> {part below: {above: c}}
    crossing_w = dict.fromkeys(order, 0)
    lca_w = dict.fromkeys(order, 0)
    total = 0
    for key, c in coeffs.items():
        w = _fixed(c)
        total += w
        steiner, lca = r.steiner([order[v // k] for v in key])
        lca_w[lca] += w
        for t in steiner:
            a, b = span[t]
            i = bisect_left(key, a * k)
            j = bisect_left(key, b * k, i)
            crossing[t].setdefault(key[i:j], {})[key[:i] + key[j:]] = c
            crossing_w[t] += w
    # below[t]: |c|^2 of the strings wholly below edge t
    below = {}
    for t in reversed(order):
        below[t] = lca_w[t] + sum(below[kid] for kid in r.kids[t])

    out: dict[Edge, int] = {}
    for e in tree.edges:
        t = e[0] if up[e[0]] == e[1] else e[1]
        rows = crossing[t]
        fold_below = below[t]
        fold_above = total - below[t] - crossing_w[t]
        # the row of the strings with nothing below the cut: the identity
        # and the one-sided strings above that a crossing column matches;
        # a row whose part below the cut is a string gets that string's
        # entry in the identity column
        top = {(): c0}
        for key, row in rows.items():
            for col in row:
                if col in coeffs and col not in top:
                    top[col] = coeffs[col]
                    fold_above -= _fixed(coeffs[col])
            if key in coeffs:
                row[()] = coeffs[key]
                fold_below -= _fixed(coeffs[key])
        matrix = [*rows.values(), top]
        if fold_below:
            matrix.append({(): math.sqrt(fold_below / _FIX_ONE)})
        if fold_above:
            # their own column: no basis string is None
            top[None] = math.sqrt(fold_above / _FIX_ONE)
        out[e] = max(_schmidt_rank(matrix), 1)
    return out


@dataclass
class BondReport:
    """Per-edge bond dimensions: diagram construction vs. rank oracle."""

    alg: dict[Edge, int]
    opt: dict[Edge, int]

    def __post_init__(self):
        if set(self.alg) != set(self.opt):
            raise ValidationError("edge sets differ between alg and opt")

    def excess(self) -> int:
        return sum(self.alg[e] - self.opt[e] for e in self.alg)

    def n_bonds(self) -> int:
        return len(self.alg)


@dataclass
class BenchRecord:
    seed: int
    sample: int
    n_terms: int
    report: BondReport
    match_visits: int = 0


def r_diff(records: list[BenchRecord]) -> float:
    """Mean over samples and bonds of (found dim - optimal dim)."""
    if not records:
        raise ValidationError("r_diff of an empty record list")
    edges = records[0].report.alg.keys()
    for i, r in enumerate(records):
        if r.report.alg.keys() != edges:
            raise ValidationError(
                f"records have inconsistent edge sets: record {i} (sample "
                f"{r.sample}, {r.n_terms} terms) differs from record 0")
    n_bonds = records[0].report.n_bonds()
    if not n_bonds:
        raise ValidationError("r_diff of records without bonds: a "
                              "single-site tree has no bond to compare")
    total = sum(r.report.excess() for r in records)
    return total / (len(records) * n_bonds)


def run_bench(tree: TreeTopology, term_counts, n_samples: int, seed: int,
              op_labels=("X", "Y", "Z"),
              max_support: int | None = None) -> dict[int, list[BenchRecord]]:
    """Seeded study: random Hamiltonians per term count, both bond-dim paths.

    Per-sample RNG streams derive from (seed, n_terms, sample), so the whole
    study is reproducible and insensitive to execution order.  The results
    are keyed by term count, so each count may be listed once.
    """
    term_counts = list(term_counts)
    for i, n_terms in enumerate(term_counts):
        if n_terms in term_counts[:i]:
            raise ValidationError(
                f"term counts repeat {n_terms}; list each count once")
    results: dict[int, list[BenchRecord]] = {}
    for n_terms in term_counts:
        records = []
        for i in range(n_samples):
            h = random_hamiltonian(tree, n_terms, op_labels, max_support,
                                   seed=(seed, n_terms, i))
            g = sd.from_hamiltonian(h)
            report = BondReport(g.bond_dimensions(), optimal_bond_dims(h))
            records.append(BenchRecord(seed, i, n_terms, report,
                                       g.match_visits))
        results[n_terms] = records
    return results


# -- CSV interchange ----------------------------------------------------------

def fmt_float(x: float) -> str:
    """17 significant digits: every CSV float round-trips exactly."""
    return "%.17g" % x


def csv_text(header, rows) -> str:
    """CSV text with a header row and newline line ends."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def detail_csv(results: dict[int, list[BenchRecord]]) -> str:
    rows = []
    for n_terms in sorted(results):
        for rec in results[n_terms]:
            for e in sorted(rec.report.alg):
                rows.append([rec.seed, rec.n_terms, f"{e[0]}-{e[1]}",
                             rec.report.alg[e], rec.report.opt[e]])
    return csv_text(["seed", "n_terms", "edge", "alg_dim", "opt_dim"], rows)


def summary_csv(results: dict[int, list[BenchRecord]]) -> str:
    rows = []
    for n_terms in sorted(results):
        recs = results[n_terms]
        rows.append([n_terms, fmt_float(r_diff(recs)), len(recs)])
    return csv_text(["n_terms", "r_diff", "n_samples"], rows)
