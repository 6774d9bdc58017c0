"""Minimal-bond-dimension oracle via bipartition ranks, plus the benchmark
statistic comparing it with the diagram construction.

For every tree edge the dense operator is reshaped so that rows carry the
(output, input) physical indices of one side of the cut and columns the
other side; the numerical rank of that matricization is the smallest bond
dimension any TTNO can have across the edge.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import diagram as sd
from .errors import ValidationError
from .operators import (Hamiltonian, OperatorRegistry, random_hamiltonian,
                        to_dense)
from .tree import Edge, TreeTopology

RANK_REL_TOL = 1e-10


def optimal_bond_dims(h: Hamiltonian, registry: OperatorRegistry | None = None,
                      cap: int | None = None) -> dict[Edge, int]:
    """Matricization rank of the dense operator across every tree edge."""
    tree = h.tree
    sites = list(tree.nodes)
    dims = [tree.phys_dim(s) for s in sites]
    dense = to_dense(h, sites, registry, cap)
    tensor = dense.reshape(dims + dims)
    n = len(sites)
    pos = {s: i for i, s in enumerate(sites)}
    out: dict[Edge, int] = {}
    for e in tree.edges:
        side = tree.component_without_edge(e, e[0])
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
    n_bonds = records[0].report.n_bonds()
    for r in records:
        if r.report.n_bonds() != n_bonds:
            raise ValidationError("records have inconsistent edge sets")
    total = sum(r.report.excess() for r in records)
    return total / (len(records) * n_bonds)


def r_diff_stderr(records: list[BenchRecord]) -> float:
    """Standard error of the per-sample mean excess."""
    vals = np.array([r.report.excess() / r.report.n_bonds() for r in records])
    if len(vals) < 2:
        return 0.0
    return float(vals.std(ddof=1) / np.sqrt(len(vals)))


def run_bench(tree: TreeTopology, term_counts, n_samples: int, seed: int,
              op_labels=("X", "Y", "Z"),
              max_support: int | None = None) -> dict[int, list[BenchRecord]]:
    """Seeded study: random Hamiltonians per term count, both bond-dim paths.

    Per-sample RNG streams derive from (seed, n_terms, sample), so the whole
    study is reproducible and insensitive to execution order.
    """
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
