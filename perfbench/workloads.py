"""The benchmark's workloads and the generators of their inputs.

Every workload makes its inputs from the ``--seed`` it is given and hands
``ttno`` only the generated objects.  A run sets the inputs up several times,
then repeats *passes* over them.  A pass runs the workload's job (what the
user's command does, timed as ``job_s``) and checks its outputs.  Once per
run, untimed and untraced, ``verify`` checks a small instance of the same
family for dense exactness.  Per-layer figures describe the workload's own
job only; a layer the job does not reach reports 0.

random40
    A random recursive tree of 40 sites (site i attaches to a uniformly
    chosen earlier site), drawn once from ``TREE_SEED`` and rooted at its
    smallest non-leaf site, with 1,200 distinct random Pauli terms of
    support <= 4 drawn from the seed.  The job is ``from_hamiltonian`` plus
    the bond report; there is no emission, as the dense tensors would need
    tens of GB (``assembly.dense_bytes_computed``).  Diagram match and graft
    are nearly all of the time: the quadratic construction wall.  The tree
    is fixed because its shape alone moves construction work about twofold
    between draws, which would swamp the seed-to-seed spread.
oqs_star
    ``OQSSpec(24, 6, boson_dim=4)`` on the star layout: 168 sites and 501
    terms of 1-2 sites each, with coupling, g and omega drawn from the seed.
    The job is ``from_hamiltonian``, ``emit_tensors``, ``write_ttno`` and
    ``read_ttno``: few-site terms on a large tree (the O(terms x sites)
    identity-channel regime), and a dump that is mostly zeros (the dense
    tensor wall).  Verification instance: the 3-spin x 2-bath star with
    boson_dim 2 and the same couplings.
rdiff_demo
    The r_diff study on the paper's 8-site demo tree (root 1): term counts
    5/10/20/30 x 25 samples from the seed, each sample's diagram against
    ``optimal_bond_dims``.  The dense rank oracle is nearly all of the time;
    a diagram-only change should leave ``job_s`` unchanged here.
    Verification: four samples picked by the seed.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ttno import (BenchRecord, BondReport, Hamiltonian, StateDiagram,
                  TreeTopology, contract_to_dense, dense_element_count,
                  element_count, emit_tensors, from_hamiltonian,
                  optimal_bond_dims, r_diff, random_hamiltonian, read_ttno,
                  to_dense, write_ttno)
from ttno import oqs
from ttno.assembly import canonical_legs
from ttno.errors import ValidationError

PAULIS = ("X", "Y", "Z")
DENSE_ATOL = 1e-12
COMPLEX_BYTES = np.dtype(complex).itemsize
# conftest.DEMO_EDGES of the test suite: the paper's 8-site demo tree
DEMO_EDGES = ((1, 2), (2, 3), (2, 4), (1, 5), (5, 6), (5, 7), (7, 8))


@dataclass
class PassResult:
    """Timings, exact counts and check outcomes of one pass."""

    job_s: float = 0.0
    compile_s: float = 0.0
    peak_rss_mb: float = 0.0
    exact: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    ops: int = 0
    _dumps: object = field(default_factory=hashlib.sha256)

    def add(self, key: str, value) -> None:
        self.exact[key] = self.exact.get(key, 0) + value

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))

    def add_dump(self, text: str) -> None:
        self._dumps.update(text.encode())

    def finish(self) -> "PassResult":
        self.exact["diagram_dump_sha256"] = self._dumps.hexdigest()
        return self


# -- input generators ----------------------------------------------------


def random_recursive_tree(rng, n_sites: int) -> TreeTopology:
    """Site i >= 1 attaches to a uniformly chosen site < i; the root is the
    smallest non-leaf site (n_sites >= 3)."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n_sites)]
    degree = Counter(s for e in edges for s in e)
    root = min(s for s in range(n_sites) if degree[s] > 1)
    return TreeTopology(edges, root)


def oqs_couplings(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {"coupling": float(rng.uniform(0.5, 1.5)),
            "g": complex(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)),
            "omega": float(rng.uniform(0.5, 2.0))}


def star_hamiltonian(spec: oqs.OQSSpec, tr) -> Hamiltonian:
    """``oqs.oqs_hamiltonian(spec, "star")``, one span per layer call."""
    with tr.span("tree.build"):
        tree = oqs.topology(spec, "star")
    with tr.span("oqs.oqs_terms"):
        terms = oqs.oqs_terms(spec)
    with tr.span("operators.Hamiltonian"):
        return Hamiltonian(tree, terms)


def fingerprint(h: Hamiltonian) -> tuple:
    """Everything about a Hamiltonian that construction may depend on."""
    t = h.tree
    return (t.root, t.edges, tuple(sorted(t.phys_dims.items())),
            tuple(term.key() for term in h.terms))


# -- steps shared by the workloads ----------------------------------------


def build(h: Hamiltonian, tr, incremental: bool) -> StateDiagram:
    """``from_hamiltonian``, or in traced passes the same construction as
    ``from_single_term`` plus one ``add_term`` per term, so that every term
    gets its own span."""
    if not incremental:
        with tr.span("diagram.from_hamiltonian"):
            return from_hamiltonian(h)
    with tr.span("operators.folded_terms"):
        terms = h.folded_terms()
    with tr.span("diagram.from_single_term"):
        g = StateDiagram.from_single_term(h.tree, terms[0])
    for term in terms[1:]:
        with tr.span("diagram.add_term"):
            g.add_term(term)
    return g


def dense_bytes(g: StateDiagram) -> int:
    """Bytes the dense tensors of ``g`` would take, computed from the bond
    dimensions without allocating them."""
    tree, dims = g.tree, g.bond_dimensions()
    total = 0
    for s in tree.nodes:
        n = tree.phys_dim(s) ** 2
        for e in canonical_legs(tree, s):
            n *= dims[e]
        total += n
    return total * COMPLEX_BYTES


def diagram_counts(g: StateDiagram, res: PassResult) -> None:
    res.add("match_visits", g.match_visits)
    res.add("vertices", g.n_vertices())
    res.add("hyperedges", g.n_hyperedges())
    res.add("site_slots", len(g.terms) * len(g.tree.nodes))
    res.add("bond_dim_sum", sum(g.bond_dimensions().values()))
    res.add("dense_bytes_computed", dense_bytes(g))
    res.add_dump(g.dump())


def check_validate(g: StateDiagram, res: PassResult) -> None:
    try:
        g.validate()
        ok = True
    except ValidationError:
        ok = False
    res.check("diagram.validate", ok)


def emit(g: StateDiagram, tr):
    with tr.span("assembly.emit_tensors"):
        return emit_tensors(g)


def write_read(op, path: str, tr):
    with tr.span("assembly.write_ttno"):
        write_ttno(op, path)
    with tr.span("assembly.read_ttno"):
        return read_ttno(path)


def same_operator(a, b) -> bool:
    """Same tree, legs and bit-identical tensor elements."""
    if a.tree != b.tree or set(a.tensors) != set(b.tensors):
        return False
    return all(b.tensors[s].legs == t.legs
               and b.tensors[s].elements.shape == t.elements.shape
               and b.tensors[s].elements.dtype == t.elements.dtype
               and b.tensors[s].elements.tobytes() == t.elements.tobytes()
               for s, t in a.tensors.items())


def assembly_counts(op, back, path: str, res: PassResult) -> None:
    """Element counts of ``op``, its dump's size and the read-back check."""
    res.ops += 3
    res.add("elements", element_count(op))
    res.add("dense_elements", dense_element_count(op))
    res.add("dump_bytes", os.path.getsize(path))
    res.check("read_ttno bit-identical", same_operator(op, back))


def dense_exact(op, h: Hamiltonian) -> bool:
    """``contract_to_dense(op)`` equals ``to_dense(h)`` within 1e-12."""
    return np.allclose(contract_to_dense(op), to_dense(h),
                       atol=DENSE_ATOL, rtol=0.0)


def oracle_report(g: StateDiagram, h: Hamiltonian, tr) -> BondReport:
    with tr.span("svdref.optimal_bond_dims"):
        opt = optimal_bond_dims(h)
    return BondReport(g.bond_dimensions(), opt)


def check_dominance(report: BondReport, res: PassResult) -> None:
    res.ops += 1
    res.check("alg >= opt", all(report.alg[e] >= report.opt[e]
                                for e in report.alg))


# -- workloads -----------------------------------------------------------


class Random40:
    name = "random40"
    N_SITES, N_TERMS, MAX_SUPPORT, TREE_SEED = 40, 1200, 4, 1

    def setup(self, seed: int, tr) -> dict:
        with tr.span("tree.build"):
            tree = random_recursive_tree(
                np.random.default_rng(self.TREE_SEED), self.N_SITES)
        with tr.span("operators.random_hamiltonian"):
            h = random_hamiltonian(tree, self.N_TERMS, PAULIS,
                                   self.MAX_SUPPORT, seed=[seed, 1])
        return {"seed": seed, "h": h}

    def fingerprint(self, inp: dict) -> tuple:
        return fingerprint(inp["h"])

    def run_pass(self, inp: dict, tr, incremental: bool,
                 path: str) -> PassResult:
        res = PassResult()
        h = inp["h"]
        t0 = time.perf_counter()
        g = build(h, tr, incremental)
        g.bond_dimensions()  # the bond report is the job's output
        res.job_s = res.compile_s = time.perf_counter() - t0
        res.ops += len(h.terms)
        diagram_counts(g, res)
        check_validate(g, res)
        paths = Counter(t.key() for t in g.enumerate_single_paths())
        res.check("single paths == folded terms",
                  paths == Counter(t.key() for t in h.folded_terms()))
        return res.finish()

    def verify(self, inp: dict, tally) -> None:
        """The job has no emission; the pass checks cover it."""

    def round_trip_targets(self, inp: dict) -> list[StateDiagram]:
        return []


class OqsStar:
    name = "oqs_star"
    SPINS, BATHS, BOSON_DIM = 24, 6, 4
    VERIFY = (3, 2, 2)

    def setup(self, seed: int, tr) -> dict:
        couplings = oqs_couplings(seed)
        spec = oqs.OQSSpec(self.SPINS, self.BATHS, boson_dim=self.BOSON_DIM,
                           **couplings)
        h = star_hamiltonian(spec, tr)
        return {"seed": seed, "h": h, "couplings": couplings,
                "expected": oqs.reported_bond_dims("star", spec)}

    def fingerprint(self, inp: dict) -> tuple:
        return fingerprint(inp["h"])

    def run_pass(self, inp: dict, tr, incremental: bool,
                 path: str) -> PassResult:
        res = PassResult()
        h = inp["h"]
        t0 = time.perf_counter()
        g = build(h, tr, incremental)
        op = emit(g, tr)
        t1 = time.perf_counter()
        back = write_read(op, path, tr)
        t2 = time.perf_counter()
        res.compile_s, res.job_s = t1 - t0, t2 - t0
        res.ops += len(h.terms)
        assembly_counts(op, back, path, res)
        diagram_counts(g, res)
        check_validate(g, res)
        dims = g.bond_dimensions()
        res.check("reported star bond dims",
                  all(dims[e] == d for e, d in inp["expected"].items()))
        return res.finish()

    def verify(self, inp: dict, tally) -> None:
        """The 3-spin x 2-bath star, boson_dim 2, with the run's couplings."""
        spins, baths, boson_dim = self.VERIFY
        h = oqs.oqs_hamiltonian(oqs.OQSSpec(spins, baths, boson_dim=boson_dim,
                                            **inp["couplings"]), "star")
        tally.record("verification: dense exactness",
                     dense_exact(emit_tensors(from_hamiltonian(h)), h), 3)

    def round_trip_targets(self, inp: dict) -> list[StateDiagram]:
        return [from_hamiltonian(inp["h"])]


class RdiffDemo:
    name = "rdiff_demo"
    TERM_COUNTS, SAMPLES, VERIFY_SAMPLES = (5, 10, 20, 30), 25, 4

    def setup(self, seed: int, tr) -> dict:
        with tr.span("tree.build"):
            tree = TreeTopology(DEMO_EDGES, root=1)
        samples = []
        for n in self.TERM_COUNTS:
            for i in range(self.SAMPLES):
                with tr.span("operators.random_hamiltonian"):
                    samples.append((n, i, random_hamiltonian(
                        tree, n, PAULIS, None, seed=[seed, n, i])))
        pick = np.random.default_rng([seed, 4]).choice(
            len(samples), self.VERIFY_SAMPLES, replace=False)
        return {"seed": seed, "samples": samples,
                "verify": sorted(int(k) for k in pick)}

    def fingerprint(self, inp: dict) -> tuple:
        return (tuple(inp["verify"]),
                tuple(fingerprint(h) for _, _, h in inp["samples"]))

    def run_pass(self, inp: dict, tr, incremental: bool,
                 path: str) -> PassResult:
        res = PassResult()
        records = []
        for n, i, h in inp["samples"]:
            t0 = time.perf_counter()
            g = build(h, tr, incremental)
            t1 = time.perf_counter()
            report = oracle_report(g, h, tr)
            t2 = time.perf_counter()
            res.compile_s += t1 - t0
            res.job_s += t2 - t0
            res.ops += len(h.terms)
            records.append(BenchRecord(inp["seed"], i, n, report,
                                       g.match_visits))
            diagram_counts(g, res)
            check_validate(g, res)
            check_dominance(report, res)
        res.exact["excess_sum"] = sum(r.report.excess() for r in records)
        res.exact["r_diff"] = r_diff(records)
        return res.finish()

    def verify(self, inp: dict, tally) -> None:
        """Dense exactness of the samples the seed picked."""
        for k in inp["verify"]:
            h = inp["samples"][k][2]
            tally.record(f"verification: dense exactness of sample {k}",
                         dense_exact(emit_tensors(from_hamiltonian(h)), h), 3)

    def round_trip_targets(self, inp: dict) -> list[StateDiagram]:
        return []


WORKLOADS = {w.name: w for w in (Random40(), OqsStar(), RdiffDemo())}
