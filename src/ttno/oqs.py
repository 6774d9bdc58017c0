"""Spin-chain-plus-bosonic-baths model builders and bond-dimension profiles.

The model: a spin-1/2 exchange chain of length N (coupling -J on XX, YY and
ZZ), each spin coupled to M non-interacting truncated bosonic modes through
g Z B + conj(g) Z Bdag, with a frequency term omega N per mode.

Site ids are shared by all three topologies: spin s -> s*(M+1), boson
(s, b) -> s*(M+1)+1+b.  Only the edge sets differ, so dense matrices of the
three builds are directly comparable.

Coupling scalars are attached to the bosonic factors (gB, conj(g)Bdag,
omega N) with unit term coefficients; the exchange terms carry -J as a term
coefficient, which folding places on the earlier spin.  This keeps the
spin-side start labels {-J*X, -J*Y, -J*Z, Z} pairwise distinct, which is
what yields the compact chain profile (5,6)/(6,6)/(6,5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ValidationError
from .operators import Hamiltonian, ProductTerm, SiteOperator
from .tree import Edge, TreeTopology, edge_key

TOPOLOGIES = ("chain", "ftp", "star")


@dataclass(frozen=True)
class OQSSpec:
    n_spins: int
    n_baths: int
    coupling: float = 1.0          # exchange strength J
    g: complex = 0.5 + 0.25j       # spin-boson coupling
    omega: float = 1.5             # boson frequency
    boson_dim: int = 2

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValidationError("need at least one spin")
        if self.n_baths < 0:
            raise ValidationError("bath count must be >= 0")
        if self.boson_dim < 2:
            raise ValidationError("boson truncation dimension must be >= 2")


def spin_site(spec: OQSSpec, s: int) -> int:
    return s * (spec.n_baths + 1)


def boson_site(spec: OQSSpec, s: int, b: int) -> int:
    return s * (spec.n_baths + 1) + 1 + b


def n_sites(spec: OQSSpec) -> int:
    return spec.n_spins * (spec.n_baths + 1)


def _phys_dims(spec: OQSSpec) -> dict[int, int]:
    dims = {}
    for s in range(spec.n_spins):
        dims[spin_site(spec, s)] = 2
        for b in range(spec.n_baths):
            dims[boson_site(spec, s, b)] = spec.boson_dim
    return dims


def oqs_terms(spec: OQSSpec) -> list[ProductTerm]:
    """Topology-independent term list: 3(N-1) exchange terms, 2NM couplings,
    NM frequency terms (in that order)."""
    terms: list[ProductTerm] = []
    j = spec.coupling
    # one operator object per distinct operator, shared by all its terms
    pauli = {lbl: SiteOperator(lbl, 2) for lbl in ("X", "Y", "Z")}
    for s in range(spec.n_spins - 1):
        a, b = spin_site(spec, s), spin_site(spec, s + 1)
        for lbl in ("X", "Y", "Z"):
            terms.append(ProductTerm(-j, {a: pauli[lbl], b: pauli[lbl]}))
    d = spec.boson_dim
    g = complex(spec.g)
    gb = SiteOperator("B", d).scaled(g)
    gbdag = SiteOperator("Bdag", d).scaled(g.conjugate())
    for s in range(spec.n_spins):
        zs = spin_site(spec, s)
        for b in range(spec.n_baths):
            bs = boson_site(spec, s, b)
            terms.append(ProductTerm(1.0, {zs: pauli["Z"], bs: gb}))
            terms.append(ProductTerm(1.0, {zs: pauli["Z"], bs: gbdag}))
    omega_n = SiteOperator("N", d).scaled(spec.omega)
    for s in range(spec.n_spins):
        for b in range(spec.n_baths):
            bs = boson_site(spec, s, b)
            terms.append(ProductTerm(1.0, {bs: omega_n}))
    return terms


def _topology(spec: OQSSpec, edges) -> TreeTopology:
    """The tree over all sites of ``spec`` with the given edges, rooted at
    its smallest non-leaf site (site 0 for one or two sites)."""
    degree = Counter(s for e in edges for s in e)
    root = min((s for s, k in degree.items() if k > 1), default=0)
    return TreeTopology(edges, root, _phys_dims(spec))


def chain_topology(spec: OQSSpec) -> TreeTopology:
    """spin 0, its M bosons, spin 1, its bosons, ..."""
    return _topology(spec, [(i, i + 1) for i in range(n_sites(spec) - 1)])


def ftp_topology(spec: OQSSpec) -> TreeTopology:
    """Spin backbone; each spin carries its bosons as a pendant chain."""
    edges = []
    for s in range(spec.n_spins - 1):
        edges.append((spin_site(spec, s), spin_site(spec, s + 1)))
    for s in range(spec.n_spins):
        prev = spin_site(spec, s)
        for b in range(spec.n_baths):
            nxt = boson_site(spec, s, b)
            edges.append((prev, nxt))
            prev = nxt
    return _topology(spec, edges)


def star_topology(spec: OQSSpec) -> TreeTopology:
    """Spin backbone; each spin adjacent to all of its bosons directly."""
    edges = []
    for s in range(spec.n_spins - 1):
        edges.append((spin_site(spec, s), spin_site(spec, s + 1)))
    for s in range(spec.n_spins):
        for b in range(spec.n_baths):
            edges.append((spin_site(spec, s), boson_site(spec, s, b)))
    return _topology(spec, edges)


def topology(spec: OQSSpec, kind: str) -> TreeTopology:
    if kind == "chain":
        return chain_topology(spec)
    if kind == "ftp":
        return ftp_topology(spec)
    if kind == "star":
        return star_topology(spec)
    raise ValidationError(f"unknown topology {kind!r}")


def oqs_hamiltonian(spec: OQSSpec, kind: str = "chain") -> Hamiltonian:
    return Hamiltonian(topology(spec, kind), oqs_terms(spec))


# -- expected bond-dimension profiles -----------------------------------------

def reported_bond_dims(kind: str, spec: OQSSpec) -> dict[Edge, int]:
    """Expected per-edge bond dimensions away from chain boundaries.

    chain: interior spins see (5, 6); interior bosons (6, 6), or (6, 5) for
    the last boson of a group.  ftp: every backbone bond 5, every pendant
    bond 3.  star: spin-spin bonds 5, spin-boson bonds 3.
    """
    if spec.n_spins < 3 or spec.n_baths < 2:
        raise ValidationError("profiles need n_spins >= 3 and n_baths >= 2")
    n, m = spec.n_spins, spec.n_baths
    out: dict[Edge, int] = {}
    if kind == "chain":
        for s in range(1, n):
            out[edge_key(boson_site(spec, s - 1, m - 1), spin_site(spec, s))] = 5
        for s in range(1, n - 1):
            out[edge_key(spin_site(spec, s), boson_site(spec, s, 0))] = 6
            for b in range(m - 1):
                out[edge_key(boson_site(spec, s, b),
                             boson_site(spec, s, b + 1))] = 6
        return out
    if kind in ("ftp", "star"):
        # every bond of these trees: spin-spin bonds 5, the rest 3
        spins = {spin_site(spec, s) for s in range(n)}
        return {e: 5 if set(e) <= spins else 3
                for e in topology(spec, kind).edges}
    raise ValidationError(f"unknown topology {kind!r}")
