"""Symbolic operator algebra: site operators, product terms, Hamiltonians.

A Hamiltonian is a list of product terms ``coefficient * prod_s A^[s]``.
Sites absent from a term's factor map act as the identity.  Symbolic
equality of operators is by (base label as given, dimension, scale) only;
matrices are resolved on demand through an :class:`OperatorRegistry`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (DenseCapExceededError, DuplicateTermError,
                     UnknownOperatorError, ValidationError)
from .tree import TreeTopology

IDENTITY_LABEL = "I"

DEFAULT_DENSE_CAP = 4096


def dense_layout(tree: TreeTopology, ordering=None,
                 cap: int | None = None) -> tuple[list[int], int]:
    """Site ordering (default ascending) and total dimension of a dense
    build, after checking the ordering and the dense cap (``cap``, else the
    TTNO_DENSE_CAP env var, else the default)."""
    if ordering is None:
        ordering = list(tree.nodes)
    else:
        ordering = list(ordering)
        if sorted(ordering) != list(tree.nodes):
            raise ValidationError("ordering must be a permutation of the sites")
    total = 1
    for s in ordering:
        total *= tree.phys_dim(s)
    if cap is None:
        cap = os.environ.get("TTNO_DENSE_CAP", DEFAULT_DENSE_CAP)
    limit = int(cap)
    if total > limit:
        raise DenseCapExceededError(
            f"total dimension {total} exceeds cap {limit}")
    return ordering, total


def format_scalar(c: complex) -> str:
    """Deterministic compact rendering of a scalar for derived labels."""
    c = complex(c)

    def fmt_real(x: float) -> str:
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    if c.imag == 0.0:
        return fmt_real(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"({fmt_real(c.real)}{sign}{fmt_real(abs(c.imag))}j)"


# (base label, dim, scale) -> small int; ids are only ever compared for
# equality, so sharing one table across the process is harmless
_OPERATOR_IDS: dict[tuple[str, int, complex], int] = {}


@dataclass(eq=False)
class SiteOperator:
    """A labelled single-site operator.

    ``matrix`` may be attached directly; otherwise the operator resolves as
    ``scale * registry[base_label]`` (``base_label`` defaults to ``label``).
    Equality and hashing are symbolic: two operators are the same iff base
    label, dimension and scale agree.  ``op_id`` is that identity as one
    int; ``label`` is for display only, so a user label such as ``2*X``
    never matches the derived label of ``X`` scaled by 2.
    """

    label: str
    dim: int
    matrix: np.ndarray | None = None
    scale: complex = 1.0
    base_label: str | None = None
    op_id: int = field(init=False)

    def __post_init__(self):
        if not self.label:
            raise ValidationError("operator label must be non-empty")
        if self.dim < 1:
            raise ValidationError("operator dimension must be >= 1")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"matrix for {self.label!r} must be {self.dim}x{self.dim}")
            if self.label == IDENTITY_LABEL and not np.allclose(m, np.eye(self.dim)):
                raise ValidationError("label 'I' is reserved for the identity")
            self.matrix = m
        if self.base_label is None:
            self.base_label = self.label
        # numbers hash and compare equal across int/float/complex, so the
        # scale needs no conversion
        key = (self.base_label, self.dim, self.scale)
        self.op_id = _OPERATOR_IDS.setdefault(key, len(_OPERATOR_IDS))

    def is_identity(self) -> bool:
        return self.label == IDENTITY_LABEL

    def scaled(self, c: complex) -> "SiteOperator":
        """This operator multiplied by a scalar, with a derived label."""
        c = complex(c)
        if c == 1.0:
            return self
        total = c * self.scale
        base = self.base_label
        if self.matrix is not None:
            return SiteOperator(f"{format_scalar(c)}*{self.label}", self.dim,
                                matrix=c * self.matrix, scale=total,
                                base_label=base)
        if total == 1.0:
            label = base
        else:
            label = f"{format_scalar(total)}*{base}"
        return SiteOperator(label, self.dim, scale=total, base_label=base)

    def __eq__(self, other):
        return isinstance(other, SiteOperator) and self.op_id == other.op_id

    def __hash__(self):
        return self.op_id

    def __repr__(self):
        return f"SiteOperator({self.label!r}, dim={self.dim})"


def identity(dim: int) -> SiteOperator:
    return SiteOperator(IDENTITY_LABEL, dim)


class OperatorRegistry:
    """Maps operator labels to dense matrices per physical dimension.

    Ships Pauli X/Y/Z (dim 2), the identity for any dimension, and truncated
    bosonic annihilation/creation/number operators B, Bdag, N for any
    dimension.
    """

    def __init__(self):
        self._fixed: dict[tuple[str, int], np.ndarray] = {}
        self._factories: dict[str, callable] = {}
        self._factories[IDENTITY_LABEL] = lambda d: np.eye(d, dtype=complex)
        self._factories["B"] = _boson_annihilation
        self._factories["Bdag"] = lambda d: _boson_annihilation(d).conj().T
        self._factories["N"] = lambda d: np.diag(np.arange(d, dtype=complex))
        self.register("X", np.array([[0, 1], [1, 0]], dtype=complex))
        self.register("Y", np.array([[0, -1j], [1j, 0]], dtype=complex))
        self.register("Z", np.array([[1, 0], [0, -1]], dtype=complex))

    def register(self, label: str, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix for {label!r} must be square")
        self._fixed[(label, m.shape[0])] = m

    def lookup(self, label: str, dim: int) -> np.ndarray:
        key = (label, dim)
        if key in self._fixed:
            return self._fixed[key]
        if label in self._factories:
            return self._factories[label](dim)
        raise UnknownOperatorError(f"no matrix for label {label!r} at dim {dim}")

    def resolve(self, op: SiteOperator) -> np.ndarray:
        """Dense matrix of ``op``, honouring attached matrices and scales."""
        if op.matrix is not None:
            return op.matrix
        m = self.lookup(op.base_label, op.dim)
        if op.scale != 1.0:
            return op.scale * m
        return m


def _boson_annihilation(dim: int) -> np.ndarray:
    b = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        b[n, n + 1] = math.sqrt(n + 1)
    return b


DEFAULT_REGISTRY = OperatorRegistry()


@dataclass(eq=False)
class ProductTerm:
    """``coefficient * prod_s factors[s]``; absent sites act as identity."""

    coefficient: complex
    factors: dict[int, SiteOperator] = field(default_factory=dict)

    def __post_init__(self):
        self.coefficient = complex(self.coefficient)
        if self.coefficient == 0:
            raise ValidationError("term coefficient must be non-zero")
        for s, op in self.factors.items():
            if op.is_identity():
                raise ValidationError(
                    f"identity factor at site {s}: identities are implicit")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.factors))

    def op_at(self, site: int, dim: int) -> SiteOperator:
        return self.factors.get(site) or identity(dim)

    def key(self) -> tuple:
        """Canonical symbolic identity, independent of factor-map order."""
        return (self.coefficient,
                tuple((s, op.op_id) for s, op in
                      sorted(self.factors.items())))

    def __eq__(self, other):
        return isinstance(other, ProductTerm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        facs = " ".join(f"{op.label}@{s}" for s, op in sorted(self.factors.items()))
        return f"ProductTerm({format_scalar(self.coefficient)} * [{facs or 'I'}])"


def fold_coefficient(term: ProductTerm, root: int | None = None,
                     root_dim: int = 2) -> ProductTerm:
    """Absorb the scalar into the factor at the smallest acted-on site.

    The folded factor carries the scale in its identity (and a derived
    display label like ``-2*X``), so scaled operators stay distinct.  An
    all-identity term folds into an explicit scaled identity at the root,
    which must then be supplied.
    """
    if term.coefficient == 1.0:
        return term
    c = term.coefficient
    if not term.factors:
        if root is None:
            raise ValidationError(
                "folding an all-identity term requires the root site")
        return ProductTerm(1.0, {root: identity(root_dim).scaled(c)})
    target = min(term.factors)
    new_factors = dict(term.factors)
    new_factors[target] = term.factors[target].scaled(c)
    return ProductTerm(1.0, new_factors)


class Hamiltonian:
    """A tree plus an ordered list of product terms."""

    def __init__(self, tree: TreeTopology, terms):
        self.tree = tree
        self.terms: list[ProductTerm] = list(terms)
        seen = set()
        for t in self.terms:
            for s, op in t.factors.items():
                if s not in tree.phys_dims:
                    raise ValidationError(f"term acts on unknown site {s}")
                if op.dim != tree.phys_dim(s):
                    raise ValidationError(
                        f"operator {op.label!r} (dim {op.dim}) does not match "
                        f"site {s} (dim {tree.phys_dim(s)})")
            k = fold_coefficient(t, tree.root, tree.phys_dim(tree.root)).key()
            if k in seen:
                raise DuplicateTermError(f"duplicate term {t!r}")
            seen.add(k)

    def folded_terms(self) -> list[ProductTerm]:
        root = self.tree.root
        return [fold_coefficient(t, root, self.tree.phys_dim(root))
                for t in self.terms]

    def __repr__(self):
        return f"Hamiltonian({len(self.terms)} terms on {self.tree!r})"


def to_dense(h: Hamiltonian, ordering=None,
             registry: OperatorRegistry | None = None,
             cap: int | None = None) -> np.ndarray:
    """Dense matrix of ``h``, Kronecker factors in the given site ordering."""
    registry = registry or DEFAULT_REGISTRY
    tree = h.tree
    ordering, total = dense_layout(tree, ordering, cap)
    out = np.zeros((total, total), dtype=complex)
    for term in h.terms:
        block = np.array([[term.coefficient]], dtype=complex)
        for s in ordering:
            m = registry.resolve(term.op_at(s, tree.phys_dim(s)))
            block = np.kron(block, m)
        out += block
    return out


def random_hamiltonian(tree: TreeTopology, n_terms: int, op_labels,
                       max_support: int | None = None,
                       seed=None) -> Hamiltonian:
    """Deterministic random Hamiltonian with pairwise-distinct terms.

    Each term has unit coefficient, a uniformly chosen non-empty support of
    size <= ``max_support`` and labels uniform over ``op_labels``.
    """
    labels = list(op_labels)
    if n_terms < 1:
        raise ValidationError("n_terms must be >= 1")
    if not labels or IDENTITY_LABEL in labels:
        raise ValidationError("op_labels must be non-empty and identity-free")
    sites = tree.nodes
    n_sites = len(sites)
    k_max = n_sites if max_support is None else min(max_support, n_sites)
    if k_max < 1:
        raise ValidationError("max_support must be >= 1")
    # distinct terms per support size
    per_size = [math.comb(n_sites, k) * len(labels) ** k
                for k in range(1, k_max + 1)]
    n_possible = sum(per_size)
    if n_terms > n_possible:
        raise ValidationError(
            f"requested {n_terms} distinct terms but only {n_possible} exist")

    rng = np.random.default_rng(seed)
    size_weights = np.array(per_size, dtype=float)
    size_weights /= size_weights.sum()

    terms: list[ProductTerm] = []
    seen: set = set()
    while len(terms) < n_terms:
        k = 1 + int(rng.choice(k_max, p=size_weights))
        chosen = rng.choice(n_sites, size=k, replace=False)
        factors = {}
        for idx in sorted(chosen):
            s = sites[int(idx)]
            lbl = labels[int(rng.integers(len(labels)))]
            factors[s] = SiteOperator(lbl, tree.phys_dim(s))
        term = ProductTerm(1.0, factors)
        key = term.key()
        if key in seen:
            continue
        seen.add(key)
        terms.append(term)
    return Hamiltonian(tree, terms)
