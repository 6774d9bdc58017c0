"""Symbolic operator algebra: site operators, product terms, Hamiltonians.

A Hamiltonian is a sequence of product terms ``coefficient * prod_s A^[s]``.
Sites absent from a term's factor map act as the identity.  Symbolic
equality of operators is by (base label as given, dimension, scale) only;
matrices are resolved on demand through an :class:`OperatorRegistry`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (DenseCapExceededError, DuplicateTermError,
                     UnknownOperatorError, ValidationError)
from .tree import TreeTopology, as_int

IDENTITY_LABEL = "I"

DEFAULT_DENSE_CAP = 4096


def dense_size(tree: TreeTopology) -> int:
    """Total dimension of a dense build, after checking it against the
    dense cap (the TTNO_DENSE_CAP env var, else the default)."""
    total = 1
    for s in tree.nodes:
        total *= tree.phys_dim(s)
    cap = os.environ.get("TTNO_DENSE_CAP", DEFAULT_DENSE_CAP)
    try:
        limit = int(cap)
    except ValueError as exc:
        raise ValidationError(
            f"TTNO_DENSE_CAP {cap!r} is not an integer") from exc
    if total > limit:
        raise DenseCapExceededError(
            f"total dimension {total} exceeds cap {limit}; raise "
            f"TTNO_DENSE_CAP or shrink the system")
    return total


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
_REGISTRY_STATES = itertools.count()  # OperatorRegistry.state values


@dataclass(eq=False)
class SiteOperator:
    """A labelled single-site operator.

    It resolves as ``scale * registry[base_label]`` (``base_label`` defaults
    to ``label``).  Equality and hashing are symbolic: two operators are the
    same iff base label, dimension and scale agree.  ``op_id`` is that
    identity as one int; ``label`` is for display only, so a user label such
    as ``2*X`` never matches the derived label of ``X`` scaled by 2.
    """

    label: str
    dim: int
    scale: complex = 1.0
    base_label: str | None = None
    op_id: int = field(init=False)

    def __post_init__(self):
        if type(self.label) is not str:
            raise ValidationError(
                f"operator label {self.label!r} must be a string")
        if not self.label:
            raise ValidationError("operator label must be non-empty")
        dim = as_int(self.dim)
        if dim is None:
            raise ValidationError(
                f"operator dimension {self.dim!r} must be an integer")
        self.dim = dim
        if dim < 1:
            raise ValidationError("operator dimension must be >= 1")
        if self.base_label is None:
            self.base_label = self.label
        # numbers hash and compare equal across int/float/complex, so the
        # scale needs no conversion
        key = (self.base_label, self.dim, self.scale)
        self.op_id = _OPERATOR_IDS.setdefault(key, len(_OPERATOR_IDS))

    def is_identity(self) -> bool:
        return self.label == IDENTITY_LABEL

    def scaled(self, c: complex,
               derived: dict | None = None) -> "SiteOperator":
        """This operator multiplied by a scalar, with a derived label.  The
        result is the one ``derived`` holds under its (base label, dim,
        scale), if any, else a new one filed there; label and id are
        functions of that key, so sharing changes no output."""
        c = complex(c)
        if c == 1.0:
            return self
        total = c * self.scale
        base = self.base_label
        key = (base, self.dim, total)
        derived = {} if derived is None else derived
        op = derived.get(key)
        if op is None:
            label = base if total == 1.0 else f"{format_scalar(total)}*{base}"
            op = derived[key] = SiteOperator(label, self.dim, scale=total,
                                             base_label=base)
        return op

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
    dimension.  A factory operator is built once per (label, dimension) and
    handed out read-only; a label registered for that dimension wins.
    ``state`` is drawn from one process-wide counter at creation and at
    every ``register``: no two registry states share it.
    """

    def __init__(self):
        self.state = next(_REGISTRY_STATES)
        self._matrices: dict[tuple[str, int], np.ndarray] = {}
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
        if not np.isfinite(m).all():
            raise ValidationError(f"operator {label!r}: matrix entries must "
                                  f"be finite")
        if label == IDENTITY_LABEL and not np.array_equal(
                m, np.eye(m.shape[0])):
            raise ValidationError(
                f"operator {label!r}: the label is reserved for the identity")
        self._matrices[(label, m.shape[0])] = m
        self.state = next(_REGISTRY_STATES)

    def lookup(self, label: str, dim: int) -> np.ndarray:
        key = (label, dim)
        m = self._matrices.get(key)
        if m is None:
            if label not in self._factories:
                raise UnknownOperatorError(
                    f"no matrix for label {label!r} at dim {dim}")
            m = self._matrices[key] = self._factories[label](dim)
            m.flags.writeable = False
        return m

    def resolve(self, op: SiteOperator) -> np.ndarray:
        """Dense matrix of ``op``: its base label's matrix times its
        scale."""
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
        c = self.coefficient = complex(self.coefficient)
        if c == 0:
            raise ValidationError("term coefficient must be non-zero")
        if not cmath.isfinite(c):
            raise ValidationError(f"term coefficient {c!r} is not finite")
        for s, op in self.factors.items():
            if op.label == IDENTITY_LABEL:  # op.is_identity(), inline
                raise ValidationError(
                    f"identity factor at site {s}: identities are implicit")

    def key(self) -> tuple:
        """Canonical symbolic identity, independent of factor-map order."""
        pairs = [(s, op.op_id) for s, op in self.factors.items()]
        pairs.sort()
        return (self.coefficient, tuple(pairs))

    def __eq__(self, other):
        return isinstance(other, ProductTerm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        facs = " ".join(f"{op.label}@{s}" for s, op in sorted(self.factors.items()))
        return f"ProductTerm({format_scalar(self.coefficient)} * [{facs or 'I'}])"


def fold_coefficient(term: ProductTerm, root: int, root_dim: int,
                     derived: dict | None = None) -> ProductTerm:
    """Absorb the scalar into the factor at the smallest acted-on site.

    The folded factor carries the scale in its identity (and a derived
    display label like ``-2*X``), so scaled operators stay distinct.  A
    factor that the scalar turns into the identity (base label ``I``, scale
    1) is dropped, as identities are implicit.  An all-identity term folds
    into an explicit scaled identity at ``root``, of dimension
    ``root_dim``.  ``derived`` is the table of scaled operators that
    ``SiteOperator.scaled`` shares.
    """
    if term.coefficient == 1.0:
        return term
    c = term.coefficient
    if not term.factors:
        return ProductTerm(1.0, {root: identity(root_dim).scaled(c, derived)})
    target = min(term.factors)
    op = term.factors[target].scaled(c, derived)
    factors = {**term.factors, target: op}
    if op.base_label == IDENTITY_LABEL and op.scale == 1.0:
        del factors[target]
    return ProductTerm(1.0, factors)


def take_term(term: ProductTerm, n: int, tree: TreeTopology,
              derived: dict) -> tuple[ProductTerm, tuple]:
    """Term number ``n`` checked against ``tree``, folded and keyed: the
    folded term and its key.  Its scaled factor comes from ``derived``
    (see ``SiteOperator.scaled``), so equal folds share one operator."""
    phys_dims = tree.phys_dims
    for s, op in term.factors.items():
        d = phys_dims.get(s)
        if d is None:
            raise ValidationError(f"term {n} acts on unknown site {s}")
        if op.dim != d:
            raise ValidationError(f"term {n}: operator {op.label!r} (dim "
                                  f"{op.dim}) does not match site {s} (dim {d})")
    f = fold_coefficient(term, tree.root, phys_dims[tree.root], derived)
    return f, f.key()


class Hamiltonian:
    """A tree plus a tuple of product terms, each checked, folded and keyed
    once (``take_term``): ``folded`` maps the keys to the folded terms in
    order (read-only)."""

    def __init__(self, tree: TreeTopology, terms):
        self.tree = tree
        self.terms: tuple[ProductTerm, ...] = tuple(terms)
        folded = self.folded = {}
        derived: dict = {}
        for n, t in enumerate(self.terms):
            f, k = take_term(t, n, tree, derived)
            if k in folded:  # the i-th key in ``folded`` is term i's
                raise DuplicateTermError(f"term {n} repeats term "
                                         f"{list(folded).index(k)}: {t!r}")
            folded[k] = f

    def folded_terms(self) -> list[ProductTerm]:
        return list(self.folded.values())

    def __repr__(self):
        return f"Hamiltonian({len(self.terms)} terms on {self.tree!r})"


def to_dense(h: Hamiltonian, *,
             registry: OperatorRegistry | None = None) -> np.ndarray:
    """Dense matrix of ``h``, Kronecker factors in ascending site order,
    each term added through one strided view of the output: the diagonal of
    an identity site, the d x d axes of an operator (none at dimension 1)."""
    registry = registry or DEFAULT_REGISTRY
    tree = h.tree
    total = dense_size(tree)
    out = np.zeros((total, total), dtype=complex)
    layout, place = [], total  # per site: its place value, in bytes
    for s in tree.nodes:
        place //= tree.phys_dim(s)
        layout.append((s, tree.phys_dim(s), place * out.itemsize))
    for term in h.terms:
        # one leading axis keeps ``block`` an array, so every product takes
        # the Kronecker product's ufunc path, never numpy's scalar one
        block = np.array([term.coefficient], dtype=complex)
        shape, strides = [1], [0]
        for s, d, step in layout:
            op = term.factors.get(s)
            if op is None:
                if d > 1:
                    block = block[..., None]
                    shape += [d]
                    strides += [step * (total + 1)]
            elif d == 1:
                block = block * registry.resolve(op)[0, 0]
            else:
                block = np.multiply.outer(block, registry.resolve(op))
                shape += [d, d]
                strides += [step * total, step]
        view = np.lib.stride_tricks.as_strided(out, shape, strides)
        view += block
    return out


def random_hamiltonian(tree: TreeTopology, n_terms: int, op_labels,
                       max_support: int | None = None,
                       seed=None) -> Hamiltonian:
    """Deterministic random Hamiltonian with pairwise-distinct terms.

    Each term has unit coefficient, a uniformly chosen non-empty support of
    size <= ``max_support`` and labels uniform over ``op_labels``, which
    must be distinct.  A term takes three draws from
    ``numpy.random.default_rng(seed)``: one uniform double for the support
    size, inverted through the cumulative size weights as
    ``Generator.choice(k_max, p=weights)`` would; one ``choice`` of the k
    sites without replacement; and one ``integers`` array of the k labels,
    in ascending site order.  That sequence is the reproducibility
    contract: a seed names the same terms, in the same order, as long as
    numpy keeps these draws.  A term drawn before is dropped.
    """
    sites = tree.nodes
    n_sites = len(sites)
    k_max = n_sites if max_support is None else max_support
    for name, value in (("n_terms", n_terms), ("max_support", k_max)):
        if as_int(value) is None:
            raise ValidationError(f"{name} {value!r} must be an integer")
    labels = list(op_labels)
    if n_terms < 1:
        raise ValidationError("n_terms must be >= 1")
    if not labels or IDENTITY_LABEL in labels:
        raise ValidationError("op_labels must be non-empty and identity-free")
    for i, lbl in enumerate(labels):
        if lbl in labels[:i]:
            raise ValidationError(
                f"op_labels repeat {lbl!r}; list each label once")
    k_max = min(k_max, n_sites)
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
    # the cumulative weights exactly as Generator.choice forms them
    cdf = size_weights.cumsum()
    cdf /= cdf[-1]
    dims = [tree.phys_dim(s) for s in sites]
    # one operator per (label, dim), made on first use so that operator ids
    # are handed out in the order the terms first name them
    ops: dict[tuple[str, int], SiteOperator] = {}

    # terms by their (site index, label index) pairs: with unit
    # coefficients and distinct labels, equal draws are equal terms
    terms: dict[tuple, ProductTerm] = {}
    while len(terms) < n_terms:
        k = 1 + int(cdf.searchsorted(rng.random(), side="right"))
        chosen = rng.choice(n_sites, size=k, replace=False)
        chosen.sort()
        draw = tuple(zip(chosen.tolist(),
                         rng.integers(len(labels), size=k).tolist()))
        if draw in terms:
            continue
        factors = {}
        for idx, j in draw:
            label_dim = (labels[j], dims[idx])
            op = ops.get(label_dim)
            if op is None:
                op = ops[label_dim] = SiteOperator(*label_dim)
            factors[sites[idx]] = op
        terms[draw] = ProductTerm(1.0, factors)
    return Hamiltonian(tree, terms.values())
