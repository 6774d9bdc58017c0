import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ttno.errors import ValidationError
from ttno.operators import Hamiltonian, ProductTerm, SiteOperator
from ttno.tree import TreeTopology, edge_key

DEMO_EDGES = [(1, 2), (2, 3), (2, 4), (1, 5), (5, 6), (5, 7), (7, 8)]


def demo_tree(root=1):
    return TreeTopology(DEMO_EDGES, root=root)


def ball(tree, center, radius):
    """All sites within ``radius`` of ``center``."""
    tree.neighbours(center)  # rejects an unknown site
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    out = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for s in frontier:
            for n in tree.neighbours(s):
                if n not in out:
                    out.add(n)
                    nxt.append(n)
        frontier = nxt
    return out


def boundary(tree, center, radius):
    """Sites at distance exactly ``radius`` from ``center``."""
    if radius == 0:
        tree.neighbours(center)
        return {center}
    return ball(tree, center, radius) - ball(tree, center, radius - 1)


def component_without_edge(tree, edge, anchor):
    """Sites reachable from ``anchor`` without crossing ``edge``."""
    e = edge_key(*edge)
    seen = {anchor}
    stack = [anchor]
    while stack:
        s = stack.pop()
        for n in tree.neighbours(s):
            if edge_key(s, n) == e or n in seen:
                continue
            seen.add(n)
            stack.append(n)
    return seen


def tree_from_json(text):
    return TreeTopology.from_json_dict(json.loads(text))


def tree_to_json(tree):
    return json.dumps(tree.to_json_dict(), indent=2, sort_keys=True)


def pauli_term(assignments):
    return ProductTerm(1.0, {s: SiteOperator(lbl, 2)
                             for s, lbl in assignments.items()})


def demo_terms():
    """Four overlapping three-site products on the eight-site demo tree."""
    return [
        pauli_term({2: "Y", 3: "X", 4: "X"}),
        pauli_term({1: "X", 2: "Y", 6: "Y"}),
        pauli_term({1: "X", 2: "Y", 5: "Z"}),
        pauli_term({5: "Z", 7: "X", 8: "X"}),
    ]


def r_diff_stderr(records):
    """Standard error of the per-sample mean excess of bench records."""
    vals = np.array([r.report.excess() / r.report.n_bonds() for r in records])
    if len(vals) < 2:
        return 0.0
    return float(vals.std(ddof=1) / np.sqrt(len(vals)))


def refuse_allocation(monkeypatch, shape):
    """Make ``np.zeros`` raise MemoryError for ``shape``, as for an array
    too large for memory, without allocating it."""
    zeros = np.zeros

    def fake(requested, *args, **kwargs):
        if requested == shape:
            raise MemoryError(f"cannot allocate an array of shape {shape}")
        return zeros(requested, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", fake)


@pytest.fixture
def tree():
    return demo_tree()


@pytest.fixture
def demo_hamiltonian():
    return Hamiltonian(demo_tree(), demo_terms())
