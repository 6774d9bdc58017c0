import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ttno.operators import Hamiltonian, ProductTerm, SiteOperator
from ttno.tree import TreeTopology

DEMO_EDGES = [(1, 2), (2, 3), (2, 4), (1, 5), (5, 6), (5, 7), (7, 8)]


def demo_tree(root=1):
    return TreeTopology(DEMO_EDGES, root=root)


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
