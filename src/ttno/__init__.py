"""Tree tensor network operators from sum-of-products Hamiltonians."""

from .assembly import (TTNO, TTNOTensor, assign_indices, contract_to_dense,
                       dense_element_count, element_count, emit_tensors,
                       read_ttno, write_ttno)
from .diagram import SinglePath, StateDiagram, from_hamiltonian
from .operators import (DEFAULT_REGISTRY, Hamiltonian, OperatorRegistry,
                        ProductTerm, SiteOperator, fold_coefficient,
                        random_hamiltonian, to_dense)
from .svdref import BenchRecord, BondReport, optimal_bond_dims, r_diff, run_bench
from .tree import TreeTopology, edge_key

__all__ = [
    "TTNO", "TTNOTensor", "assign_indices", "contract_to_dense",
    "dense_element_count", "element_count", "emit_tensors", "read_ttno",
    "write_ttno", "SinglePath", "StateDiagram", "from_hamiltonian",
    "DEFAULT_REGISTRY", "Hamiltonian", "OperatorRegistry", "ProductTerm",
    "SiteOperator", "fold_coefficient", "random_hamiltonian", "to_dense",
    "BenchRecord", "BondReport", "optimal_bond_dims", "r_diff", "run_bench",
    "TreeTopology", "edge_key",
]

__version__ = "0.1.0"
