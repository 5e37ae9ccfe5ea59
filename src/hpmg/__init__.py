"""Matrix-free hp-multigrid for the interior-penalty DG Poisson problem
on hierarchical base-3 Cartesian meshes.

The package splits along the solver's data flow: `mesh` builds the cell
hierarchy and its space-filling-curve order, `basis` the 1D nodal bases,
`localops` every local block of the discrete operator, `fields` the flat
per-cell storage, `smoother` the block-Jacobi traversals, `multigrid` the
two-grid cycle, `problems` the manufactured solutions, and `bench` the
experiment drivers behind the `hpmg-bench` command line.
"""

from .basis import BasisError, NodalBasis1D, make_basis, ref_matrices
from .fields import (CellField, FacetProjection, FieldError,
                     exchange_interface, fmt_float, norm)
from .localops import (AssemblyError, LocalBlocks, apply_flux,
                       build_local_blocks, default_penalty,
                       memory_access_model, predict_blocks)
from .mesh import (Mesh, MeshError, Partition, build_hierarchy,
                   make_partition, peano_order)
from .multigrid import (CoarseSolveError, CycleTrace, MgConfig, MgError,
                        MgResult, NonFiniteError, build_coarse_space, solve)
from .problems import (Problem, ProblemError, build_rhs, cell_nodes,
                       discretisation_error, fit_slope, get_problem,
                       interpolate_exact)
from .smoother import (SmootherError, SmootherState, SweepCounters,
                       apply_operator, compute_residual_only, make_state,
                       sweep)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "BasisError", "CellField",
    "CoarseSolveError",
    "CycleTrace", "FacetProjection", "FieldError",
    "LocalBlocks", "Mesh", "MeshError", "MgConfig", "MgError", "MgResult",
    "NodalBasis1D", "NonFiniteError", "Partition", "Problem", "ProblemError",
    "SmootherError",
    "SmootherState", "SweepCounters", "apply_flux",
    "apply_operator", "build_coarse_space",
    "build_hierarchy",
    "build_local_blocks", "build_rhs", "cell_nodes", "compute_residual_only",
    "default_penalty", "discretisation_error",
    "exchange_interface",
    "fit_slope", "fmt_float", "get_problem", "interpolate_exact",
    "make_basis", "make_partition", "make_state", "memory_access_model",
    "norm", "peano_order", "predict_blocks", "ref_matrices", "solve",
    "sweep",
]
