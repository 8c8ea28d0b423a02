"""Classical solver and bound-verification suite for quadratic dissipative
ODEs du/dt = F1 u + F2 (u kron u) via homotopy-perturbation linear embedding
and Taylor time marching."""

from .cascade import HpmCascade, solve_cascade, truncation_bound
from .embedding import (
    EmbeddedSystem,
    EmbeddingIndexMap,
    assemble_A,
    assemble_y_in,
    build_index_map,
    enumerate_level,
    structural_report,
)
from .errors import BoundViolation, HpmsimError, NumericalError, ValidationError
from .marching import (
    MarchingOperator,
    MarchingSolution,
    TaylorSystemParams,
    assemble_C,
    choose_order,
    condition_report,
    select_parameters,
    solve_marching,
)
from .measurement import MeasurementReport, final_error, postselect
from .ode import (
    NonlinearityParams,
    QuadraticODE,
    compute_K,
    make_ode,
    reference_solution,
    rescale,
)
from .pipeline import RunConfig, RunReport, generate_instance, instance_config, run, sweep
from .sparse import (
    SparseMatrix,
    dense_eigs,
    dense_expm,
    read_triplets,
    spectral_norm,
    write_triplets,
)

__version__ = "0.1.0"
