"""Wave propagation with viscoelastic memory kernels.

Simulates the motion of a medium whose stress depends on the full strain
history through a relaxation modulus, including moduli that blow up at
time zero. Shifted-kernel runs, energy accounting, and shift-sequence
convergence studies are the main entry points.
"""

__version__ = "0.1.0"

import os
# One OpenBLAS thread unless the caller set one of these (read in this order):
# no run wakes a second thread, whose start-up spin cost ~66 ms of CPU a process.
if not any(os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from memvisco.grid import Field, Grid
from memvisco.kernels import (
    AdmissibilityReport,
    KernelDomainError,
    KernelSum,
    PowerLawKernel,
    PronyKernel,
    RelaxationKernel,
    check_admissibility,
    check_fading_memory,
    kernel_diff_bound,
    kernel_from_dict,
    translate,
)
from memvisco.solver import (
    CflViolation,
    ProblemSpec,
    SolverAbort,
    TrajectorySolution,
    cfl_time_step,
    compute_stress,
    run,
    stable_time_step,
)

__all__ = [
    "__version__",
    "AdmissibilityReport",
    "CflViolation",
    "Field",
    "Grid",
    "KernelDomainError",
    "KernelSum",
    "PowerLawKernel",
    "ProblemSpec",
    "PronyKernel",
    "RelaxationKernel",
    "SolverAbort",
    "TrajectorySolution",
    "cfl_time_step",
    "check_admissibility",
    "check_fading_memory",
    "compute_stress",
    "kernel_diff_bound",
    "kernel_from_dict",
    "run",
    "stable_time_step",
    "translate",
]
