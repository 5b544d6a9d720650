#!/usr/bin/env python3
"""Shift-sequence study for a singular modulus, printed as a table.

Solves the same problem at shifts eps_h = 0.1 * 2^-h with the integral
marcher and prints successive solution distances with their empirical
rate, next to the kernel-difference sup bound driving the limit, and each
shift's modal stability margin z_max: the self-weight of the implicit
step times the largest eigenvalue of -lap.

    PYTHONPATH=src python scripts/shift_convergence_study.py
"""

from memvisco.convergence import cauchy_report, eps_schedule, run_eps_sequence
from memvisco.expressions import field_from_name
from memvisco.grid import Field, Grid
from memvisco.kernels import PowerLawKernel
from memvisco.solver import ProblemSpec

if __name__ == "__main__":
    kernel = PowerLawKernel(c=1.0, alpha=0.5)
    grid = Grid.line(49)
    eps_values = eps_schedule(0.1, 0.5, 6)
    base = ProblemSpec(
        kernel=kernel,
        grid=grid,
        horizon=1.0,
        dt=0.005,
        eps=float(eps_values[0]),
        u0=Field.zero(grid),
        u1=field_from_name(grid, "sin_pi_product", {"amplitude": 1.0}),
        formulation="integral_volterra",
    )
    sequence = run_eps_sequence(base, 0.1, 0.5, 6)
    report = cauchy_report(sequence, kernel, tolerance=1e-2)
    print("  h        eps       d_h = |u_h - u_{h+1}|    sup|K(eps+s)-K(s)|                  z_max")
    for h, (eps, record) in enumerate(zip(eps_values, sequence.runs)):
        d = f"{report.distances[h]:.6e}" if h < report.distances.size else "-"
        print(f"  {h}   {eps:10.6f}   {d:>22}   {report.kernel_sup_bounds[h]:.6e}   {record.z_max:>22.6f}")
    print(f"fitted rate {report.fitted_rate:.3f}   monotone {report.monotone}   passed {report.passed}")
