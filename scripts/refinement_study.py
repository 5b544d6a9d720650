#!/usr/bin/env python3
"""Space-time refinement study against the elastic standing wave.

With a constant modulus the exact solution is sin(pi x) cos(pi t); the
observed max-norm error should drop by about 4x per joint halving.
"""

# memvisco before numpy, so that numpy's OpenBLAS starts with memvisco's one thread
from memvisco.expressions import field_from_name
from memvisco.grid import Field, Grid, sine_transform
from memvisco.kernels import PronyKernel
from memvisco.solver import ProblemSpec, cfl_time_step, march

import numpy as np  # isort: skip

if __name__ == "__main__":
    kernel = PronyKernel(1.0, ())
    prev = None
    for n in (49, 99, 199, 399):
        grid = Grid.line(n)
        dt = cfl_time_step(grid, kernel, 1.0, 0.5, 1.0)
        spec = ProblemSpec(
            kernel=kernel,
            grid=grid,
            horizon=1.0,
            dt=dt,
            eps=1.0,
            u0=field_from_name(grid, "sin_pi_product", {"amplitude": 1.0}),
            u1=Field.zero(grid),
        )
        mode = np.sin(np.pi * grid.axis_coordinates(0))
        err = 0.0
        # the march hands its levels over in blocks of sine coefficients
        for j0, block in march(spec)[2]:
            levels = sine_transform(grid, block[0])
            exact = np.cos(np.pi * spec.times[j0 : j0 + len(levels)])[:, None] * mode
            err = max(err, float(np.abs(levels - exact).max()))
        ratio = "" if prev is None else f"  ratio {prev / err:.2f}"
        print(f"n={n:4d}  dt={dt:.6f}  max error {err:.3e}{ratio}")
        prev = err
