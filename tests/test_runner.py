"""Artifact writers of the experiment runner."""

from types import SimpleNamespace

import pytest

from helpers import reference_trajectory_csv
from memvisco.expressions import field_from_name
from memvisco.grid import Field, Grid
from memvisco.kernels import PronyKernel
from memvisco.runner import _export_trajectory
from memvisco.solver import ProblemSpec, run

PRONY = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))


@pytest.mark.parametrize("grid", [Grid.line(7), Grid((3, 4, 5), (1.0, 2.0, 0.5))], ids=["1d", "3d"])
@pytest.mark.parametrize("stride", [1, 4, 5])
def test_trajectory_csv_matches_row_list_export(tmp_path, grid, stride):
    spec = ProblemSpec(
        kernel=PRONY, grid=grid, horizon=0.2, dt=0.02, eps=0.05,
        u0=Field.zero(grid), u1=field_from_name(grid, "bump", {"radius": 0.4}),
    )
    traj = run(spec)
    _export_trajectory(tmp_path, SimpleNamespace(export_format="csv", snapshot_stride=stride), traj)
    got = (tmp_path / "trajectory.csv").read_bytes()
    assert got == reference_trajectory_csv(traj, stride).encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
