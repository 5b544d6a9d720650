"""Artifact writers of the experiment runner."""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    nodal_levels,
    nodal_velocities,
    reference_trajectory_csv,
    reference_velocities,
    row_wise_csv,
    stored_reduction,
)
from memvisco.expressions import field_from_name
from memvisco.grid import Field, Grid
from memvisco.kernels import PronyKernel
from memvisco.grid import sine_transform
from memvisco import runner
from memvisco.runner import _Phases, _reprs, _trajectory_export, _trajectory_rows, _write_atomic, _write_csv
from memvisco.solver import ProblemSpec, run, run_block

PRONY = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
LINE = Grid.line(7)
BOX = Grid((3, 4, 5), (1.0, 2.0, 0.5))


def solve(grid: Grid, horizon: float = 0.2):
    spec = ProblemSpec(
        kernel=PRONY, grid=grid, horizon=horizon, dt=0.02, eps=0.05,
        u0=Field.zero(grid), u1=field_from_name(grid, "bump", {"radius": 0.4}),
    )
    return run(spec)


def _trajectory_csv(grid, times, nodal, velocities, piece):
    """trajectory.csv text of the levels at times, with nodal values and
    velocities, (levels, *grid.shape) each, handed to rows piece levels at
    a time."""
    header, rows = _trajectory_rows(grid)
    yield header
    stamps = _reprs(times)
    for a in range(0, len(stamps), piece):
        yield from rows(stamps[a : a + piece], nodal[a : a + piece], velocities[a : a + piece])


def export_stored(out_dir, export_format, stride, traj):
    """The single run's exports of a stored run, written as the reduction
    hands its levels over, a piece at a time."""
    cfg = SimpleNamespace(export_format=export_format, snapshot_stride=stride)
    with _trajectory_export(out_dir, cfg, traj.grid, traj.times) as export:
        stored_reduction(traj, export=export)


def exported_levels(traj, stride):
    """The nodal values and velocities of every stride-th level of a stored
    run, each level transformed alone, as the export transforms them."""
    exported = range(0, traj.n_levels, stride)
    u = np.concatenate([nodal_levels(traj, j, j + 1) for j in exported])
    v = np.concatenate([nodal_velocities(traj, j, j + 1) for j in exported])
    return u, v


# 131 levels of either grid reduce in pieces of 16 levels, the last of 3,
# so a piece holds up to 16 tabled levels.  Slices of 4 rows split the
# line's 7 nodes as 4 + 3 and slices of 7 the box's 60 as 8 x 7 + 4, so at
# strides 1, 4, 5 and 7 a slice spans level boundaries; None keeps the
# module's slice, which holds a piece of either grid whole.  A wide case
# writes scaled levels through rows, 16 levels at a time; the others go
# through the reduction's export, as csv or both
LONG_HORIZON = 2.6


@pytest.mark.parametrize(
    "grid, wide, slice_rows, export_format",
    [
        pytest.param(LINE, False, None, "csv", id="1d"),
        pytest.param(BOX, False, None, "csv", id="3d"),
        pytest.param(LINE, True, None, "csv", id="1d-wide"),
        pytest.param(BOX, True, None, "csv", id="3d-wide"),
        pytest.param(LINE, False, 4, "csv", id="1d-slices"),
        pytest.param(BOX, False, 7, "csv", id="3d-slices"),
        pytest.param(LINE, True, 4, "csv", id="1d-wide-slices"),
        pytest.param(BOX, True, 7, "csv", id="3d-wide-slices"),
        pytest.param(LINE, False, 4, "both", id="1d-both-slices"),
        pytest.param(BOX, False, None, "both", id="3d-both"),
    ],
)
@pytest.mark.parametrize("stride", [1, 4, 5, 7])
def test_trajectory_csv_matches_row_list_export(tmp_path, monkeypatch, grid, wide, slice_rows, export_format, stride):
    if slice_rows is not None:
        monkeypatch.setattr("memvisco.runner._SLICE_ROWS", slice_rows)
    traj = solve(grid, LONG_HORIZON)
    assert run_block(grid.n_total, traj.n_levels) == 16 and traj.n_levels == 131
    u, v = exported_levels(traj, stride)
    assert np.abs(u - nodal_levels(traj)[::stride]).max() <= 1e-15 * np.abs(u).max()
    assert np.abs(v - reference_velocities(nodal_levels(traj), traj.dt)[::stride]).max() <= 1e-13 * np.abs(v).max()
    times = traj.times[::stride]
    if wide:
        # per-node scales from 1e-12 to 1e20, so values below 1e-4 and of at
        # least 1e16 reach the CSV, which repr writes with an exponent
        scale = np.logspace(-12, 20, grid.n_total).reshape(grid.shape)
        u, v = u * scale, v * scale
        _write_atomic(tmp_path / "trajectory.csv", _trajectory_csv(grid, times, u, v, 16))
    else:
        export_stored(tmp_path, export_format, stride, traj)
    got = (tmp_path / "trajectory.csv").read_bytes()
    assert got == reference_trajectory_csv(grid, times, u, v).encode()
    assert (b"e-" in got and b"e+" in got) == wide
    binary = ["times.npy", "trajectory.npy"] if export_format == "both" else []
    if binary:
        assert np.load(tmp_path / "trajectory.npy").tobytes() == exported_levels(traj, 1)[0].tobytes()
        assert np.array_equal(np.load(tmp_path / "times.npy"), traj.times)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["trajectory.csv", *binary])


def test_trajectory_csv_holds_one_slice_of_rows(tmp_path, monkeypatch):
    # what the export of 31^3 nodes holds is one table of per-node
    # "node,x,y,z," strings, built in place (about 10.5 level bytes, 8 bytes
    # a node), and one slice of rows: measured at 14.3 level bytes, where
    # separate "node" and ",x,y,z," tables took 21.5; a level-sized list of
    # rows and its join would add more than 10 level bytes again.  Beside
    # the table, a slice measured 3.8 level bytes, where one level's text
    # takes 9.2.  So does a 1D piece of 32 tabled levels in slices of a
    # sixteenth of a level, whose rows span the levels: 3.6 level bytes,
    # where one level's text takes 9.8.  (In 1D the table's build holds its
    # coordinate texts beside it, 19.8 level bytes at its peak.)
    import tracemalloc

    for grid, n_levels, slice_rows in [(Grid((31, 31, 31), (1.0, 1.0, 1.0)), 2, None), (Grid.line(2047), 32, 128)]:
        if slice_rows is not None:
            monkeypatch.setattr("memvisco.runner._SLICE_ROWS", slice_rows)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((n_levels, *grid.shape))
        v = 1e-7 * rng.standard_normal((n_levels, *grid.shape))
        stamps = _reprs(np.linspace(0.0, 0.5, n_levels))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _, rows = _trajectory_rows(grid)
            table, built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _write_atomic(tmp_path / "trajectory.csv", rows(stamps, u, v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        level_bytes = 8 * grid.n_total
        assert peak - table < 5 * level_bytes
        if grid.dim == 3:
            assert max(built, peak) - entry < 17 * level_bytes


@pytest.mark.parametrize("export_format", ["binary", "both"])
def test_npy_export_is_renamed_into_place(tmp_path, monkeypatch, export_format):
    traj = solve(LINE)
    renamed = []
    real_replace = os.replace

    def spy(src, dst):
        renamed.append((Path(src).name, Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr("memvisco.runner.os.replace", spy)
    export_stored(tmp_path, export_format, 1, traj)
    assert ("trajectory.npy.tmp", "trajectory.npy") in renamed
    assert ("times.npy.tmp", "times.npy") in renamed
    # the export transforms each level's sine coefficients back alone
    nodal = np.concatenate([nodal_levels(traj, j, j + 1) for j in range(traj.n_levels)])
    assert np.array_equal(np.load(tmp_path / "trajectory.npy"), nodal)
    assert np.array_equal(np.load(tmp_path / "times.npy"), traj.times)
    expected = ["times.npy", "trajectory.npy"] + (["trajectory.csv"] if export_format == "both" else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


@pytest.mark.parametrize("grid", [LINE, BOX], ids=["1d", "3d"])
def test_npy_export_writes_np_saves_bytes(tmp_path, grid):
    # the header is np.save's for the whole stack, and the levels follow it
    # one by one, each transformed alone: in 3D the very bytes np.save
    # writes for the stack transformed at once, in 1D its header
    traj = solve(grid)
    export_stored(tmp_path, "binary", 1, traj)
    got = (tmp_path / "trajectory.npy").read_bytes()
    whole = tmp_path / "whole.npy"
    np.save(whole, sine_transform(grid, traj.coefficients))
    want = whole.read_bytes()
    header = len(want) - traj.coefficients.nbytes
    assert got[:header] == want[:header]
    nodal = np.concatenate([nodal_levels(traj, j, j + 1) for j in range(traj.n_levels)])
    assert got[header:] == nodal.tobytes()
    if grid.dim == 3:
        assert got == want


def test_failed_write_leaves_neither_file_nor_tmp(tmp_path):
    def chunks():
        yield "t,node,x,u,u_t\n"
        raise RuntimeError("level failed")

    with pytest.raises(RuntimeError, match="level failed"):
        _write_atomic(tmp_path / "trajectory.csv", chunks())
    assert list(tmp_path.iterdir()) == []


SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal
EDGE_VALUES = [
    0.0,
    5e-324,
    np.nextafter(5e-324, 1.0),
    2.0**-1050,
    1e-310,
    np.nextafter(SMALLEST_NORMAL, 0.0),
    SMALLEST_NORMAL,
    np.nextafter(1e-10, 0.0),
    1e-10,
    np.nextafter(1e-10, 1.0),
    np.nextafter(1e-9, 0.0),
    1e-9,
    np.nextafter(1e-9, 1.0),
    np.nextafter(1e-5, 0.0),
    1e-5,
    np.nextafter(1e-5, 1.0),
    np.nextafter(1e-4, 0.0),
    1e-4,
    np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0),
    1e16,
    np.nextafter(1e16, np.inf),
    2.0**53,
    np.inf,
    np.nan,
]


def test_reprs_pins_repr_at_the_format_edges():
    xs = [float(x) for x in EDGE_VALUES] + [-float(x) for x in EDGE_VALUES]
    assert _reprs(np.array(xs)) == [repr(x) for x in xs]


def test_reprs_rearranges_the_positional_class():
    # orjson writes 1e-5 <= |x| < 1e-4 as 0.0000d1d2.., which _reprs
    # rearranges to repr's d1.d2..e-05; a digit string of one, and of 17
    rng = np.random.default_rng(0)
    xs = np.concatenate([10.0 ** rng.uniform(-5.0, -4.0, 20_000), [1e-5, 2e-5, 1.5e-5, 1.0000000000000003e-05]])
    xs = np.concatenate([xs, -xs])
    assert _reprs(xs) == [repr(x) for x in xs.tolist()]


# doubles from uniformly random 64-bit patterns, so every binary exponent,
# and with it every format class of _reprs, is as likely as the rest
# (hypothesis draws its own integers and floats biased towards small ones)
BIT_PATTERNS = st.builds(
    lambda seed, n: np.frombuffer(np.random.default_rng(seed).bytes(8 * n), dtype=np.float64),
    st.integers(0, 2**32 - 1),
    st.integers(0, 400),
)


@given(st.lists(st.floats(), max_size=40) | BIT_PATTERNS)
def test_reprs_is_repr_of_every_double(xs):
    assert _reprs(np.array(xs, dtype=np.float64)) == [repr(float(x)) for x in xs]


EDGE_FLOATS = [float(x) for x in EDGE_VALUES] + [-float(x) for x in EDGE_VALUES]
CSV_FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
CSV_VALUES = (
    st.none()
    | st.integers(-(10**20), 10**20)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | CSV_FLOATS
    | CSV_FLOATS.map(np.float64)
    | st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)), max_size=6)
)


def csv_column(n: int):
    """n values of any kind, or n floats as one array."""
    return st.lists(CSV_VALUES, min_size=n, max_size=n) | st.lists(
        CSV_FLOATS, min_size=n, max_size=n
    ).map(np.array)


@given(st.integers(0, 8).flatmap(lambda n: st.lists(csv_column(n), min_size=1, max_size=5)))
def test_write_csv_matches_row_wise_writer(tmp_path_factory, columns):
    # each column is formatted in one _reprs call; the bytes are those of
    # formatting the rows one value at a time
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == row_wise_csv(header, zip(*columns)).encode("utf-8")


def test_write_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="one column per header name"):
        _write_csv(tmp_path / "a.csv", ["a", "b"], [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="one column per header name"):
        _write_csv(tmp_path / "b.csv", ["a", "b"], [[1.0]])
    assert list(tmp_path.iterdir()) == []


def test_phases_book_a_nested_phase_to_itself_only(monkeypatch):
    # on a clock that moves only when told: an inner phase is booked to
    # itself, a same-named inner phase once, and the outer phase keeps the
    # rest, so the phases sum to the outer span
    now = [0.0]
    monkeypatch.setattr(runner.time, "perf_counter", lambda: now[0])
    phases = _Phases()
    with phases("outer", steps=3):
        now[0] += 1.0
        with phases("inner"):
            now[0] += 2.0
            with phases("innermost"):
                now[0] += 16.0
        with phases("outer"):
            now[0] += 4.0
        with pytest.raises(ZeroDivisionError), phases("inner"):
            now[0] += 32.0
            1 / 0
        now[0] += 8.0
    assert phases.seconds == {"outer": 13.0, "inner": 34.0, "innermost": 16.0}
    assert sum(phases.seconds.values()) == now[0] == 63.0
    report = phases.report()
    assert report["outer"] == {"seconds": 13.0, "n_steps": 3, "seconds_per_step": 13.0 / 3}
