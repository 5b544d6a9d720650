"""The benchmark's workloads: INI configs generated from a seed, and the
answers every run of them is checked against.

The seed changes only data that leave the amount of work unchanged: the
amplitude of the initial velocity (and of the forcing, by the same factor)
and, in 1D, the sine mode of the initial velocity.  Grid, time step,
horizon, kernel and shift schedule are fixed, so every seed does the same
number of solver steps, Laplacians and ledger terms.

Seed 0 is the default seed: amplitude 1 and mode 1, which for
``audit_prony_1d`` is exactly the bundled ``configs/prony_single.cfg``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Relative tolerance on the reference scalars.  Summing the same terms in
# another order moves them by far less than 1e-8 relative (the smallest,
# weak_residual_max ~ 5e-5, is a cancellation of O(1) terms, so a
# reordering costs ~1e-11 relative there); a Gram-form ledger that matches
# the loop to 1e-9 per term moves max_energy_residual by ~1e-6.  A wrong
# weight, a dropped history term or a wrong sign moves them by percents.
RTOL = 1e-4

_PRONY = """\
[kernel]
family = prony
g_inf = 0.5
terms = [[0.5, 2.0]]
"""


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[int, ...]
    template: str
    # mode -> {dotted manifest verdict: (value at amplitude 1, power of amplitude)}
    references: dict
    # output file -> expected number of lines
    line_counts: dict

    def draw(self, seed: int) -> tuple[float, int]:
        """(amplitude, mode) for a seed; seed 0 gives (1.0, 1)."""
        if seed == 0:
            return 1.0, 1
        rng = random.Random(seed)
        return round(rng.uniform(0.5, 2.0), 4), rng.choice(self.modes)

    def config(self, seed: int) -> str:
        amplitude, mode = self.draw(seed)
        return self.template.format(amplitude=amplitude, mode=mode, kernel=_PRONY)

    def expected(self, seed: int) -> dict[str, float]:
        amplitude, mode = self.draw(seed)
        return {
            key: value * amplitude**power
            for key, (value, power) in self.references[mode].items()
        }


def verdict(manifest: dict, dotted: str):
    value = manifest["verdicts"]
    for part in dotted.split("."):
        value = value[part]
    return value


def check_run(workload: Workload, seed: int, exit_code: int, out_dir) -> list[str]:
    """Reasons the run in out_dir is wrong; empty when it is correct."""
    out_dir = Path(out_dir)
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"no readable manifest: {exc}"]
    if manifest.get("abort"):
        problems.append(f"aborted: {manifest['abort']}")
    problems += [f"verdict {path} failed" for path in _failed_verdicts(manifest["verdicts"])]
    for key, want in workload.expected(seed).items():
        try:
            got = float(verdict(manifest, key))
        except (KeyError, TypeError, ValueError):
            problems.append(f"{key} missing from manifest")
            continue
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            problems.append(f"{key} = {got!r}, reference {want!r} (rtol {RTOL})")
    for name, lines in workload.line_counts.items():
        try:
            with open(out_dir / name, "rb") as fh:
                got = sum(1 for _ in fh)
        except OSError:
            problems.append(f"{name} missing")
            continue
        if got != lines:
            problems.append(f"{name} has {got} lines, expected {lines}")
    return problems


def _failed_verdicts(node, path=""):
    if isinstance(node, dict):
        if node.get("passed") is False:
            yield path or "<root>"
        for key, value in node.items():
            yield from _failed_verdicts(value, f"{path}.{key}" if path else key)


AUDIT = Workload(
    name="audit_prony_1d",
    modes=(1, 2, 3),
    template="""\
[experiment]
mode = single_run

{kernel}
[grid]
dim = 1
n = 99

[time]
horizon = 2.0
cfl = 0.5

[data]
u0 = zero
u1 = sine_mode
u1_params = {{"amplitude": {amplitude!r}, "modes": [{mode}]}}

[eps]
eps = 0.05

[diagnostics]
energy_ledger = true
energy_decay = true
energy_bound = true
weak_residual = true

[output]
snapshot_stride = 5
""",
    references={
        1: {
            "max_energy_residual": (0.006117521589122297, 2),
            "energy_bound.max_ratio": (0.08665589661990801, 0),
            "weak_residual_max": (5.3370654710391816e-05, 1),
        },
        2: {
            "max_energy_residual": (0.024450533619737577, 2),
            "energy_bound.max_ratio": (0.08524503227246591, 0),
            "weak_residual_max": (0.00021835863883993057, 1),
        },
        3: {
            "max_energy_residual": (0.0549405832772755, 2),
            "energy_bound.max_ratio": (0.08479534395045946, 0),
            "weak_residual_max": (0.0004927707037434459, 1),
        },
    },
    line_counts={"trajectory.csv": 1 + 99 * 80, "energy.csv": 1 + 399, "weak_residuals.csv": 7},
)

SEQUENCE = Workload(
    name="shift_sequence_powerlaw_1d",
    modes=(1, 2, 3),
    template="""\
[experiment]
mode = eps_sequence
formulation = integral_volterra

[kernel]
family = powerlaw
c = 1.0
alpha = 0.5

[grid]
dim = 1
n = 99

[time]
horizon = 1.0
dt = 0.0005

[data]
u0 = zero
u1 = sine_mode
u1_params = {{"amplitude": {amplitude!r}, "modes": [{mode}]}}

[eps]
eps0 = 0.1
ratio = 0.5
count = 6

[diagnostics]
lemma_check = true

[tolerances]
cauchy_tol = 1e-2
""",
    references={
        1: {
            "cauchy.fitted_rate": (0.5537530014374488, 0),
            "cauchy.last_distance": (0.0021763438086129295, 1),
        },
        2: {
            "cauchy.fitted_rate": (0.720580687927226, 0),
            "cauchy.last_distance": (0.0009641640301497775, 1),
        },
        3: {
            "cauchy.fitted_rate": (0.7983562497316833, 0),
            "cauchy.last_distance": (0.0006001806980947418, 1),
        },
    },
    line_counts={"convergence.csv": 1 + 7, "lemma.csv": 1 + 42},
)

BOX3D = Workload(
    name="box3d_forced_export",
    modes=(1,),
    template="""\
[experiment]
mode = single_run

{kernel}
[grid]
dim = 3
n = 31

[time]
horizon = 2.0
cfl = 0.5

[data]
u0 = zero
u1 = bump
u1_params = {{"amplitude": {amplitude!r}, "radius": 0.3}}
f = sin_pi_product
f_params = {{"amplitude": {amplitude!r}, "omega": 6.0}}

[eps]
eps = 0.05

[diagnostics]
energy_ledger = false
energy_decay = false
energy_bound = true
weak_residual = false

[output]
snapshot_stride = 40
""",
    references={
        1: {"energy_bound.max_ratio": (0.07082584134724597, 0)},
    },
    line_counts={"trajectory.csv": 1 + 31**3 * 6},
)

WORKLOADS = {w.name: w for w in (AUDIT, SEQUENCE, BOX3D)}
