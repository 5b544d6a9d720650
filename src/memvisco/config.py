"""Experiment configuration: key = value sections, aggressively validated.

Parsing collects every violation before failing, names unknown keys along
with the nearest valid one, and records which defaults were applied so the
run manifest can echo the fully resolved configuration.
"""

from __future__ import annotations

import configparser
import difflib
import json
import math
from dataclasses import dataclass, field

from memvisco.convergence import eps_schedule
from memvisco.expressions import FORCING_NAMES, SPACE_NAMES, Forcing, field_from_name
from memvisco.grid import Grid
from memvisco.kernels import KERNEL_KEYS, RelaxationKernel, kernel_from_dict
from memvisco.solver import FORMULATIONS, ProblemSpec, stable_time_step, time_step_shifts

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_file"]

MODES = ("single_run", "eps_sequence", "admissibility", "stress_test")
EXPORT_FORMATS = ("csv", "binary", "both")
STRAINS = ("step", "ramp", "constant_forever")

_KNOWN_KEYS = {
    "experiment": {"mode", "formulation"},
    "kernel": {"family", *(key for keys in KERNEL_KEYS.values() for key in keys)},
    "grid": {"dim", "n", "extent"},
    "time": {"horizon", "dt", "cfl", "n_samples"},
    "data": {"u0", "u0_params", "u1", "u1_params", "f", "f_params"},
    "eps": {"eps", "eps0", "ratio", "count"},
    "stress": {"strain", "amplitude"},
    "diagnostics": {
        "energy_ledger",
        "energy_decay",
        "energy_bound",
        "weak_residual",
        "lemma_check",
    },
    "output": {"snapshot_stride", "export_format"},
    "tolerances": {"cauchy_tol", "stress_tol", "decay_safety", "weak_tol"},
}

_TOLERANCE_DEFAULTS = {
    "cauchy_tol": 1e-2,
    "stress_tol": 1e-6,
    "decay_safety": 5.0,
    "weak_tol": 1e-2,
}


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    kernel: RelaxationKernel
    formulation: str
    grid: Grid | None
    horizon: float
    dt: float | None
    cfl: float | None
    n_samples: int
    eps: float
    eps0: float | None
    ratio: float | None
    count: int | None
    u0_name: str
    u0_params: dict
    u1_name: str
    u1_params: dict
    forcing: Forcing | None  # None for f = zero
    strain: str
    strain_amplitude: float
    diagnostics: dict
    snapshot_stride: int
    export_format: str
    tolerances: dict
    defaults_applied: tuple[str, ...]
    resolved: dict = field(repr=False)


class _Collector:
    """Typed section/key access that records violations instead of raising."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.violations: list[str] = []
        self.defaults: list[str] = []

    def fail(self, msg: str) -> None:
        self.violations.append(msg)

    def get(self, section: str, key: str, default=None, required=False):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if required:
            self.fail(f"missing required key '{key}' in [{section}]")
            return None
        if default is not None:
            self.defaults.append(f"{section}.{key} = {default!r}")
        return default

    def typed(self, section, key, cast, default=None, required=False, check=None, what=""):
        raw = self.get(section, key, default=None, required=required)
        if raw is None:
            if default is not None:
                self.defaults.append(f"{section}.{key} = {default!r}")
            return default
        try:
            value = cast(raw)
        except ValueError:
            self.fail(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}")
            return default
        if isinstance(value, float) and not math.isfinite(value):
            self.fail(f"[{section}] {key} = {value!r} is not finite")
            return default
        if check is not None and not check(value):
            self.fail(f"[{section}] {key} = {value!r} invalid: {what}")
            return default
        return value

    def choice(self, section, key, options, default=None):
        raw = self.get(section, key, default=default)
        if raw is None:
            return default
        if raw not in options:
            near = difflib.get_close_matches(raw, options, n=1)
            hint = f"; nearest valid: '{near[0]}'" if near else ""
            self.fail(
                f"[{section}] {key} = '{raw}' not recognized "
                f"(valid: {', '.join(options)}){hint}"
            )
            return default
        return raw

    def json_value(self, section, key, default=None):
        raw = self.get(section, key, default=None)
        if raw is None:
            return default
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            self.fail(f"[{section}] {key} is not valid JSON: {exc}")
            return default

    def boolean(self, section, key, default: bool) -> bool:
        raw = self.get(section, key, default=None)
        if raw is None:
            self.defaults.append(f"{section}.{key} = {default!r}")
            return default
        low = str(raw).strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        self.fail(f"[{section}] {key} = {raw!r} is not a boolean")
        return default

    def check_unknown(self) -> None:
        for section in self.parser.sections():
            if section not in _KNOWN_KEYS:
                near = difflib.get_close_matches(section, list(_KNOWN_KEYS), n=1)
                hint = f"; nearest valid: [{near[0]}]" if near else ""
                self.fail(f"unknown section [{section}]{hint}")
                continue
            for key in self.parser.options(section):
                if key not in _KNOWN_KEYS[section]:
                    near = difflib.get_close_matches(key, _KNOWN_KEYS[section], n=1)
                    hint = f"; nearest valid: '{near[0]}'" if near else ""
                    self.fail(f"unknown key '{key}' in [{section}]{hint}")


def _build_kernel(col: _Collector) -> RelaxationKernel | None:
    if not col.parser.has_section("kernel"):
        col.fail("missing required section [kernel]")
        return None
    # check_unknown names a key no family has; the rest is kernel_from_dict's
    known = len(col.violations)
    spec = {
        key: col.json_value("kernel", key) if key in ("terms", "parts") else col.get("kernel", key)
        for key in col.parser.options("kernel")
        if key in _KNOWN_KEYS["kernel"]
    }
    if len(col.violations) > known:  # terms or parts is not JSON
        return None
    try:
        return kernel_from_dict(spec)
    except ValueError as exc:
        col.fail(f"[kernel] {exc}")
        return None


def _build_grid(col: _Collector, required: bool) -> Grid | None:
    if not col.parser.has_section("grid"):
        if required:
            col.fail("missing required section [grid]")
        return None
    dim = col.typed("grid", "dim", int, default=1, check=lambda d: d in (1, 3), what="dim must be 1 or 3")
    n = col.typed("grid", "n", int, required=True, check=lambda v: v >= 3, what="need n >= 3")
    extent = col.typed("grid", "extent", float, default=1.0, check=lambda v: v > 0, what="extent must be positive")
    if n is None or dim is None or extent is None:
        return None
    try:
        return Grid((n,) * dim, (extent,) * dim)
    except ValueError as exc:
        col.fail(f"[grid] {exc}")
        return None


def parse_config(text: str, tolerances: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate config text.  tolerances, KEY -> value text, go
    into [tolerances] over the text's values and obey its rules."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config text: {exc}"]) from None
    if tolerances:
        parser.read_dict({"tolerances": tolerances})

    col = _Collector(parser)
    col.check_unknown()

    mode = col.choice("experiment", "mode", MODES, default="single_run")
    formulation = col.choice(
        "experiment", "formulation", FORMULATIONS, default="integrodifferential"
    )

    kernel = _build_kernel(col)
    needs_grid = mode in ("single_run", "eps_sequence")
    grid = _build_grid(col, required=needs_grid)

    horizon = col.typed(
        "time", "horizon", float, default=1.0,
        check=lambda v: v > 0, what="horizon must be positive",
    )
    dt = col.typed("time", "dt", float, default=None, check=lambda v: v > 0, what="dt must be positive")
    cfl = col.typed(
        "time", "cfl", float, default=None,
        check=lambda v: 0 < v <= 1, what="cfl must be in (0, 1]",
    )
    n_samples = col.typed("time", "n_samples", int, default=200, check=lambda v: v >= 2, what="need n_samples >= 2")
    if needs_grid:
        if dt is None and cfl is None:
            col.defaults.append("time.cfl = 0.5")
            cfl = 0.5
        elif dt is not None and cfl is not None:
            col.fail("[time] give either dt or cfl, not both")
    if mode == "stress_test" and dt is None:
        col.defaults.append("time.dt = 0.01")
        dt = 0.01
    if dt is not None and (needs_grid or mode == "stress_test"):
        try:
            ProblemSpec.check_steps(horizon, dt)
        except ValueError as exc:
            col.fail(f"[time] {exc}")

    eps = col.typed("eps", "eps", float, default=0.05, check=lambda v: v >= 0, what="eps must be >= 0")
    eps0 = col.typed("eps", "eps0", float, default=None, check=lambda v: v > 0, what="eps0 must be positive")
    ratio = col.typed("eps", "ratio", float, default=None, check=lambda v: 0 < v < 1, what="ratio must be in (0, 1)")
    count = col.typed(
        "eps", "count", int, default=None, check=lambda v: v >= 2,
        what="need count >= 2: the Cauchy report compares at least 3 shifts",
    )
    if mode == "eps_sequence":
        missing = [k for k in ("eps0", "ratio", "count") if not col.parser.has_option("eps", k)]
        if missing:
            col.fail(
                f"mode eps_sequence needs [eps] keys: {', '.join(missing)}"
            )
    elif mode == "single_run":
        try:
            ProblemSpec.check_shift(eps, formulation)
        except ValueError as exc:
            col.fail(f"[eps] {exc}")
        # the CFL rule reads the modulus at eps, unbounded there
        if dt is None and eps == 0 and kernel is not None and kernel.singular_at_zero:
            col.fail("[time] the modulus is unbounded at eps = 0, so no cfl rule applies: give dt")

    # a shift far down a Prony term can underflow G(eps) to 0, which leaves
    # no stable step (at eps = 0 a bounded modulus is positive, and an
    # unbounded one is refused above)
    eps_values = []
    if mode == "single_run" and eps is not None:
        eps_values = [eps]
    elif mode == "eps_sequence" and None not in (eps0, ratio, count):
        eps_values = eps_schedule(eps0, ratio, count)
    if grid is not None and kernel is not None:
        for e in time_step_shifts(formulation, eps_values, dt):
            if e > 0:
                try:
                    stable_time_step(grid, kernel.modulus(e))
                except ValueError as exc:
                    col.fail(f"[eps] at eps = {e!r}: {exc}")
                    break

    u0_name = col.choice("data", "u0", SPACE_NAMES, default="zero")
    u1_name = col.choice("data", "u1", SPACE_NAMES, default="zero")
    f_name = col.choice("data", "f", FORCING_NAMES, default="zero")
    params = {}
    for key in ("u0", "u1", "f"):
        params[key] = col.json_value("data", f"{key}_params", default={}) or {}
        if not isinstance(params[key], dict):
            col.fail(f"[data] {key}_params = {json.dumps(params[key])} is not a JSON object")
            params[key] = {}
    u0_params, u1_params, f_params = params.values()
    forcing = None
    if f_name is not None:
        try:
            forcing = Forcing.from_dict(f_name, f_params)
        except (TypeError, ValueError) as exc:
            col.fail(f"[data] f_params: {exc}")
    # a profile reads its params only when it is evaluated: evaluate each
    # once here, where the grid is known, so a bad one is a config error
    for key, profile, evaluate in (
        ("u0", u0_name, lambda: field_from_name(grid, u0_name, u0_params)),
        ("u1", u1_name, lambda: field_from_name(grid, u1_name, u1_params)),
        ("f", forcing, lambda: forcing.profile(grid)),
    ):
        if grid is not None and profile is not None:
            try:
                evaluate()
            except (TypeError, ValueError) as exc:
                col.fail(f"[data] {key}_params: {exc}")

    strain = col.choice("stress", "strain", STRAINS, default="step")
    strain_amplitude = col.typed("stress", "amplitude", float, default=1.0)

    diagnostics = {
        "energy_ledger": col.boolean("diagnostics", "energy_ledger", True),
        "energy_decay": col.boolean("diagnostics", "energy_decay", False),
        "energy_bound": col.boolean("diagnostics", "energy_bound", True),
        "weak_residual": col.boolean("diagnostics", "weak_residual", False),
        "lemma_check": col.boolean("diagnostics", "lemma_check", mode == "eps_sequence"),
    }

    snapshot_stride = col.typed(
        "output", "snapshot_stride", int, default=1,
        check=lambda v: v >= 1, what="stride must be >= 1",
    )
    export_format = col.choice("output", "export_format", EXPORT_FORMATS, default="csv")

    tolerances = dict(_TOLERANCE_DEFAULTS)
    for key in _KNOWN_KEYS["tolerances"]:
        val = col.typed("tolerances", key, float, default=None, check=lambda v: v > 0, what="must be positive")
        if val is not None:
            tolerances[key] = val

    if col.violations:
        raise ConfigError(col.violations)

    resolved = {
        "mode": mode,
        "formulation": formulation,
        "kernel": repr(kernel),
        "grid": {"n": grid.n, "extent": grid.extent} if grid else None,
        "time": {"horizon": horizon, "dt": dt, "cfl": cfl, "n_samples": n_samples},
        "eps": {"eps": eps, "eps0": eps0, "ratio": ratio, "count": count},
        "data": {
            "u0": u0_name,
            "u0_params": u0_params,
            "u1": u1_name,
            "u1_params": u1_params,
            "f": f_name,
            "f_params": f_params,
        },
        "stress": {"strain": strain, "amplitude": strain_amplitude},
        "diagnostics": diagnostics,
        "output": {"snapshot_stride": snapshot_stride, "export_format": export_format},
        "tolerances": tolerances,
    }

    return ExperimentConfig(
        mode=mode,
        kernel=kernel,
        formulation=formulation,
        grid=grid,
        horizon=horizon,
        dt=dt,
        cfl=cfl,
        n_samples=n_samples,
        eps=eps,
        eps0=eps0,
        ratio=ratio,
        count=count,
        u0_name=u0_name,
        u0_params=u0_params,
        u1_name=u1_name,
        u1_params=u1_params,
        forcing=None if f_name == "zero" else forcing,  # its params checked above
        strain=strain,
        strain_amplitude=strain_amplitude,
        diagnostics=diagnostics,
        snapshot_stride=snapshot_stride,
        export_format=export_format,
        tolerances=tolerances,
        defaults_applied=tuple(col.defaults),
        resolved=resolved,
    )


def parse_config_file(path, tolerances: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), tolerances)
