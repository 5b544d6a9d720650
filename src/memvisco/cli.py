"""Command-line entry point.

Exit codes: 0 success, 1 diagnostic verdict failed, 2 configuration
error, 3 solver abort or stability refusal.
"""

from __future__ import annotations

import argparse
import sys

from memvisco import __version__
from memvisco.config import ConfigError, parse_config_file
from memvisco.kernels import check_admissibility
from memvisco.runner import run_experiment

__all__ = ["main"]


def _load_config(path: str, overrides=None):
    """The config at path, or None after printing why it is unreadable or invalid."""
    try:
        return parse_config_file(path, overrides)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    # a KEY=VALUE pair is a [tolerances] line, checked by its rules
    overrides = dict(pair.partition("=")[::2] for pair in args.tol_override)
    cfg = _load_config(args.config, overrides)
    if cfg is None:
        return 2
    code = run_experiment(cfg, args.out)
    print(f"mode={cfg.mode} out={args.out} exit={code}")
    return code


def _cmd_check_kernel(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    report = check_admissibility(cfg.kernel, cfg.horizon, cfg.n_samples)
    print(f"kernel: {cfg.kernel!r}")
    print(f"regime: {report.regime}")
    print(f"modulus positive:         {report.modulus_positive}")
    print(f"rate nonpositive:         {report.rate_nonpositive}")
    print(f"curvature nonnegative:    {report.curvature_nonnegative}")
    print(f"bounded at zero:          {report.bounded_at_zero}")
    print(f"rate integrable at zero:  {report.rate_integrable_at_zero}")
    print(f"integrable on window:     {report.integrable_on_window}")
    print(f"integrable on half line:  {report.integrable_on_halfline}")
    print(f"admissible: {report.passed}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memvisco",
        description="Wave propagation with viscoelastic memory kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config", help="path to an INI-style experiment config")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument(
        "--tol-override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a named tolerance, e.g. cauchy_tol=5e-3 (repeatable)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser(
        "check-kernel", help="report sign and integrability checks for the configured kernel"
    )
    p_check.add_argument("config", help="path to an INI-style experiment config")
    p_check.set_defaults(func=_cmd_check_kernel)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=lambda args: (print(f"memvisco {__version__}"), 0)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
