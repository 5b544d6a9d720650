#!/usr/bin/env python3
"""Run every bundled config into <out-root>/<config-name>/ and summarize.

Usage: run_all_configs.py [out-root [config ...]]   (default: ./out next to the repo)

Config paths given after the out-root run beside the bundled configs, each
into <out-root>/<its stem>/, so the output of any config set compares
between two checkouts with one command each.

After each config it prints one `<sha256>  <config>/<file>.csv` line per
CSV in its run directory, so two checkouts' outputs compare byte for byte
with `diff <(grep 'csv$' a.txt) <(grep 'csv$' b.txt)`.  It also prints one
`<sha256>  <config>/verdicts` line: the digest of the manifest's `verdicts`
and `runs` blocks as canonical JSON (sorted keys), so "verdicts unchanged"
is `diff <(grep 'verdicts$' a.txt) <(grep 'verdicts$' b.txt)`.  A config
fails when its exit code is not 0 or its manifest.json is not strict JSON
(RFC 8259: no NaN or Infinity).
"""

import hashlib
import json
import sys
from pathlib import Path

from memvisco.cli import main

ROOT = Path(__file__).resolve().parent.parent


def strict_json_error(path: Path) -> str | None:
    """Why path is not strict JSON, or None when it is."""

    def refuse(token):
        raise ValueError(f"{token} is not a JSON value")

    try:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
    except (OSError, ValueError) as exc:
        return str(exc)
    return None


def verdicts_digest(path: Path) -> str:
    """sha256 of the manifest's verdicts and runs blocks as canonical JSON."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    blocks = {key: manifest[key] for key in ("verdicts", "runs")}
    return hashlib.sha256(json.dumps(blocks, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    failures = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")) + [Path(arg) for arg in sys.argv[2:]]:
        out = out_root / cfg.stem
        code = main(["run", str(cfg), "--out", str(out)])
        print(f"{cfg.name}: exit {code}")
        for path in sorted(out.glob("*.csv")):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {cfg.stem}/{path.name}")
        error = strict_json_error(out / "manifest.json")
        if error:
            print(f"{cfg.name}: manifest.json is not strict JSON: {error}")
        else:
            print(f"{verdicts_digest(out / 'manifest.json')}  {cfg.stem}/verdicts")
        if code != 0 or error:
            failures.append(cfg.name)
    if failures:
        raise SystemExit(f"failed: {', '.join(failures)}")
    print("all configs passed")
