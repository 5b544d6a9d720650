#!/usr/bin/env python3
"""How far the CSVs and manifests of two run_all_configs.py output trees
drift apart.

Usage: csv_drift.py OLD_ROOT NEW_ROOT

For every CSV under both roots (same relative path) whose bytes differ, it
prints the path, then one line per numeric column: the column name and
max |new - old| / max |old| over the column's rows.  A column is numeric
when every filled cell of both files parses as a float; empty cells must
match.  A column whose old values are all 0 prints the absolute change.
A CSV under one root only, or with other rows or columns, is named as such.

For every .npy file under both roots whose bytes differ, it prints the
path, then max |new - old| / max |old| over the whole array (the absolute
change when old is all 0), or the two shapes when they differ.  A .npy
file under one root only is named as such.

For every manifest.json under both roots whose `verdicts` and `runs`
blocks differ (the blocks run_all_configs.py digests), it prints the path,
then one line per leaf that differs: its dotted key, old -> new, and for
two numbers |new - old| / |old|, or the absolute change when old is 0.  A
leaf on one side only reads (absent) on the other, and a manifest under
one root only is named as such.

The last three lines count the CSVs compared and those whose bytes match,
the .npy files likewise, and the manifests compared and those whose
blocks match.  The exit status is 0 when nothing drifts, and 1 when any
file or block above is named.
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np


def read_columns(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, [list(column) for column in zip(*rows)] if rows else [[] for _ in header]


def column_drift(old: list[str], new: list[str]) -> str | None:
    """max |new - old| / max |old| of one column, as text, or None when it
    holds text or its empty cells differ."""
    if [cell == "" for cell in old] != [cell == "" for cell in new]:
        return None
    try:
        pairs = [(float(a), float(b)) for a, b in zip(old, new) if a != ""]
    except ValueError:
        return None
    if not pairs:
        return "0"
    change = max(abs(b - a) if a != b else 0.0 for a, b in pairs)
    scale = max(abs(a) for a, _ in pairs)
    if scale == 0.0 or not math.isfinite(scale):
        return f"{change:.3g} (absolute)"
    return f"{change / scale:.3g}"


def npy_drift(old_path: Path, new_path: Path) -> str:
    """max |new - old| / max |old| of two .npy arrays, as text, or their
    shapes when they differ."""
    old, new = np.load(old_path), np.load(new_path)
    if old.shape != new.shape:
        return f"shape {old.shape} -> {new.shape}"
    change = float(np.max(np.abs(new - old), initial=0.0))
    scale = float(np.max(np.abs(old), initial=0.0))
    if scale == 0.0 or not math.isfinite(scale):
        return f"{change:.3g} (absolute)"
    return f"{change / scale:.3g}"


def leaves(value, key: str = "") -> list[tuple[str, object]]:
    """(dotted key, value) of every leaf of a JSON value; list items are
    keyed by their index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [(key, value)]
    out = []
    for name, item in items:
        out += leaves(item, f"{key}.{name}" if key else str(name))
    return out


def leaf_change(old, new) -> str:
    """One changed leaf's old -> new, with the relative change of two numbers."""
    text = f"{json.dumps(old)} -> {json.dumps(new)}"
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)]
    if not all(numbers):
        return text
    if old == 0 or not math.isfinite(old):
        return f"{text}  ({abs(new - old):.3g} absolute)"
    return f"{text}  ({abs(new - old) / abs(old):.3g})"


def manifest_drift(old_path: Path, new_path: Path) -> list[str]:
    """The changed leaves of the blocks run_all_configs.py digests, one line each."""
    old, new = (
        dict(leaves({key: manifest.get(key) for key in ("verdicts", "runs")}))
        for manifest in (json.loads(p.read_text(encoding="utf-8")) for p in (old_path, new_path))
    )
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in old or key not in new:
            a, b = (json.dumps(side[key]) if key in side else "(absent)" for side in (old, new))
            lines.append(f"  {key}  {a} -> {b}")
        elif json.dumps(old[key]) != json.dumps(new[key]):
            lines.append(f"  {key}  {leaf_change(old[key], new[key])}")
    return lines


def paired(old_root: Path, new_root: Path, pattern: str, lines: list[str]) -> list[Path]:
    """The relative paths of the files matching pattern under both roots;
    a file under one root only is named in lines."""
    old = {p.relative_to(old_root) for p in old_root.rglob(pattern)}
    new = {p.relative_to(new_root) for p in new_root.rglob(pattern)}
    for name in sorted(old ^ new):
        lines.append(f"{name}: only under {old_root if name in old else new_root}")
    return sorted(old & new)


def drift(old_root: Path, new_root: Path) -> tuple[list[str], list[str]]:
    """The report's lines: (what drifts, the three counts)."""
    lines = []
    shared = paired(old_root, new_root, "*.csv", lines)
    same = 0
    for name in shared:
        old_path, new_path = old_root / name, new_root / name
        if old_path.read_bytes() == new_path.read_bytes():
            same += 1
            continue
        lines.append(f"{name}")
        old_header, old_columns = read_columns(old_path)
        new_header, new_columns = read_columns(new_path)
        if old_header != new_header or [len(c) for c in old_columns] != [len(c) for c in new_columns]:
            lines.append("  other columns or rows")
            continue
        for column, old, new in zip(old_header, old_columns, new_columns):
            change = column_drift(old, new)
            if change is not None:
                lines.append(f"  {column}  {change}")
    counts = [f"{len(shared)} CSVs compared, {same} byte-identical"]
    arrays = paired(old_root, new_root, "*.npy", lines)
    same = 0
    for name in arrays:
        old_path, new_path = old_root / name, new_root / name
        if old_path.read_bytes() == new_path.read_bytes():
            same += 1
        else:
            lines += [f"{name}", f"  {npy_drift(old_path, new_path)}"]
    counts.append(f"{len(arrays)} .npy files compared, {same} byte-identical")
    manifests = paired(old_root, new_root, "manifest.json", lines)
    changed = 0
    for name in manifests:
        leaf_lines = manifest_drift(old_root / name, new_root / name)
        if leaf_lines:
            changed += 1
            lines += [f"{name}", *leaf_lines]
    counts.append(f"{len(manifests)} manifests compared, {len(manifests) - changed} with the same verdicts and runs")
    return lines, counts


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: csv_drift.py OLD_ROOT NEW_ROOT")
    drifted, counts = drift(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(drifted + counts))
    sys.exit(1 if drifted else 0)
