#!/usr/bin/env python3
"""How far the CSVs of two run_all_configs.py output trees drift apart.

Usage: csv_drift.py OLD_ROOT NEW_ROOT

For every CSV under both roots (same relative path) whose bytes differ, it
prints the path, then one line per numeric column: the column name and
max |new - old| / max |old| over the column's rows.  A column is numeric
when every filled cell of both files parses as a float; empty cells must
match.  A column whose old values are all 0 prints the absolute change.
A CSV under one root only, or with other rows or columns, is named as such.
The last line counts the CSVs compared and those whose bytes match.
"""

import csv
import math
import sys
from pathlib import Path


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


def drift(old_root: Path, new_root: Path) -> list[str]:
    """The report's lines."""
    lines = []
    old_csvs = {p.relative_to(old_root) for p in old_root.rglob("*.csv")}
    new_csvs = {p.relative_to(new_root) for p in new_root.rglob("*.csv")}
    for name in sorted(old_csvs ^ new_csvs):
        lines.append(f"{name}: only under {old_root if name in old_csvs else new_root}")
    shared = sorted(old_csvs & new_csvs)
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
    lines.append(f"{len(shared)} CSVs compared, {same} byte-identical")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: csv_drift.py OLD_ROOT NEW_ROOT")
    print("\n".join(drift(Path(sys.argv[1]), Path(sys.argv[2]))))
