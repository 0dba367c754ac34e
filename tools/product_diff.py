"""Per-column numeric diff of two directories of pstchain CSV products.

    python tools/product_diff.py OLD_DIR NEW_DIR

For every CSV under either directory (matched by relative path) it prints
whether the bytes match.  For a file whose bytes differ it then prints each
header `params` key that was added, removed or changed, as old -> new, and,
for each column and for each numeric field of the header's `results`, the
largest |new - old| relative to the largest |value| that field takes in
either file.  This is the diff a byte-changing re-pin of
tests/test_products.py is checked against.  Exits 1 if a file is missing on
one side or a column or `results` field changed shape, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from pstchain.tableio import read_table  # noqa: E402


def _fields(metadata: dict, columns: list[str], data: np.ndarray) -> dict:
    """Columns by name, then each numeric `results` field as `results.<name>`."""
    fields = {name: data[:, i] for i, name in enumerate(columns)}
    for name, value in sorted(metadata.get("results", {}).items()):
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf":
            fields[f"results.{name}"] = arr.astype(float).ravel()
    return fields


def _compare(old: Path, new: Path) -> tuple[list[str], bool]:
    """One line per changed `params` key and per field of a differing pair, and
    whether every field kept its shape."""
    old_table, new_table = read_table(old), read_table(new)
    lines = _params_changes(old_table[0].get("params", {}), new_table[0].get("params", {}))
    a, b = _fields(*old_table), _fields(*new_table)
    ok = True
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b or a[name].shape != b[name].shape:
            lines.append(f"    {name:<28} shape or presence differs")
            ok = False
            continue
        scale = max(np.max(np.abs(a[name]), initial=0.0), np.max(np.abs(b[name]), initial=0.0))
        delta = np.max(np.abs(b[name] - a[name]), initial=0.0)
        rel = delta / scale if scale > 0 else delta
        lines.append(f"    {name:<28} max|d|/max|v| {rel:.1e}")
    return lines, ok


def _params_changes(old: dict, new: dict) -> list[str]:
    """One line, old -> new, per header parameter added, removed or changed."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = (json.dumps(p[key]) if key in p else "(absent)" for p in (old, new))
        if before != after:
            lines.append(f"    params.{key:<21} {before} -> {after}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/product_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, argv)
    names = sorted(
        {p.relative_to(old_dir) for p in old_dir.rglob("*.csv")}
        | {p.relative_to(new_dir) for p in new_dir.rglob("*.csv")}
    )
    status = 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}  only in {'OLD' if old.exists() else 'NEW'}")
            status = 1
        elif old.read_bytes() == new.read_bytes():
            print(f"{name}  bytes match")
        else:
            print(f"{name}  bytes differ")
            lines, ok = _compare(old, new)
            print("\n".join(lines))
            status = status or int(not ok)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
