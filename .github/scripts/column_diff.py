"""Per-column differences between two trees of CSV outputs.

    python .github/scripts/column_diff.py BASE_DIR HEAD_DIR

For every CSV file whose bytes differ between the trees, prints each column
that differs with its largest absolute difference |a - b| and its largest
relative difference |a - b| / max(|a|, |b|) over the rows (both inf where
only one side is NaN or a text value changed) and the number of rows that
differ.  Rounding noise on a value near zero reads O(1) relative but tiny
absolute.  The last line says whether any ``status`` or ``termination``
value changed.  CSV files present on one side only and those whose header
or row count differ are listed as such; other files are not read.  Exits
0: it describes a difference, the caller decides what it means.
"""

import csv
import math
import sys
from pathlib import Path


def _diff(a: str, b: str) -> tuple:
    """(absolute, relative) difference of two CSV fields."""
    if a == b:
        return 0.0, 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    if math.isnan(x) or math.isnan(y):
        return (0.0, 0.0) if math.isnan(x) and math.isnan(y) else (math.inf, math.inf)
    if x == y:
        return 0.0, 0.0
    return abs(x - y), abs(x - y) / max(abs(x), abs(y))


def _read(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def main(base: Path, head: Path) -> None:
    names = sorted(
        {p.relative_to(base) for p in base.rglob("*.csv")}
        | {p.relative_to(head) for p in head.rglob("*.csv")}
    )
    label_changed = False
    print(f"{'file':<40} {'column':<20} {'max abs diff':>12} {'max rel diff':>12} {'rows':>6}")
    for name in names:
        a, b = base / name, head / name
        if not a.exists() or not b.exists():
            print(f"{str(name):<40} only in {'head' if b.exists() else 'base'}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        ra, rb = _read(a), _read(b)
        if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
            print(f"{str(name):<40} header or row count differs ({len(ra)} vs {len(rb)} rows)")
            continue
        for j, column in enumerate(ra[0]):
            diffs = [_diff(x[j], y[j]) for x, y in zip(ra[1:], rb[1:]) if x[j] != y[j]]
            if diffs:
                worst_abs = max(d[0] for d in diffs)
                worst_rel = max(d[1] for d in diffs)
                print(
                    f"{str(name):<40} {column:<20} {worst_abs:>12.3g} {worst_rel:>12.3g} "
                    f"{len(diffs):>6}"
                )
                label_changed |= column in ("status", "termination")
    print(f"status or termination changed: {'yes' if label_changed else 'no'}")


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]))
