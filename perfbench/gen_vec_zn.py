"""Generate the pointed category Vec_Z_n as a gct category file.

Cyclic fusion rules a*b = a+b mod n, duals a -> -a, unit quantum dimensions,
no F entries (the trivial 3-cocycle), graded by the trivial group.  The file
is meant to go through gct's ordinary ``load_category`` validation, so the
benchmark exercises the schema and pentagon gates like any user input.

Usage: python3 perfbench/gen_vec_zn.py N OUT.json
"""

from __future__ import annotations

import json
import sys


def vec_zn(n: int) -> dict:
    if n < 1:
        raise ValueError(f"Vec_Z_n needs n >= 1, got {n}")
    return {
        "name": f"vec_z{n}",
        "rank": n,
        "labels": [str(a) for a in range(n)],
        "dual": [(-a) % n for a in range(n)],
        "qdim": [1.0] * n,
        "group": {"elements": ["e"], "table": [[0]]},
        "grading": [0] * n,
        "N": [[a, b, (a + b) % n, 1] for a in range(n) for b in range(n)],
        "F": [],
    }


def write_vec_zn(n: int, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(vec_zn(n), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    write_vec_zn(int(sys.argv[1]), sys.argv[2])
