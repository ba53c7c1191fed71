"""Opt-in scale tier: large generated inputs through the command line.

Run with ``python -m pytest -m scale``; the default selection skips these.
"""

import json
import os
import subprocess
import sys

import pytest

import gct

GCT_PATH = os.path.dirname(os.path.dirname(gct.__file__))

# runs gct in the child and prints its exit code and peak RSS in kB
CHILD = """
import resource, sys
from gct.cli import main
rc = main(sys.argv[1:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _vec_zn(n):
    return {
        "name": f"vec_z{n}",
        "rank": n,
        "labels": [str(a) for a in range(n)],
        "dual": [(-a) % n for a in range(n)],
        "qdim": [1.0] * n,
        "N": [[a, b, (a + b) % n, 1] for a in range(n) for b in range(n)],
    }


@pytest.mark.scale
def test_vec_z24_tube_runs_under_one_gigabyte(tmp_path):
    src, report = tmp_path / "vec_z24.json", tmp_path / "tube.json"
    src.write_text(json.dumps(_vec_zn(24)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("GCT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (GCT_PATH, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", CHILD, "tube", str(src),
                          "--seed", "1", "--json", str(report)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    rc, peak_kb = map(int, res.stdout.splitlines()[-1].split())
    assert rc == 0
    ranks = [b["rank"] for d in json.loads(report.read_text())["decompositions"].values()
             for b in d["blocks"]]
    assert ranks == [1] * 576
    assert peak_kb < 1024 * 1024
