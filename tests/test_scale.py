"""Opt-in scale tier: large generated inputs through the command line.

Run with ``python -m pytest -m scale``; the default selection skips these.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import gct
import gct.cli
from gct import build_tube, category_from_dict, decompose, verify_pentagon

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


def _run_gct(tmp_path, n, command):
    """`gct COMMAND` on a generated Vec_Zn in a child with one BLAS thread;
    returns the JSON report and the child's peak RSS in kB."""
    src, report = tmp_path / f"vec_z{n}.json", tmp_path / f"{command}.json"
    src.write_text(json.dumps(_vec_zn(n)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("GCT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (GCT_PATH, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", CHILD, command, str(src),
                          "--seed", "1", "--json", str(report)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    rc, peak_kb = map(int, res.stdout.splitlines()[-1].split())
    assert rc == 0
    return json.loads(report.read_text()), peak_kb


@pytest.mark.scale
def test_vec_z24_tube_runs_under_one_gigabyte(tmp_path):
    rep, peak_kb = _run_gct(tmp_path, 24, "tube")
    ranks = [b["rank"] for d in rep["decompositions"].values() for b in d["blocks"]]
    assert ranks == [1] * 576
    assert peak_kb < 1024 * 1024


@pytest.mark.scale
def test_vec_z6_center_has_36_invertible_simples(tmp_path):
    # Z(Vec_Z6) is pointed: 36 simples of dimension 1, pairwise
    # non-isomorphic, each with its full half-braiding check passed
    rep, peak_kb = _run_gct(tmp_path, 6, "center")
    simples = [s for g in rep["grades"].values() for s in g["simples"]]
    assert rep["simple_count"] == len(simples) == 36
    assert all(s["pass"] for s in simples)
    assert all(abs(s["qdim"] - 1.0) < 1e-12 for s in simples)
    names = [s["name"] for s in simples]
    assert rep["hom_table"] == {a: {b: int(a == b) for b in names} for a in names}
    # the sweep keys the second slot by object (6 of them), but its counts
    # still cover every member pair and triple, the unit included
    summary = rep["braiding_summary"]
    assert summary["pass"]
    counts = summary["counts"]
    assert counts["mult_second"] == counts["mult_first"] == 37 ** 3
    assert counts["unitarity"] == 37 ** 2
    assert peak_kb < 256 * 1024
    # braid-check sweeps the stored entries to the same verdict
    check = tmp_path / "braid-check.json"
    assert gct.cli.main(["braid-check", str(tmp_path / "center.json"), "--seed", "1",
                         "--json", str(check)]) == 0
    rechecked = json.loads(check.read_text())
    assert rechecked["pass"] and rechecked["sweep"] == summary


@pytest.mark.scale
def test_vec_z32_decompose_traces_under_16_mib():
    # the projections and their sort keys live on each ideal's 32 positions,
    # not on the 1024 of the grade
    tube = gct.TubeAlgebra(category_from_dict(_vec_zn(32)))
    tracemalloc.start()
    try:
        dec = decompose(tube, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.block_ranks() == [1] * 1024
    assert peak < 16 * 2 ** 20


@pytest.mark.scale
def test_vec_z32_pentagon_traces_under_16_mib():
    # 32^4 quadruples, one instance each: the passes take a range of first
    # labels at a time, so no array holds all of them (measured: 12.6 MiB,
    # about 1 s under tracemalloc on a 2-core x86_64 host)
    cat = category_from_dict(_vec_zn(32))
    tracemalloc.start()
    try:
        rep = verify_pentagon(cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == {"max_residual": 0.0, "worst_at": None, "tol": 1e-12, "pass": True}
    assert peak < 16 * 2 ** 20
