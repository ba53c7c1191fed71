"""The four benchmark workloads: CLI command lists and their output checks.

Each step is one ``gct`` command line writing one JSON report; its check
reads the report and returns a list of problems (empty when correct).  The
expected values come from ``oracles``, computed from the input files, never
from gct itself.

Why these four (each optimisation layer does most of the work in one and
little in another):

* center_s3    full center of Vec_S3 (tube dim 36, 8 simples); braiding
               sweep and engine bookkeeping dominate, the tube layer is <10 %.
* tube_z8      tube of a generated Vec_Z8 (dim 64, trivially graded, no F);
               the dense n^3/n^4 arrays of verify_algebra and decompose set
               time and peak RSS, and no extraction or braiding runs.
* gcenter_z3   action-twisted center of Vec_Z3 under inversion: transport,
               crossed extension, twisted/plain tube comparison, equivariant
               count.
* graded_small nontrivial F-symbols and gradings: verify on every bundled
               file, three small centers, and braid-check of each report,
               which feeds the braiding layer stored maps (per-command fixed
               costs and the report-read path).
"""

from __future__ import annotations

import os
import shutil
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import oracles
from gen_vec_zn import write_vec_zn

BUNDLED = ("fib", "ising", "vec_s3", "vec_z2", "vec_z3")
QDIM_TOL = 1e-8


@dataclass
class Step:
    argv: list
    report: str
    check: Callable[[dict], list]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= QDIM_TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# checks shared by the center reports


def _passed(rep: dict) -> list:
    return [] if rep.get("pass") is True else ["report says pass = false"]


def _simples(rep: dict) -> list:
    return [s for gd in rep["grades"].values() for s in gd["simples"]]


def _check_tube_dims(rep: dict, expected: dict) -> list:
    got = {g: gd["dim"] for g, gd in rep["grades"].items()}
    return [] if got == expected else [f"tube dims {got}, hom counting gives {expected}"]


def _check_square_sum(rep: dict, expected: float) -> list:
    got = sum(s["qdim"] ** 2 for s in _simples(rep))
    return [] if _close(got, expected) else [f"sum qdim^2 = {got}, expected {expected}"]


def _check_hom_identity(rep: dict) -> list:
    table = rep["hom_table"]
    bad = [(a, b) for a in table for b in table[a]
           if table[a][b] != (1 if a == b else 0)]
    return [f"hom table is not the identity at {bad[:3]}"] if bad else []


def _check_fusion_dims(rep: dict) -> list:
    """sum_k N_ij^k d_k = d_i d_j on every row of the reported fusion table."""
    qd = {s["name"]: s["qdim"] for s in _simples(rep)}
    table = rep["fusion"]["table"]
    if set(table) != set(qd):
        return ["fusion table does not cover the simples"]
    bad = [(i, j) for i in table for j, row in table[i].items()
           if not _close(sum(n * qd[k] for k, n in row.items()), qd[i] * qd[j])]
    return [f"fusion rows violate sum N d = d d at {bad[:3]}"] if bad else []


def _check_braiding(rep: dict) -> list:
    out = []
    if rep["braiding_summary"].get("pass") is not True:
        out.append("braiding sweep failed")
    if rep["reverse_summary"].get("pass") is not True:
        out.append("reverse braiding sweep failed")
    return out


def _check_qdims(rep: dict, expected: list) -> list:
    got = sorted(round(s["qdim"], 6) for s in _simples(rep))
    return [] if got == expected else [f"qdims {got}, expected {expected}"]


# ---------------------------------------------------------------------------
# workloads


def center_s3(work: str, data: str) -> list:
    shutil.copy(os.path.join(data, "vec_s3.json"), work)
    raw = oracles.load_raw(os.path.join(work, "vec_s3.json"))
    qdims = [float(d) for d in oracles.vec_g_center_qdims(oracles.pointed_group(raw))]
    dims = oracles.tube_dims(raw)

    def check(rep):
        return (_passed(rep) + _check_tube_dims(rep, dims) + _check_qdims(rep, qdims)
                + _check_square_sum(rep, oracles.center_qdim_square_sum(raw))
                + _check_hom_identity(rep) + _check_fusion_dims(rep)
                + _check_braiding(rep))

    return [Step(["center", "vec_s3.json"], "center_s3.json", check)]


def tube_z8(work: str, data: str) -> list:
    write_vec_zn(8, os.path.join(work, "vec_z8.json"))
    raw = oracles.load_raw(os.path.join(work, "vec_z8.json"))
    dims = oracles.tube_dims(raw)
    # Z(Vec_G): the tube block of a simple has rank equal to its qdim
    ranks = oracles.vec_g_center_qdims(oracles.pointed_group(raw))

    def check(rep):
        got = {g: d["dim"] for g, d in rep["decompositions"].items()}
        got_ranks = sorted(b["rank"] for d in rep["decompositions"].values()
                           for b in d["blocks"])
        out = [] if got == dims and rep["dim"] == sum(dims.values()) else \
            [f"tube dims {got}, hom counting gives {dims}"]
        if got_ranks != ranks:
            out.append(f"block ranks {Counter(got_ranks)}, expected {Counter(ranks)}")
        return out

    return [Step(["tube", "vec_z8.json"], "tube_z8.json", check)]


def gcenter_z3(work: str, data: str) -> list:
    shutil.copy(os.path.join(data, "vec_z3.json"), work)
    raw = oracles.load_raw(os.path.join(work, "vec_z3.json"))
    dims = oracles.twisted_tube_dims(raw, "inversion")
    count = oracles.equivariant_count(raw, "inversion")

    def check(rep):
        out = _passed(rep) + _check_tube_dims(rep, dims) + _check_braiding(rep)
        if rep["crossed_extension_iso"].get("pass") is not True:
            out.append("twisted tube differs from the crossed-extension tube")
        if rep["equivariant"]["count"] != count:
            out.append(f"equivariant count {rep['equivariant']['count']}, "
                       f"class arithmetic gives {count}")
        return out

    return [Step(["gcenter", "vec_z3.json", "--action", "inversion"],
                 "gcenter_z3.json", check)]


def graded_small(work: str, data: str) -> list:
    raws = {}
    for name in BUNDLED:
        shutil.copy(os.path.join(data, f"{name}.json"), work)
        raws[name] = oracles.load_raw(os.path.join(work, f"{name}.json"))
    steps = [Step(["verify", f"{name}.json"], f"verify_{name}.json", _passed)
             for name in BUNDLED]

    def center_check(name, subcat, rank=None):
        raw = raws[name]

        def check(rep):
            out = (_passed(rep) + _check_tube_dims(rep, oracles.tube_dims(raw, subcat))
                   + _check_square_sum(rep, oracles.center_qdim_square_sum(raw, subcat))
                   + _check_braiding(rep))
            if rank is not None and rep["simple_count"] != rank:
                out.append(f"rank {rep['simple_count']}, expected {rank}")
            return out

        return check

    centers = [
        (["center", "ising.json"], "center_ising.json", center_check("ising", "degree0")),
        (["center", "ising.json", "--subcat", "all"], "center_ising_all.json",
         center_check("ising", "all", oracles.ty_center_rank(2))),
        (["center", "fib.json"], "center_fib.json", center_check("fib", "degree0")),
    ]
    steps += [Step(argv, report, check) for argv, report, check in centers]
    steps += [Step(["braid-check", report], f"braid_check_{report}", _passed)
              for _, report, _ in centers]
    return steps


WORKLOADS = {f.__name__: f for f in (center_s3, tube_z8, gcenter_z3, graded_small)}


def prepare(name: str, work: str, data: str, seed: int) -> list:
    """Write the workload's inputs into ``work`` and return its steps, each
    argv completed with the seed and its report path."""
    steps = WORKLOADS[name](work, data)
    for s in steps:
        s.argv = s.argv + ["--seed", str(seed), "--json", s.report]
    return steps
