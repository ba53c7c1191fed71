"""Run the fixed list of CLI runs that make up the report gate, or compare
the outputs of two gate runs.

Usage: python3 tools/report_gate.py OUTDIR
       python3 tools/report_gate.py --diff OLD NEW

Runs `verify`, `tube` and `center` on every bundled category, the
`--subcat all`, `--grade` and `--action` variants, `tube` and `center` with
the refused `--subcat 1` on ising, the refused `center --action inversion` on
vec_z3 and `verify --grade zz` on ising, `center` on fib at `--tol 1e-6`
and at the refused `--tol 1e-30` (below the 1e-12 floor), `tube` on fib
with the refused `--tol 1e-30` (a tube takes no `--tol`), `tube` and
`verify` on a generated Vec_Z8 (from perfbench/gen_vec_zn.py),
`braid-check` of every center report, and `braid-check` of six edits of
the fib center report and one of the vec_z3 inversion gcenter report (see
`MUTATIONS`).  Every run uses seed 1 and one BLAS thread, and runs the gct
of the checkout this script lives in.  For each run, OUTDIR/<run>/ holds
`exit_code`, `stdout`, `stderr` and `report.json` (when the run wrote one).
The inputs are copied to OUTDIR/inputs and every path is relative to OUTDIR,
so the outputs of two checkouts can be compared.

`--diff OLD NEW` compares two such directories run by run.  For each run
that differs it prints the exit codes, the stdout and stderr lines that
differ, the JSON paths of `report.json` whose leaves differ (list indices
written as `*`, with the number of leaves), and the largest |delta| over
the numeric leaves present on both sides.
"""

from __future__ import annotations

import difflib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the gct of this checkout, which every run uses too
sys.path.insert(0, os.path.join(ROOT, "src"))
from gct.report import _leaves

BUNDLED = ("fib", "ising", "vec_s3", "vec_z2", "vec_z3")

# (run name, command, input name, extra arguments)
RUNS = (
    [(f"{cmd}-{name}", cmd, name, ()) for name in BUNDLED
     for cmd in ("verify", "tube", "center")]
    + [
        ("tube-ising-subcat-all", "tube", "ising", ("--subcat", "all")),
        ("center-ising-subcat-all", "center", "ising", ("--subcat", "all")),
        ("tube-ising-subcat-1", "tube", "ising", ("--subcat", "1")),
        ("center-ising-subcat-1", "center", "ising", ("--subcat", "1")),
        ("center-ising-grade-1", "center", "ising", ("--grade", "1")),
        ("center-fib-tol-1e-6", "center", "fib", ("--tol", "1e-6")),
        ("center-fib-tol-1e-30", "center", "fib", ("--tol", "1e-30")),
        ("tube-fib-tol-1e-30", "tube", "fib", ("--tol", "1e-30")),
        ("center-vec_z3-action-inversion", "center", "vec_z3", ("--action", "inversion")),
        ("verify-ising-grade-zz", "verify", "ising", ("--grade", "zz")),
        ("center-vec_z2-subcat-all", "center", "vec_z2", ("--subcat", "all")),
        ("tube-vec_z3-inversion", "tube", "vec_z3", ("--action", "inversion")),
        ("gcenter-vec_z3-inversion", "gcenter", "vec_z3", ("--action", "inversion")),
        ("gcenter-vec_z3-trivial", "gcenter", "vec_z3", ("--action", "trivial")),
        ("gcenter-vec_z2-trivial", "gcenter", "vec_z2", ("--action", "trivial")),
        ("verify-vec_z8", "verify", "vec_z8", ()),
        ("tube-vec_z8", "tube", "vec_z8", ()),
    ]
)


def _dropped(node, name: str = "e:3"):
    """A copy of a report without simple `name`: every dict key that names
    it (pair keys `x|y` included) goes, and every list item that is the
    name or a dict with that "name"."""
    if isinstance(node, dict):
        return {k: _dropped(v, name) for k, v in node.items()
                if name not in k.split("|")}
    if isinstance(node, list):
        return [_dropped(v, name) for v in node if v != name
                and not (isinstance(v, dict) and v.get("name") == name)]
    return node


def _duplicated(report: dict, name: str = "e:3", source: str = "e:0") -> dict:
    """A copy of a report whose simple `name` carries the data of `source`:
    its E-data, and every braiding entry and fusion-table entry of a pair
    that names it holds the one of the pair with `source` in its place."""
    out = json.loads(json.dumps(report))
    swap = {name: source}
    out["simple_data"][name] = out["simple_data"][source]
    for key in out["braiding"]:
        a, b = key.split("|")
        out["braiding"][key] = report["braiding"][f"{swap.get(a, a)}|{swap.get(b, b)}"]
    table = out["fusion"]["table"]
    for a in table:
        for b in table[a]:
            table[a][b] = report["fusion"]["table"][swap.get(a, a)][swap.get(b, b)]
    return out


def _hom_table_of_twos(report: dict) -> dict:
    """A copy of a report with every `hom_table` entry set to 2."""
    out = json.loads(json.dumps(report))
    for row in out["hom_table"].values():
        for key in row:
            row[key] = 2
    return out


def _zero_qdims(report: dict) -> dict:
    """A copy of a report with every `fusion.qdims` value set to 0."""
    out = json.loads(json.dumps(report))
    for key in out["fusion"]["qdims"]:
        out["fusion"]["qdims"][key] = 0
    return out


def _swapped_fusion(report: dict, row: str = "e:0", a: str = "e:0", b: str = "e:1") -> dict:
    """A copy of a report whose fusion-table row `row` has the multiplicities
    of `a` and `b` swapped in every entry.  On Z(Fib), e:0 and e:1 both
    have dimension phi, so the closure identity still holds."""
    out = json.loads(json.dumps(report))
    swap = {a: b, b: a}
    for entry in out["fusion"]["table"][row].values():
        moved = {swap.get(z, z): n for z, n in entry.items()}
        entry.clear()
        entry.update(moved)
    return out


def _equivariant_count_raised(report: dict) -> dict:
    """A copy of a gcenter report with `equivariant.count` raised by 5 and
    no orbits."""
    out = json.loads(json.dumps(report))
    out["equivariant"]["count"] += 5
    out["equivariant"]["orbits"] = []
    return out


def _object_words_int(report: dict, name: str = "e:3") -> dict:
    """A copy of a report whose simple `name` has the int 5 for its
    `object_words`, a field of the wrong type."""
    out = json.loads(json.dumps(report))
    out["simple_data"][name]["object_words"] = 5
    return out


# (run name, center run whose report is edited, edit); braid-check must
# refuse every one: e:3 dropped, e:3 carrying the data of e:0, the stored
# hom table, quantum dimensions and equivariant count that no longer match
# the family, a fusion table that is no fusion ring, and a malformed field
MUTATIONS = (
    ("braid-check-center-fib-dropped", "center-fib", _dropped),
    ("braid-check-center-fib-duplicated", "center-fib", _duplicated),
    ("braid-check-center-fib-hom-table-2", "center-fib", _hom_table_of_twos),
    ("braid-check-center-fib-qdims-0", "center-fib", _zero_qdims),
    ("braid-check-center-fib-swapped-fusion", "center-fib", _swapped_fusion),
    ("braid-check-center-fib-object-words-int", "center-fib", _object_words_int),
    ("braid-check-gcenter-vec_z3-inversion-count", "gcenter-vec_z3-inversion",
     _equivariant_count_raised),
)


def _write_inputs(out: str) -> None:
    os.makedirs(os.path.join(out, "inputs"), exist_ok=True)
    for name in BUNDLED:
        shutil.copyfile(os.path.join(ROOT, "src", "gct", "data", name + ".json"),
                        os.path.join(out, "inputs", name + ".json"))
    spec = importlib.util.spec_from_file_location(
        "gen_vec_zn", os.path.join(ROOT, "perfbench", "gen_vec_zn.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_vec_zn(8, os.path.join(out, "inputs", "vec_z8.json"))


def _run(out: str, env: dict, run: str, args: list) -> int:
    """One gct run in OUTDIR; its report goes to <run>/report.json."""
    os.makedirs(os.path.join(out, run), exist_ok=True)
    report = os.path.join(run, "report.json")
    res = subprocess.run([sys.executable, "-m", "gct.cli", *args, "--seed", "1",
                          "--json", report],
                         cwd=out, env=env, capture_output=True, text=True)
    for name, text in (("exit_code", f"{res.returncode}\n"),
                       ("stdout", res.stdout), ("stderr", res.stderr)):
        with open(os.path.join(out, run, name), "w") as fh:
            fh.write(text)
    return res.returncode


def _read(run_dir: str, name: str):
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh) if name == "report.json" else fh.read()


def _diff_run(old: str, new: str) -> list:
    """The lines describing how one run's outputs differ, empty when they
    are identical."""
    out = []
    a, b = _read(old, "exit_code"), _read(new, "exit_code")
    if a != b:
        out.append(f"exit {(a or '-').strip()} -> {(b or '-').strip()}")
    for name in ("stdout", "stderr"):
        a, b = (_read(old, name) or "").splitlines(), (_read(new, name) or "").splitlines()
        if a != b:
            out += [f"{name}: {line}" for line in difflib.unified_diff(a, b, lineterm="", n=0)
                    if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    a, b = _read(old, "report.json"), _read(new, "report.json")
    if a != b:
        a, b = dict(_leaves(a)), dict(_leaves(b))
        paths: dict = {}
        delta = 0.0
        for p in sorted(a.keys() | b.keys()):
            if p in a and p in b and a[p] == b[p] and type(a[p]) is type(b[p]):
                continue
            key = re.sub(r"/\d+(?=/|$)", "/*", p)
            paths[key] = paths.get(key, 0) + 1
            if all(isinstance(d.get(p), (int, float)) and not isinstance(d.get(p), bool)
                   for d in (a, b)):
                delta = max(delta, abs(a[p] - b[p]))
        out += [f"json {p} ({n} leaves)" for p, n in paths.items()]
        out.append(f"json max |delta| {delta:.3e}")
    return out


def diff(old: str, new: str) -> int:
    """Print, run by run, how the gate outputs NEW differ from OLD."""
    runs = sorted({d for top in (old, new) for d in os.listdir(top)
                   if d != "inputs" and os.path.isdir(os.path.join(top, d))})
    same = 0
    for run in runs:
        if not all(os.path.isdir(os.path.join(top, run)) for top in (old, new)):
            print(f"{run}\n  only in {old if os.path.isdir(os.path.join(old, run)) else new}")
            continue
        lines = _diff_run(os.path.join(old, run), os.path.join(new, run))
        if lines:
            print("\n  ".join([run, *lines]))
        else:
            same += 1
    print(f"{same} of {len(runs)} runs identical")
    return 0


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(*map(os.path.abspath, argv[1:]))
    if len(argv) != 1:
        sys.exit(__doc__)
    out = os.path.abspath(argv[0])
    _write_inputs(out)
    env = dict(os.environ)
    env.pop("GCT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    reports = []
    for run, cmd, name, extra in RUNS:
        code = _run(out, env, run, [cmd, os.path.join("inputs", name + ".json"), *extra])
        print(f"{code}  {run}")
        if cmd in ("center", "gcenter") and os.path.exists(os.path.join(out, run, "report.json")):
            reports.append(run)
    for run in reports:
        check = f"braid-check-{run}"
        code = _run(out, env, check, ["braid-check", os.path.join(run, "report.json")])
        print(f"{code}  {check}")
    for check, run, edit in MUTATIONS:
        with open(os.path.join(out, run, "report.json")) as fh:
            report = json.load(fh)
        os.makedirs(os.path.join(out, check), exist_ok=True)
        edited = os.path.join(check, "input.json")
        with open(os.path.join(out, edited), "w") as fh:
            json.dump(edit(report), fh, indent=1, sort_keys=True)
        code = _run(out, env, check, ["braid-check", edited])
        print(f"{code}  {check}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
