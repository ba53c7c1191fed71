"""gct benchmark: run one workload through ``gct.cli.main`` and print its metrics.

    python3 perfbench/run.py --workload center_s3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gct is imported from its ``src``.
One process, one caller, closed loop: each command starts after the
previous one returns.  A run repeats whole rounds of the workload's command
list until the next round would end past ``--seconds`` (at least one round),
checks every report against ``oracles`` and requires each report to be
byte-identical in every round.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: setup_s (median import time of gct in fresh interpreters),
  wall_s and cpu_s (medians over rounds), peak_rss_mb (process high-water
  mark at the end of the first round);
* ``--trace 1``: one traced round, then one untraced round; every
  per-layer metric of ``tracer.PER_LAYER`` plus trace.overhead_s, and the
  spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

``--workload all`` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# BLAS is fixed to one thread before numpy loads.  The tube arrays are too
# small for a second thread to shorten wall time on the 2-core reference
# machine; it only adds spin time that depends on the host's scheduling.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gct; "
                "print(time.perf_counter() - t); print(gct.__file__)")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_gct():
    if not os.path.isfile(os.path.join(SRC, "gct", "cli.py")):
        _fail(f"no gct sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import gct.cli
    if not os.path.abspath(gct.cli.__file__).startswith(SRC + os.sep):
        _fail(f"gct was imported from {gct.cli.__file__}, not from {SRC}")
    return gct.cli


def measure_setup() -> float:
    """Median time to ``import gct`` in a fresh interpreter; the first
    sample only warms the bytecode cache and is dropped."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        lines = out.stdout.split()
        if out.returncode != 0 or len(lines) != 2 or not lines[1].startswith(SRC):
            _fail(f"import probe failed: {out.stderr.strip() or out.stdout}")
        times.append(float(lines[0]))
    return statistics.median(times[1:])


def run_round(cli, steps, tracer=None) -> dict:
    """All steps once, back to back; returns timings, exit codes, reports."""
    codes, sink, errs = [], io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errs):
        for i, step in enumerate(steps):
            if tracer is not None:
                tracer.request = i
            try:
                codes.append(cli.main(step.argv))
            except Exception:  # a crash is a failed command, not a dead run
                traceback.print_exc()
                codes.append("exception")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reports = []
    for step in steps:
        try:
            with open(step.report, "rb") as fh:
                reports.append(fh.read())
            os.remove(step.report)
        except FileNotFoundError:
            reports.append(None)
    if errs.getvalue():
        sys.stderr.write(errs.getvalue())
    return {"wall": wall, "cpu": cpu, "rss_mb": rss_mb, "codes": codes,
            "reports": reports}


def check_round(steps, rnd: dict, first: dict) -> tuple[int, bool]:
    """(failed commands, all outputs correct) for one round; ``first`` is
    the first round, whose report bytes every later round must repeat."""
    failed, correct = 0, True
    for i, step in enumerate(steps):
        problems = []
        data = rnd["reports"][i]
        if rnd["codes"][i] != 0:
            problems.append(f"exit code {rnd['codes'][i]}")
        if data is None:
            problems.append("no report written")
        else:
            try:
                bad = step.check(json.loads(data))
            except (ValueError, KeyError, TypeError) as e:
                bad = [f"malformed report: {e!r}"]
            if data != first["reports"][i]:
                bad.append("report bytes differ from the first round")
            correct = correct and not bad
            problems += bad
        if problems:
            failed += 1
            print(f"FAIL {' '.join(step.argv)}: {'; '.join(problems)}", file=sys.stderr)
    return failed, correct


def run_workload(args) -> dict:
    cli = _import_gct()
    setup_s = measure_setup() if not args.trace else None
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    cwd = os.getcwd()
    try:
        steps = workloads.prepare(args.workload, work, os.path.join(SRC, "gct", "data"),
                                  args.seed)
        os.chdir(work)
        rounds, tracer = [], None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                rounds.append(run_round(cli, steps, tracer))
            finally:
                tracer.uninstall()
            tracer.report_bytes = sum(len(r or b"") for r in rounds[0]["reports"])
            rounds.append(run_round(cli, steps))
        else:
            start = time.perf_counter()
            while True:
                rounds.append(run_round(cli, steps))
                elapsed = time.perf_counter() - start
                if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                    break
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failed, correct = 0, True
    for rnd in rounds:
        f, ok = check_round(steps, rnd, rounds[0])
        failed, correct = failed + f, correct and ok
    result = {"correct": correct, "attempted": len(steps) * len(rounds),
              "failed": failed}
    if tracer is not None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {"value": rounds[0]["wall"] - rounds[1]["wall"],
                                       "unit": "s"}
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "commands": [s.argv for s in steps], "metrics": metrics})
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
            # a CLI user runs each command in a fresh process; later rounds
            # only add what earlier rounds left behind in this one
            "peak_rss_mb": {"value": rounds[0]["rss_mb"], "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def run_all(args) -> dict:
    """Each workload in its own process (peak RSS is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            _fail(f"workload {name} exited with {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        for key, m in result["metrics"].items():
            print(f"{key} {m['value']:.6g} {m['unit']}")
        print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
