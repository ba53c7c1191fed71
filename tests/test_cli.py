"""End-to-end tests of the command line interface (subprocess level)."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gct
import gct.cli
from gct import bundled_path

RUN = [sys.executable, "-m", "gct.cli"]
# the subprocess imports the same gct as the tests, installed or not
GCT_PATH = os.path.dirname(os.path.dirname(gct.__file__))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("GCT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (GCT_PATH, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env=env)


@pytest.fixture(scope="module")
def ising_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ising_center.json"
    res = run_cli("center", bundled_path("ising"), "--json", str(out))
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def ising_all_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ising_all_center.json"
    res = run_cli("center", bundled_path("ising"), "--subcat", "all",
                  "--json", str(out))
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def z3_gcenter_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "z3_gcenter.json"
    res = run_cli("gcenter", bundled_path("vec_z3"), "--action", "inversion",
                  "--json", str(out))
    assert res.returncode == 0, res.stderr
    return out


# ------------------------------------------------------------- basic runs


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3", "vec_z2",
                                  "vec_z3"])
def test_verify_bundled_passes(name):
    res = run_cli("verify", bundled_path(name))
    assert res.returncode == 0, res.stderr
    assert "ok" in res.stdout
    assert "pentagon" in res.stdout


def test_tube_command_shows_dims(ising_report):
    res = run_cli("tube", bundled_path("ising"))
    assert res.returncode == 0
    assert "dim" in res.stdout
    assert "4" in res.stdout and "2" in res.stdout


def test_center_report_contents(ising_report):
    data = json.loads(ising_report.read_text())
    assert data["tool"] == "gct"
    assert data["command"] == "center"
    assert data["seed"] == 7
    assert data["simple_count"] == 6
    assert set(data["grades"]) == {"e", "u"}
    assert data["grades"]["e"]["block_ranks"] == [1, 1, 1, 1]
    assert data["grades"]["u"]["block_ranks"] == [1, 1]
    assert data["braiding_summary"]["pass"] is True
    assert data["reverse_summary"]["pass"] is True
    # braiding entries exist only for neutral second factors
    for key in data["braiding"]:
        xn, yn = key.split("|")
        assert data["simple_data"][yn]["grade"] == "e"


def test_gcenter_report_contents(z3_gcenter_report):
    data = json.loads(z3_gcenter_report.read_text())
    assert data["command"] == "gcenter"
    assert data["simple_count"] == 10
    assert data["grades"]["e"]["block_ranks"] == [1] * 9
    assert data["grades"]["i"]["block_ranks"] == [3]
    assert data["crossed_extension_iso"]["pass"] is True
    assert data["equivariant"]["count"] == 8
    assert data["braiding_summary"]["pass"] is True


def test_gcenter_requires_action():
    res = run_cli("gcenter", bundled_path("vec_z3"))
    assert res.returncode == 2
    assert "action" in res.stderr.lower()


def test_center_grade_filter():
    res = run_cli("center", bundled_path("ising"), "--grade", "u")
    assert res.returncode == 0, res.stderr
    assert "u" in res.stdout


# ------------------------------------------------------------- exit codes


def test_missing_file_is_io_error(tmp_path):
    res = run_cli("verify", str(tmp_path / "nope.json"))
    assert res.returncode == 1


def test_memory_exhaustion_is_a_clean_io_error(monkeypatch, capsys):
    # numpy's failed allocations raise a subclass of MemoryError
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.85 GiB for an array")

    monkeypatch.setattr(gct.cli, "build_tube", no_memory)
    assert gct.cli.main(["tube", bundled_path("ising")]) == gct.cli.EXIT_IO == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err == ("error: gct tube: out of memory "
                   "(Unable to allocate 2.85 GiB for an array)\n")


def test_a_trace_form_that_is_not_positive_exits_3(monkeypatch, capsys):
    build = gct.cli.build_tube

    def negated_trace(cat):
        tube = build(cat)
        tube.trace_vector = -tube.trace_vector
        return tube

    monkeypatch.setattr(gct.cli, "build_tube", negated_trace)
    assert gct.cli.main(["tube", bundled_path("fib")]) == gct.cli.EXIT_INTERNAL == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.startswith("internal error: trace form not positive definite")
    assert err.count("\n") == 1


def test_import_loads_no_scipy():
    """gct runs on numpy alone; scipy is a test-only dependency."""
    probe = ("import sys, gct.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=GCT_PATH)
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_malformed_schema_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "rank": 2}))
    res = run_cli("verify", str(bad))
    assert res.returncode == 2


@pytest.mark.parametrize("field,value", [
    ("rank", "x"), ("group", {}), ("N", None), (None, [1, 2]),
    # integer fields holding a non-integer number or a boolean, each of
    # which int() would truncate into a file that loads
    pytest.param("rank", 3.5, id="rank-float"),
    pytest.param(("dual", 1), True, id="dual-bool"),
    pytest.param(("grading", 2), 1.7, id="grading-float"),
    pytest.param(("N", 0, 3), 1.9, id="N-float"),
    pytest.param(("F", 0, "abcd", 0), 1.5, id="F-abcd-float"),
    pytest.param(("group", "table", 1, 1), 0.5, id="group-table-float"),
    pytest.param("action", {"name": "flip", "perm": {"e": [0, 1, 2], "u": [0, 1, 2.5]}},
                 id="action-perm-float"),
])
def test_wrongly_typed_field_is_data_error(tmp_path, field, value):
    """A field of the wrong type exits with the data-error code and one
    ``error:`` line, not a traceback.  ``field`` is a top-level key, a path
    of keys into the file, or ``None`` to replace the whole file."""
    with open(bundled_path("ising")) as fh:
        d = json.load(fh)
    if field is None:
        d = value
    else:
        *parents, last = (field,) if isinstance(field, str) else field
        node = d
        for key in parents:
            node = node[key]
        node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    res = run_cli("verify", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def _held_bytes(value, seen) -> int:
    """Bytes of the arrays reachable from a memo value, each counted once,
    plus 8 bytes per int of every all-int tuple (what an index array takes)."""
    import dataclasses

    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple) and value and all(isinstance(v, int) for v in value):
        return 8 * len(value)
    if isinstance(value, dict):
        parts = value.values()
    elif isinstance(value, (tuple, list, frozenset)):
        parts = value
    elif dataclasses.is_dataclass(value):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        return 0
    return sum(_held_bytes(v, seen) for v in parts)


def test_center_tensor_plans_stay_small(monkeypatch, tmp_path):
    """After `gct center vec_s3.json` the engine's tensor plans (with the
    unitaries they hold) and the tensor factors read off the same pieces
    hold < 2 MB."""
    from gct import load_category

    loaded = []
    monkeypatch.setattr(gct.cli, "load_category",
                        lambda path: loaded.append(load_category(path)) or loaded[-1])
    out = tmp_path / "s3.json"
    assert gct.cli.main(["center", bundled_path("vec_s3"), "--json", str(out)]) == 0
    eng = loaded[0]._engine
    seen: set = set()
    held = {name: _held_bytes(getattr(eng, "_memo_" + name), seen)
            for name in ("tensor_plan", "tensor_factors")}
    assert len(eng._memo_tensor_plan) > 2000
    assert sum(held.values()) < 2 * 2**20, held


def test_verify_fails_a_nan_f_block(monkeypatch, capsys):
    """A NaN in the last F block, put there after loading, reads as a
    failed F-unitarity row and a failed verify, not as residual 0."""
    from gct import load_category

    def load_with_nan(path):
        cat = load_category(path)
        key = sorted(cat.F)[-1]
        bad = cat.F[key].copy()
        bad[0, 0] = np.nan
        cat.F[key] = bad
        return cat

    monkeypatch.setattr(gct.cli, "load_category", load_with_nan)
    assert gct.cli.main(["verify", bundled_path("ising")]) != 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("F-unitarity"))
    assert "nan" in row and row.split()[-1] == "FAIL"


def test_center_tables_show_a_nan_closure_and_reverse_residual(fib_center, braid_reports,
                                                               capsys):
    """Python's max(0.0, nan) is 0.0, so a NaN put into the fusion closure
    or a reverse residual read as a finite cell, not as nan."""
    from gct import HalfBraiding
    from gct.braiding import _closure_residual, _family_gate
    from gct.center import hom_center
    from gct.report import _fusion_table
    fam = fib_center["fam"]
    homs = [[hom_center(x, y)[0] for y in fam] for x in fam]
    last = fam[-1]
    bad = HalfBraiding(last.cat, last.obj, last.grade, dict(last.E), name=last.name)
    bad.qdim = lambda: float("nan")
    closure = _closure_residual(fam[:-1] + [bad], _fusion_table(fam))
    assert np.isnan(closure)
    reverse = dict(braid_reports["fib"]["reverse"], membership=float("nan"))
    verdict = {"half": [], "forward": braid_reports["fib"]["forward"],
               "reverse": reverse, "closure_residual": closure,
               "family": _family_gate(fam, homs, 1e-6, True), "ring": None}
    gct.cli._print_verdict([], verdict, gct.cli._gate_rows(verdict, True))
    cells = _gate_table(capsys.readouterr().out)
    assert cells["rev"][-2:] == ["nan", "FAIL"]
    assert cells["fus"][-2:] == ["nan", "FAIL"]


def _gate_table(out: str) -> dict:
    """{axiom: [checks, residual, status]} of the gate table in a command's
    stdout."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["axiom", "checks"])
    return {line.split()[0]: line.split()[1:]
            for line in itertools.takewhile(str.strip, lines[start + 1:])}


def test_a_single_grade_skips_the_gates_of_the_whole_center(capsys):
    """The closure identity and the dimension sum hold only for the whole
    center, so `center --grade 1` on Ising passes with their rows skipped."""
    assert gct.cli.main(["center", bundled_path("ising"), "--grade", "1"]) == 0
    status = {axiom: row[-1] for axiom, row in _gate_table(capsys.readouterr().out).items()}
    assert status == {"BF0": "ok", "BF1": "ok", "BF2": "ok", "BF3": "ok", "rev": "ok",
                      "fus": "skipped", "Schur": "ok", "dim": "skipped"}


@pytest.mark.parametrize("argv", [["center", "fib"],
                                  ["gcenter", "vec_z3", "--action", "inversion"]],
                         ids=["center-fib", "gcenter-vec_z3-inversion"])
def test_center_and_braid_check_print_one_gate_table(tmp_path, capsys, argv):
    """A center run and braid-check of its report print the same gate
    rows.  A twisted run adds its comparison with the tube of the crossed
    extension as an `iso` row, which braid-check cannot repeat."""
    command, name, *rest = argv
    report = tmp_path / "report.json"
    assert gct.cli.main([command, bundled_path(name), *rest, "--json", str(report)]) == 0
    center = _gate_table(capsys.readouterr().out)
    assert gct.cli.main(["braid-check", str(report)]) == 0
    check = _gate_table(capsys.readouterr().out)
    assert list(check) == ["BF0", "BF1", "BF2", "BF3", "rev", "fus", "Schur", "dim"]
    iso = center.pop("iso", None)
    assert center == check
    if command == "gcenter":
        assert iso[0] == "max_deviation" and iso[-1] == "ok"
    else:
        assert iso is None


def test_verify_reports_a_broken_pentagon_as_a_data_failure(tmp_path):
    """ising.json with no F entries (every block then the identity) breaks
    the pentagon.  verify prints the FAIL row and exits with the data-error
    code, although the conjugate equations cannot be solved there, and its
    report stays strict JSON."""
    with open(bundled_path("ising")) as fh:
        d = json.load(fh)
    d["F"] = []
    bad = tmp_path / "no_f.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "report.json"
    res = run_cli("verify", str(bad), "--json", str(out))
    assert res.returncode == 2, res.stderr
    assert "internal error" not in res.stderr
    (row,) = [ln.split() for ln in res.stdout.splitlines() if ln.startswith("pentagon")]
    assert row[-1] == "FAIL"

    def non_finite(token):
        raise AssertionError(f"report holds {token}")

    rep = json.loads(out.read_text(), parse_constant=non_finite)
    assert rep["pass"] is False


PENTAGON_BREAKS = {
    # every F block the identity
    "no-F": ("1.000e+00", "(psi, sigma, sigma, sigma)"),
    # F^{psi sigma psi}_sigma = -1 made +1; flipping all of F^{sigma sigma
    # sigma}_sigma instead gives the other valid Ising-type category
    "flipped-psi-sigma-psi": ("2.000e+00", "(psi, sigma, psi, sigma)"),
}


@pytest.mark.parametrize("command", ["tube", "center", "gcenter", "braid-check"])
@pytest.mark.parametrize("mutation", PENTAGON_BREAKS)
def test_building_commands_refuse_a_failed_pentagon(tmp_path, capsys, ising_report,
                                                     mutation, command):
    """Each command that builds from a category (braid-check from the one
    its report names) exits 2 on F data that fail the pentagon, with one
    error line naming the residual and the quadruple, and prints nothing."""
    with open(bundled_path("ising")) as fh:
        d = json.load(fh)
    if mutation == "no-F":
        d["F"] = []
    else:
        (block,) = [b for b in d["F"] if b["abcd"] == [1, 2, 1, 2]]
        block["matrix"][0][0][0] *= -1
    bad = tmp_path / "ising_bad.json"
    bad.write_text(json.dumps(d))
    if command == "braid-check":
        report = json.loads(ising_report.read_text())
        report["input"] = str(bad)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        argv = [command, str(path)]
    else:
        argv = [command, str(bad), *(["--action", "trivial"] if command == "gcenter" else [])]
    assert gct.cli.main(argv) == 2
    out, err = capsys.readouterr()
    residual, quadruple = PENTAGON_BREAKS[mutation]
    assert out == ""
    assert err.splitlines() == [
        f"error: pentagon violated: residual {residual} at {quadruple}, tol 1.000e-12"]


def test_axiom_violation_is_data_error(tmp_path):
    with open(bundled_path("vec_z2")) as fh:
        d = json.load(fh)
    # break duality: claim both labels are self-dual partners of label 0
    d["N"] = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(d))
    res = run_cli("verify", str(bad))
    assert res.returncode == 2


@pytest.mark.parametrize("cmd", [("verify",), ("gcenter", "--action", "inversion")])
def test_an_action_that_breaks_the_fusion_rules_is_a_data_error(tmp_path, cmd):
    """Swapping the unit 0 with 1 does not preserve N; the action check
    names that and skips F invariance, whose vertices then have no
    images, instead of failing inside it with exit 3."""
    with open(bundled_path("vec_z3")) as fh:
        d = json.load(fh)
    d["action"]["perm"]["i"] = [1, 0, 2]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(d))
    res = run_cli(cmd[0], str(bad), *cmd[1:])
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr
    assert res.stderr == ("error: action 'inversion' is not strict: action of i "
                          "does not preserve fusion multiplicities\n")


def test_unknown_subcat_label(tmp_path):
    res = run_cli("tube", bundled_path("ising"), "--subcat", "1,ghost")
    assert res.returncode == 2


def test_unknown_grade_name():
    res = run_cli("center", bundled_path("ising"), "--grade", "zz")
    assert res.returncode == 2


def test_unclosed_subcat_rejected():
    res = run_cli("tube", bundled_path("ising"), "--subcat", "sigma")
    assert res.returncode == 2


@pytest.mark.parametrize("name, subcat", [("ising", "1"), ("vec_z3", "0"),
                                          ("vec_s3", "e,r,rr")])
def test_label_list_subcat_is_refused(name, subcat):
    """A loop set other than the neutral sector or every label is refused
    as a usage error; braiding with it is not defined."""
    res = run_cli("center", bundled_path(name), "--subcat", subcat)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    (line,) = [s for s in res.stderr.splitlines() if "error" in s]
    assert "argument --subcat: invalid choice" in line


@pytest.mark.parametrize("argv, option", [
    (["center", "vec_z3", "--action", "inversion"], "--action inversion"),
    (["gcenter", "vec_z3", "--action", "inversion", "--subcat", "all"], "--subcat all"),
    (["verify", "ising", "--grade", "zz"], "--grade zz"),
    (["tube", "fib", "--tol", "1e-30"], "--tol 1e-30"),
])
def test_an_option_the_command_does_not_read_is_refused(argv, option):
    command, name, *rest = argv
    res = run_cli(command, bundled_path(name), *rest)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    (line,) = [s for s in res.stderr.splitlines() if "error" in s]
    assert line.endswith(f"unrecognized arguments: {option}")


@pytest.mark.parametrize("command", ["verify", "tube", "center", "gcenter", "braid-check"])
def test_every_subcommand_prints_its_help(command):
    res = run_cli(command, "--help")
    assert res.returncode == 0
    assert res.stdout.startswith(f"usage: gct {command} ")
    assert res.stderr == ""


@pytest.mark.parametrize("argv, message", [
    (["verify"], "the following arguments are required: input"),
    (["braid-check"], "the following arguments are required: input"),
    (["verify", "f.json", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["tube", "f.json", "--subcat", "all", "--action", "inversion"],
     "argument --action: not allowed with argument --subcat"),
    (["center", "f.json", "--tol", "nan"], "argument --tol: not a finite positive number: 'nan'"),
    (["center", "f.json", "--tol", "-1"], "argument --tol: not a finite positive number: '-1'"),
    (["center", "f.json", "--seed", "-1"], "argument --seed: not a non-negative integer: '-1'"),
])
def test_a_subcommand_usage_error_exits_2(argv, message):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    (line,) = [s for s in res.stderr.splitlines() if "error" in s]
    assert line == f"gct {argv[0]}: error: {message}"


FLOOR = "is below 1e-12, the pentagon tolerance that every input is accepted at"


@pytest.mark.parametrize("argv", [
    ["center", "fib", "--tol", "1e-30"],
    ["gcenter", "vec_z3", "--action", "inversion", "--tol", "5e-13"],
    ["braid-check", "fib_report", "--tol", "1e-30"],
], ids=["center", "gcenter", "braid-check"])
def test_a_tol_below_the_pentagon_floor_exits_2_and_runs_nothing(
        argv, request, tmp_path, capsys, monkeypatch):
    """No residual of a center is certified finer than its input's pentagon
    is accepted, so `--tol` below 1e-12 is bad data: exit 2 with one line,
    before any input is loaded and without a report."""
    command, name, *rest = argv
    path = (request.getfixturevalue(name) if command == "braid-check"
            else bundled_path(name))

    def no_load(*_):
        raise AssertionError("an input was loaded")

    monkeypatch.setattr(gct.cli, "load_category", no_load)
    out = tmp_path / "report.json"
    assert gct.cli.main([command, str(path), *rest, "--json", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert stderr.splitlines() == [f"error: --tol {rest[-1]} {FLOOR}"]


def test_braid_check_refuses_a_stored_tol_below_the_floor(fib_report, tmp_path, capsys):
    """A report's own tol meets the same floor; a --tol at or above it is
    the tolerance braid-check then uses instead."""
    data = json.loads(fib_report.read_text())
    data["tol"] = 1e-30
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(data))
    assert gct.cli.main(["braid-check", str(path)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.splitlines() == [f"error: the report's tol 1e-30 {FLOOR}"]
    assert gct.cli.main(["braid-check", str(path), "--tol", "1e-12"]) == 0


def test_verify_keeps_a_tol_below_the_floor(capsys):
    """For `verify` the tolerance is the pentagon's own, so any finite
    positive --tol runs; fib's float residuals then fail it."""
    assert gct.cli.main(["verify", bundled_path("fib"), "--tol", "1e-30"]) == 2
    stdout, stderr = capsys.readouterr()
    assert "pentagon" in stdout and "1.000e-30" in stdout
    assert "1e-12" not in stderr


def test_a_twisted_tube_report_records_no_subcat(tmp_path):
    path = tmp_path / "tube.json"
    res = run_cli("tube", bundled_path("vec_z3"), "--action", "inversion",
                  "--json", str(path))
    assert res.returncode == 0, res.stderr
    data = json.loads(path.read_text())
    assert data["subcat"] is None and data["action"] == "inversion"


def test_braid_check_refuses_a_label_list_subcat(ising_report, tmp_path, capsys):
    report = json.loads(ising_report.read_text())
    report["subcat"] = "1,psi"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert gct.cli.main(["braid-check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: schema mismatch: unknown subcat '1,psi'"]


# ----------------------------------------------------------- determinism


def test_center_reports_are_byte_identical(ising_report, tmp_path):
    again = tmp_path / "again.json"
    res = run_cli("center", bundled_path("ising"), "--json", str(again))
    assert res.returncode == 0
    assert again.read_bytes() == ising_report.read_bytes()


def test_gcenter_payload_is_the_same_on_warm_caches():
    """The twisted pipeline run twice in one process on one tube: the
    second run meets the engine's warm transport maps.  Both runs must
    give the same JSON."""
    from gct import build_twisted_tube, load_category
    from gct.cli import _build_parser, _center_payload, _twisted_setup

    path = bundled_path("vec_z3")
    args = _build_parser().parse_args(["gcenter", path, "--action", "inversion"])
    tube = build_twisted_tube(*_twisted_setup(load_category(path), args.action))
    first = _center_payload(args, tube, 7, 1e-8, list(tube.grades))
    assert first[-1]
    second = _center_payload(args, tube, 7, 1e-8, list(tube.grades))
    assert json.dumps(second[0], sort_keys=True) == json.dumps(first[0], sort_keys=True)


def test_gcenter_reports_are_byte_identical(z3_gcenter_report, tmp_path):
    again = tmp_path / "again.json"
    res = run_cli("gcenter", bundled_path("vec_z3"), "--action", "inversion",
                  "--json", str(again))
    assert res.returncode == 0
    assert again.read_bytes() == z3_gcenter_report.read_bytes()


@pytest.mark.parametrize("name", ["fib", "ising"])
def test_center_payload_is_the_same_on_warm_caches(name):
    """The center pipeline run twice in one process on one category and
    tube: the second run meets the engine's warm path, dims and factor
    caches.  Rebuilding the fusion and braiding sections on the first
    run's family then meets every memo on its objects (E-extensions,
    verdicts, homs, products).  All of it must give the same JSON."""
    from gct import build_tube, load_category
    from gct.braiding import certify
    from gct.cli import _build_parser, _center_payload, _context
    from gct.report import _braiding_section, _fusion_table

    path = bundled_path(name)
    args = _build_parser().parse_args(["center", path, "--subcat", "all"])
    # a fresh engine, so the first run is cold
    cat, _ = _context(load_category(path), args.subcat, None)
    tube = build_tube(cat)
    tol = 1e-8

    def dump(obj):
        return json.dumps(obj, sort_keys=True)

    first, verdict, fam = _center_payload(args, tube, 7, tol, list(tube.grades))
    assert first["pass"]
    second = _center_payload(args, tube, 7, tol, list(tube.grades))[0]
    assert dump(second) == dump(first)
    table = _fusion_table(fam)
    assert dump(table) == dump(first["fusion"]["table"])
    pairwise, entries = _braiding_section(fam)
    assert dump(entries) == dump(first["braiding"])
    assert dump(certify(fam, pairwise, table, tol, True)) == dump(verdict)


def test_seed_env_var_is_honoured(tmp_path):
    out = tmp_path / "seeded.json"
    res = run_cli("center", bundled_path("vec_z2"), "--subcat", "all",
                  "--json", str(out), env_extra={"GCT_SEED": "123"})
    assert res.returncode == 0
    assert json.loads(out.read_text())["seed"] == 123


def test_seed_flag_beats_env(tmp_path):
    out = tmp_path / "seeded.json"
    res = run_cli("center", bundled_path("vec_z2"), "--subcat", "all",
                  "--seed", "99", "--json", str(out),
                  env_extra={"GCT_SEED": "123"})
    assert res.returncode == 0
    assert json.loads(out.read_text())["seed"] == 99


def test_bad_seed_env_is_data_error():
    # one test over both values, so that its id stays the same
    for seed, message in [("notanumber", "invalid int value"),
                          ("-3", "not a non-negative integer")]:
        res = run_cli("center", bundled_path("vec_z2"), "--subcat", "all",
                      env_extra={"GCT_SEED": seed})
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.splitlines() == [f"error: GCT_SEED: {message}: '{seed}'"]


@pytest.mark.parametrize("argv", [
    ["verify", "fib"],
    ["tube", "fib"],
    ["center", "fib"],
    ["gcenter", "vec_z3", "--action", "inversion"],
    ["braid-check", "fib_report"],
], ids=["verify", "tube", "center", "gcenter", "braid-check"])
def test_a_bad_gct_seed_exits_2_before_anything_runs(
        argv, request, tmp_path, capsys, monkeypatch):
    """GCT_SEED is read once, before the command runs: a bad value exits 2
    with one line, and no category or report is read."""
    command, name, *rest = argv
    path = (request.getfixturevalue(name) if command == "braid-check"
            else bundled_path(name))

    def no_read(*_):
        raise AssertionError("an input was read")

    monkeypatch.setattr(gct.cli, "load_category", no_read)
    monkeypatch.setattr(gct.cli, "read_report", no_read)
    monkeypatch.setenv("GCT_SEED", "-3")
    out = tmp_path / "report.json"
    assert gct.cli.main([command, str(path), *rest, "--json", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert stderr.splitlines() == ["error: GCT_SEED: not a non-negative integer: '-3'"]


# ------------------------------------------------------------ braid-check


def test_braid_check_roundtrip(ising_report):
    res = run_cli("braid-check", str(ising_report))
    assert res.returncode == 0, res.stderr
    for tag in ("BF0", "BF1", "BF2", "BF3"):
        assert tag in res.stdout


def test_braid_check_roundtrip_twisted(z3_gcenter_report):
    res = run_cli("braid-check", str(z3_gcenter_report))
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("report", ["fib_report", "ising_all_report",
                                    "z3_gcenter_report"])
def test_braid_check_reaches_the_verdict_of_the_report(request, report, tmp_path):
    """`center`/`gcenter` sweep the entries they serialise, and braid-check
    sweeps them again from the file: one sweep, one verdict."""
    path = request.getfixturevalue(report)
    out = tmp_path / "check.json"
    res = run_cli("braid-check", str(path), "--json", str(out))
    assert res.returncode == 0, res.stderr
    check, data = json.loads(out.read_text()), json.loads(path.read_text())
    assert check["sweep"] == data["braiding_summary"]
    assert check["reverse"] == data["reverse_summary"]
    assert check["family_gate"] == data["family_gate"]
    assert check["closure_residual"] == data["fusion"]["closure_residual"]
    assert check["pass"] is data["pass"] is True
    # failure rows and keys appear only on failure
    assert not {"fusion_ring", "stale_fields"} & (check.keys() | data.keys())


def test_braid_check_stores_the_exact_half_braiding_residuals(fib_report, tmp_path):
    """Not the 4 significant digits of the printed cell: the residuals equal
    those of the center report's simples, float for float."""
    out = tmp_path / "check.json"
    res = run_cli("braid-check", str(fib_report), "--json", str(out))
    assert res.returncode == 0, res.stderr
    got = json.loads(out.read_text())["halfbraiding_residuals"]
    data = json.loads(fib_report.read_text())
    want = {s["name"]: s["residual"] for gd in data["grades"].values()
            for s in gd["simples"]}
    assert got == want
    assert any(r != float(f"{r:.3e}") for r in got.values())


def test_braid_check_flags_sign_flip(ising_report, tmp_path):
    data = json.loads(ising_report.read_text())
    key = sorted(data["braiding"])[0]
    entry = data["braiding"][key]
    for mat in entry["blocks"].values():
        for row in mat:
            for cell in row:
                cell[0] = -cell[0]
                cell[1] = -cell[1]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(data))
    res = run_cli("braid-check", str(flipped))
    assert res.returncode == 2
    assert "BF" in res.stdout


def _scale_E(data, name, label, z):
    """Multiply the stored E(label) of one family simple by z in place."""
    for mat in data["simple_data"][name]["E"][label]["blocks"].values():
        for row in mat:
            for cell in row:
                w = complex(cell[0], cell[1]) * z
                cell[0], cell[1] = w.real, w.imag


@pytest.mark.parametrize("z,row", [(1j, "FAIL"), (-1.0, "ok")])
def test_braid_check_flags_a_corrupted_half_braiding(ising_report, tmp_path, z, row):
    """E(psi) of one member times z; the braiding entries stay as they
    were, so the sweep fails against them either way.  Times i breaks the
    half-braiding axioms (psi psi = 1 allows only a sign), and that
    simple's row reads FAIL.  Times -1 is again a half-braiding, that of
    another center object (psi -> -1 is a character of the loop fusion
    rules), so its row rightly reads ok."""
    data = json.loads(ising_report.read_text())
    name = data["family"][-1]
    _scale_E(data, name, "psi", z)
    bad = tmp_path / "scaled.json"
    bad.write_text(json.dumps(data))
    res = run_cli("braid-check", str(bad))
    assert res.returncode == 2
    lines = res.stdout.splitlines()
    assert next(ln.split() for ln in lines if ln.split()[:1] == [name])[-1] == row
    assert any(ln.startswith("BF") and ln.endswith("FAIL") for ln in lines)


@pytest.fixture(scope="module")
def fib_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "fib_center.json"
    res = run_cli("center", bundled_path("fib"), "--json", str(out))
    assert res.returncode == 0, res.stderr
    return out


def _one_line_error(res, *words):
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert all(w in res.stderr for w in words), res.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_braid_check_refuses_a_non_finite_braiding_entry(fib_report, tmp_path, value):
    data = json.loads(fib_report.read_text())
    data["braiding"]["e:3|e:3"]["blocks"]["1"][0][0][0] = value
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(data))
    _one_line_error(run_cli("braid-check", str(bad)), "'e:3|e:3'", "non-finite")


def test_braid_check_refuses_a_non_finite_half_braiding(fib_report, tmp_path):
    data = json.loads(fib_report.read_text())
    E = data["simple_data"]["e:3"]["E"]["t"]["blocks"]
    E[next(iter(E))][0][0][1] = float("nan")
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(data))
    _one_line_error(run_cli("braid-check", str(bad)), "'e:3'", "E(t)", "non-finite")


@pytest.mark.parametrize("entry", ["1.0", [1.0], None], ids=["string", "short", "null"])
def test_braid_check_refuses_a_malformed_matrix_entry(fib_report, tmp_path, entry):
    data = json.loads(fib_report.read_text())
    data["braiding"]["e:3|e:3"]["blocks"]["1"][0][0] = entry
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    _one_line_error(run_cli("braid-check", str(bad)), "schema mismatch", "'e:3|e:3'")


@pytest.mark.parametrize("edit", ["missing", "string", "float", "negative", "unknown"])
def test_braid_check_refuses_a_malformed_fusion_table(fib_report, tmp_path, edit):
    """The closure residual and the ring axioms are read off the stored
    fusion table, so a missing table, a multiplicity that is no integer or
    is negative, and an entry naming no member are refused."""
    data = json.loads(fib_report.read_text())
    if edit == "missing":
        del data["fusion"]
    elif edit == "unknown":
        data["fusion"]["table"]["e:2"]["e:2"]["e:9"] = 1
    else:
        data["fusion"]["table"]["e:2"]["e:2"]["e:2"] = {"string": "1", "float": 1.0,
                                                         "negative": -1}[edit]
    bad = tmp_path / "fusion.json"
    bad.write_text(json.dumps(data))
    _one_line_error(run_cli("braid-check", str(bad)), "schema mismatch in the fusion table")


@pytest.mark.parametrize("path,value", [
    (("tol",), "abc"), (("tol",), None), (("tol",), -1.0),
    (("family",), 5), (("simple_data",), []),
    (("simple_data", "e:3", "object_words"), 5), (("simple_data", "e:3", "E"), []),
    (("simple_data", "e:3", "E", "t", "blocks"), []),
    (("braiding",), []), (("input",), 5),
], ids=["tol-string", "tol-null", "tol-negative", "family-int", "simple-data-list",
        "object-words-int", "E-list", "E-blocks-list", "braiding-list", "input-int"])
def test_braid_check_refuses_a_malformed_report(fib_report, tmp_path, path, value):
    """A report field of the wrong type or shape exits 2 with one
    schema-mismatch line, not a traceback.  An int `input` would otherwise
    be opened as a file descriptor, so these run in a subprocess."""
    data = json.loads(fib_report.read_text())
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    _one_line_error(run_cli("braid-check", str(bad)), "error: schema mismatch")


def test_braid_check_rejects_empty_map(ising_report, tmp_path):
    data = json.loads(ising_report.read_text())
    data["braiding"] = {}
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(data))
    res = run_cli("braid-check", str(empty))
    assert res.returncode == 2
    assert "missing" in res.stderr.lower() or "empty" in res.stderr.lower()


def test_braid_check_passes_a_report_with_no_pairs_to_check(tmp_path):
    """`center --grade 1` on Ising holds only the two odd simples, and the
    plain flavour braids only into a degree-neutral second slot, so its
    braiding map is empty with nothing missing, and braid-check passes it."""
    out = tmp_path / "grade1.json"
    res = run_cli("center", bundled_path("ising"), "--grade", "1", "--json", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["braiding"] == {}
    res = run_cli("braid-check", str(out))
    assert res.returncode == 0, res.stderr


def test_a_complex_f_center_round_trips_through_braid_check(tmp_path):
    """Z(Vec_Z3^omega), for the 3-cocycle of `_vec_zn(3, omega=1)`, has rank
    9.  Its stored E-data and braiding entries carry imaginary parts, and
    braid-check reads them back and passes them."""
    from gct.report import _leaves
    from test_fusion_core import _vec_zn

    cat = tmp_path / "vec_z3_omega.json"
    cat.write_text(json.dumps(_vec_zn(3, omega=1)))
    report = tmp_path / "center.json"
    assert gct.cli.main(["center", str(cat), "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["simple_count"] == len(data["family"]) == 9
    imag = max(abs(v) for p, v in _leaves([data["simple_data"], data["braiding"]])
               if "/blocks/" in p and p.endswith("/1"))
    assert imag > 0.5
    assert gct.cli.main(["braid-check", str(report)]) == 0


def test_braid_check_rejects_non_report(tmp_path):
    notrep = tmp_path / "notreport.json"
    notrep.write_text(json.dumps({"hello": "world"}))
    res = run_cli("braid-check", str(notrep))
    assert res.returncode == 2


def _repo_module(directory: str, name: str):
    """The script `directory`/`name`.py of this repository, loaded from its file."""
    import importlib.util
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        directory, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _gate_tool():
    """tools/report_gate.py, whose MUTATIONS edit a center report."""
    return _repo_module("tools", "report_gate")


def test_every_name_the_tracer_wraps_still_resolves():
    """perfbench/tracer.py wraps gct functions and methods by name, so a
    deleted or renamed one would break `perfbench/run.py --trace 1`: each
    entry must be an attribute of its gct module, or in its class's dict."""
    import importlib
    tracer = _repo_module("perfbench", "tracer")
    entries = tracer.SPANNED + tracer.COUNTED
    assert entries
    missing = []
    for name, mod, cls, attr in entries:
        module = importlib.import_module(f"gct.{mod}")
        if cls is None:
            found = callable(getattr(module, attr, None))
        else:
            found = attr in getattr(getattr(module, cls, None), "__dict__", {})
        if not found:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("edit,args,schur,dim", [
    ("_dropped", (), "ok", "FAIL"),
    ("_duplicated", (), "FAIL", "FAIL"),
    ("_duplicated", ("e:1", "e:0"), "FAIL", "ok"),
], ids=["dropped", "duplicated", "twin"])
def test_braid_check_refuses_a_family_that_is_not_the_center(fib_report, tmp_path,
                                                             edit, args, schur, dim):
    """Z(Fib) with e:3 dropped from the family, its data and every entry
    that names it; with e:3's data and entries replaced by e:0's; and with
    e:1's replaced by those of e:0, which has the same object and
    dimension.  Every stored map still passes the sweep.  The dimensions
    sum to less than dim Z(Fib) in the first two, and a copy breaks Schur
    orthogonality; the twin keeps every dimension and the fusion closure,
    so only Schur sees it."""
    data = json.loads(fib_report.read_text())
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(getattr(_gate_tool(), edit)(data, *args)))
    out = tmp_path / "check.json"
    res = run_cli("braid-check", str(bad), "--json", str(out))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    check = json.loads(out.read_text())
    assert check["pass"] is False and check["sweep"]["pass"] is True
    assert check["family_gate"]["schur_defect"] == (schur == "FAIL")
    assert (check["family_gate"]["dim_residual"] > 1.0) == (dim == "FAIL")
    rows = {ln.split()[0]: ln.split()[-1] for ln in res.stdout.splitlines() if ln.strip()}
    assert (rows["Schur"], rows["dim"]) == (schur, dim)


def _grades_edit(key, value):
    def edit(report):
        out = json.loads(json.dumps(report))
        out["grades"]["e"]["simples"][2][key] = value
        return out
    return edit


@pytest.mark.parametrize("edit,field,count", [
    (_gate_tool()._hom_table_of_twos, "hom_table", 16),
    (_gate_tool()._zero_qdims, "fusion.qdims", 4),
    (_grades_edit("name", "e:9"), "grades", 1),
    (_grades_edit("qdim", 0.0), "grades", 1),
    (_grades_edit("object", {"1": 2, "t": 1}), "grades", 2),
], ids=["hom-table-2", "qdims-0", "name", "qdim", "object"])
def test_braid_check_refuses_stored_fields_that_are_not_the_family(fib_report, tmp_path,
                                                                   edit, field, count):
    """The stored hom table, quantum dimensions and per-simple name, qdim
    and object are compared with the rebuilt family: each edit passes every
    gate of `certify`, and braid-check still exits 2 with a row naming the
    field and the number of leaves that differ."""
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(edit(json.loads(fib_report.read_text()))))
    out = tmp_path / "check.json"
    res = run_cli("braid-check", str(bad), "--json", str(out))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    check = json.loads(out.read_text())
    assert check["pass"] is False
    assert check["sweep"]["pass"] and check["reverse"]["pass"] and check["family_gate"]["pass"]
    assert check["stale_fields"] == {field: count}
    row = res.stdout.splitlines()[-1].split()
    assert row[:2] == [field, str(count)]


@pytest.mark.parametrize("report,edit,key,value", [
    ("fib_report", "_swapped_fusion", "fusion_ring",
     "unit axiom violated: found 0 candidate unit objects"),
    ("z3_gcenter_report", "_equivariant_count_raised", "stale_fields", {"equivariant": 19}),
], ids=["swapped-fusion", "equivariant-count"])
def test_braid_check_refuses_a_fusion_ring_or_count_that_is_not_the_family(
        request, tmp_path, report, edit, key, value):
    """Z(Fib) with the e:0 row's multiplicities of e:0 and e:1 swapped in
    every fusion entry keeps the closure identity (both have dimension
    phi), but its table has no two-sided unit.  The vec_z3 inversion
    gcenter report with its equivariant count raised by 5 and no orbits
    stores a block that the rebuilt family does not give.  Every residual
    gate still passes, and braid-check exits 2 with a row naming the axiom
    or the field."""
    data = json.loads(request.getfixturevalue(report).read_text())
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(getattr(_gate_tool(), edit)(data)))
    out = tmp_path / "check.json"
    res = run_cli("braid-check", str(bad), "--json", str(out))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    check = json.loads(out.read_text())
    assert check["pass"] is False
    assert check["sweep"]["pass"] and check["reverse"]["pass"] and check["family_gate"]["pass"]
    assert check["closure_residual"] < 1e-9
    assert {k: check[k] for k in ("fusion_ring", "stale_fields") if k in check} == {key: value}
    if key == "fusion_ring":
        assert f"fusion ring axioms fail: {value}" in res.stdout.splitlines()
    else:
        assert res.stdout.splitlines()[-1].split()[:3] == ["equivariant", "19", "/count:"]
