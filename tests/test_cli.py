"""End-to-end tests of the command line interface (subprocess level)."""

import json
import os
import subprocess
import sys

import pytest

from gct import bundled_path

RUN = [sys.executable, "-m", "gct.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("GCT_SEED", None)
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


def test_explicit_subcat_equals_degree0():
    a = run_cli("tube", bundled_path("ising"), "--subcat", "1,psi")
    b = run_cli("tube", bundled_path("ising"))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# ------------------------------------------------------------- exit codes


def test_missing_file_is_io_error(tmp_path):
    res = run_cli("verify", str(tmp_path / "nope.json"))
    assert res.returncode == 1


def test_malformed_schema_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "rank": 2}))
    res = run_cli("verify", str(bad))
    assert res.returncode == 2


@pytest.mark.parametrize("field,value", [
    ("rank", "x"), ("group", {}), ("N", None), (None, [1, 2]),
])
def test_wrongly_typed_field_is_data_error(tmp_path, field, value):
    """A field of the wrong type exits with the data-error code and one
    ``error:`` line, not a traceback (``None`` replaces the whole file)."""
    with open(bundled_path("ising")) as fh:
        d = json.load(fh)
    if field is None:
        d = value
    else:
        d[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    res = run_cli("verify", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_axiom_violation_is_data_error(tmp_path):
    with open(bundled_path("vec_z2")) as fh:
        d = json.load(fh)
    # break duality: claim both labels are self-dual partners of label 0
    d["N"] = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(d))
    res = run_cli("verify", str(bad))
    assert res.returncode == 2


def test_unknown_subcat_label(tmp_path):
    res = run_cli("tube", bundled_path("ising"), "--subcat", "1,ghost")
    assert res.returncode == 2


def test_unknown_grade_name():
    res = run_cli("center", bundled_path("ising"), "--grade", "zz")
    assert res.returncode == 2


def test_unclosed_subcat_rejected():
    res = run_cli("tube", bundled_path("ising"), "--subcat", "sigma")
    assert res.returncode == 2


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
    first = _center_payload(args, tube, 7, 1e-8)
    assert first[-1]
    second = _center_payload(args, tube, 7, 1e-8)
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
    from gct.cli import (_braiding_section, _build_parser, _center_payload,
                         _fusion_section, _subcat_labels)

    path = bundled_path(name)
    args = _build_parser().parse_args(["center", path, "--subcat", "all"])
    cat = load_category(path)  # a fresh engine, so the first run is cold
    tube = build_tube(cat, _subcat_labels(cat, args.subcat))
    tol = 1e-8

    def dump(obj):
        return json.dumps(obj, sort_keys=True)

    first, _, fusion, braiding, fam, ok = _center_payload(args, tube, 7, tol)
    assert ok
    second = _center_payload(args, tube, 7, tol)[0]
    assert dump(second) == dump(first)
    assert dump(_fusion_section(fam)) == dump(fusion)
    assert dump(_braiding_section(fam, tol)) == dump(braiding)


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
    res = run_cli("center", bundled_path("vec_z2"), "--subcat", "all",
                  env_extra={"GCT_SEED": "notanumber"})
    assert res.returncode == 2


# ------------------------------------------------------------ braid-check


def test_braid_check_roundtrip(ising_report):
    res = run_cli("braid-check", str(ising_report))
    assert res.returncode == 0, res.stderr
    for tag in ("BF0", "BF1", "BF2", "BF3"):
        assert tag in res.stdout


def test_braid_check_roundtrip_twisted(z3_gcenter_report):
    res = run_cli("braid-check", str(z3_gcenter_report))
    assert res.returncode == 0, res.stderr


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


def test_braid_check_rejects_empty_map(ising_report, tmp_path):
    data = json.loads(ising_report.read_text())
    data["braiding"] = {}
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(data))
    res = run_cli("braid-check", str(empty))
    assert res.returncode == 2
    assert "missing" in res.stderr.lower() or "empty" in res.stderr.lower()


def test_braid_check_rejects_non_report(tmp_path):
    notrep = tmp_path / "notreport.json"
    notrep.write_text(json.dumps({"hello": "world"}))
    res = run_cli("braid-check", str(notrep))
    assert res.returncode == 2
