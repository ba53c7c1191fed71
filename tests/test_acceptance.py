"""Acceptance suite: the nine release criteria, one test (and one printed
pass/fail line) each.

Every expected number here is pinned by an independent oracle: the exact
pentagon and the counting/centralizer oracles live in test_oracles, the
+-i scalar comes from the raw odd-sector F entry, and the equivariant
count is cross-checked against the extension center extracted from
scratch.  Tolerances are the stated ones; nothing is loosened here.
"""

import itertools
import json

import numpy as np
import pytest

from gct import (
    build_tube,
    bundled_path,
    conjugate_half_braiding,
    decompose,
    engine_for,
    equivariant_count,
    extract_simples,
    hom_center,
    hom_equivariant,
    load_category,
    regular_equivariant,
    scalar_twist_equivariant,
    tensor_half_braidings,
    twisted_untwisted_iso,
    verify_half_braiding,
    verify_pentagon,
)
from gct.report import center_report
from test_oracles import (
    _group_table_from_pointed,
    _raw,
    double_simple_count_oracle,
    tube_dim_oracle,
)

BUNDLED = ("fib", "ising", "vec_s3", "vec_z2", "vec_z3")


def _line(n, label, detail):
    print(f"criterion {n} ({label}): PASS — {detail}")


def test_criterion_1_exact_structure(cats):
    worst_pent = 0.0
    worst_conj = 0.0
    for name in BUNDLED:
        cat = cats[name]
        rep = verify_pentagon(cat)
        assert rep["pass"], (name, rep)
        assert rep["max_residual"] < 1e-12, name
        worst_pent = max(worst_pent, rep["max_residual"])
        for a in range(cat.rank):
            r = engine_for(cat).conjugates(a).residual
            assert r < 1e-9, (name, cat.labels[a], r)
            worst_conj = max(worst_conj, r)
    _line(1, "pentagon + conjugates",
          f"pentagon<=%.1e conjugates<=%.1e" % (worst_pent, worst_conj))


def test_criterion_2_tube_block_bijection(fib_center, z2_center, ising_center,
                                          s3_center):
    cases = {
        "vec_z2": (z2_center, {0: 4}),
        "ising": (ising_center, {0: 4, 1: 2}),
        "fib": (fib_center, {0: 4}),
        "vec_s3": (s3_center, {0: 8}),
    }
    for name, (bundle, want) in cases.items():
        raw = _raw(name)
        for g, dec in bundle["decs"].items():
            assert len(dec.blocks) == want[g], (name, g)
            sl = bundle["tube"].grade_slice(g)
            assert sum(r * r for r in dec.block_ranks()) == sl.stop - sl.start
    # the S3 count decomposes over conjugacy classes as 3 + 2 + 3
    assert double_simple_count_oracle(
        _group_table_from_pointed(_raw("vec_s3"))) == 8
    _line(2, "tube blocks = center simples", "counts 4 / 4+2 / 4 / 8")


def test_criterion_3_extraction_quality(fib_center, z2_center, ising_center,
                                        s3_center, z3_twisted):
    worst = 0.0
    n = 0
    for bundle in (fib_center, z2_center, ising_center, s3_center, z3_twisted):
        for x in bundle["fam"]:
            rep = verify_half_braiding(x)
            assert rep["pass"] and rep["max_residual"] < 1e-8, x.name
            worst = max(worst, rep["max_residual"])
            n += 1
    # the odd Ising sector carries exactly the scalars +-i
    cat = ising_center["fam"][0].cat
    psi, sigma = cat.labels.index("psi"), cat.labels.index("sigma")
    scal = sorted(complex(x.E[psi].block(sigma)[0, 0]).imag
                  for x in ising_center["simples"][1])
    assert abs(scal[0] + 1.0) < 1e-8 and abs(scal[1] - 1.0) < 1e-8
    _line(3, "half-braiding extraction",
          f"{n} simples, residual<=%.1e, odd scalars ±i" % worst)


def test_criterion_4_conjugation(fib_center, z2_center, ising_center,
                                 s3_center, z3_twisted):
    checked = 0
    for bundle in (fib_center, z2_center, ising_center, s3_center, z3_twisted):
        fam = bundle["fam"]
        perm = []
        for x in fam:
            xb = conjugate_half_braiding(x)
            assert verify_half_braiding(xb)["pass"], x.name
            assert xb.grade == x.cat.group.inv(x.grade)
            hits = [j for j, y in enumerate(fam) if hom_center(xb, y)[0] == 1]
            assert len(hits) == 1, x.name
            perm.append(hits[0])
            checked += 1
        assert sorted(perm) == list(range(len(fam)))
        assert [perm[perm[i]] for i in range(len(perm))] == list(range(len(fam)))
    _line(4, "conjugation permutes simples", f"{checked} objects, involution ok")


def test_criterion_5_twisted_untwisted_iso(z3_twisted, z3_ext_tube):
    rep = twisted_untwisted_iso(z3_twisted["tube"], z3_ext_tube)
    assert rep["pass"], rep
    assert rep["max_deviation"] < 1e-8
    _line(5, "twisted tube = extension tube",
          "constants deviation %.1e" % rep["max_deviation"])


def test_criterion_6_braiding_axioms(braid_reports):
    worst = 0.0
    for key, reps in braid_reports.items():
        fw, rv = reps["forward"], reps["reverse"]
        assert fw["pass"], (key, fw)
        assert fw["max_residual"] < 1e-8, key
        assert rv["pass"], (key, rv)
        assert max(rv["inversion"], rv["membership"]) < 1e-8, key
        worst = max(worst, fw["max_residual"], rv["inversion"],
                    rv["membership"])
    _line(6, "graded braiding + reverse",
          f"{len(braid_reports)} families, residual<=%.1e" % worst)


def test_criterion_7_equivariant_count(z3_twisted, s3_center):
    cnt = equivariant_count(z3_twisted["fam"])
    assert cnt["count"] == 8
    assert len(s3_center["fam"]) == 8          # independent extraction
    assert double_simple_count_oracle(
        _group_table_from_pointed(_raw("vec_s3"))) == 8
    # fixed simple: the free (regular) object splits with multiplicity
    # dim(chi) = 1 into each character-twisted structure
    xf = z3_twisted["fam"][8]
    regf = regular_equivariant(xf)
    eq0 = scalar_twist_equivariant(xf, 0)
    eq1 = scalar_twist_equivariant(xf, 1)
    assert hom_equivariant(regf, eq0)[0] == 1
    assert hom_equivariant(regf, eq1)[0] == 1
    _line(7, "equivariant simple count", "8 = 8 (extension center) = 8 (oracle)")


def test_criterion_8_grading_laws(cats, ising_center, z3_twisted):
    violations = 0
    for name in BUNDLED:
        cat = cats[name]
        grp = cat.group
        # degree is multiplicative over fusion
        for a in range(cat.rank):
            for b in range(cat.rank):
                want = grp.mul(int(cat.deg[a]), int(cat.deg[b]))
                for c in np.nonzero(cat.N[a, b])[0]:
                    if int(cat.deg[c]) != want:
                        violations += 1
            if int(cat.deg[int(cat.dual[a])]) != grp.inv(int(cat.deg[a])):
                violations += 1
    # grade of extracted objects multiplies under the tensor product
    xp, xm = ising_center["simples"][1]
    assert tensor_half_braidings(xp, xm).grade == 0
    for x, y in itertools.product(z3_twisted["simples"][0][:2],
                                  z3_twisted["simples"][1]):
        t = tensor_half_braidings(x, y)
        assert t.grade == x.cat.group.mul(x.grade, y.grade)
    # homs between differently graded center objects vanish
    for x in ising_center["simples"][0]:
        for y in ising_center["simples"][1]:
            if hom_center(x, y)[0] or hom_center(y, x)[0]:
                violations += 1
    for x in z3_twisted["simples"][0]:
        for y in z3_twisted["simples"][1]:
            if hom_center(x, y)[0] or hom_center(y, x)[0]:
                violations += 1
    assert violations == 0
    _line(8, "grading laws", "0 violations")


def test_criterion_9_determinism(cats):
    dumps = []
    for _ in range(2):
        cat = load_category(bundled_path("ising"))
        tube = build_tube(cat)
        decs = {g: decompose(tube, g, seed=7) for g in tube.grades}
        simples = {g: extract_simples(tube, decs[g], seed=7)
                   for g in tube.grades}
        rep = center_report(tube, decs, simples, 1e-8, True)[0]
        dumps.append(json.dumps(rep, sort_keys=True, indent=1).encode())
    assert dumps[0] == dumps[1]
    _line(9, "deterministic reports",
          f"byte-identical ({len(dumps[0])} bytes)")
