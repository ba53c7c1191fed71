"""Tests for half-braidings and the extracted relative centers."""

import gc
import weakref

import numpy as np
import pytest

from gct import (
    HalfBraiding,
    build_tube,
    conjugate_half_braiding,
    decompose,
    extract_simples,
    g_action_on_center,
    hom_center,
    identity_half_braiding,
    induce_object,
    tensor_half_braidings,
    tube_representation,
    verify_half_braiding,
)
from gct.center import center_report_dict
from gct.tube import TubeBasisElement
from test_tube import _private_cubes
from gct.cli import _fusion_section


def _qdims(fam):
    return sorted(x.qdim() for x in fam)


# ------------------------------------------------------- counts and shapes


def test_simple_counts_match_block_counts(fib_center, z2_center, ising_center,
                                          s3_center, z3_twisted):
    expected = {
        id(fib_center): {0: 4},
        id(z2_center): {0: 4},
        id(ising_center): {0: 4, 1: 2},
        id(s3_center): {0: 8},
        id(z3_twisted): {0: 9, 1: 1},
    }
    for bundle in (fib_center, z2_center, ising_center, s3_center, z3_twisted):
        want = expected[id(bundle)]
        for g, xs in bundle["simples"].items():
            assert len(xs) == len(bundle["decs"][g].blocks) == want[g]


def test_every_extracted_simple_verifies(fib_center, z2_center, ising_center,
                                         s3_center, z3_twisted):
    for bundle in (fib_center, z2_center, ising_center, s3_center, z3_twisted):
        for x in bundle["fam"]:
            rep = verify_half_braiding(x)
            assert rep["pass"], (x.name, rep)
            assert rep["max_residual"] < 1e-8
            assert rep["unitarity"] < 1e-8


def test_fib_center_object_content(fib_center):
    fam = fib_center["fam"]
    cat = fam[0].cat
    t = cat.labels.index("t")
    phi = float(cat.qdim[t])
    assert _qdims(fam) == pytest.approx([1.0, phi, phi, phi * phi], abs=1e-8)
    contents = sorted(tuple(sorted(x.multiplicities().items())) for x in fam)
    assert contents == [((0, 1),), ((0, 1), (t, 1)), ((t, 1),), ((t, 1),)]


def test_s3_center_structure(s3_center):
    fam = s3_center["fam"]
    assert _qdims(fam) == pytest.approx([1, 1, 2, 2, 2, 2, 3, 3], abs=1e-8)
    sizes = sorted(len(x.obj) for x in fam)
    # two one-element-support objects, one rank-2 fixed-point pair, etc.
    mults = sorted(sorted(x.multiplicities().values()) for x in fam)
    assert sizes == sorted(sum(m) for m in mults)
    assert sum(x.qdim() ** 2 for x in fam) == pytest.approx(36.0, abs=1e-6)


@pytest.mark.parametrize("key,total", [
    ("fib", None), ("vec_z2", 4.0), ("ising", 8.0), ("vec_s3", 36.0),
    ("vec_z3^Z2", 18.0),
])
def test_global_dimension_identity(request, key, total, fib_center, z2_center,
                                   ising_center, s3_center, z3_twisted):
    """sum of squared qdims of the center equals dim(C) * dim(loop sector)."""
    bundle = {"fib": fib_center, "vec_z2": z2_center, "ising": ising_center,
              "vec_s3": s3_center, "vec_z3^Z2": z3_twisted}[key]
    fam = bundle["fam"]
    cat = fam[0].cat
    tube = bundle["tube"]
    dim_c = float(np.sum(np.asarray(cat.qdim) ** 2))
    loops = tube.loop_labels
    dim_loops = float(sum(float(cat.qdim[x]) ** 2 for x in loops))
    # in the twisted presentation the ambient category is the crossed
    # extension, |G| times bigger than the base the tube is built from
    factor = cat.group.order if tube.action is not None else 1
    got = sum(x.qdim() ** 2 for x in fam)
    assert got == pytest.approx(factor * dim_c * dim_loops, abs=1e-6)
    if total is not None:
        assert got == pytest.approx(total, abs=1e-6)


# -------------------------------------------------------- the +-i doublet


def test_ising_odd_sector_scalars_are_plus_minus_i(ising_center):
    fam = [x for x in ising_center["simples"][1]]
    cat = fam[0].cat
    psi = cat.labels.index("psi")
    sigma = cat.labels.index("sigma")
    scalars = []
    for x in fam:
        assert x.obj == ((sigma,),)
        blk = x.E[psi].block(sigma)
        assert blk.shape == (1, 1)
        scalars.append(complex(blk[0, 0]))
    scalars.sort(key=lambda z: z.imag)
    assert abs(scalars[0] - (-1j)) < 1e-8
    assert abs(scalars[1] - 1j) < 1e-8


def test_wrong_odd_scalar_fails_verification(ising_center):
    good = ising_center["simples"][1][0]
    cat = good.cat
    psi = cat.labels.index("psi")
    scalar = complex(good.E[psi].block(cat.labels.index("sigma"))[0, 0])
    # divide the psi-loop map by its scalar: E(psi) becomes +1, which
    # breaks the exchange identity by exactly |1 - (-1)| = 2
    E = dict(good.E)
    E[psi] = (1.0 / scalar) * E[psi]
    bad = HalfBraiding(cat, good.obj, good.grade, E, name="bad")
    rep = verify_half_braiding(bad)
    assert not rep["pass"]
    assert rep["max_residual"] > 0.5


# ------------------------------------------------------------ hom spaces


def test_extracted_simples_satisfy_schur(ising_center, fib_center):
    for bundle in (ising_center, fib_center):
        fam = bundle["fam"]
        for i, x in enumerate(fam):
            for j, y in enumerate(fam):
                dim, basis = hom_center(x, y)
                assert dim == (1 if i == j else 0), (x.name, y.name)
                assert len(basis) == dim


def test_cross_grade_homs_vanish(ising_center):
    even = ising_center["simples"][0]
    odd = ising_center["simples"][1]
    for x in even:
        for y in odd:
            assert hom_center(x, y)[0] == 0
            assert hom_center(y, x)[0] == 0


def test_unit_sits_once_inside_the_unit_induction(cats):
    for name in ("fib", "ising"):
        cat = cats[name]
        one = identity_half_braiding(cat)
        ind = induce_object(cat, cat.unit)
        assert verify_half_braiding(ind)["pass"]
        dim, _ = hom_center(one, ind)
        assert dim == 1


def test_induced_object_from_odd_sector(ising_center, cats):
    ising = cats["ising"]
    u = 1  # nontrivial degree
    ind = induce_object(ising, ising.unit, k=u)
    assert verify_half_braiding(ind)["pass"]
    assert ind.grade == 0
    # qdim d(sigma)^2 = 2
    assert ind.qdim() == pytest.approx(2.0, abs=1e-9)
    # its center content is a sub-sum of the even extracted simples
    mults = [hom_center(ind, s)[0] for s in ising_center["simples"][0]]
    total = sum(m * s.qdim() for m, s in zip(mults, ising_center["simples"][0]))
    assert total == pytest.approx(ind.qdim(), abs=1e-8)


# ------------------------------------------------------------ conjugation


def test_conjugation_permutes_simples(fib_center, ising_center):
    for bundle in (fib_center, ising_center):
        fam = bundle["fam"]
        perm = []
        for x in fam:
            xb = conjugate_half_braiding(x)
            assert verify_half_braiding(xb)["pass"], x.name
            grp = x.cat.group
            assert xb.grade == grp.inv(x.grade)
            matches = [j for j, y in enumerate(fam) if hom_center(xb, y)[0] == 1]
            assert len(matches) == 1, x.name
            perm.append(matches[0])
        assert sorted(perm) == list(range(len(fam)))
        # conjugation is an involution on iso-classes
        pp = [perm[perm[i]] for i in range(len(perm))]
        assert pp == list(range(len(fam)))


def test_twisted_conjugation(z3_twisted):
    fam = z3_twisted["fam"]
    x = z3_twisted["simples"][1][0]     # the qdim-3 twisted-sector simple
    xb = conjugate_half_braiding(x)
    assert verify_half_braiding(xb)["pass"]
    assert xb.grade == x.cat.group.inv(x.grade) == 1
    assert hom_center(xb, x)[0] == 1    # self-conjugate up to iso


# ------------------------------------------------------------- monoidal


def test_tensor_multiplies_grades_and_qdims(ising_center):
    xp, xm = ising_center["simples"][1]
    prod = tensor_half_braidings(xp, xm)
    assert verify_half_braiding(prod)["pass"]
    grp = xp.cat.group
    assert prod.grade == grp.mul(1, 1) == 0
    assert prod.qdim() == pytest.approx(xp.qdim() * xm.qdim(), abs=1e-9)
    mults = [hom_center(prod, s)[0] for s in ising_center["simples"][0]]
    total = sum(m * s.qdim() for m, s in zip(mults, ising_center["simples"][0]))
    assert total == pytest.approx(prod.qdim(), abs=1e-8)
    assert sum(mults) == 2  # sigma (x) sigma decomposes into two invertibles


def test_s3_fusion_closure(s3_center):
    """sum_k N_ij^k d_k = d_i d_j over the 8 simples of Z(Vec_S3); the
    table is commutative (the center is braided) with the unit row the
    identity."""
    fam = s3_center["fam"]
    fusion = _fusion_section(fam)
    assert fusion["closure_residual"] < 1e-9
    table = fusion["table"]
    one = identity_half_braiding(fam[0].cat)
    (unit,) = [z for z in fam if hom_center(one, z)[0] == 1]
    for x in fam:
        assert table[unit.name][x.name] == {x.name: 1}
        for y in fam:
            row = table[x.name][y.name]
            assert row == table[y.name][x.name]
            assert sum(n * fusion["qdims"][z] for z, n in row.items()) == \
                pytest.approx(x.qdim() * y.qdim(), abs=1e-9)


def test_tensor_memo_lets_a_transient_right_factor_go(fib_center):
    """Neither the product memo nor the hom memo pins its right factor."""
    x, y = fib_center["fam"][1], fib_center["fam"][2]
    for memo, fn in (("_memo_tensor_half_braidings", tensor_half_braidings),
                     ("_memo_solve_hom_center", hom_center)):
        copy = HalfBraiding(y.cat, y.obj, y.grade, dict(y.E), name=y.name)
        got = fn(x, copy)
        assert fn(x, copy) is got
        held = len(getattr(x, memo))
        ref = weakref.ref(copy)
        del copy, got
        gc.collect()
        assert ref() is None, memo
        assert len(getattr(x, memo)) == held - 1, memo


def test_E_data_is_read_only(fib_center):
    x = fib_center["fam"][1]
    pi = x.cat.unit
    with pytest.raises(TypeError):
        x.E[pi] = -1.0 * x.E[pi]
    with pytest.raises(TypeError):
        del x.E[pi]
    # the constructor copies the caller's dict, so changing that later
    # cannot reach the object either
    E = dict(x.E)
    copy = HalfBraiding(x.cat, x.obj, x.grade, E, name=x.name)
    E[pi] = -1.0 * E[pi]
    assert copy.E[pi] is x.E[pi]


@pytest.mark.parametrize("key", ["fib", "ising"])
def test_warm_E_extension_matches_a_cold_rebuild(request, key):
    """E_vobj over every degree-neutral family object and every tensor
    product and direct sum of two of them, for every family member: the
    memoised value against the same extension on a fresh copy with empty
    memos, bit for bit."""
    fam = request.getfixturevalue(f"{key}_center")["fam"]
    neutral = [y for y in fam if y.grade == y.cat.group.neutral]
    args = [y.obj for y in neutral]
    for y in neutral:
        for z in neutral:
            args += [tensor_half_braidings(y, z).obj, y.obj + z.obj]
    for x in fam:
        for V in args:
            warm = x.E_vobj(V)
            assert x.E_vobj(V) is warm
            cold = HalfBraiding(x.cat, x.obj, x.grade, dict(x.E)).E_vobj(V)
            assert warm.diff_norm(cold) == 0.0


def test_memoised_verdict_and_homs_do_not_cover_a_corrupted_copy(fib_center):
    """A copy with the same name and object and a sign-flipped unit loop
    gets its own verdict and its own homs, although the good member's are
    memoised already."""
    good = fib_center["fam"][2]
    assert verify_half_braiding(good)["pass"]
    assert hom_center(good, good)[0] == 1
    unit = good.cat.unit
    E = dict(good.E)
    E[unit] = -1.0 * E[unit]
    bad = HalfBraiding(good.cat, good.obj, good.grade, E, name=good.name)
    rep = verify_half_braiding(bad)
    assert not rep["pass"]
    assert rep["max_residual"] > 0.5
    assert hom_center(good, bad)[0] == 0
    assert hom_center(bad, good)[0] == 0
    # the memoised verdict is handed out as a copy
    rep = verify_half_braiding(good)
    rep["pass"] = False
    rep["non_square"].append(None)
    again = verify_half_braiding(good)
    assert again["pass"] and again["non_square"] == []


def test_unit_is_monoidal_unit(fib_center):
    x = fib_center["fam"][-1]
    one = identity_half_braiding(x.cat)
    left = tensor_half_braidings(one, x)
    assert verify_half_braiding(left)["pass"]
    assert hom_center(left, x)[0] == 1
    right = tensor_half_braidings(x, one)
    assert verify_half_braiding(right)["pass"]
    assert hom_center(right, x)[0] == 1


# -------------------------------------------------------- group symmetry


def test_group_action_permutes_twisted_simples(z3_twisted):
    fam = z3_twisted["fam"]
    k = 1
    perm = []
    for x in fam:
        moved = g_action_on_center(x, k)
        assert verify_half_braiding(moved)["pass"], x.name
        matches = [j for j, y in enumerate(fam) if hom_center(moved, y)[0] == 1]
        assert len(matches) == 1
        perm.append(matches[0])
    assert sorted(perm) == list(range(len(fam)))
    # the involution squares to the identity on iso-classes
    assert [perm[perm[i]] for i in range(len(perm))] == list(range(len(fam)))


def _fresh_copy(x, name=None):
    """Same data as x, none of its memos."""
    return HalfBraiding(x.cat, x.obj, x.grade, dict(x.E), action=x.action,
                        name=x.name if name is None else name)


def test_moved_copy_is_built_once_and_matches_a_cold_rebuild(z3_twisted):
    for x in z3_twisted["fam"]:
        for k in range(x.cat.group.order):
            moved = g_action_on_center(x, k)
            assert g_action_on_center(x, k) is moved
            cold = g_action_on_center(_fresh_copy(x), k)
            assert cold is not moved
            assert (cold.obj, cold.grade, cold.name) == (moved.obj, moved.grade, moved.name)
            for pi in x.loop_labels():
                assert moved.E[pi].diff_norm(cold.E[pi]) == 0.0


def test_moved_copy_of_a_corrupted_same_name_copy_is_its_own(z3_twisted):
    """A copy of x with the same name and a sign-flipped unit loop gets its
    own moved copy, which fails the axioms, although x's is memoised."""
    x = z3_twisted["fam"][1]
    k = 1
    good = g_action_on_center(x, k)
    assert verify_half_braiding(good)["pass"]
    unit = x.cat.unit
    E = dict(x.E)
    E[unit] = -1.0 * E[unit]
    bad = HalfBraiding(x.cat, x.obj, x.grade, E, action=x.action, name=x.name)
    moved_bad = g_action_on_center(bad, k)
    assert moved_bad is not good
    assert moved_bad.name == good.name
    assert moved_bad.E[unit].diff_norm(good.E[unit]) > 1.0
    assert not verify_half_braiding(moved_bad)["pass"]


def test_moved_copy_name_follows_a_rename(z3_twisted):
    """extract_simples names its simples after they exist; a moved copy
    memoised before the rename must carry the new name."""
    x = _fresh_copy(z3_twisted["fam"][0], name="before")
    k = 1
    elt = x.cat.group.elements[k]
    moved = g_action_on_center(x, k)
    assert moved.name == f"{elt}[before]"
    x.name = "after"
    assert g_action_on_center(x, k) is moved
    assert moved.name == f"{elt}[after]"


# -------------------------------------------------------- gauge freedom


def test_half_braiding_is_gauge_covariant(fib_center):
    x = next(s for s in fib_center["fam"] if len(s.obj) == 2)
    eng = x.eng
    rng = np.random.default_rng(5)
    phases = np.exp(2j * np.pi * rng.random(len(x.obj)))
    from gct.center import _injection
    U = None
    for i, z in enumerate(phases):
        inj = _injection(eng, x.obj, i)
        term = complex(z) * (inj @ inj.H)
        U = term if U is None else U + term
    # transport E through U: E'(pi) = (id_pi (x) U) . E(pi) . (U^* (x) id_pi)
    E = {pi: eng.ltens((pi,), U) @ m @ eng.rtens(U.H, (pi,))
         for pi, m in x.E.items()}
    twisted = HalfBraiding(x.cat, x.obj, x.grade, E, name=x.name + "~")
    rep = verify_half_braiding(twisted)
    assert rep["pass"], rep
    assert hom_center(twisted, x)[0] == 1


# ------------------------------------------------------- representations


def test_extracted_simples_represent_the_tube(fib_center, ising_center):
    for bundle in (fib_center, ising_center):
        tube = bundle["tube"]
        for g, xs in bundle["simples"].items():
            for x in xs:
                rep = tube_representation(tube, x)
                assert rep["pass"], (x.name, rep)
                assert rep["dim"] >= 1


def test_representation_dims_are_block_ranks(fib_center):
    tube = fib_center["tube"]
    dims = sorted(tube_representation(tube, x)["dim"]
                  for x in fib_center["fam"])
    assert dims == sorted(fib_center["decs"][0].block_ranks())


def _dense_hom_residual(tube, rep, g):
    """Multiplicativity of the representation on the whole grade, with the
    constants assembled dense from the cubes (the test-side reference)."""
    sl = tube.grade_slice(g)
    ng = sl.stop - sl.start
    C = np.zeros((ng, ng, ng), dtype=complex)
    for idl in tube.ideals:
        if idl.grade == g:
            I = idl.positions - sl.start
            C[np.ix_(I, I, I)] = idl.cube
    mats = rep["matrices"]
    lhs = np.einsum("aij,bjk->abik", mats, mats)
    rhs = np.einsum("abc,cik->abik", C, mats)
    return float(np.max(np.abs(lhs - rhs))) if rep["dim"] else 0.0


@pytest.fixture(scope="module")
def ising_full_simples(cats):
    tube = build_tube(cats["ising"], subcat=[0, 1, 2])
    return tube, extract_simples(tube, decompose(tube, 0))


def test_per_ideal_hom_residual_equals_the_dense_one(s3_center, z3_twisted,
                                                     ising_full_simples):
    bundles = [(s3_center["tube"], s3_center["fam"]),
               (z3_twisted["tube"], z3_twisted["fam"]), ising_full_simples]
    for tube, fam in bundles:
        for x in fam:
            rep = tube_representation(tube, x)
            assert rep["pass"]
            assert rep["hom_residual"] == _dense_hom_residual(tube, rep, x.grade)


def test_a_corrupted_constant_shows_in_the_hom_residual(s3_center):
    # each simple of Vec_S3 represents one of the three ideals, so every
    # ideal is corrupted at least once
    corrupted = set()
    for x in s3_center["fam"]:
        tube = _private_cubes(s3_center["tube"])
        mats = tube_representation(tube, x)["matrices"]
        # b_u b_c = kappa b_c for b_u the unit loop at the source of b_c,
        # with rho(b_c) nonzero; the corrupted entry lies in the ideal of b_c
        c = int(np.flatnonzero(np.abs(mats).max(axis=(1, 2)) > 0.5)[0])
        e = tube.basis[c]
        u = tube.index[TubeBasisElement(e.grade, tube.cat.unit, e.source_outer,
                                        e.source_outer, e.source_outer, 0, 0)]
        corrupted.add(int(tube.ideal_of[c]))
        idl = tube.ideals[tube.ideal_of[c]]
        a, b = np.searchsorted(idl.positions, (u, c))
        assert idl.cube[a, b, b] != 0
        idl.cube[a, b, b] += 0.37
        rep = tube_representation(tube, x)
        assert not rep["pass"]
        assert rep["hom_residual"] > 0.1
        assert rep["hom_residual"] == _dense_hom_residual(tube, rep, x.grade)
    assert corrupted == set(range(len(s3_center["tube"].ideals)))


# ----------------------------------------------------------- reporting


def test_center_report_roundtrip(ising_center):
    rep = center_report_dict(ising_center["tube"], ising_center["decs"],
                             ising_center["simples"])
    assert rep["simple_count"] == 6
    assert set(rep["grades"]) == {"e", "u"}
    for gname, comp in rep["grades"].items():
        for entry in comp["simples"]:
            assert entry["pass"]
            assert entry["residual"] < 1e-8
    # hom table is the identity matrix (Schur)
    names = [e["name"] for g in ("e", "u") for e in rep["grades"][g]["simples"]]
    for a in names:
        for b in names:
            assert rep["hom_table"][a][b] == (1 if a == b else 0)
