"""Braiding tests on the extracted centers.

The heavy pairwise sweeps run once per session (braid_reports fixture);
the tests here read those reports and add targeted structural checks plus
fault injection into the braiding entries the sweep reads.
"""

import itertools
import types

import numpy as np
import pytest

from gct import (
    HalfBraiding,
    build_G_braiding,
    g_action_on_center,
    hom_center,
    identity_half_braiding,
    reverse_braiding,
    tensor_half_braidings,
    verify_G_braiding,
    verify_reverse_braiding,
)
from conftest import _supplied
from gct.braiding import _family_gate, _ring_failure, _unitarity_defect
from gct.center import center_hom_residual, unit_loop_E
from gct.fusion_core import ValidationError
from gct.morphisms import Mor, residual_max, vobj_tensor


FORWARD_KEYS = ("unit_rows", "unitarity", "mult_second", "nat_second",
                "mult_first", "nat_first", "equivariance")


@pytest.mark.parametrize("key", ["fib", "vec_z2", "vec_s3", "vec_z3^Z2"])
def test_forward_sweep_passes(braid_reports, key):
    rep = braid_reports[key]["forward"]
    assert rep["pass"], rep
    assert rep["max_residual"] < 1e-8
    for k in FORWARD_KEYS:
        assert rep[k] < 1e-8, (k, rep[k])
    # equivariance has nothing to range over when the group is trivial
    assert all(n > 0 for k, n in rep["counts"].items() if k != "equivariance")
    if key == "vec_z3^Z2":
        assert rep["counts"]["equivariance"] > 0


@pytest.mark.parametrize("key", ["fib", "vec_z2", "vec_s3", "vec_z3^Z2"])
def test_reverse_sweep_passes(braid_reports, key):
    rep = braid_reports[key]["reverse"]
    assert rep["pass"], rep
    assert rep["inversion"] < 1e-8
    assert rep["membership"] < 1e-8
    assert rep["checked"] > 0
    assert set(rep) == {"inversion", "membership", "checked", "tol", "pass"}


def test_braiding_endpoints_and_unitarity(fib_center):
    fam = fib_center["fam"]
    for x, y in itertools.product(fam, fam):
        c = build_G_braiding(x, y)
        assert c.source == vobj_tensor(x.obj, y.obj)
        assert c.target == vobj_tensor(y.obj, x.obj)
        eng = x.eng
        assert (c.H @ c).diff_norm(eng.identity(c.source)) < 1e-8
        assert (c @ c.H).diff_norm(eng.identity(c.target)) < 1e-8


def test_reverse_inverts_forward(fib_center):
    fam = fib_center["fam"]
    x, y = fam[0], fam[-1]
    # reverse_braiding(x, y): X Y -> Y X inverts the forward map Y X -> X Y
    c = build_G_braiding(y, x)
    r = reverse_braiding(x, y)
    assert (r @ c).diff_norm(x.eng.identity(c.source)) < 1e-8
    assert (c @ r).diff_norm(x.eng.identity(r.source)) < 1e-8


def test_plain_flavour_slot_restriction(ising_center):
    even = ising_center["simples"][0][0]
    odd = ising_center["simples"][1][0]
    # the graded braiding only accepts neutral objects in the second slot
    c = build_G_braiding(odd, even)
    assert c.source == vobj_tensor(odd.obj, even.obj)
    with pytest.raises(ValidationError):
        build_G_braiding(even, odd)
    with pytest.raises(ValidationError):
        reverse_braiding(odd, even)       # reverse constrains the first slot


def test_twisted_braiding_moves_the_second_factor(z3_twisted):
    x = z3_twisted["simples"][1][0]      # twisted sector, qdim 3
    y = z3_twisted["simples"][0][1]
    c = build_G_braiding(x, y)
    moved = x.tgt_vobj(y.obj)
    assert c.source == vobj_tensor(x.obj, y.obj)
    assert c.target == vobj_tensor(moved, x.obj)
    # the inversion twist really permutes the labels of y
    assert moved != y.obj or all(
        x.tgt_label(a) == a for w in y.obj for a in w)


def test_sign_flip_in_supplied_braiding_is_flagged(z3_twisted):
    fam = z3_twisted["fam"]
    pairwise = {(i, j): build_G_braiding(x, y)
                for (i, x), (j, y) in itertools.product(
                    enumerate(fam), enumerate(fam))}
    clean = verify_G_braiding(fam, pairwise=pairwise)
    assert clean["pass"]
    pairwise[(1, 7)] = -1.0 * pairwise[(1, 7)]
    rep = verify_G_braiding(fam, pairwise=pairwise)
    assert not rep["pass"]
    assert rep["max_residual"] > 0.5
    flagged = [k for k in FORWARD_KEYS if rep[k] > 0.5]
    assert flagged, rep


def test_missing_pairwise_entries_raise(fib_center):
    fam = fib_center["fam"]
    only_one = {(1, 1): build_G_braiding(fam[1], fam[1])}
    with pytest.raises(ValidationError):
        verify_G_braiding(fam, pairwise=only_one)


def _with_entry(f: Mor, value) -> Mor:
    """A copy of f whose first nonempty block has `value` at [0, 0]."""
    blocks = {c: B.copy() for c, B in f.blocks.items()}
    c = next(c for c, B in blocks.items() if B.size)
    blocks[c][0, 0] = value
    return Mor(f.eng, f.source, f.target, blocks)


def test_residual_max_keeps_a_nan():
    nan = float("nan")
    assert residual_max(0.0, 1.0, 0.5) == 1.0
    for args in ((0.0, nan), (nan, 0.0), (0.0, nan, 1.0), (1.0, 0.0, nan)):
        assert np.isnan(residual_max(*args)), args


def test_diff_norm_sees_a_nan_in_any_channel(fib_center):
    f = build_G_braiding(fib_center["fam"][3], fib_center["fam"][3])
    assert len([B for B in f.blocks.values() if B.size]) > 1
    for c in f.blocks:
        blocks = {k: B.copy() for k, B in f.blocks.items()}
        blocks[c][0, 0] = np.nan
        bad = Mor(f.eng, f.source, f.target, blocks)
        assert np.isnan(bad.diff_norm(f)) and np.isnan(f.diff_norm(bad)), c


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_supplied_braiding_fails_the_sweep(fib_center, value):
    """Python's max(0.0, nan) is 0.0: a fold with it read a NaN residual as
    a pass.  An inf entry turns into NaN residuals as well (inf - inf)."""
    fam = fib_center["fam"]
    pairwise = {(i, j): build_G_braiding(x, y)
                for (i, x), (j, y) in itertools.product(
                    enumerate(fam), enumerate(fam))}
    pairwise[(3, 3)] = _with_entry(pairwise[(3, 3)], value)
    rep = verify_G_braiding(fam, pairwise=pairwise)
    assert not rep["pass"]
    assert np.isnan(rep["max_residual"])


def test_non_finite_half_braiding_fails_the_reverse_sweep(fib_center):
    fam = fib_center["fam"]
    good = fam[-1]
    E = dict(good.E)
    pi = max(E)
    E[pi] = _with_entry(E[pi], np.nan)
    bad = HalfBraiding(good.cat, good.obj, good.grade, E, name=good.name)
    rep = verify_reverse_braiding(fam[:-1] + [bad])
    assert not rep["pass"]
    assert any(np.isnan(rep[k]) for k in ("inversion", "membership"))


def test_braiding_respects_hom_multiplicities(z2_center):
    # on a pointed center the braiding of invertibles is a single scalar
    fam = z2_center["fam"]
    for x, y in itertools.product(fam, fam):
        c = build_G_braiding(x, y)
        blocks = {k: v for k, v in c.blocks.items() if v.size}
        assert len(blocks) == 1
        (mat,) = blocks.values()
        assert mat.shape == (1, 1)
        assert abs(abs(mat[0, 0]) - 1.0) < 1e-10


def test_cached_products_do_not_mask_a_corrupted_member(fib_center):
    """A corrupted copy of a member gets its own tensor products.

    The copy has the same object and name as the original, so a memo keyed
    by either would hand it the original's products.  The sweep sees the
    sign flip on the unit loop in its unit rows; multiplicativity holds for
    any E-data, so a product borrowed from the good member would show up
    there as a residual of 2.
    """
    fam = fib_center["fam"]
    for x, y in itertools.product(fam, fam):
        tensor_half_braidings(x, y)
    assert tensor_half_braidings(fam[1], fam[2]) is tensor_half_braidings(fam[1], fam[2])
    k = 2
    good = fam[k]
    unit = good.cat.unit
    E = dict(good.E)
    E[unit] = -1.0 * E[unit]
    bad = HalfBraiding(good.cat, good.obj, good.grade, E, name=good.name)
    assert tensor_half_braidings(fam[1], bad) is not tensor_half_braidings(fam[1], good)
    family = fam[:k] + [bad] + fam[k + 1:]
    rep = verify_G_braiding(family, _supplied(family))
    assert not rep["pass"]
    assert rep["max_residual"] > 0.5
    assert rep["unit_rows"] > 0.5
    assert rep["mult_first"] < 1e-8 and rep["mult_second"] < 1e-8
    # the same report from copies that have no products cached yet
    cold = [HalfBraiding(x.cat, x.obj, x.grade, dict(x.E), action=x.action,
                         name=x.name) for x in family]
    assert verify_G_braiding(cold, _supplied(cold)) == rep


def _per_triple_sweep(simples, pairwise):
    """Both sweeps as plain loops over every member pair and triple: the
    reference that evaluates each identity once per member tuple.  The
    forward sweep reads member pairs from `pairwise`, as
    `verify_G_braiding` does.  Returns the forward and the reverse report."""
    x0 = simples[0]
    cat, eng, act = x0.cat, x0.eng, x0.action
    grp = cat.group
    unit_hb = identity_half_braiding(cat, action=act)
    fam = [unit_hb] + list(simples)

    def second_ok(y):
        return act is not None or y.grade == grp.neutral

    def braid(i, j):
        if i and j:
            return pairwise[(i - 1, j - 1)]
        return build_G_braiding(fam[i], fam[j])

    res = {k: 0.0 for k in FORWARD_KEYS}
    counts = {k: 0 for k in res}
    for x in fam:
        if second_ok(x):
            left = build_G_braiding(unit_hb, x)
            res["unit_rows"] = residual_max(res["unit_rows"],
                                            left.diff_norm(unit_loop_E(eng, x.obj).H))
        right = build_G_braiding(x, unit_hb)
        res["unit_rows"] = residual_max(res["unit_rows"],
                                        right.diff_norm(unit_loop_E(eng, x.obj)))
        counts["unit_rows"] += 1
    for i, x in enumerate(fam):
        for j, y in enumerate(fam):
            if second_ok(y):
                res["unitarity"] = residual_max(res["unitarity"],
                                                _unitarity_defect(braid(i, j)))
                counts["unitarity"] += 1
    for j, y in enumerate(fam):
        for k, z in enumerate(fam):
            if not (second_ok(y) and second_ok(z)):
                continue
            yz = tensor_half_braidings(y, z)
            for i, x in enumerate(fam):
                lhs = build_G_braiding(x, yz)
                rhs = (eng.ltens(x.tgt_vobj(y.obj), braid(i, k))
                       @ eng.rtens(braid(i, j), z.obj))
                res["mult_second"] = residual_max(res["mult_second"], lhs.diff_norm(rhs))
                counts["mult_second"] += 1
    for i, x in enumerate(fam):
        for j, xp in enumerate(fam):
            xx = tensor_half_braidings(x, xp)
            for k, y in enumerate(fam):
                if not second_ok(y):
                    continue
                lhs = build_G_braiding(xx, y)
                first = (braid(i, k) if act is None else
                         build_G_braiding(x, g_action_on_center(y, xp.grade)))
                rhs = eng.rtens(first, xp.obj) @ eng.ltens(x.obj, braid(j, k))
                res["mult_first"] = residual_max(res["mult_first"], lhs.diff_norm(rhs))
                counts["mult_first"] += 1
    for i, x in enumerate(fam):
        for j, xp in enumerate(fam):
            basis = hom_center(x, xp)[1]
            for k, z in enumerate(fam):
                for T in basis:
                    if second_ok(x) and second_ok(xp):
                        Tg = T if act is None else eng.transport(T, z.grade, act)
                        lhs = eng.rtens(Tg, z.obj) @ braid(k, i)
                        rhs = braid(k, j) @ eng.ltens(z.obj, T)
                        res["nat_second"] = residual_max(res["nat_second"], lhs.diff_norm(rhs))
                        counts["nat_second"] += 1
                    if second_ok(z):
                        lhs = eng.ltens(x.tgt_vobj(z.obj), T) @ braid(i, k)
                        rhs = braid(j, k) @ eng.rtens(T, z.obj)
                        res["nat_first"] = residual_max(res["nat_first"], lhs.diff_norm(rhs))
                        counts["nat_first"] += 1
    if act is not None:
        for k in range(grp.order):
            for i, x in enumerate(fam):
                for j, y in enumerate(fam):
                    moved = build_G_braiding(g_action_on_center(x, k),
                                             g_action_on_center(y, k))
                    res["equivariance"] = residual_max(
                        res["equivariance"],
                        moved.diff_norm(eng.transport(braid(i, j), k, act)))
                    counts["equivariance"] += 1
    worst = residual_max(*res.values())
    forward = dict(res)
    forward.update({"counts": counts, "max_residual": worst, "tol": 1e-8,
                    "pass": bool(worst < 1e-8)})

    rev = {"inversion": 0.0, "membership": 0.0}
    n = 0
    for x in fam:
        if act is None and x.grade != grp.neutral:
            continue
        for y in fam:
            Rv = reverse_braiding(x, y)
            xm = x if act is None else g_action_on_center(x, grp.inv(y.grade))
            back = build_G_braiding(y, xm) @ Rv
            rev["inversion"] = residual_max(
                rev["inversion"],
                back.diff_norm(eng.identity(vobj_tensor(x.obj, y.obj))))
            rev["membership"] = residual_max(rev["membership"], center_hom_residual(
                tensor_half_braidings(x, y), tensor_half_braidings(y, xm), Rv))
            n += 1
    worst = residual_max(*rev.values())
    reverse = dict(rev)
    reverse.update({"checked": n, "tol": 1e-8, "pass": bool(worst < 1e-8)})
    return forward, reverse


@pytest.mark.parametrize("family", ["fib_center", "z2_center", "s3_center",
                                    "ising_center", "ising_full_center",
                                    "z3_twisted", "z3_trivial"])
def test_sweeps_equal_the_per_triple_oracle(request, family):
    """Keyed by (object, column) in the second slot and by object in the
    reverse sweep, the sweeps give every residual and count of the
    per-triple loops, float for float."""
    fam = request.getfixturevalue(family)["fam"]
    assert len({x.obj for x in fam}) < len(fam)  # some members share an object
    pairwise = _supplied(fam)
    forward, reverse = _per_triple_sweep(fam, pairwise)
    assert verify_G_braiding(fam, pairwise=pairwise) == forward
    assert verify_reverse_braiding(fam) == reverse


def test_supplied_entries_are_read_per_member(s3_center):
    """e:2, e:3 and e:4 of Z(Vec_S3) share the object (1) + (2).  A supplied
    map keyed by object would read only e:2's entries and miss a sign
    flip on e:3's."""
    fam = s3_center["fam"]
    names = [x.name for x in fam]
    shared = [x.obj for x in fam if x.name in ("e:2", "e:3", "e:4")]
    assert shared == [((1,), (2,))] * 3
    pairwise = _supplied(fam)
    assert verify_G_braiding(fam, pairwise=pairwise)["pass"]
    key = (names.index("e:6"), names.index("e:3"))
    pairwise[key] = -1.0 * pairwise[key]
    rep = verify_G_braiding(fam, pairwise=pairwise)
    assert not rep["pass"]
    assert rep["mult_second"] > 0.5


def test_a_one_ulp_entry_keys_its_own_column(s3_center, braid_reports):
    """e:3 shares its object with e:2 and e:4.  One of its entries, nudged
    by one ulp, gives it a column of its own, and the sweep must still
    equal the per-triple loops float for float.  A sweep that keyed the
    second slot by object alone would read e:2's column for e:3 and lose
    the nudge in both multiplicativities."""
    fam = s3_center["fam"]
    names = [x.name for x in fam]
    pairwise = _supplied(fam)
    key = (names.index("e:0"), names.index("e:3"))
    f = pairwise[key]
    c = next(c for c, B in f.blocks.items() if B.size)
    B = f.blocks[c]
    B[0, 0] = complex(np.nextafter(B[0, 0].real, np.inf), B[0, 0].imag)
    forward, _ = _per_triple_sweep(fam, pairwise)
    assert forward != braid_reports["vec_s3"]["forward"]
    assert verify_G_braiding(fam, pairwise) == forward


def _homs(fam):
    """dim Hom(x, y) over the member pairs, as `certify` passes it."""
    return [[hom_center(x, y)[0] for y in fam] for x in fam]


def test_family_gate_reads_schur_and_the_center_dimension(fib_center, z3_twisted):
    """dim Z(Fib) = (1 + phi^2)^2 from the golden ratio, and the twisted
    center of Vec_Z3 under Z2 has dimension 3 * 2 * 3.  A family short of
    one simple passes only when it is not meant to be full, and a twin of
    a member breaks Schur orthogonality."""
    fam = fib_center["fam"]
    phi = (1 + 5 ** 0.5) / 2
    gate = _family_gate(fam, _homs(fam), 1e-6, True)
    assert gate["pass"] and gate["schur_defect"] == 0
    assert gate["center_dim"] == pytest.approx((1 + phi ** 2) ** 2, abs=1e-12)
    assert gate["dim_residual"] < 1e-9
    short = _family_gate(fam[:-1], _homs(fam[:-1]), 1e-6, True)
    assert not short["pass"] and short["schur_defect"] == 0
    assert short["dim_residual"] > 1.0
    assert _family_gate(fam[:-1], _homs(fam[:-1]), 1e-6, False)["pass"]
    x = fam[0]
    twin = HalfBraiding(x.cat, x.obj, x.grade, dict(x.E), name="twin")
    twice = _family_gate(fam + [twin], _homs(fam + [twin]), 1e-6, False)
    assert not twice["pass"] and twice["schur_defect"] == 1
    twisted = _family_gate(z3_twisted["fam"], _homs(z3_twisted["fam"]), 1e-6, True)
    assert twisted["pass"] and twisted["center_dim"] == 18.0


def _stub_member(name, d=1.0, grade=0):
    """What `_ring_failure` reads of a member: name, qdim, grade, neutral."""
    group = types.SimpleNamespace(neutral=0)
    return types.SimpleNamespace(name=name, qdim=lambda: d, grade=grade,
                                 cat=types.SimpleNamespace(group=group))


def _group_table(elements, mul):
    return {a: {b: {mul(a, b): 1} for b in elements} for a in elements}


def test_ring_axioms_past_the_loader_read_duals_and_neutral_members():
    """The group ring of S3 is a fusion ring that is not commutative: it
    fails only while its members are neutral.  Z3 with d = 1, 1, 2 fails
    d_xbar = d_x at 1, whose dual is 2."""
    s3 = list(itertools.permutations(range(3)))
    names = ["".join(map(str, p)) for p in s3]

    def mul(a, b):
        pa, pb = s3[names.index(a)], s3[names.index(b)]
        return names[s3.index(tuple(pa[pb[i]] for i in range(3)))]

    table = _group_table(names, mul)
    neutral = [_stub_member(n) for n in names]
    assert _ring_failure(neutral, table, 1e-6) == "commutativity violated at (021, 102)"
    graded = [_stub_member(n, grade=int(n != "012")) for n in names]
    assert _ring_failure(graded, table, 1e-6) is None
    z3 = _group_table("012", lambda a, b: str((int(a) + int(b)) % 3))
    members = [_stub_member(n, d) for n, d in zip("012", (1.0, 1.0, 2.0))]
    assert _ring_failure(members, z3, 1e-6) == "duality violated at 1: d_xbar != d_x"
