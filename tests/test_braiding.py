"""Braiding tests on the extracted centers.

The heavy pairwise sweeps run once per session (braid_reports fixture);
the tests here read those reports and add targeted structural checks plus
fault injection against the pairwise-override path.
"""

import itertools

import numpy as np
import pytest

from gct import (
    HalfBraiding,
    build_G_braiding,
    reverse_braiding,
    tensor_half_braidings,
    verify_G_braiding,
)
from gct.fusion_core import ValidationError
from gct.morphisms import vobj_tensor


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
    assert rep["double_reverse"] < 1e-8
    assert rep["checked"] > 0


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
    rep = verify_G_braiding(family)
    assert not rep["pass"]
    assert rep["max_residual"] > 0.5
    assert rep["unit_rows"] > 0.5
    assert rep["mult_first"] < 1e-8 and rep["mult_second"] < 1e-8
    # the same report from copies that have no products cached yet
    cold = [HalfBraiding(x.cat, x.obj, x.grade, dict(x.E), action=x.action,
                         name=x.name) for x in family]
    assert verify_G_braiding(cold) == rep
