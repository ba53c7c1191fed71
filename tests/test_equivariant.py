"""Equivariantization of the twisted center: counting and structures.

The running instance is the order-2 inversion action; its
equivariantization must match the center of the crossed extension, whose
simple count the group-theory oracle pins at 8.
"""

import numpy as np
import pytest

from gct import (
    equivariant_count,
    hom_equivariant,
    monodromy_matrix,
    regular_equivariant,
    scalar_twist_equivariant,
    tensor_equivariant,
    verify_equivariant,
    verify_equivariant_braiding,
)
from gct.fusion_core import ValidationError
from test_oracles import _group_table_from_pointed, _raw, double_simple_count_oracle


@pytest.fixture(scope="module")
def counted(z3_twisted):
    return equivariant_count(z3_twisted["fam"])


def test_count_agrees_with_extension_center_and_group_oracle(counted,
                                                             s3_center):
    assert counted["count"] == 8
    # route 2: the extension's center, extracted independently
    assert len(s3_center["fam"]) == 8
    # route 3: pure character counting over the extension group
    assert double_simple_count_oracle(
        _group_table_from_pointed(_raw("vec_s3"))) == 8
    assert counted["assumes_vanishing_obstruction"] is True


def test_orbit_structure_frozen(counted):
    got = sorted((tuple(o["members"]), len(o["stabilizer"]), o["count"])
                 for o in counted["orbits"])
    assert got == [
        ((0, 4), 1, 1),
        ((1, 3), 1, 1),
        ((2, 5), 1, 1),
        ((6, 7), 1, 1),
        ((8,), 2, 2),
        ((9,), 2, 2),
    ]


def test_regular_object_on_a_moved_simple(z3_twisted):
    reg = regular_equivariant(z3_twisted["fam"][0])
    rep = verify_equivariant(reg)
    assert rep["pass"], rep


def test_scalar_twists_give_the_two_characters(z3_twisted):
    xf = z3_twisted["fam"][8]
    eq0 = scalar_twist_equivariant(xf, 0)
    eq1 = scalar_twist_equivariant(xf, 1)
    for eq in (eq0, eq1):
        rep = verify_equivariant(eq)
        assert rep["pass"], rep
    assert hom_equivariant(eq0, eq0)[0] == 1
    assert hom_equivariant(eq1, eq1)[0] == 1
    assert hom_equivariant(eq0, eq1)[0] == 0
    # the two cocycles differ by the nontrivial character (a sign)
    u0, u1 = eq0.cocycle[1], eq1.cocycle[1]
    assert (u0 + u1).norm() < 1e-8 or (u0 - u1).norm() < 1e-8
    assert u0.diff_norm(u1) > 0.5


def test_regular_on_fixed_decomposes_into_characters(z3_twisted):
    xf = z3_twisted["fam"][8]
    regf = regular_equivariant(xf)
    assert verify_equivariant(regf)["pass"]
    eq0 = scalar_twist_equivariant(xf, 0)
    eq1 = scalar_twist_equivariant(xf, 1)
    assert hom_equivariant(regf, eq0)[0] == 1
    assert hom_equivariant(regf, eq1)[0] == 1
    # End(reg) is the group algebra of the stabiliser
    assert hom_equivariant(regf, regf)[0] == 2


def test_scalar_twist_rejects_moved_base(z3_twisted):
    moved = z3_twisted["fam"][0]     # orbit {0, 4}: not fixed
    with pytest.raises(ValidationError):
        scalar_twist_equivariant(moved, 0)


def test_conjugate_and_tensor_equivariant(z3_twisted):
    xf = z3_twisted["fam"][8]
    eq0 = scalar_twist_equivariant(xf, 0)
    prod = tensor_equivariant(eq0, eq0)
    assert verify_equivariant(prod)["pass"]
    assert prod.base.qdim() == pytest.approx(eq0.base.qdim() ** 2, abs=1e-8)


def test_equivariant_braiding_family(z3_twisted):
    xf = z3_twisted["fam"][8]
    xi = z3_twisted["simples"][1][0]
    objs = [scalar_twist_equivariant(xf, 0),
            scalar_twist_equivariant(xf, 1),
            scalar_twist_equivariant(xi, 0)]
    rep = verify_equivariant_braiding(objs)
    assert rep["pass"], rep


def test_monodromy_detects_nondegeneracy(z3_twisted):
    xf = z3_twisted["fam"][8]
    xi = z3_twisted["simples"][1][0]
    eq0 = scalar_twist_equivariant(xf, 0)
    eqi = scalar_twist_equivariant(xi, 0)
    mm = monodromy_matrix(eqi, eqi)
    assert mm["deviation_from_identity"] == pytest.approx(np.sqrt(6), abs=1e-6)
    mm2 = monodromy_matrix(eq0, eqi)
    assert mm2["deviation_from_identity"] < 1e-8
