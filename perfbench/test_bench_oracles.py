"""The benchmark's oracles on Vec_Z2 and Vec_Z3, against hand-derived values."""

import os

import pytest

import oracles
from gen_vec_zn import vec_zn

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src", "gct", "data")


def bundled(name):
    return oracles.load_raw(os.path.join(DATA, f"{name}.json"))


def test_generated_z3_has_the_bundled_fusion_rules():
    raw = vec_zn(3)
    assert oracles.fusion(raw) == oracles.fusion(bundled("vec_z3"))
    assert raw["dual"] == bundled("vec_z3")["dual"]


@pytest.mark.parametrize("n", [2, 3])
def test_full_tube_of_vec_zn_has_dim_n_squared(n):
    # one basis element per (loop x, outer p): r = p is forced
    assert oracles.tube_dims(vec_zn(n)) == {"e": n * n}
    assert oracles.tube_dims(vec_zn(n), subcat="all") == {"e": n * n}


def test_z2_graded_vec_z2_tube_splits_by_grade():
    # loops {1}, each grade has one outer label
    assert oracles.tube_dims(bundled("vec_z2")) == {"e": 1, "u": 1}
    assert oracles.tube_dims(bundled("vec_z2"), subcat="all") == {"e": 4}


def test_inversion_twisted_vec_z3_tube():
    # g = i: p + x = -x + r fixes r = p + 2x, so 3 * 3 elements per grade
    assert oracles.twisted_tube_dims(bundled("vec_z3"), "inversion") == {"e": 9, "i": 9}


@pytest.mark.parametrize("n", [2, 3])
def test_center_of_vec_zn_is_n_squared_invertibles(n):
    table = oracles.pointed_group(vec_zn(n))
    assert oracles.vec_g_center_qdims(table) == [1] * (n * n)
    assert oracles.center_qdim_square_sum(vec_zn(n)) == n * n


def test_relative_center_dimension_of_graded_vec_z2():
    # dim(C_e) * dim(C) = 1 * 2, against dim(C)^2 = 4 for the full center
    assert oracles.center_qdim_square_sum(bundled("vec_z2")) == 2
    assert oracles.center_qdim_square_sum(bundled("vec_z2"), subcat="all") == 4


def test_z3_by_inversion_is_s3():
    raw = bundled("vec_z3")
    perms = [raw["action"]["perm"][g] for g in raw["group"]["elements"]]
    table = oracles.semidirect_product(oracles.pointed_group(raw), perms,
                                       raw["group"]["table"])
    assert len(table) == 6
    assert oracles.irrep_dims(table, range(6)) == [1, 1, 2]
    assert oracles.vec_g_center_qdims(table) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert oracles.equivariant_count(raw, "inversion") == 8


def test_tambara_yamagami_center_rank():
    # TY(Z1) is Vec_Z2 with the nontrivial cocycle: 4 simples; Ising: 9
    assert [oracles.ty_center_rank(n) for n in (1, 2)] == [4, 9]


def test_non_pointed_category_is_rejected():
    with pytest.raises(ValueError):
        oracles.pointed_group(bundled("fib"))
