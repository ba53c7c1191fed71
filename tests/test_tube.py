"""Tests for the annular (tube) algebras and their block decomposition.

Expected dimensions come from the raw-data counting oracle in
test_oracles; expected block counts come from the group-theory oracle
there and from the known simple counts of the small doubles.
"""

import json

import numpy as np
import pytest

from gct import (
    build_crossed_extension,
    build_tube,
    build_twisted_tube,
    bundled_path,
    category_from_dict,
    decompose,
    load_category,
    twisted_untwisted_iso,
    verify_algebra,
)
from gct.cli import _twisted_setup
from gct.fusion_core import GroupAction, ValidationError
from test_oracles import tube_dim_oracle


def _raw(name):
    with open(bundled_path(name)) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ axioms


@pytest.mark.parametrize("key", ["fib", "vec_z2", "ising", "vec_s3"])
def test_algebra_axioms(request, key, fib_center, z2_center, ising_center,
                        s3_center):
    tube = {"fib": fib_center, "vec_z2": z2_center, "ising": ising_center,
            "vec_s3": s3_center}[key]["tube"]
    rep = verify_algebra(tube)
    assert rep["pass"], rep
    assert rep["grade_mismatch_max"] == 0.0


def test_twisted_algebra_axioms(z3_twisted):
    rep = verify_algebra(z3_twisted["tube"])
    assert rep["pass"], rep


def test_corrupted_constant_is_caught(cats):
    tube = build_tube(cats["vec_z2"], subcat=[0, 1])
    rep = verify_algebra(tube)
    assert rep["pass"]
    saved = tube.constants.copy()
    try:
        tube.constants[0, 1, 2] += 0.37
        bad = verify_algebra(tube)
        assert not bad["pass"]
        assert bad["associativity"] > 1e-3 or bad["star_anti_mult"] > 1e-3
    finally:
        tube.constants = saved


# ------------------------------------- structured checks vs dense formulas


def _dense_residuals(tube):
    """Associativity and star anti-multiplicativity over the full n^4 / n^3
    index ranges, written out as plain einsums (the test-side reference)."""
    C, S = tube.constants, tube.star_matrix
    assoc = np.max(np.abs(np.einsum("ijm,mkl->ijkl", C, C)
                          - np.einsum("jkm,iml->ijkl", C, C)))
    anti = np.max(np.abs(np.einsum("ijm,km->ijk", np.conj(C), S)
                         - np.einsum("pj,qi,pqk->ijk", S, S, C)))
    return float(assoc), float(anti)


def _chains(tube, i, j, k):
    """Whether b_i b_j may have a b_k component (grades and outer labels)."""
    a, b, c = tube.basis[i], tube.basis[j], tube.basis[k]
    return (a.grade == b.grade == c.grade and a.target_outer == b.source_outer
            and c.source_outer == a.source_outer
            and c.target_outer == b.target_outer)


@pytest.fixture(scope="module")
def ising_full_tube(cats):
    return build_tube(cats["ising"], subcat=[0, 1, 2])


@pytest.fixture
def s3_tube(s3_center):
    """The Vec_S3 tube on a private copy of its constants, restored after."""
    tube = s3_center["tube"]
    saved = tube.constants
    tube.constants = saved.copy()
    yield tube
    tube.constants = saved


@pytest.mark.parametrize("fixture", ["s3_center", "fib_center",
                                     "ising_full_tube", "z3_twisted"])
def test_structured_checks_match_dense_reference(request, fixture):
    tube = request.getfixturevalue(fixture)
    tube = tube["tube"] if isinstance(tube, dict) else tube
    rep = verify_algebra(tube)
    assert rep["pass"], rep
    assert rep["pattern_violation_max"] == 0.0
    assoc, anti = _dense_residuals(tube)
    assert abs(rep["associativity"] - assoc) < 1e-12
    assert abs(rep["star_anti_mult"] - anti) < 1e-12


def test_in_block_corruption_is_caught_by_associativity(s3_tube):
    tube = s3_tube
    n = tube.dim
    i, j, k = next((i, j, k) for i in range(n) for j in range(n)
                   for k in range(n)
                   if _chains(tube, i, j, k) and tube.basis[i].loop != tube.cat.unit
                   and tube.basis[j].loop != tube.cat.unit)
    tube.constants[i, j, k] += 0.37
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["pattern_violation_max"] == 0.0
    assert bad["associativity"] > 1e-3
    # with the pattern gate holding, the block maximum is the dense one
    assert abs(bad["associativity"] - _dense_residuals(tube)[0]) < 1e-12


def test_out_of_pattern_corruption_is_caught_by_the_gate(s3_tube):
    tube = s3_tube
    n = tube.dim
    i, j = next((i, j) for i in range(n) for j in range(n)
                if tube.basis[i].target_outer != tube.basis[j].source_outer)
    tube.constants[i, j, 0] = 1e-30
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["pattern_violation_max"] == 1e-30
    assert bad["grade_mismatch_max"] == 0.0   # one grade: only the gate sees it


def _vec_zn(n):
    return {
        "rank": n,
        "labels": [str(a) for a in range(n)],
        "dual": [(-a) % n for a in range(n)],
        "qdim": [1.0] * n,
        "N": [[a, b, (a + b) % n, 1] for a in range(n) for b in range(n)],
    }


def test_vec_z8_tube_has_64_invertible_blocks():
    # Z(Vec_A) has |A|^2 simples, all invertible, for an abelian group A
    tube = build_tube(category_from_dict(_vec_zn(8), name="vec_z8"))
    assert tube.dim == 64
    assert verify_algebra(tube)["pass"]
    dec = decompose(tube, 0)
    assert dec.block_ranks() == [1] * 64


# ------------------------------------------------------- dims and blocks


def test_dims_match_counting_oracle(fib_center, z2_center, ising_center,
                                    s3_center, z3_twisted):
    assert z2_center["tube"].dim == tube_dim_oracle(_raw("vec_z2"),
                                                    [0, 1], [0, 1]) == 4
    assert fib_center["tube"].dim == tube_dim_oracle(_raw("fib"),
                                                     [0, 1], [0, 1]) == 7
    it = ising_center["tube"]
    raw = _raw("ising")
    s0 = it.grade_slice(0)
    s1 = it.grade_slice(1)
    assert s0.stop - s0.start == tube_dim_oracle(raw, [0, 1], [0, 1]) == 4
    assert s1.stop - s1.start == tube_dim_oracle(raw, [0, 1], [2]) == 2
    assert s3_center["tube"].dim == tube_dim_oracle(
        _raw("vec_s3"), list(range(6)), list(range(6))) == 36
    zt = z3_twisted["tube"]
    inv = _raw("vec_z3")["action"]["perm"]["i"]
    for g, perm in ((0, None), (1, inv)):
        sl = zt.grade_slice(g)
        assert sl.stop - sl.start == tube_dim_oracle(
            _raw("vec_z3"), [0, 1, 2], [0, 1, 2], perm=perm) == 9


def test_block_ranks_frozen(fib_center, z2_center, ising_center, s3_center,
                            z3_twisted):
    assert sorted(z2_center["decs"][0].block_ranks()) == [1, 1, 1, 1]
    assert sorted(fib_center["decs"][0].block_ranks()) == [1, 1, 1, 2]
    assert sorted(ising_center["decs"][0].block_ranks()) == [1, 1, 1, 1]
    assert sorted(ising_center["decs"][1].block_ranks()) == [1, 1]
    assert sorted(s3_center["decs"][0].block_ranks()) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert sorted(z3_twisted["decs"][0].block_ranks()) == [1] * 9
    assert sorted(z3_twisted["decs"][1].block_ranks()) == [3]


def test_sum_of_squared_ranks_exhausts_each_component(fib_center, z2_center,
                                                      ising_center, s3_center,
                                                      z3_twisted):
    for bundle in (fib_center, z2_center, ising_center, s3_center, z3_twisted):
        tube = bundle["tube"]
        for dec in bundle["decs"].values():
            sl = tube.grade_slice(dec.grade)
            assert sum(r * r for r in dec.block_ranks()) == sl.stop - sl.start
            assert dec.center_dim == len(dec.blocks)


def test_full_ising_tube_has_nine_blocks(cats):
    # the double of the Ising fusion rules has 9 simples, one with a
    # two-dimensional loop representation
    tube = build_tube(cats["ising"], subcat=[0, 1, 2])
    assert tube.dim == 12
    assert tube.grades == (0,)
    dec = decompose(tube, 0)
    assert sorted(dec.block_ranks()) == [1, 1, 1, 1, 1, 1, 1, 1, 2]


def test_empty_component_decomposes_to_nothing(cats):
    tube = build_tube(cats["vec_z3"])  # grade 'i' has no outer objects
    dec = decompose(tube, 1)
    assert dec.dim == 0
    assert dec.center_dim == 0
    assert dec.blocks == []


# ------------------------------------------------------------- subcat rules


def test_loop_set_must_be_closed(cats):
    ising = cats["ising"]
    with pytest.raises(ValidationError):
        build_tube(ising, subcat=[2])          # sigma alone is not closed
    with pytest.raises(ValidationError):
        build_tube(ising, subcat=[0, 2])


def test_twisted_tube_needs_trivial_grading(cats):
    with pytest.raises(ValidationError):
        build_twisted_tube(cats["ising"], GroupAction(
            "id", np.tile(np.arange(3), (2, 1))))


def test_trivial_group_twisted_tube_is_the_plain_one(cats):
    fib = cats["fib"]
    ident = GroupAction("id", np.arange(fib.rank)[None, :])
    tw = build_twisted_tube(fib, ident)
    plain = build_tube(fib, subcat=[0, 1])
    assert tw.dim == plain.dim
    assert np.allclose(tw.constants, plain.constants, atol=1e-12)
    assert np.allclose(tw.star_matrix, plain.star_matrix, atol=1e-12)


def test_identity_action_matches_plain_component(cats):
    z3 = cats["vec_z3"]
    ident = GroupAction("id", np.tile(np.arange(3), (2, 1)))
    tw = build_twisted_tube(z3, ident)
    plain = build_tube(z3)
    sl = tw.grade_slice(0)
    assert sl == plain.grade_slice(0)
    assert np.allclose(tw.constants[sl, sl, sl], plain.constants[sl, sl, sl],
                       atol=1e-12)
    # the untwisted odd component repeats the even one for this action
    so = tw.grade_slice(1)
    assert so.stop - so.start == 9


def test_twisted_tube_leaves_callers_actions_alone():
    z3 = load_category(bundled_path("vec_z3"))
    before = list(z3.actions)
    tube = build_twisted_tube(z3, GroupAction("id", np.tile(np.arange(3), (2, 1))))
    assert tube.action.name == "id"
    assert list(z3.actions) == before


def test_trivial_action_setup_leaves_callers_actions_alone():
    z3 = load_category(bundled_path("vec_z3"))
    before = list(z3.actions)
    cat, act = _twisted_setup(z3, "trivial")
    assert act.name == "trivial"
    assert build_crossed_extension(cat, act).rank == 2 * z3.rank
    assert list(z3.actions) == before


# ------------------------------------------------- twisted/untwisted bridge


def test_crossed_extension_tube_matches_twisted(z3_ext_tube, z3_twisted):
    rep = twisted_untwisted_iso(z3_twisted["tube"], z3_ext_tube)
    assert rep["pass"], rep
    assert rep["max_deviation"] < 1e-12
    assert rep["star_deviation"] < 1e-12
    assert rep["trace_deviation"] < 1e-12
    assert rep["unit_deviation"] < 1e-12
    # the identification inverts the grade; every element of this group
    # is its own inverse, so the map reads as the identity
    assert rep["grade_map"] == {"e": "e", "i": "i"}


# ----------------------------------------------------------- determinism


def test_decomposition_is_deterministic(cats):
    tube = build_tube(cats["vec_z2"], subcat=[0, 1])
    a = decompose(tube, 0, seed=7)
    b = decompose(tube, 0, seed=7)
    assert a.block_ranks() == b.block_ranks()
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.projection, bb.projection)


def test_block_structure_is_seed_independent(fib_center):
    tube = fib_center["tube"]
    alt = decompose(tube, 0, seed=987654321)
    assert sorted(alt.block_ranks()) == sorted(
        fib_center["decs"][0].block_ranks())
    assert alt.center_dim == fib_center["decs"][0].center_dim
