"""Tests for the annular (tube) algebras and their block decomposition.

Expected dimensions come from the raw-data counting oracle in
test_oracles; expected block counts come from the group-theory oracle
there and from the known simple counts of the small doubles.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

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
    verify_pentagon,
)
import gct.tube
from gct.cli import _twisted_setup
from gct.fusion_core import GroupAction, InternalCheckError, ValidationError
from gct.tube import (
    TubeBasisElement,
    TubeBlock,
    TubeDecomposition,
    _gram,
    _kernel_columns,
    _left_mult,
    _projection_residual,
    decomposition_dict,
    null_space_abs,
    tube_dump_dict,
)
from test_fusion_core import _random_unitary_f, _rep_a4_ring, _rep_a4_category
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
    assert rep["pattern_violation_max"] == 0.0


def test_twisted_algebra_axioms(z3_twisted):
    rep = verify_algebra(z3_twisted["tube"])
    assert rep["pass"], rep


def _dense_constants(tube):
    """The whole n^3 array of structure constants, assembled from the
    ideals' cubes (the test-side reference)."""
    n = tube.dim
    C = np.zeros((n, n, n), dtype=complex)
    for idl in tube.ideals:
        C[np.ix_(idl.positions, idl.positions, idl.positions)] = idl.cube
    return C


def _dense_star(tube):
    """The whole n^2 star matrix, assembled from the ideals' star blocks
    (the test-side reference)."""
    n = tube.dim
    S = np.zeros((n, n), dtype=complex)
    for idl in tube.ideals:
        S[np.ix_(idl.positions, idl.positions)] = idl.star
    return S


def _star_mor_matrix(tube):
    """The star matrix bent one basis element at a time with `star_mor`,
    scattered over the whole n^2 range (the test-side reference)."""
    n = tube.dim
    S = np.zeros((n, n), dtype=complex)
    for k, e in enumerate(tube.basis):
        Zm = tube.star_mor(e.grade, tube.element_mor(k))
        xbar = int(tube.cat.dual[e.loop])
        for c, B in Zm.blocks.items():
            for j, i in np.argwhere(np.abs(B) > 0):
                elt = TubeBasisElement(e.grade, xbar, e.target_outer, e.source_outer,
                                       c, int(i), int(j))
                S[tube.index[elt], k] += B[j, i]
    return S


def _grade_projection(tube, blk, grade):
    """A block's projection scattered over its whole graded component."""
    sl = tube.grade_slice(grade)
    z = np.zeros(sl.stop - sl.start, dtype=complex)
    z[blk.positions - sl.start] = blk.projection
    return z


def _set_constant(tube, i, j, k, value):
    """Set c[i, j, k] in the cube of the ideal that holds all three."""
    (r,) = set(tube.ideal_of[[i, j, k]].tolist())
    idl = tube.ideals[r]
    idl.cube[tuple(np.searchsorted(idl.positions, (i, j, k)))] = value


def test_corrupted_constant_is_caught(cats):
    tube = build_tube(cats["vec_z2"], subcat=[0, 1])
    rep = verify_algebra(tube)
    assert rep["pass"]
    # b_0 (the unit loop at outer 0) times b_2 (loop 1 at outer 0) is b_2
    i, j, k = 0, 2, 2
    _set_constant(tube, i, j, k, _dense_constants(tube)[i, j, k] + 0.37)
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["associativity"] > 1e-3 or bad["star_anti_mult"] > 1e-3


# ------------------------------------- structured checks vs dense formulas


def _dense_residuals(tube):
    """Associativity and star anti-multiplicativity over the full n^4 / n^3
    index ranges, written out as plain einsums (the test-side reference)."""
    C, S = _dense_constants(tube), _dense_star(tube)
    assoc = np.max(np.abs(np.einsum("ijm,mkl->ijkl", C, C)
                          - np.einsum("jkm,iml->ijkl", C, C)))
    anti = np.max(np.abs(np.einsum("ijm,km->ijk", np.conj(C), S)
                         - np.einsum("pj,qi,pqk->ijk", S, S, C)))
    return float(assoc), float(anti)


def _dense_gram(tube, g=None):
    """tau(b_i^* b_j) as one three-operand einsum (the test-side reference)."""
    sl = slice(None) if g is None else tube.grade_slice(g)
    return np.einsum("ki,kjl,l->ij", _dense_star(tube)[:, sl],
                     _dense_constants(tube)[:, sl, :], tube.trace_vector)


def _loop_projection_residual(C, S, unit, zs):
    """The projection-system residual block by block, with left and right
    multiplication matrices written as einsums (the test-side reference)."""
    projs = list(zs.T)
    devs = [np.linalg.norm(sum(projs) - unit)]
    for a, za in enumerate(projs):
        left = np.einsum("i,ijk->kj", za, C)
        right = np.einsum("j,ijk->ki", za, C)
        prods = left @ zs
        prods[:, a] -= za
        devs += [np.linalg.norm(S @ np.conj(za) - za), np.abs(left - right).max(),
                 np.linalg.norm(prods, axis=0).max()]
    return float(max(devs))


def _chains(tube, i, j, k):
    """Whether b_i b_j may have a b_k component (grades and outer labels)."""
    a, b, c = tube.basis[i], tube.basis[j], tube.basis[k]
    return (a.grade == b.grade == c.grade and a.target_outer == b.source_outer
            and c.source_outer == a.source_outer
            and c.target_outer == b.target_outer)


@pytest.fixture(scope="module")
def ising_full_tube(cats):
    return build_tube(cats["ising"], subcat=[0, 1, 2])


def _private_ideals(tube):
    """A shallow copy of the tube with copies of its ideals, cubes and star
    blocks."""
    tube = copy.copy(tube)
    tube.ideals = tuple(dataclasses.replace(idl, cube=idl.cube.copy(),
                                            star=idl.star.copy())
                        for idl in tube.ideals)
    return tube


@pytest.fixture
def s3_tube(s3_center):
    """The Vec_S3 tube on private copies of its cubes."""
    return _private_ideals(s3_center["tube"])


def _ideal_gram(tube):
    """The Gram form assembled from the per-ideal `_gram` of each cube."""
    G = np.zeros((tube.dim, tube.dim), dtype=complex)
    for idl in tube.ideals:
        I = idl.positions
        G[np.ix_(I, I)] = _gram(idl.cube, idl.star, tube.trace_vector[I])
    return G


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


@pytest.mark.parametrize("fixture", ["s3_center", "fib_center",
                                     "ising_full_tube", "z3_twisted"])
def test_gram_matches_dense_reference(request, fixture):
    tube = request.getfixturevalue(fixture)
    tube = tube["tube"] if isinstance(tube, dict) else tube
    G = _ideal_gram(tube)
    for g in tube.grades:
        sl = tube.grade_slice(g)
        assert np.max(np.abs(G[sl, sl] - _dense_gram(tube, g))) < 1e-12
    assert np.max(np.abs(G - _dense_gram(tube))) < 1e-12
    assert np.max(np.abs(G - G.conj().T)) < 1e-12


def test_gram_and_multiplications_on_complex_data(ising_center):
    # the bundled tubes have real star matrices; random complex data on each
    # ideal also tell S from conj(S) and the index orders apart
    tube = ising_center["tube"]
    rng = np.random.default_rng(3)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for idl in tube.ideals:
        m = idl.positions.size
        C, S, t, x = cplx(m, m, m), cplx(m, m), cplx(m), cplx(m)
        assert np.max(np.abs(_gram(C, S, t) - np.einsum("ki,kjl,l->ij", S, C, t))) < 1e-12
        assert np.max(np.abs(_left_mult(C, x) - np.einsum("i,ijk->kj", x, C))) < 1e-12


def _projection_system(bundle):
    """C, S, M and unit of grade 0 as `decompose` builds them, and the
    decomposition's projections as columns."""
    tube = bundle["tube"]
    sl = tube.grade_slice(0)
    ng = sl.stop - sl.start
    C = _dense_constants(tube)[sl, sl, sl]
    M = (C.transpose(1, 2, 0) - C.transpose(0, 2, 1)).reshape(ng * ng, ng)
    zs = np.stack([_grade_projection(tube, b, 0) for b in bundle["decs"][0].blocks],
                  axis=1)
    return C, _dense_star(tube)[sl, sl], M, tube.unit_coords[sl], zs


def _corrupt_scaled(zs, M):
    zs[:, -1] *= 1.01                 # no longer idempotent


def _corrupt_phase(zs, M):
    zs[:, -1] *= 1j                   # no longer self-adjoint


def _corrupt_non_central(zs, M):
    k = int(np.flatnonzero(np.abs(M).max(axis=0) > 1e-6)[0])
    zs[:, 0] = 0.0
    zs[k, 0] = 1.0                    # a basis vector outside the center


def _unit_corners(tube, g):
    """The unit's corners e_p, one per outer label: self-adjoint orthogonal
    idempotents that sum to the unit, but are not central."""
    unit = tube.unit_coords[tube.grade_slice(g)]
    return np.diag(unit)[:, np.flatnonzero(unit)]


@pytest.mark.parametrize("fixture", ["s3_center", "fib_center"])
def test_projection_residual_matches_per_block_loop(request, fixture):
    C, S, M, unit, zs = _projection_system(request.getfixturevalue(fixture))
    got = _projection_residual(C, S, M, unit, zs)
    assert got < 1e-9
    assert abs(got - _loop_projection_residual(C, S, unit, zs)) < 1e-12
    for corrupt in (_corrupt_scaled, _corrupt_phase, _corrupt_non_central):
        bad = zs.copy()
        corrupt(bad, M)
        got = _projection_residual(C, S, M, unit, bad)
        assert got > 1e-6
        assert abs(got - _loop_projection_residual(C, S, unit, bad)) < 1e-12


@pytest.mark.parametrize("fixture", ["s3_center", "fib_center"])
def test_projection_residual_sees_a_non_central_system(request, fixture):
    bundle = request.getfixturevalue(fixture)
    C, S, M, unit, _ = _projection_system(bundle)
    corners = _unit_corners(bundle["tube"], 0)
    assert corners.shape[1] > 1
    # only centrality fails, so the residual is the largest |M e_p|
    centrality = float(np.max(np.abs(M @ corners)))
    assert centrality > 1e-6
    got = _projection_residual(C, S, M, unit, corners)
    assert abs(got - centrality) < 1e-12
    assert abs(got - _loop_projection_residual(C, S, unit, corners)) < 1e-12


@pytest.mark.parametrize("corrupt", [_corrupt_scaled, _corrupt_non_central])
def test_decompose_refuses_a_corrupted_projection_system(monkeypatch, fib_center,
                                                         corrupt):
    def corrupted(C, S, M, unit, zs):
        zs = zs.copy()
        corrupt(zs, M)
        return _projection_residual(C, S, M, unit, zs)

    monkeypatch.setattr(gct.tube, "_projection_residual", corrupted)
    with pytest.raises(InternalCheckError, match="projection system residual"):
        decompose(fib_center["tube"], 0)


def test_a_trace_form_that_is_not_positive_is_an_internal_error():
    tube = build_tube(load_category(bundled_path("fib")))
    tube.trace_vector = -tube.trace_vector     # a negative definite Gram form
    with pytest.raises(InternalCheckError,
                       match="trace form not positive definite on outer labels"):
        decompose(tube, 0)


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_null_space_abs_keeps_its_absolute_floor():
    """A matrix that is zero up to roundoff has every vector in its kernel,
    although each of its singular values is far above a relative cut."""
    A = 1e-13 * _complex_normal(np.random.default_rng(3), 6, 4)
    assert np.linalg.matrix_rank(A) == 4
    N = null_space_abs(A)
    assert N.shape == (4, 4)
    assert np.abs(N.conj().T @ N - np.eye(4)).max() < 1e-12
    assert null_space_abs(1e6 * A).shape == (4, 0)


@pytest.mark.parametrize("seed", range(8))
def test_null_space_abs_spans_the_kernel_of_scipy(seed):
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 9, size=2))
    r = int(rng.integers(0, min(m, n) + 1))
    A = _complex_normal(rng, m, r) @ _complex_normal(rng, r, n)
    ours, ref = null_space_abs(A), scipy.linalg.null_space(A)
    assert ours.shape == ref.shape == (n, n - r)
    # one subspace: the same orthogonal projector
    assert np.abs(ours @ ours.conj().T - ref @ ref.conj().T).max() < 1e-10
    assert np.abs(ours.conj().T @ ours - np.eye(n - r)).max() < 1e-12


def _gate_mismatches(got, ref, path="dec"):
    """Paths where two report trees differ: any non-float field that is not
    identical, or a float more than 1e-12 away."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return [path]
        return [m for k in ref for m in _gate_mismatches(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [path]
        return [m for i, (a, b) in enumerate(zip(got, ref))
                for m in _gate_mismatches(a, b, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        return [] if abs(got - ref) <= 1e-12 else [path]
    return [] if type(got) is type(ref) and got == ref else [path]


@pytest.mark.parametrize("fixture", ["fib_center", "ising_full_tube", "s3_center"])
def test_decomposition_with_the_dense_gram_passes_the_report_gate(
        request, monkeypatch, fixture):
    tube = request.getfixturevalue(fixture)
    tube = tube["tube"] if isinstance(tube, dict) else tube
    ours = [decomposition_dict(decompose(tube, g), tube) for g in tube.grades]
    monkeypatch.setattr(gct.tube, "_gram", lambda C, S, t: np.einsum(
        "ki,kjl,l->ij", S, C, t))
    dense = [decomposition_dict(decompose(tube, g), tube) for g in tube.grades]
    assert _gate_mismatches(ours, dense) == []


# ------------------------------------------ per-ideal work vs whole grade


def _whole_grade_decompose(tube, grade, seed=7, cluster_tol=1e-6, max_retries=8):
    """`decompose` on the whole graded component at once: one commutant SVD,
    trace form and probe over the grade (the test-side reference)."""
    sl = tube.grade_slice(grade)
    ng = sl.stop - sl.start
    C = _dense_constants(tube)[sl, sl, sl]
    S = _dense_star(tube)[sl, sl]
    unit = tube.unit_coords[sl]
    M = (C.transpose(1, 2, 0) - C.transpose(0, 2, 1)).reshape(ng * ng, ng)
    s, vh = scipy.linalg.svd(M, full_matrices=False)[1:]
    Z = _kernel_columns(M.shape, s, vh, 1e-9)
    nc = Z.shape[1]
    G = _dense_gram(tube, grade)
    U = scipy.linalg.cholesky((G + G.conj().T) / 2)
    Uinv = np.linalg.inv(U)
    C = np.ascontiguousarray(C)
    outer = tube.outer_by_grade[grade]
    corner_pos = [tube.index[TubeBasisElement(grade, tube.cat.unit, p, p, p, 0, 0)]
                  - sl.start for p in outer]
    corner_trace = (C @ np.einsum("ikk->i", C))[:, corner_pos]
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        z0 = Z @ (rng.standard_normal(nc) + 1j * rng.standard_normal(nc))
        z = z0 + S @ np.conj(z0)
        Mh = U @ _left_mult(C, z) @ Uinv
        w, V = scipy.linalg.eigh((Mh + Mh.conj().T) / 2)
        scale = max(1.0, float(np.max(np.abs(w))))
        cuts = [0] + [i for i in range(1, ng)
                      if w[i] - w[i - 1] > cluster_tol * scale] + [ng]
        clusters = [list(range(a, b)) for a, b in zip(cuts, cuts[1:])]
        ranks = [round(len(cl) ** 0.5) for cl in clusters]
        if len(clusters) != nc or any(m * m != len(cl)
                                      for m, cl in zip(ranks, clusters)):
            continue
        zs = np.stack([Uinv @ (V[:, cl] @ V[:, cl].conj().T) @ U @ unit
                       for cl in clusters], axis=1)
        if _projection_residual(C, S, M, unit, zs) > 1e-6:
            continue
        blocks = []
        for zc, tr, m in zip(zs.T, zs.T @ corner_trace, ranks):
            vals = unit[corner_pos] * tr / m
            blocks.append(TubeBlock(m, np.arange(sl.start, sl.stop), zc,
                                    {p: int(round(v.real)) for p, v in zip(outer, vals)}))
        # the sort key over the whole grade, the oracle of the block order
        blocks.sort(key=lambda b: (b.rank, tuple(b.corners[p] for p in outer),
                                   tuple(np.round(b.projection.real, 6)),
                                   tuple(np.round(b.projection.imag, 6))))
        return TubeDecomposition(grade, tube.grade_name(grade), ng, nc, blocks,
                                 seed, attempt)
    raise AssertionError("whole-grade reference found no decomposition")


@pytest.fixture(scope="module")
def z8_tube():
    return build_tube(category_from_dict(_vec_zn(8), name="vec_z8"))


@pytest.mark.parametrize("fixture", ["fib_center", "z2_center", "ising_center",
                                     "ising_full_tube", "s3_center", "z8_tube",
                                     "z3_twisted", "z3_ext_tube"])
def test_per_ideal_decomposition_matches_the_whole_grade(request, fixture):
    tube = request.getfixturevalue(fixture)
    tube = tube["tube"] if isinstance(tube, dict) else tube
    for g in tube.grades:
        ours, ref = decompose(tube, g, seed=1), _whole_grade_decompose(tube, g, seed=1)
        assert (ours.dim, ours.center_dim, ours.retries) == \
            (ref.dim, ref.center_dim, ref.retries)
        assert [(b.rank, b.corners) for b in ours.blocks] == \
            [(b.rank, b.corners) for b in ref.blocks]
        for a, b in zip(ours.blocks, ref.blocks):
            own = tube.ideals[tube.ideal_of[a.positions[0]]]
            assert np.array_equal(a.positions, own.positions)
            assert np.max(np.abs(_grade_projection(tube, a, g) - b.projection)) < 1e-12


def test_ideal_sizes(s3_center, z3_twisted, fib_center, z8_tube):
    def sizes(tube, g):
        return sorted(idl.positions.size for idl in tube.ideals if idl.grade == g)

    assert sizes(s3_center["tube"], 0) == [6, 12, 18]
    assert sizes(z3_twisted["tube"], 0) == [3, 3, 3]
    assert sizes(z3_twisted["tube"], 1) == [9]
    assert sizes(fib_center["tube"], 0) == [7]
    assert sizes(z8_tube, 0) == [8] * 8


def test_retries_are_the_largest_of_any_ideal(monkeypatch, z8_tube):
    calls = []

    def first_probe_fails(*args):
        calls.append(1)
        return 1.0 if len(calls) == 1 else _projection_residual(*args)

    monkeypatch.setattr(gct.tube, "_projection_residual", first_probe_fails)
    dec = decompose(z8_tube, 0)
    assert (dec.retries, len(calls)) == (1, 9)
    assert dec.block_ranks() == [1] * 64


def test_star_check_in_the_last_ideal_matches_dense(s3_tube):
    tube = s3_tube
    S = tube.ideals[-1].star
    k = int(np.flatnonzero(S[:, -1])[0])
    S[k, -1] *= 1.5
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["star_anti_mult"] > 1e-3
    assert abs(bad["star_anti_mult"] - _dense_residuals(tube)[1]) < 1e-12


def test_star_entry_off_the_reversed_pattern_is_caught_by_the_gate(s3_tube):
    """S[k, j] for a b_k in the ideal of b_j that does not run the reverse
    way of b_j.  A star entry across two ideals or grades has no place in
    the star blocks."""
    tube = s3_tube
    # the last Vec_S3 ideal has three outer labels
    src, tgt = tube.source_of, tube.target_of
    I = tube.ideals[-1].positions
    j = next(j for j in range(I.size) if src[I[j]] != tgt[I[j]])
    k = next(k for k in range(I.size)
             if (src[I[k]], tgt[I[k]]) != (tgt[I[j]], src[I[j]]))
    S = tube.ideals[-1].star
    assert S[k, j] == 0
    S[k, j] = 1e-30
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["pattern_violation_max"] == 1e-30


@pytest.mark.parametrize("fixture", ["s3_center", "ising_full_tube", "z3_twisted"])
def test_star_blocks_match_star_mor(request, fixture):
    tube = request.getfixturevalue(fixture)
    tube = tube["tube"] if isinstance(tube, dict) else tube
    sizes = {g: sorted(idl.positions.size for idl in tube.ideals if idl.grade == g)
             for g in tube.grades}
    assert sizes == {"s3_center": {0: [6, 12, 18]}, "ising_full_tube": {0: [4, 8]},
                     "z3_twisted": {0: [3, 3, 3], 1: [9]}}[fixture]
    assert np.array_equal(_dense_star(tube), _star_mor_matrix(tube))


@pytest.mark.parametrize("fixture", ["s3_center", "ising_center", "z3_twisted"])
def test_dump_lists_the_entries_of_a_whole_array_scan(request, fixture):
    tube = request.getfixturevalue(fixture)["tube"]
    dump = tube_dump_dict(tube)
    for key, A in (("constants", _dense_constants(tube)), ("star", _dense_star(tube)),
                   ("trace", tube.trace_vector), ("unit", tube.unit_coords)):
        ref = [[*map(int, idx), float(A[tuple(idx)].real), float(A[tuple(idx)].imag)]
               for idx in np.argwhere(np.abs(A) > 1e-12)]
        assert dump[key] == ref


def test_in_block_corruption_is_caught_by_associativity(s3_tube):
    tube = s3_tube
    n = tube.dim
    i, j, k = next((i, j, k) for i in range(n) for j in range(n)
                   for k in range(n)
                   if _chains(tube, i, j, k) and tube.basis[i].loop != tube.cat.unit
                   and tube.basis[j].loop != tube.cat.unit)
    _set_constant(tube, i, j, k, _dense_constants(tube)[i, j, k] + 0.37)
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["pattern_violation_max"] == 0.0
    assert bad["associativity"] > 1e-3
    # with the pattern gate holding, the block maximum is the dense one
    assert abs(bad["associativity"] - _dense_residuals(tube)[0]) < 1e-12


@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_residual_matches_dense(s3_tube, side):
    # b_u b_j (left) or b_j b_u (right), b_u the unit loop at the matching
    # outer label of b_j, has a wrong b_j component
    tube = s3_tube
    j = int(tube.ideals[-1].positions[-1])
    e = tube.basis[j]
    p = e.source_outer if side == "left" else e.target_outer
    u = tube.index[TubeBasisElement(e.grade, tube.cat.unit, p, p, p, 0, 0)]
    i, k = (u, j) if side == "left" else (j, u)
    _set_constant(tube, i, k, j, _dense_constants(tube)[i, k, j] + 0.37)
    C, unit, eye = _dense_constants(tube), tube.unit_coords, np.eye(tube.dim)
    dense = max(np.max(np.abs(np.einsum("i,ijk->kj", unit, C) - eye)),
                np.max(np.abs(np.einsum("j,ijk->ki", unit, C) - eye)))
    bad = verify_algebra(tube)
    assert bad["unit_residual"] > 0.1
    assert abs(bad["unit_residual"] - dense) < 1e-12


def _off_pattern_entry(tube, ideal):
    """(i, j, k) in one ideal with b_k from the source of b_i to the target
    of b_j, but b_i, b_j that do not chain."""
    src, tgt, I = tube.source_of, tube.target_of, ideal.positions
    return next((i, j, k) for i in I for j in I for k in I
                if tgt[i] != src[j] and (src[k], tgt[k]) == (src[i], tgt[j]))


def test_out_of_pattern_corruption_is_caught_by_the_gate(s3_tube):
    tube = s3_tube
    # the last Vec_S3 ideal has three outer labels, so not all pairs chain
    ideal = tube.ideals[-1]
    assert len(ideal.labels) == 3
    _set_constant(tube, *_off_pattern_entry(tube, ideal), 1e-30)
    bad = verify_algebra(tube)
    assert not bad["pass"]
    assert bad["pattern_violation_max"] == 1e-30


def test_corruption_in_the_last_ideal_matches_dense(s3_tube):
    tube = s3_tube
    S = _dense_star(tube)
    # all of b_i, b_j, b_k and the stars in the last ideal; the two sides of
    # the check change at different entries unless b_i, b_j are each other's
    # stars and b_k is its own
    last = tube.ideals[-1].positions
    i, j, k = next((i, j, k) for i in last for j in last for k in last
                   if _chains(tube, i, j, k)
                   and not (S[j, i] != 0 and S[k, k] != 0))
    _set_constant(tube, i, j, k, _dense_constants(tube)[i, j, k] + 0.37)
    bad = verify_algebra(tube)
    assert bad["pattern_violation_max"] == 0.0
    assert bad["star_anti_mult"] > 1e-3
    assert abs(bad["star_anti_mult"] - _dense_residuals(tube)[1]) < 1e-12
    assert abs(bad["associativity"] - _dense_residuals(tube)[0]) < 1e-12
    _set_constant(tube, *_off_pattern_entry(tube, tube.ideals[-1]), 1e-30)
    assert verify_algebra(tube)["pattern_violation_max"] == 1e-30


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
    assert np.allclose(_dense_constants(tw), _dense_constants(plain), atol=1e-12)
    assert np.allclose(_dense_star(tw), _dense_star(plain), atol=1e-12)


def test_identity_action_matches_plain_component(cats):
    z3 = cats["vec_z3"]
    ident = GroupAction("id", np.tile(np.arange(3), (2, 1)))
    tw = build_twisted_tube(z3, ident)
    plain = build_tube(z3)
    sl = tw.grade_slice(0)
    assert sl == plain.grade_slice(0)
    assert np.allclose(_dense_constants(tw)[sl, sl, sl],
                       _dense_constants(plain)[sl, sl, sl], atol=1e-12)
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


def test_iso_deviation_reads_entries_stored_on_either_side(z3_ext_tube, z3_twisted):
    # a zero entry of one cube or star block made nonzero has no counterpart
    # on the other side, so only the union of the stored keys sees it; the
    # star deviation is reported, but only the constants decide `pass`
    for field, key in (("cube", "max_deviation"), ("star", "star_deviation")):
        for which, value in (("relative", 0.37), ("twisted", 0.25)):
            tubes = {"relative": z3_ext_tube, "twisted": z3_twisted["tube"]}
            tubes[which] = _private_ideals(tubes[which])
            A = getattr(tubes[which].ideals[-1], field)
            A[np.unravel_index(np.flatnonzero(A == 0)[0], A.shape)] = value
            rep = twisted_untwisted_iso(tubes["twisted"], tubes["relative"])
            assert abs(rep[key] - value) < 1e-12
            assert rep["pass"] == (field == "star")


# ----------------------------------------------------------- determinism


def test_decomposition_is_deterministic(cats):
    tube = build_tube(cats["vec_z2"], subcat=[0, 1])
    a = decompose(tube, 0, seed=7)
    b = decompose(tube, 0, seed=7)
    assert a.block_ranks() == b.block_ranks()
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.positions, bb.positions)
        assert np.array_equal(ba.projection, bb.projection)


def test_block_structure_is_seed_independent(fib_center):
    tube = fib_center["tube"]
    alt = decompose(tube, 0, seed=987654321)
    assert sorted(alt.block_ranks()) == sorted(
        fib_center["decs"][0].block_ranks())
    assert alt.center_dim == fib_center["decs"][0].center_dim


# ----------------------------------- structure constants against the splice


def _spliced_constants(tube):
    """The constants as tree-engine morphisms give them, one chained pair of
    basis elements at a time: X : a x -> x' b and Y : b y -> y' c splice to
    rtens(T'^*, c) ltens(x', Y) rtens(X, y) ltens(a, T), summed over T in
    onb(z, x y) with T' the transport of T, for every loop z."""
    eng = tube.eng
    n = tube.dim
    C = np.zeros((n, n, n), dtype=complex)
    mors = [tube.element_mor(k) for k in range(n)]
    for k1, e1 in enumerate(tube.basis):
        X = mors[k1]
        a, x = X.source[0]
        for k2, e2 in enumerate(tube.basis):
            if e1.grade != e2.grade or e1.target_outer != e2.source_outer:
                continue
            Y = mors[k2]
            y, c = Y.source[0][1], Y.target[0][1]
            mid = eng.ltens(tube.tloop(e1.grade, x), Y) @ eng.rtens(X, y)
            for z in tube.loop_labels:
                for T in eng.onb(z, ((x, y),)):
                    Tg = T if tube.action is None else eng.transport(T, e1.grade, tube.action)
                    term = eng.rtens(Tg.H, c) @ mid @ eng.ltens(a, T)
                    for ch, B in term.blocks.items():
                        for j, i in np.argwhere(np.abs(B) > 0):
                            elt = TubeBasisElement(e1.grade, z, a, c, ch, int(i), int(j))
                            C[k1, k2, tube.index[elt]] += B[j, i]
    return C


def _assert_constants_are_spliced(tube):
    ref, ours = _spliced_constants(tube), _dense_constants(tube)
    assert np.array_equal(ours != 0, ref != 0)
    assert np.max(np.abs(ours - ref)) <= 1e-13


@pytest.mark.parametrize("fixture", ["fib_center", "ising_center", "ising_full_tube",
                                     "s3_center", "z8_tube", "z3_twisted",
                                     "z3_ext_tube"])
def test_closed_form_constants_match_the_splice(request, fixture):
    tube = request.getfixturevalue(fixture)
    _assert_constants_are_spliced(tube["tube"] if isinstance(tube, dict) else tube)


def test_closed_form_constants_on_f_data_that_fail_the_pentagon(monkeypatch):
    """Rep(A4)'s ring has N = 2, and random unitary F fails the pentagon.
    The constants read F only through the three F-blocks of each chained
    block, so the closed form equals the splice on any F data.  The star is
    not filled: its conjugate pairs check the Frobenius-Schur indicator,
    which such F data fail."""
    cat = _rep_a4_category(_random_unitary_f(_rep_a4_ring(), seed=5))
    assert not verify_pentagon(cat)["pass"]
    monkeypatch.setattr(gct.tube.TubeAlgebra, "_fill_star", lambda self: None)
    tube = build_tube(cat, verify=False)
    assert max(max(e.col, e.row) for e in tube.basis) == 1
    _assert_constants_are_spliced(tube)


def test_a_flipped_f_entry_moves_both_fills_alike(ising_full_tube):
    """F^{psi sigma psi}_sigma = -1 flipped to +1: the constants move, the
    splice moves with them, and the axioms fail."""
    data = _raw("ising")
    (block,) = [b for b in data["F"] if b["abcd"] == [1, 2, 1, 2]]
    block["matrix"][0][0][0] *= -1
    cat = category_from_dict(data, "ising_flipped")
    tube = build_tube(cat, subcat=[0, 1, 2], verify=False)
    assert tube.basis == ising_full_tube.basis
    assert np.max(np.abs(_dense_constants(tube) - _dense_constants(ising_full_tube))) > 1
    _assert_constants_are_spliced(tube)
    assert not verify_algebra(tube)["pass"]
    with pytest.raises(InternalCheckError, match="axioms fail"):
        build_tube(cat, subcat=[0, 1, 2])

