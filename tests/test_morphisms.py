"""Unit tests for the tree-basis morphism calculus."""

import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gct import (
    build_tube,
    bundled_path,
    conjugate_solution,
    decompose,
    engine_for,
    extract_simples,
    frobenius_transpose,
    hom_center,
    hom_dim,
    left_tensor,
    load_category,
    onb,
    right_tensor,
    tensor_half_braidings,
    verify_half_braiding,
)
from gct.morphisms import Mor, TreeEngine, as_vobj, vobj_tensor

RNG = np.random.default_rng(20240811)


def test_hom_dims_frozen(cats):
    fib, ising = cats["fib"], cats["ising"]
    t = fib.labels.index("t")
    assert hom_dim(fib, t, (t, t, t)) == 2
    assert hom_dim(fib, fib.unit, (t, t)) == 1
    assert hom_dim(fib, fib.unit, (t, t, t)) == 1
    sigma = ising.labels.index("sigma")
    psi = ising.labels.index("psi")
    assert hom_dim(ising, ising.unit, (sigma, sigma)) == 1
    assert hom_dim(ising, psi, (sigma, sigma)) == 1
    assert hom_dim(ising, sigma, (sigma, sigma)) == 0
    assert hom_dim(ising, sigma, (sigma, sigma, sigma)) == 2


def test_hom_dim_pointed_follows_group_law(cats):
    s3 = cats["vec_s3"]
    for a in range(s3.rank):
        for b in range(s3.rank):
            c = int(np.argmax(s3.N[a, b]))  # the unique fusion product
            assert s3.N[a, b, c] == 1
            for d in range(s3.rank):
                assert hom_dim(s3, d, (a, b)) == (1 if d == c else 0)


@pytest.mark.parametrize("name,word", [
    ("fib", ("t", "t")),
    ("ising", ("sigma", "sigma")),
    ("ising", ("sigma", "psi", "sigma")),
])
def test_onb_orthonormal_and_complete(cats, name, word):
    cat = cats[name]
    w = tuple(cat.labels.index(s) for s in word)
    eng = engine_for(cat)
    total = eng.zero(w, w)
    for c in range(cat.rank):
        basis = onb(cat, c, w)
        assert len(basis) == hom_dim(cat, c, w)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                got = (bi.H @ bj).scalar()
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-10
            total = total + bi @ bi.H
    assert total.diff_norm(eng.identity(w)) < 1e-9


def test_interchange_law(cats):
    ising = cats["ising"]
    sigma = ising.labels.index("sigma")
    psi = ising.labels.index("psi")
    f = onb(ising, ising.unit, (sigma, sigma))[0]
    g = onb(ising, psi, (sigma, sigma))[0]
    left_first = right_tensor(ising, f, (sigma, sigma)) @ left_tensor(
        ising, (ising.unit,), g)
    right_first = left_tensor(ising, (sigma, sigma), g) @ right_tensor(
        ising, f, (psi,))
    assert left_first.diff_norm(right_first) < 1e-10


def test_tensor_respects_composition(cats):
    fib = cats["fib"]
    t = fib.labels.index("t")
    b = onb(fib, t, (t, t))[0]
    proj = b @ b.H          # End(t t)
    assert (proj @ proj).diff_norm(proj) < 1e-10
    rt = right_tensor(fib, proj, (t,))
    assert (rt @ rt).diff_norm(rt) < 1e-10
    assert right_tensor(fib, proj @ proj, (t,)).diff_norm(rt) < 1e-10
    lt = left_tensor(fib, (t,), proj)
    assert left_tensor(fib, (t,), proj @ proj).diff_norm(lt @ lt) < 1e-10


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3"])
def test_tensor_factors_rebuild_ltens_and_rtens(cats, name):
    """ltens(a, f) and rtens(f, a), channel by channel, as the sums of
    L f_d R over `tensor_factors`, for random f between multi-word objects."""
    cat = cats[name]
    eng = TreeEngine(cat)
    rng = np.random.default_rng(3)
    r = cat.rank
    objs = [((1 % r, r - 1), (0,)), ((r - 1,), (1 % r, 1 % r), (r - 1, 0, 1 % r))]
    for source, target in itertools.product(objs, repeat=2):
        blocks = {}
        for d in range(r):
            m, n = eng.vdim(d, target), eng.vdim(d, source)
            if m and n:
                blocks[d] = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        f = Mor(eng, source, target, blocks)
        for a in range(r):
            for side, want in (("left", eng.ltens(a, f)), ("right", eng.rtens(f, a))):
                for c in range(r):
                    got = sum((L @ f.blocks[d] @ R
                               for d, L, R in eng.tensor_factors(side, a, source, target, c)),
                              start=np.zeros_like(want.block(c)))
                    assert np.max(np.abs(got - want.block(c)), initial=0.0) < 1e-12


def test_adjoint_is_antimultiplicative_involution(cats):
    ising = cats["ising"]
    sigma = ising.labels.index("sigma")
    b = onb(ising, ising.unit, (sigma, sigma))[0]
    assert b.H.H.diff_norm(b) == 0.0
    prod = b @ b.H
    assert prod.H.diff_norm(b @ b.H) < 1e-12
    assert (b.H @ b).scalar() == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["fib", "ising", "vec_z2", "vec_z3", "vec_s3"])
def test_conjugates_solve_the_duality_equations(cats, name):
    cat = cats[name]
    for a in range(cat.rank):
        pair = conjugate_solution(cat, a)
        assert pair.residual < 1e-9
        # normalisation: R*R = d(a)
        assert (pair.R.H @ pair.R).scalar() == pytest.approx(
            float(cat.qdim[a]), abs=1e-9)


def test_frobenius_schur_indicators_frozen(cats):
    fib, ising = cats["fib"], cats["ising"]
    assert conjugate_solution(fib, fib.labels.index("t")).fs_indicator == pytest.approx(1.0)
    assert conjugate_solution(ising, ising.labels.index("psi")).fs_indicator == pytest.approx(1.0)
    assert conjugate_solution(ising, ising.labels.index("sigma")).fs_indicator == pytest.approx(1.0)
    # non-self-dual labels carry no indicator
    z3 = cats["vec_z3"]
    assert conjugate_solution(z3, 1).fs_indicator == 0.0


def test_frobenius_transpose_is_isometric(cats):
    ising = cats["ising"]
    sigma = ising.labels.index("sigma")
    psi = ising.labels.index("psi")
    for zeta in range(ising.rank):
        basis = onb(ising, zeta, (sigma, psi, sigma))
        flipped = [frobenius_transpose(ising, b) for b in basis]
        for i, fi in enumerate(flipped):
            # lands in Hom(sigma-bar, zeta-bar sigma psi)
            assert fi.source == ((int(ising.dual[sigma]),),)
            assert fi.target == ((int(ising.dual[zeta]), sigma, psi),)
            for j, fj in enumerate(flipped):
                got = (fi.H @ fj).scalar()
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-9


def test_hat_reverses_composition(cats):
    fib = cats["fib"]
    t = fib.labels.index("t")
    eng = engine_for(fib)
    T = onb(fib, t, (t, t))[0]
    coeffs = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    basis = onb(fib, t, (t, t)) + onb(fib, fib.unit, (t, t))
    S = eng.zero((t, t), (t, t))
    for z, b in zip(coeffs, basis):
        S = S + complex(z) * (b @ b.H)
    lhs = eng.hat(S @ T)
    rhs = eng.hat(T) @ eng.hat(S)
    assert lhs.diff_norm(rhs) < 1e-9


def test_transport_is_a_unitary_action(cats):
    z3 = cats["vec_z3"]
    eng = engine_for(z3)
    act = z3.action("inversion")
    g = 1  # the involution
    b = onb(z3, 0, (1, 2))[0]
    moved = eng.transport(b, g, act)
    assert moved.source == ((act.on_label(g, 0),),)
    assert moved.target == ((act.on_label(g, 1), act.on_label(g, 2)),)
    assert abs(moved.norm() - b.norm()) < 1e-12
    back = eng.transport(moved, g, act)
    assert back.diff_norm(b) < 1e-12


def test_cached_transport_matches_a_cold_engine(cats):
    """transport through one warm engine against a fresh engine, bit for
    bit, for the inversion action, a fresh trivial action, and an identity
    action that borrows the inversion's name.  The objects have several
    words and several channels, so a cache keyed by the action's name, or
    by the object without the channel, hands out a wrong index map."""
    from gct.cli import _twisted_setup
    from gct.fusion_core import GroupAction
    from gct.morphisms import Mor

    cat, inversion = _twisted_setup(cats["vec_z3"], "inversion")
    same_cat, trivial = _twisted_setup(cat, "trivial")
    assert same_cat is cat
    imposter = GroupAction(inversion.name, trivial.perm.copy())
    eng = engine_for(cat)
    objs = [((0,),), ((1, 2), (0,), (2, 2)), ((2,), (1, 1), (0, 1))]
    rng = np.random.default_rng(5)
    mors = []
    for S, T in itertools.product(objs, repeat=2):
        blocks = {}
        for c in range(eng.rank):
            m, n = eng.vdim(c, T), eng.vdim(c, S)
            if m and n:
                blocks[c] = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        mors.append(Mor(eng, S, T, blocks))
    assert max(len(f.blocks) for f in mors) > 1
    for act in (inversion, trivial, imposter, inversion):
        for g in range(cat.group.order):
            for f in mors:
                warm = eng.transport(f, g, act)
                cold = TreeEngine(cat).transport(f, g, act)
                assert (warm.source, warm.target) == (cold.source, cold.target)
                assert warm.blocks.keys() == cold.blocks.keys()
                for c, B in warm.blocks.items():
                    assert np.array_equal(B, cold.blocks[c])


def test_vobj_helpers():
    assert as_vobj(3) == ((3,),)
    assert as_vobj((1, 2)) == ((1, 2),)
    assert as_vobj(((1,), (2, 0))) == ((1,), (2, 0))
    assert vobj_tensor(((1,), (2,)), ((0,),)) == ((1, 0), (2, 0))


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3", "vec_z2", "vec_z3"])
def test_cached_dims_and_offsets_match_path_counts(cats, name):
    """Per-word and per-object dims and offsets against counted tree paths,
    for every channel and every word of length <= 3."""
    cat = cats[name]
    eng = TreeEngine(cat)  # fresh caches
    chans = range(cat.rank)
    words = [w for n in (1, 2, 3) for w in itertools.product(chans, repeat=n)]
    count = {(c, w): len(eng.paths(c, w)) for c in chans for w in words}
    objs = [tuple(w for w in words if len(w) == n) for n in (1, 2, 3)]
    objs += [tuple(words), tuple(reversed(words))]
    for V in objs:
        for c in chans:
            sizes = [count[(c, w)] for w in V]
            assert eng.vdim(c, V) == sum(sizes)
            assert eng.offsets(c, V) == list(itertools.accumulate(sizes, initial=0))
        assert all(type(n) is int for n in eng.vdims(V))
    for w in words:
        assert eng.word_dims(w) == tuple(count[(c, w)] for c in chans)


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3", "vec_z2", "vec_z3"])
def test_phi_is_the_block_diagonal_of_word_unitaries(cats, name):
    """Phi(a, V, c) against scipy's block_diag of the per-word factorization
    unitaries, for every a and c and every object made of one word of
    length <= 2, of a simple and such a word (either order), or of three
    simples; one-word Phi is the cached unitary itself."""
    cat = cats[name]
    eng = TreeEngine(cat)  # fresh caches
    simples = [(b,) for b in range(cat.rank)]
    words = simples + list(itertools.product(range(cat.rank), repeat=2))
    objs = [(w,) for w in words]
    objs += [V for s in simples for w in words for V in ((s, w), (w, s))]
    objs += list(itertools.product(simples, repeat=3))
    empty = np.zeros((0, 0), dtype=complex)
    checked = 0
    for V in objs:
        for a in range(cat.rank):
            aV = vobj_tensor(((a,),), V)
            for c in range(cat.rank):
                if not eng.vdim(c, aV):
                    continue
                want = scipy.linalg.block_diag(
                    *[eng.factor_unitary(a, w).get(c, empty) for w in V])
                got = eng._phi(a, V, c)
                assert got.shape == want.shape and np.array_equal(got, want)
                assert eng._phi(a, V, c) is got
                if len(V) == 1:
                    assert got is eng.factor_unitary(a, V[0])[c]
                checked += 1
    assert checked > len(objs)


def test_direct_sum_dims_add(cats):
    fib = cats["fib"]
    t = fib.labels.index("t")
    eng = engine_for(fib)
    V = ((t,), (t, t))       # t  (+)  t(x)t
    assert eng.vdim(t, V) == 1 + 1
    assert eng.vdim(fib.unit, V) == 0 + 1
    basis = onb(fib, t, V)
    assert len(basis) == 2
    gram = np.array([[(a.H @ b).scalar() for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(2), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=2),
       st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=2))
def test_pairing_is_sesquilinear(cats, zs, ws):
    fib = cats["fib"]
    t = fib.labels.index("t")
    basis = onb(fib, t, (t, t, t))
    f = zs[0] * basis[0] + zs[1] * basis[1]
    g = ws[0] * basis[0] + ws[1] * basis[1]
    want = np.conj(zs[0]) * ws[0] + np.conj(zs[1]) * ws[1]
    assert abs((f.H @ g).scalar() - want) < 1e-8 * (1 + abs(want))


def test_engine_is_freed_with_its_category():
    cat = load_category(bundled_path("fib"))
    eng = engine_for(cat)
    assert engine_for(cat) is eng
    ref = weakref.ref(cat)
    del cat, eng
    gc.collect()
    assert ref() is None


def test_memos_are_freed_with_their_owners():
    """Extracting the fib center, then taking every product and hom within
    the family, fills the engine, tube and half-braiding memos.  Once the
    category, the tube and the family are dropped, all of them are
    collected: no memo is held anywhere but on its owner."""
    cat = load_category(bundled_path("fib"))
    tube = build_tube(cat)
    fam = [x for g in tube.grades for x in extract_simples(tube, decompose(tube, g))]
    for x, y in itertools.product(fam, repeat=2):
        assert verify_half_braiding(tensor_half_braidings(x, y))["pass"]
        hom_center(x, y)
    refs = [weakref.ref(o) for o in (cat, engine_for(cat), tube, *fam)]
    del cat, tube, fam, x, y
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
