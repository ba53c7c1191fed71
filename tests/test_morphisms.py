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
    decompose,
    engine_for,
    extract_simples,
    hom_center,
    load_category,
    tensor_half_braidings,
    verify_half_braiding,
)
from gct.fusion_core import InternalCheckError, build_crossed_extension
from gct.morphisms import Mor, TreeEngine, as_vobj, residual_max, vobj_tensor

from test_fusion_core import _random_unitary_f, _rep_a4_category, _rep_a4_ring

RNG = np.random.default_rng(20240811)


def test_hom_dims_frozen(cats):
    fib, ising = cats["fib"], cats["ising"]
    t = fib.labels.index("t")
    eng = engine_for(fib)
    assert eng.vdim(t, as_vobj((t, t, t))) == 2
    assert eng.vdim(fib.unit, as_vobj((t, t))) == 1
    assert eng.vdim(fib.unit, as_vobj((t, t, t))) == 1
    sigma = ising.labels.index("sigma")
    psi = ising.labels.index("psi")
    eng = engine_for(ising)
    assert eng.vdim(ising.unit, as_vobj((sigma, sigma))) == 1
    assert eng.vdim(psi, as_vobj((sigma, sigma))) == 1
    assert eng.vdim(sigma, as_vobj((sigma, sigma))) == 0
    assert eng.vdim(sigma, as_vobj((sigma, sigma, sigma))) == 2


def test_hom_dim_pointed_follows_group_law(cats):
    s3 = cats["vec_s3"]
    eng = engine_for(s3)
    for a in range(s3.rank):
        for b in range(s3.rank):
            c = int(np.argmax(s3.N[a, b]))  # the unique fusion product
            assert s3.N[a, b, c] == 1
            for d in range(s3.rank):
                assert eng.vdim(d, ((a, b),)) == (1 if d == c else 0)


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
        basis = eng.onb(c, as_vobj(w))
        assert len(basis) == eng.vdim(c, as_vobj(w))
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
    eng = engine_for(ising)
    f = eng.onb(ising.unit, as_vobj((sigma, sigma)))[0]
    g = eng.onb(psi, as_vobj((sigma, sigma)))[0]
    left_first = eng.rtens(f, (sigma, sigma)) @ eng.ltens((ising.unit,), g)
    right_first = eng.ltens((sigma, sigma), g) @ eng.rtens(f, (psi,))
    assert left_first.diff_norm(right_first) < 1e-10


def test_tensor_respects_composition(cats):
    fib = cats["fib"]
    t = fib.labels.index("t")
    eng = engine_for(fib)
    b = eng.onb(t, as_vobj((t, t)))[0]
    proj = b @ b.H          # End(t t)
    assert (proj @ proj).diff_norm(proj) < 1e-10
    rt = eng.rtens(proj, (t,))
    assert (rt @ rt).diff_norm(rt) < 1e-10
    assert eng.rtens(proj @ proj, (t,)).diff_norm(rt) < 1e-10
    lt = eng.ltens((t,), proj)
    assert eng.ltens((t,), proj @ proj).diff_norm(lt @ lt) < 1e-10


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


# ---------------------------------------------------------------------------
# The letter-by-letter tensor route that the tensor plans replaced, kept as
# their oracle: id_a (x) f is Phi_t^* D Phi_s one letter a at a time, with
# Phi the block diagonal of the per-word factorization unitaries; f (x) id_b
# re-indexes one letter b at a time; a sum of words is tensored word by word
# and scattered into the summand slots.


def _oracle_phi(eng, a, V, c):
    empty = np.zeros((0, 0), dtype=complex)
    return scipy.linalg.block_diag(*[eng.factor_unitary(a, w).get(c, empty) for w in V])


def _oracle_groups(eng, V, mult):
    """Positions grouped by (d, k): for each word of V, each d, each path of
    Hom(d, word) and each k < mult(d), one position, in that order."""
    out, pos = {}, 0
    for w in V:
        dims = eng.word_dims(w)
        for d in range(eng.rank):
            for _ in range(dims[d]):
                for k in range(mult(d)):
                    out.setdefault((d, k), []).append(pos)
                    pos += 1
    return out


def _oracle_ltens_letter(eng, a, f):
    N = eng.cat.N
    src = tuple((a,) + w for w in f.source)
    tgt = tuple((a,) + w for w in f.target)
    blocks = {}
    for c in range(eng.rank):
        if not (eng.vdim(c, src) and eng.vdim(c, tgt)):
            continue
        Ps, Pt = _oracle_phi(eng, a, f.source, c), _oracle_phi(eng, a, f.target, c)
        gs = _oracle_groups(eng, f.source, lambda d: N[a, d, c])
        gt = _oracle_groups(eng, f.target, lambda d: N[a, d, c])
        D = np.zeros((Pt.shape[0], Ps.shape[0]), dtype=complex)
        got = False
        for (d, nu), cols in gs.items():
            if d in f.blocks and (d, nu) in gt:
                D[np.ix_(gt[(d, nu)], cols)] = f.blocks[d]
                got = True
        if got:
            blocks[c] = Pt.conj().T @ D @ Ps
    return Mor(eng, src, tgt, blocks)


def _oracle_rtens_letter(eng, f, b):
    N = eng.cat.N
    src = tuple(w + (b,) for w in f.source)
    tgt = tuple(w + (b,) for w in f.target)
    blocks = {}
    for c in range(eng.rank):
        nt, ns = eng.vdim(c, tgt), eng.vdim(c, src)
        if not (nt and ns):
            continue
        gs = _oracle_groups(eng, f.source, lambda m: N[m, b, c])
        gt = _oracle_groups(eng, f.target, lambda m: N[m, b, c])
        B = np.zeros((nt, ns), dtype=complex)
        got = False
        for (m, mu), cols in gs.items():
            if m in f.blocks and (m, mu) in gt:
                B[np.ix_(gt[(m, mu)], cols)] = f.blocks[m]
                got = True
        if got:
            blocks[c] = B
    return Mor(eng, src, tgt, blocks)


def _oracle_tensor(eng, side, x, f):
    """ltens(x, f) (side "left") or rtens(f, x) (side "right") the old way."""
    V = as_vobj(x)
    if len(V) == 1:
        out = f
        for letter in (reversed(V[0]) if side == "left" else V[0]):
            out = (_oracle_ltens_letter(eng, letter, out) if side == "left"
                   else _oracle_rtens_letter(eng, out, letter))
        return out
    if side == "left":
        src, tgt = vobj_tensor(V, f.source), vobj_tensor(V, f.target)
    else:
        src, tgt = vobj_tensor(f.source, V), vobj_tensor(f.target, V)
    blocks = {}
    for i, w in enumerate(V):
        sub = _oracle_tensor(eng, side, (w,), f)
        for c, B in sub.blocks.items():
            ro, co = eng.offsets(c, tgt), eng.offsets(c, src)
            if side == "left":
                # summand i holds the contiguous words i*n .. (i+1)*n - 1
                nt, ns = len(f.target), len(f.source)
                rows = list(range(ro[i * nt], ro[(i + 1) * nt]))
                cols = list(range(co[i * ns], co[(i + 1) * ns]))
            else:
                # summand i holds the words i, i + len(V), i + 2 len(V), ...
                rows = [p for k in range(i, len(tgt), len(V)) for p in range(ro[k], ro[k + 1])]
                cols = [p for k in range(i, len(src), len(V)) for p in range(co[k], co[k + 1])]
            big = blocks.setdefault(c, np.zeros((eng.vdim(c, tgt), eng.vdim(c, src)), dtype=complex))
            big[np.ix_(rows, cols)] = B
    return Mor(eng, src, tgt, blocks)


def _oracle_category(cats, name):
    if name == "vec_z3^Z2":
        return build_crossed_extension(cats["vec_z3"], "inversion")
    if name == "rep_a4":
        # N = 2 on 3 x 3 -> 3, and random unitary F: no pentagon, generic numbers
        return _rep_a4_category(_random_unitary_f(_rep_a4_ring(), seed=5))
    return cats[name]


def _random_mor(eng, rng, source, target):
    """A random morphism source -> target with every channel present."""
    blocks = {}
    for d in range(eng.rank):
        m, n = eng.vdim(d, target), eng.vdim(d, source)
        if m and n:
            blocks[d] = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return Mor(eng, source, target, blocks)


def _tensor_cases(cat):
    r = cat.rank
    a, b, z = 1 % r, r - 1, 0
    objs = [((a,), (b, a)), ((b,), (a, a), (b, z, a)), ((a, b),)]
    xs = [a, np.int64(b), (b,), (a, b), (b, a, a), ((a,), (b, a)), ((a, b), (z,), (b,))]
    return objs, xs


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3", "vec_z3^Z2", "rep_a4"])
def test_tensor_plans_match_the_letter_by_letter_route(cats, name):
    """ltens and rtens against the oracle above, for random morphisms between
    multi-word, multi-letter objects, with x a simple, a word or a sum of
    words, and with one channel of f absent where the endpoints allow it:
    the same endpoints, the same channels present, and the same blocks to
    1e-14 (exactly on vec_s3, whose F-moves are all trivial)."""
    cat = _oracle_category(cats, name)
    eng = TreeEngine(cat)
    rng = np.random.default_rng(11)
    objs, xs = _tensor_cases(cat)
    worst, n_cmp, dropped = 0.0, 0, 0
    for source, target in itertools.product(objs, repeat=2):
        full = _random_mor(eng, rng, source, target)
        drop = sorted(full.blocks)[:1] if len(full.blocks) > 1 else []
        dropped += len(drop)
        for f in (full, Mor(eng, source, target, {d: B for d, B in full.blocks.items()
                                                  if d not in drop})):
            for x in xs:
                for side in ("left", "right"):
                    got = eng.ltens(x, f) if side == "left" else eng.rtens(f, x)
                    want = _oracle_tensor(eng, side, x, f)
                    assert (got.source, got.target) == (want.source, want.target)
                    assert got.blocks.keys() == want.blocks.keys(), (side, x, source, target)
                    for c, B in want.blocks.items():
                        worst = residual_max(worst, float(np.max(np.abs(got.blocks[c] - B))))
                    n_cmp += 1
    assert dropped and n_cmp == len(objs) ** 2 * 2 * len(xs) * 2
    if name == "vec_s3":
        assert worst == 0.0
    else:
        assert worst < 1e-14, worst


def test_raw_objects_are_normalised_once_per_plan(cats, fib_center, monkeypatch):
    """ltens and rtens accept a simple, an np.int64 letter, a word or a sum of
    words, and normalise it only when their plan is built: a repeated call
    runs as_vobj no more, and E_vobj reaches ltens and rtens without it."""
    import gct.center
    import gct.morphisms

    cat = cats["fib"]
    t = cat.labels.index("t")
    eng = TreeEngine(cat)
    f = _random_mor(eng, np.random.default_rng(2), ((t,), (t, t)), ((t, t), (0,)))
    seen = []
    real = gct.morphisms.as_vobj
    monkeypatch.setattr(gct.morphisms, "as_vobj", lambda x: seen.append(x) or real(x))
    monkeypatch.setattr(gct.center, "as_vobj", gct.morphisms.as_vobj)
    for x, V in ((t, ((t,),)), (np.int64(t), ((t,),)), ((np.int64(t), 0), ((t, 0),)),
                 (((t,), (0, t)), ((t,), (0, t)))):
        for side in ("left", "right"):
            seen.clear()
            got = [eng.ltens(x, f) if side == "left" else eng.rtens(f, x) for _ in range(3)]
            assert len(seen) <= 1, (x, side, seen)
            want = _oracle_tensor(eng, side, V, f)
            for g in got:
                assert (g.source, g.target) == (want.source, want.target)
                assert all(type(a) is int for w in g.source + g.target for a in w)
                assert g.blocks.keys() == want.blocks.keys()
                assert all(np.allclose(g.blocks[c], B, atol=1e-14) for c, B in want.blocks.items())
    fam = fib_center["fam"]
    sums = [y.obj + z.obj for y in fam for z in fam]
    seen.clear()
    for x in fam:
        for V in sums:
            x.E_vobj(V)
    assert seen == []
    # as_vobj still normalises at the public boundary
    eng = engine_for(cat)
    assert eng.vdim(t, as_vobj(np.int64(t))) == eng.vdim(t, ((t,),)) == 1
    assert eng.onb(t, as_vobj((np.int64(t),)))[0].target == ((t,),)


def test_mor_norm_keeps_a_nan_block():
    """Mor.norm is the largest block norm, and a NaN in any block is NaN
    (max(0.0, nan) is 0.0, which would read as a zero morphism)."""
    eng = TreeEngine(load_category(bundled_path("vec_z3")))
    for c in range(3):
        blocks = {d: np.ones((1, 1), dtype=complex) for d in range(3)}
        assert Mor(eng, ((0,), (1,), (2,)), ((0,), (1,), (2,)), blocks).norm() == 1.0
        blocks[c] = np.full((1, 1), np.nan, dtype=complex)
        got = Mor(eng, ((0,), (1,), (2,)), ((0,), (1,), (2,)), blocks).norm()
        assert got != got, c


def test_conjugate_residual_keeps_a_nan(cats, monkeypatch):
    """The four conjugate-equation residuals are folded NaN-aware: a NaN in
    R after a clean first zig-zag reads NaN, not the other three's max."""
    fib = cats["fib"]
    t = fib.labels.index("t")
    eng = TreeEngine(fib)
    pair = eng.conjugates(t)
    assert eng.conjugate_residual(t, pair.R, pair.Rbar) < 1e-12
    monkeypatch.setattr(TreeEngine, "_zig", lambda self, Rbar, R, a: self.identity(a))
    bad = Mor(eng, pair.R.source, pair.R.target,
              {c: np.full_like(B, np.nan) for c, B in pair.R.blocks.items()})
    got = eng.conjugate_residual(t, bad, pair.Rbar)
    assert got != got


def test_adjoint_is_antimultiplicative_involution(cats):
    ising = cats["ising"]
    sigma = ising.labels.index("sigma")
    b = engine_for(ising).onb(ising.unit, as_vobj((sigma, sigma)))[0]
    assert b.H.H.diff_norm(b) == 0.0
    prod = b @ b.H
    assert prod.H.diff_norm(b @ b.H) < 1e-12
    assert (b.H @ b).scalar() == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["fib", "ising", "vec_z2", "vec_z3", "vec_s3"])
def test_conjugates_solve_the_duality_equations(cats, name):
    cat = cats[name]
    for a in range(cat.rank):
        pair = engine_for(cat).conjugates(a)
        assert pair.residual < 1e-9
        # normalisation: R*R = d(a)
        assert (pair.R.H @ pair.R).scalar() == pytest.approx(
            float(cat.qdim[a]), abs=1e-9)


def test_frobenius_schur_indicators_frozen(cats):
    fib, ising = cats["fib"], cats["ising"]
    assert engine_for(fib).conjugates(fib.labels.index("t")).fs_indicator == pytest.approx(1.0)
    assert engine_for(ising).conjugates(ising.labels.index("psi")).fs_indicator == pytest.approx(1.0)
    assert engine_for(ising).conjugates(ising.labels.index("sigma")).fs_indicator == pytest.approx(1.0)
    # non-self-dual labels carry no indicator
    z3 = cats["vec_z3"]
    assert engine_for(z3).conjugates(1).fs_indicator == 0.0


def test_frobenius_transpose_is_isometric(cats):
    ising = cats["ising"]
    sigma = ising.labels.index("sigma")
    psi = ising.labels.index("psi")
    eng = engine_for(ising)
    for zeta in range(ising.rank):
        basis = eng.onb(zeta, as_vobj((sigma, psi, sigma)))
        flipped = [eng.frobenius_transpose(b) for b in basis]
        for i, fi in enumerate(flipped):
            # lands in Hom(sigma-bar, zeta-bar sigma psi)
            assert fi.source == ((int(ising.dual[sigma]),),)
            assert fi.target == ((int(ising.dual[zeta]), sigma, psi),)
            for j, fj in enumerate(flipped):
                got = (fi.H @ fj).scalar()
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-9


def test_transport_is_a_unitary_action(cats):
    z3 = cats["vec_z3"]
    eng = engine_for(z3)
    act = z3.action("inversion")
    g = 1  # the involution
    b = eng.onb(0, as_vobj((1, 2)))[0]
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


# -- unit letters: the path-signature re-indexing as the oracle of the relabel


def _oracle_drop_perm(eng, c, w, dels):
    """Index map paths(c, w) -> paths(c, w without its unit letters at dels):
    a path's signature is its steps at the kept letters after the first kept
    one, and it is looked up among the paths of the shorter word."""
    assert all(w[k] == eng.unit for k in dels)
    first_kept = next(i for i in range(len(w)) if i not in dels)
    tgt_index = eng.path_index(c, tuple(t for i, t in enumerate(w) if i not in dels))
    perm = [tgt_index[tuple(p[k - 1] for k in range(1, len(w))
                            if k not in dels and k != first_kept)]
            for p in eng.paths(c, w)]
    assert sorted(perm) == list(range(len(perm)))
    return np.array(perm, dtype=int)


def _oracle_vobj_perm(eng, c, vobj, positions):
    """The oracle's index map on an object, word by word, with a negative
    position counted from the end of each word."""
    specs = [tuple(sorted(k % len(w) for k in positions)) for w in vobj]
    short = tuple(tuple(t for i, t in enumerate(w) if i not in d) for w, d in zip(vobj, specs))
    offs = eng.offsets(c, short)
    parts = [_oracle_drop_perm(eng, c, w, d) + offs[k]
             for k, (w, d) in enumerate(zip(vobj, specs))]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=int)


def _oracle_drop(eng, f, where, positions):
    """drop_units by the oracle's re-indexing of every block of f."""
    long = f.source if where == "source" else f.target
    blocks = {}
    for c, B in f.blocks.items():
        perm = _oracle_vobj_perm(eng, c, long, positions)
        nB = np.empty_like(B)
        if where == "source":
            nB[:, perm] = B
        else:
            nB[perm, :] = B
        blocks[c] = nB
    short = tuple(tuple(t for i, t in enumerate(w) if i not in {k % len(w) for k in positions})
                  for w in long)
    if where == "source":
        return Mor(eng, short, f.target, blocks)
    return Mor(eng, f.source, short, blocks)


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3", "vec_z2", "vec_z3", "rep_a4"])
def test_dropping_unit_letters_keeps_the_path_order(cats, name):
    """For every channel, every word of up to 4 letters and every set of
    its unit positions that leaves a letter, the path-signature map is the
    identity: why drop_units and insert_units keep every block as it is.
    The case counts pin the enumeration (channels with Hom(c, w) nonzero)."""
    cat = _oracle_category(cats, name)
    eng = TreeEngine(cat)
    cases = 0
    for n in range(1, 5):
        for w in itertools.product(range(cat.rank), repeat=n):
            units = [k for k, t in enumerate(w) if t == cat.unit]
            for r in range(1, len(units) + (len(units) < n)):
                for dels in itertools.combinations(units, r):
                    for c in range(cat.rank):
                        if eng.dim(c, w):
                            perm = _oracle_drop_perm(eng, c, w, dels)
                            assert np.array_equal(perm, np.arange(len(perm))), (c, w, dels)
                            cases += 1
    assert cases == {"fib": 111, "ising": 249, "vec_s3": 1242, "vec_z2": 86,
                     "vec_z3": 216, "rep_a4": 583}[name]


@pytest.mark.parametrize("name", ["fib", "ising", "vec_s3", "vec_z3^Z2", "rep_a4"])
def test_unit_relabels_match_the_oracle_on_sums_of_words(cats, name):
    """drop_units and insert_units, on either endpoint of a random morphism
    between sums of words of different lengths, equal the oracle's
    re-indexing: the same endpoints and the same blocks, exactly."""
    cat = _oracle_category(cats, name)
    eng = TreeEngine(cat)
    u, a, b = cat.unit, 1 % cat.rank, cat.rank - 1
    rng = np.random.default_rng(3)
    cases = [
        (((a, u, b), (u, u, a), (b, u, a, u)), (1,)),
        (((a, u), (b, a, u), (u, a, b, u)), (-1,)),
        (((u, a, u), (u, b, u), (u, a, b, u)), (0, -1)),
        (((u, a, b), (u, u)), (0,)),
    ]
    other = ((a, b), (b,), (a, a, b))
    for long, positions in cases:
        f = _random_mor(eng, rng, long, other)
        assert f.blocks
        for g, where in ((f, "source"), (f.H, "target")):
            got, want = eng.drop_units(g, where, positions), _oracle_drop(eng, g, where, positions)
            assert (got.source, got.target) == (want.source, want.target)
            assert got.blocks.keys() == want.blocks.keys()
            for c, B in want.blocks.items():
                assert np.array_equal(got.blocks[c], B)
            # insert_units is the inverse: the oracle's drop of its result is g
            back = eng.insert_units(got, where, positions)
            assert (back.source, back.target) == (g.source, g.target)
            again = _oracle_drop(eng, back, where, positions)
            for c, B in got.blocks.items():
                assert np.array_equal(again.blocks[c], B)


def test_unit_relabels_refuse_what_is_no_unit_isomorphism(cats):
    """Dropping a non-unit letter, a position past the end, or every letter
    of a word raises; position -1 drops the last letter of words of
    different lengths; and insert followed by drop gives back f."""
    cat = cats["ising"]
    eng = TreeEngine(cat)
    u, s = cat.unit, cat.labels.index("sigma")
    f = eng.identity(((s, u), (s, s, u)))
    for positions in ((0,), (1,), (-2,), (2,)):
        with pytest.raises(InternalCheckError):
            eng.drop_units(f, "source", positions)
    for w in (((u,),), ((u, u),)):
        with pytest.raises(InternalCheckError, match="every letter"):
            eng.drop_units(eng.identity(w), "target", tuple(range(len(w[0]))))
    with pytest.raises(InternalCheckError, match="every letter"):
        eng.drop_units(eng.identity(((u, u),)), "source", (0, -1))
    g = eng.drop_units(f, "target", (-1,))
    assert (g.source, g.target) == (f.source, ((s,), (s, s)))
    assert all(g.blocks[c] is B for c, B in f.blocks.items())
    h = eng.identity(((s,), (s, s)))
    for positions in ((0,), (1,), (-1,), (0, 2), (0, -1), (1, -1)):
        for where in ("source", "target"):
            grown = eng.insert_units(h, where, positions)
            assert (grown.source if where == "source" else grown.target) != h.source
            back = eng.drop_units(grown, where, positions)
            assert (back.source, back.target) == (h.source, h.target)
            assert back.blocks.keys() == h.blocks.keys()
            assert all(back.blocks[c] is B for c, B in h.blocks.items())
    assert eng.insert_units(h, "source", (-1,)).source == ((s, u), (s, s, u))
    assert eng.insert_units(h, "source", (0, -1)).source == ((u, s, u), (u, s, s, u))
    with pytest.raises(ValueError):
        eng.drop_units(f, "middle", (1,))


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
    """Phi(a, V, c) of the one-letter left tensor plan against scipy's
    block_diag of the per-word factorization
    unitaries, for every a and c and every object made of one word of
    length <= 2, of a simple and such a word (either order), or of three
    simples; one-word Phi is the memoised unitary itself."""
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
                got = eng._left_side(((a,),), V)[c][1]
                assert got.shape == want.shape and np.array_equal(got, want)
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
    basis = eng.onb(t, V)
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
    basis = engine_for(fib).onb(t, as_vobj((t, t, t)))
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
