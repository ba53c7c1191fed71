"""Category container: loading, grading, duals, actions, derived categories."""

import copy
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gct
from gct import fusion_core
from gct import (
    DataError,
    GradedCategory,
    GroupData,
    ValidationError,
    build_crossed_extension,
    bundled_path,
    category_from_dict,
    fp_dimensions,
    load_category,
    trivially_graded,
    verify_action,
    verify_pentagon,
)
from gct.cli import _twisted_setup
from gct.fusion_core import GroupAction, fusion_ring_failure, neutrally_graded

from conftest import BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_loads(cats, name):
    cat = cats[name]
    assert cat.rank == len(cat.labels)
    assert cat.N.shape == (cat.rank,) * 3
    # the unit is degree-neutral
    assert int(cat.deg[cat.unit]) == cat.group.neutral


@pytest.mark.parametrize("name", BUNDLED)
def test_pentagon_residuals(cats, name):
    rep = verify_pentagon(cats[name])
    assert rep["pass"], rep
    assert rep["max_residual"] < 1e-12


@pytest.mark.parametrize("name", BUNDLED)
def test_grading_multiplicative(cats, name):
    cat = cats[name]
    G = cat.group
    for a in range(cat.rank):
        for b in range(cat.rank):
            for c in np.nonzero(cat.N[a, b])[0]:
                assert int(cat.deg[c]) == G.mul(int(cat.deg[a]), int(cat.deg[b]))


@pytest.mark.parametrize("name", BUNDLED)
def test_dual_grading_inverse(cats, name):
    cat = cats[name]
    for a in range(cat.rank):
        assert int(cat.deg[cat.dual[a]]) == cat.group.inv(int(cat.deg[a]))


@pytest.mark.parametrize("name", BUNDLED)
def test_qdims_match_perron_frobenius(cats, name):
    cat = cats[name]
    fp = fp_dimensions(cat)
    for i, lab in enumerate(cat.labels):
        assert fp[lab] == pytest.approx(cat.qdim[i], abs=1e-9)


def test_group_data_z2():
    G = GroupData(("e", "u"), np.array([[0, 1], [1, 0]]))
    assert G.neutral == 0 and G.order == 2
    assert G.inv(1) == 1


def test_action_inversion_is_strict(cats):
    rep = verify_action(cats["vec_z3"], "inversion")
    assert rep["pass"], rep["failures"]
    assert rep["max_deviation"] == 0.0


@pytest.mark.parametrize("where", ["qdim", "F"])
def test_a_nan_fails_the_action_check(where):
    """Python's max(0.0, nan) is 0.0 and nan > tol is false, so a NaN
    deviation read as a strict action."""
    cat = load_category(bundled_path("vec_z3"))
    if where == "qdim":
        cat.qdim[1] = np.nan
    else:
        cat.f_entries().block(1, 1, 1, 0)[0, 0] = np.nan  # the table every reader shares
    rep = verify_action(cat, "inversion")
    assert not rep["pass"]
    assert np.isnan(rep["max_deviation"])
    assert rep["failures"]


def test_unknown_action_name(cats):
    with pytest.raises(DataError):
        cats["vec_z3"].action("flip")


def test_trivially_graded_forgets_grading(cats):
    flat = trivially_graded(cats["ising"])
    assert flat.group.order == 1
    assert set(flat.neutral_sector()) == set(range(flat.rank))
    assert np.array_equal(flat.N, cats["ising"].N)


def test_crossed_extension_of_z3(cats):
    ext = build_crossed_extension(cats["vec_z3"], "inversion")
    assert ext.rank == 6
    assert sorted(int(d) for d in ext.deg) == [0, 0, 0, 1, 1, 1]
    # fusion of the extension is the S3 group law: three involutions, the
    # labels g other than the unit whose square g g contains the unit
    invs = [g for g in range(6) if g != ext.unit and ext.N[g, g, ext.unit]]
    assert len(invs) == 3


# ------------------------------------------------------------ pentagon oracle
#
# The per-quadruple route that verify_pentagon replaced, kept as its oracle.
# A basis vector of Hom(t, abcd) is a trivalent tree, read as the label
# (u, i, v, j, k): inner edges u, v and multiplicity indices i, j, k at its
# three vertices.  Each vertex is (left, right, out) over the symbols below;
# the first one always fuses two leaves into u.
_A, _B, _C, _D, _T, _U, _V = range(7)
_TREES = (
    ((_A, _B, _U), (_U, _C, _V), (_V, _D, _T)),  # 0: ((ab)c)d
    ((_B, _C, _U), (_A, _U, _V), (_V, _D, _T)),  # 1: (a(bc))d
    ((_B, _C, _U), (_U, _D, _V), (_A, _V, _T)),  # 2: a((bc)d)
    ((_C, _D, _U), (_B, _U, _V), (_A, _V, _T)),  # 3: a(b(cd))
    ((_A, _B, _U), (_C, _D, _V), (_U, _V, _T)),  # 4: (ab)(cd)
)
# An F-move from a column tree to a row tree: the F key over the row
# label's symbols, then the label positions of the spectator vertex's edge
# and multiplicity in the row and in the column label.  The other three
# positions are the left (row) and right (column) channel of the F block.
_MOVES = (
    (4, 3, (_A, _B, _V, _T), (2, 3), (0, 1)),  # m45
    (0, 4, (_U, _C, _D, _T), (0, 1), (0, 1)),  # m51
    (2, 3, (_B, _C, _D, _V), (2, 4), (2, 4)),  # m43
    (1, 2, (_A, _U, _D, _T), (0, 1), (0, 1)),  # m32
    (0, 1, (_A, _B, _C, _V), (2, 4), (2, 4)),  # m21
)


def _tree_basis(N, sym: list, tree) -> list:
    """Labels of one tree in lexicographic order (u outermost, i outside v).
    ``sym`` holds a, b, c, d, t; its u and v slots are scratch."""
    (l0, r0, _), (l1, r1, o1), (l2, r2, o2) = tree
    out = []
    for u in range(len(N)):
        sym[_U] = u
        for i in range(N[sym[l0], sym[r0], u]):
            for v in range(len(N)):
                sym[_V] = v
                for j in range(N[sym[l1], sym[r1], sym[o1]]):
                    out.extend((u, i, v, j, k) for k in range(N[sym[l2], sym[r2], sym[o2]]))
    return out


def _f_block(cat, key) -> tuple:
    """F^{abc}_d read from cat.F on its own (the identity where the dict is
    silent), with the positions of its left and right channels."""
    lch, rch = cat.left_channels(*key), cat.right_channels(*key)
    block = cat.F.get(key)
    if block is None:
        block = np.eye(len(lch), dtype=complex)
    return block, {ch: i for i, ch in enumerate(lch)}, {ch: i for i, ch in enumerate(rch)}


def _move_matrix(cat, sym: list, rows: list, cols: list, key, rs, cs) -> np.ndarray:
    """One F-move; each entry is one entry of one F block."""
    rl, cl = ([p for p in range(5) if p not in spec] for spec in (rs, cs))
    by_spectator: dict = {}
    for col, lab in enumerate(cols):
        by_spectator.setdefault((lab[cs[0]], lab[cs[1]]), []).append((col, tuple(lab[p] for p in cl)))
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for row, lab in enumerate(rows):
        sym[_U], sym[_V] = lab[0], lab[2]
        fkey = tuple(sym[p] for p in key)
        fb, lpos, rpos = _f_block(cat, fkey)
        left = lpos[tuple(lab[p] for p in rl)]
        for col, right in by_spectator.get((lab[rs[0]], lab[rs[1]]), ()):
            out[row, col] = fb[left, rpos[right]]
    return out


def _pentagon_entries(cat, a, b, c, d) -> np.ndarray:
    """|route 1 - route 2| at every instance of one quadruple, every root t:
    the two-move product m51 m45 against the three-move m21 m32 m43."""
    N = cat.N
    out = []
    for t in np.flatnonzero(N[a, b] @ N[:, c, :] @ N[:, d, :]).tolist():
        sym = [a, b, c, d, t, 0, 0]
        bases = [_tree_basis(N, sym, tree) for tree in _TREES]
        m45, m51, m43, m32, m21 = (_move_matrix(cat, sym, bases[r], bases[s], *rest)
                                   for r, s, *rest in _MOVES)
        out.append(np.abs(m51 @ m45 - m21 @ m32 @ m43).ravel())
    return np.concatenate(out) if out else np.zeros(0)


def _pentagon_residual(cat, a, b, c, d) -> float:
    """The oracle's residual of one quadruple (0.0 without instances)."""
    return fusion_core.residual_max(0.0, *_pentagon_entries(cat, a, b, c, d).tolist())


def _oracle_report(cat) -> tuple:
    """(max residual, worst_at) folded quadruple by quadruple: the first
    quadruple to exceed every earlier one, and the first NaN."""
    worst, worst_at = 0.0, None
    for key in itertools.product(range(cat.rank), repeat=4):
        res = _pentagon_residual(cat, *key)
        if res > worst or (res != res and worst == worst):
            worst, worst_at = res, tuple(cat.labels[k] for k in key)
    return worst, worst_at


# ------------------------------------------------- pentagon with multiplicities


def _rep_a4_ring():
    """N of Rep(A4): 1, 1', 1'' form Z3, each fixes 3, and
    3 x 3 = 1 + 1' + 1'' + 2*3."""
    N = np.zeros((4, 4, 4), dtype=int)
    for x in range(4):
        N[0, x, x] = N[x, 0, x] = 1
    N[1, 1, 2] = N[2, 2, 1] = N[1, 2, 0] = N[2, 1, 0] = 1
    for x in range(3):
        N[x, 3, 3] = N[3, x, 3] = N[3, 3, x] = 1
    N[3, 3, 3] = 2
    return N


def _random_unitary_f(N, seed):
    """A seeded random unitary for every F block with no unit among a, b, c;
    the others stay the identity the loader defaults them to."""
    rng = np.random.default_rng(seed)
    F = {}
    for a, b, c, d in itertools.product(range(1, len(N)), range(1, len(N)),
                                        range(1, len(N)), range(len(N))):
        n = int(N[a, b] @ N[:, c, d])
        if n:
            q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            F[(a, b, c, d)] = q * (np.diag(r) / np.abs(np.diag(r)))
    return F


def _reference_pentagon(N, F, a, b, c, d):
    """Both pentagon routes in index form, summed entry by entry:

    sum_r F^{xcd}_t[(y,m2,m3),(w,n1,r)] F^{abw}_t[(x,m1,r),(z,n2,n3)]
      = sum_{v,k1,l1,k2} F^{abc}_y[(x,m1,m2),(v,k1,l1)]
          F^{avd}_t[(y,l1,m3),(z,k2,n3)] F^{bcd}_z[(v,k1,k2),(w,n1,n2)]

    with channels of F^{pqr}_s listed as (e, mu, nu) and (f, kappa, lam)."""
    N = N.tolist()  # python ints index faster than numpy scalars
    R = range(len(N))
    blocks = {}  # (p, q, r, s) -> (F block, left position, right position)

    def entry(p, q, r, s, left, right):
        got = blocks.get((p, q, r, s))
        if got is None:
            lch = [(e, mu, nu) for e in R for mu in range(N[p][q][e]) for nu in range(N[e][r][s])]
            rch = [(f, ka, la) for f in R for ka in range(N[q][r][f]) for la in range(N[p][f][s])]
            got = blocks[p, q, r, s] = (F.get((p, q, r, s), np.eye(len(lch))),
                                        {ch: k for k, ch in enumerate(lch)},
                                        {ch: k for k, ch in enumerate(rch)})
        mat, lpos, rpos = got
        return mat[lpos[left], rpos[right]]

    worst = 0.0
    for t, x, y, w, z in itertools.product(R, repeat=5):
        if not (N[a][b][x] and N[x][c][y] and N[y][d][t] and N[c][d][w]
                and N[b][w][z] and N[a][z][t]):
            continue  # no multiplicity indices to sum over
        for m1, m2, m3, n1, n2, n3 in itertools.product(
                range(N[a][b][x]), range(N[x][c][y]), range(N[y][d][t]),
                range(N[c][d][w]), range(N[b][w][z]), range(N[a][z][t])):
            one = sum(entry(x, c, d, t, (y, m2, m3), (w, n1, r))
                      * entry(a, b, w, t, (x, m1, r), (z, n2, n3))
                      for r in range(N[x][w][t]))
            two = sum(entry(a, b, c, y, (x, m1, m2), (v, k1, l1))
                      * entry(a, v, d, t, (y, l1, m3), (z, k2, n3))
                      * entry(b, c, d, z, (v, k1, k2), (w, n1, n2))
                      for v in R for k1 in range(N[b][c][v]) for l1 in range(N[a][v][y])
                      for k2 in range(N[v][d][z]))
            worst = max(worst, abs(one - two))
    return worst


def _rep_a4_category(F):
    """The Rep(A4) ring with the F blocks F, through the loader."""
    N = _rep_a4_ring()
    data = {
        "rank": 4, "labels": ["1", "1'", "1''", "3"], "dual": [0, 2, 1, 3],
        "qdim": [1.0, 1.0, 1.0, 3.0],
        "N": [[a, b, c, int(N[a, b, c])] for a, b, c in np.argwhere(N).tolist()],
        "F": [{"abcd": list(key), "matrix": [[[z.real, z.imag] for z in row] for row in mat]}
              for key, mat in F.items()],
    }
    return category_from_dict(data, "rep_a4_random")


def test_pentagon_residual_with_multiplicities():
    """Rep(A4)'s ring has N = 2, so the move matrices mix multiplicity
    indices; random unitary F makes every residual a generic number."""
    N = _rep_a4_ring()
    F = _random_unitary_f(N, seed=5)
    cat = _rep_a4_category(F)
    assert max(m.shape[0] for m in cat.F.values()) == 7
    worst = 0.0
    for key in itertools.product(range(4), repeat=4):
        got = _pentagon_residual(cat, *key)
        assert got == pytest.approx(_reference_pentagon(N, F, *key), abs=1e-12), key
        worst = max(worst, got)
    rep = verify_pentagon(cat)
    assert rep["max_residual"] == pytest.approx(worst, abs=1e-14)
    assert worst > 0.1 and not rep["pass"]


def _vec_zn(n, omega=0):
    """Vec_Z_n; with omega = p, twisted by the 3-cocycle
    F^{abc} = exp(2 pi i p a floor((b + c) / n) / n), whose F entries, conjugate
    pairs and star are complex."""
    data = {
        "rank": n,
        "labels": [str(a) for a in range(n)],
        "dual": [(-a) % n for a in range(n)],
        "qdim": [1.0] * n,
        "N": [[a, b, (a + b) % n, 1] for a in range(n) for b in range(n)],
    }
    if omega:
        data["F"] = [{"abcd": [a, b, c, (a + b + c) % n], "rows": [[(a + b) % n, 0, 0]],
                      "cols": [[(b + c) % n, 0, 0]], "matrix": [[[w.real, w.imag]]]}
                     for a, b, c in itertools.product(range(n), repeat=3)
                     for w in [np.exp(2j * np.pi * omega * a * ((b + c) // n) / n)]]
    return data


def _vec_z8():
    return category_from_dict({
        "rank": 8, "labels": [str(a) for a in range(8)],
        "dual": [(-a) % 8 for a in range(8)], "qdim": [1.0] * 8,
        "N": [[a, b, (a + b) % 8, 1] for a in range(8) for b in range(8)],
    }, "vec_z8")


ORACLE_INPUTS = {
    **{name: lambda name=name: load_category(bundled_path(name)) for name in BUNDLED},
    "vec_z3-crossed": lambda: build_crossed_extension(
        load_category(bundled_path("vec_z3")), "inversion"),
    "vec_z8": _vec_z8,
    "rep_a4_random": lambda: _rep_a4_category(_random_unitary_f(_rep_a4_ring(), seed=5)),
}


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_batched_pentagon_matches_the_oracle(name):
    """Every instance of every quadruple: the batched residuals equal the
    oracle's |m51 m45 - m21 m32 m43| entries to 1e-14 (compared sorted per
    quadruple, so as multisets), and the report's maximum and worst_at
    are the oracle's fold."""
    cat = ORACLE_INPUTS[name]()
    R = cat.rank
    res, quad = fusion_core._Pentagon(cat).residuals(0, R)
    order = np.lexsort((res, quad))
    res, quad = res[order], quad[order]
    cuts = np.searchsorted(quad, np.arange(R ** 4 + 1))
    for code, key in enumerate(itertools.product(range(R), repeat=4)):
        want = np.sort(_pentagon_entries(cat, *key))
        got = res[cuts[code]:cuts[code + 1]]
        assert got.shape == want.shape, key
        assert np.abs(got - want).max(initial=0.0) <= 1e-14, key
    worst, worst_at = _oracle_report(cat)
    rep = verify_pentagon(cat)
    assert rep["max_residual"] == pytest.approx(worst, abs=1e-14)
    assert rep["worst_at"] == worst_at
    assert rep["pass"] == (name != "rep_a4_random")


@pytest.mark.parametrize("name", [*BUNDLED, "rep_a4"])
def test_channel_lists_follow_the_fusion_rules(cats, name):
    """The channel orders that F blocks, tree paths and the closed-form
    tube constants share: lexicographic over every label."""
    cat = _rep_a4_category({}) if name == "rep_a4" else cats[name]
    N, labels = cat.N, range(cat.rank)
    for a, b in itertools.product(labels, repeat=2):
        assert cat.fusion_channels(a, b) == tuple(
            (c, int(N[a, b, c])) for c in labels if N[a, b, c])
    for a, b, c, d in itertools.product(labels, repeat=4):
        assert cat.left_channels(a, b, c, d) == [
            (e, mu, nu) for e in labels for mu in range(N[a, b, e])
            for nu in range(N[e, c, d])]
        assert cat.right_channels(a, b, c, d) == [
            (f, kappa, lam) for f in labels for kappa in range(N[b, c, f])
            for lam in range(N[a, f, d])]


def test_pentagon_fails_on_a_sign_flipped_f_row():
    data = json.loads(open(bundled_path("fib")).read())
    (block,) = data["F"]
    block["matrix"][1] = [[-re, -im] for re, im in block["matrix"][1]]
    cat = category_from_dict(data, "fib_flipped")
    rep = verify_pentagon(cat)
    assert not rep["pass"] and rep["max_residual"] > 0.1
    labels = {cat.labels[k] for k in block["abcd"]}
    assert labels <= set(rep["worst_at"])


def test_broken_unit_rejected():
    data = json.loads(open(bundled_path("vec_z2")).read())
    data["N"] = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]]
    with pytest.raises(ValidationError):
        category_from_dict(data, "broken")


def test_bad_schema_rejected():
    with pytest.raises(DataError):
        category_from_dict({"rank": 2}, "incomplete")


def test_version_exported():
    assert gct.__version__


# ------------------------------------------------------- malformed input


def _json_paths(node, prefix=()):
    """Every position in a parsed JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    """A deep copy of doc with the value at path (the root for ()) replaced."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


with open(bundled_path("ising")) as _fh:
    ISING = json.load(_fh)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=150)
@given(path=st.sampled_from(list(_json_paths(ISING))), value=JSON_VALUES)
def test_any_corrupted_field_ends_in_a_clean_error(path, value):
    """One position of ising.json replaced by any JSON value (NaN and
    infinities included): the loader returns a category or raises
    DataError/ValidationError, never another exception."""
    try:
        category_from_dict(_replaced(ISING, path, value), "fuzzed")
    except (DataError, ValidationError):
        pass


@pytest.mark.parametrize("path", [("qdim", 1), ("F", 2, "matrix", 0, 0, 0)])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_numbers_are_rejected(path, value):
    """A NaN passes every residual-below-tolerance test, so it must be
    stopped at load time."""
    with pytest.raises(DataError, match="finite"):
        category_from_dict(_replaced(ISING, path, value), "non-finite")


@pytest.mark.parametrize("path, value", [
    (("qdim", 2), "1.4142135623730951"),
    (("qdim", 2), True),
    (("F", 2, "matrix", 0, 0, 1), False),
    (("F", 2, "matrix", 0, 0), [0.7071067811865476, 0.0, 0.5]),
], ids=["qdim-string", "qdim-bool", "f-bool", "f-three-components"])
def test_non_numbers_are_rejected(path, value):
    """float() reads "1.5" and true, and complex(*entry[:2]) would drop a
    third component, so each must be refused at load time."""
    with pytest.raises(DataError, match="must hold numbers|must be \\[re, im\\]"):
        category_from_dict(_replaced(ISING, path, value), "non-number")


def test_a_nan_f_entry_fails_the_pentagon():
    """A NaN put into one F block after loading (the loader refuses it)
    makes that quadruple's residual NaN and the pentagon fail: the folds
    over channels and quadruples do not drop it as max(0.0, nan) does."""
    cat = load_category(bundled_path("fib"))
    t = cat.labels.index("t")
    key = (t, t, t, t)
    bad = cat.F[key].copy()
    bad[1, 1] = np.nan
    cat.F[key] = bad
    got = _pentagon_residual(cat, t, t, t, t)
    assert got != got
    rep = verify_pentagon(cat)
    assert rep["max_residual"] != rep["max_residual"] and not rep["pass"]
    assert rep["worst_at"] == _oracle_report(cat)[1]


# ---------------------------------------------------------------------------
# actions and the crossed extension, against the per-block loops that
# verify_action's F check and build_crossed_extension's F ran before they
# gathered from the F-entry table; the loops read F from cat.F on their own


def _action_oracle(cat, act) -> list:
    """Per g: the largest deviation of an F block from its image under g,
    and the first block in lexicographic order that g changes (or None)."""
    dims = np.einsum("abe,ecd->abcd", cat.N, cat.N)
    keys = [tuple(key) for key in np.argwhere(dims).tolist()]
    out = []
    for p in act.perm:
        worst, first = 0.0, None
        for key in keys:
            src = _f_block(cat, key)[0]
            dst, lpos, rpos = _f_block(cat, tuple(int(p[x]) for x in key))
            rows = [lpos[(int(p[e]), mu, nu)] for e, mu, nu in cat.left_channels(*key)]
            cols = [rpos[(int(p[f]), ka, la)] for f, ka, la in cat.right_channels(*key)]
            dev = float(np.abs(dst[np.ix_(rows, cols)] - src).max())
            worst = fusion_core.residual_max(worst, dev)
            if first is None and not dev <= fusion_core.ATOL:
                first = key
        out.append((worst, first))
    return out


def _extension_oracle(d0, act, ext) -> dict:
    """The F dict of the crossed extension ext of d0 under act: each letter
    transported through the inverse of the degrees to its right."""
    G, r0 = d0.group, d0.rank
    F = {}
    for g, h, k in itertools.product(range(G.order), repeat=3):
        ghk = G.mul(G.mul(g, h), k)
        t_a, t_b = G.inv(G.mul(h, k)), G.inv(k)
        for a, b, c, d in itertools.product(range(r0), repeat=4):
            block, lpos, rpos = _f_block(d0, (act.on_label(t_a, a), act.on_label(t_b, b), c, d))
            if block.size == 0:
                continue
            key = (g * r0 + a, h * r0 + b, k * r0 + c, ghk * r0 + d)
            F[key] = np.array(
                [[block[lpos[(act.on_label(t_b, e % r0), mu, nu)], rpos[(f % r0, ka, la)]]
                  for f, ka, la in ext.right_channels(*key)]
                 for e, mu, nu in ext.left_channels(*key)], dtype=complex)
    return F


_ROTATION = [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]  # Z3 on Z2 x Z2, fixing 0


def _vec_z2z2(symmetric=True) -> GradedCategory:
    """Vec_{Z2 x Z2} twisted by (-1)^T for a trilinear form T, with Z3
    rotating the three nonzero labels.  T sums a1 b2 c2 over the rotation's
    orbit, so the action is strict and its F entries are signs; with
    symmetric=False, T = a1 b2 c2 and the rotation changes F."""
    def t(a, b, c):
        return sum((m[a] & 1) * (m[b] >> 1) * (m[c] >> 1)
                   for m in _ROTATION[:3 if symmetric else 1])

    return category_from_dict({
        "rank": 4, "labels": ["0", "a", "b", "c"], "dual": [0, 1, 2, 3], "qdim": [1.0] * 4,
        "group": {"elements": ["e", "r", "rr"], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "N": [[a, b, a ^ b, 1] for a in range(4) for b in range(4)],
        "F": [{"abcd": [a, b, c, a ^ b ^ c], "matrix": [[[(-1.0) ** t(a, b, c), 0.0]]]}
              for a, b, c in itertools.product(range(4), repeat=3)],
        **({"action": {"name": "rotation", "perm": dict(zip(["e", "r", "rr"], _ROTATION))}}
           if symmetric else {}),
    }, "vec_z2z2")


def _rotated(cat):
    """cat with the Z3 rotation attached, whether or not it is strict."""
    return neutrally_graded(cat, cat.group, {"rotation": GroupAction("rotation", np.array(_ROTATION))})


def _z3_omega_inverted():
    """Vec_Z3 with the cocycle of `_vec_zn(3, omega=1)`, regraded by Z2
    acting by inversion, which changes its F."""
    cat = category_from_dict(_vec_zn(3, omega=1), "vec_z3_omega")
    z2 = GroupData(("e", "i"), np.array([[0, 1], [1, 0]]))
    return neutrally_graded(cat, z2, {"inversion": GroupAction(
        "inversion", np.array([[0, 1, 2], [0, 2, 1]]))})


ACTION_CASES = {
    "vec_z3-inversion": lambda: _twisted_setup(load_category(bundled_path("vec_z3")), "inversion"),
    "vec_z3-trivial": lambda: _twisted_setup(load_category(bundled_path("vec_z3")), "trivial"),
    "vec_z2-trivial": lambda: _twisted_setup(load_category(bundled_path("vec_z2")), "trivial"),
    "vec_z2z2-rotation": lambda: _twisted_setup(_vec_z2z2(), "rotation"),
}
FAILING_ACTIONS = {
    "vec_z3_omega-inversion": lambda: (_z3_omega_inverted(), "inversion"),
    "vec_z2z2-asymmetric-rotation": lambda: (_rotated(_vec_z2z2(symmetric=False)), "rotation"),
}


@pytest.mark.parametrize("name", [*ACTION_CASES, *FAILING_ACTIONS])
def test_verify_action_matches_the_per_block_loop(name):
    """The one gather per group element finds the oracle's largest
    deviation and, per g, names the oracle's first changed block."""
    cat, act = {**ACTION_CASES, **FAILING_ACTIONS}[name]()
    act = cat.action(act)
    rep = verify_action(cat, act)
    want = _action_oracle(cat, act)
    assert rep["max_deviation"] == fusion_core.residual_max(0.0, *(w for w, _ in want))
    changed = [f for f in rep["failures"] if "changes the F block" in f]
    assert changed == [
        f"action of {cat.group.elements[g]} changes the F block at "
        f"({', '.join(cat.labels[x] for x in first)})"
        for g, (_, first) in enumerate(want) if first is not None]
    assert rep["pass"] == (name in ACTION_CASES)


def test_an_action_that_changes_f_fails_with_its_first_block():
    """Inversion sends F^{111}_0 = 1 to F^{222}_0 = exp(4 pi i / 3), so it
    is not strict on this cocycle; every changed entry moves by
    |exp(2 pi i k / 3) - 1| = sqrt 3."""
    rep = verify_action(_z3_omega_inverted(), "inversion")
    assert not rep["pass"]
    assert rep["failures"] == ["action of i changes the F block at (1, 1, 1, 0)"]
    assert abs(rep["max_deviation"] - np.sqrt(3)) <= 1e-15


@pytest.mark.parametrize("name", ACTION_CASES)
def test_crossed_extension_gathers_the_per_block_loop(name):
    """The extension's F, gathered from the base table, equals the loop's
    entry for entry, block by block; the rotation case is the one with
    F entries other than 1 and an element k with k != k^-1."""
    d0, act = ACTION_CASES[name]()
    ext = build_crossed_extension(d0, act)
    want = _extension_oracle(d0, act, ext)
    assert ext.F.keys() == want.keys()
    for key, block in want.items():
        assert np.array_equal(ext.F[key], block), key


@pytest.mark.parametrize("name", ["ising", "vec_z3-crossed", "rep_a4_random", "vec_z2z2"])
def test_the_table_lists_every_entry_once(name):
    """`vertices` names each buffer position exactly once, by four vertices
    that fit one block: (a b -> e), (e c -> d) and (b c -> f), (a f -> d)."""
    cat = _vec_z2z2() if name == "vec_z2z2" else ORACLE_INPUTS[name]()
    F = cat.f_entries()
    r0, r1, c0, c1 = V = F.vertices()
    p, q, s = F.p, F.q, F.s
    assert np.array_equal(F.position(*V), np.arange(len(F.buf)))
    assert np.unique(V, axis=1).shape == V.shape
    assert np.array_equal(s[r0], p[r1]) and np.array_equal(q[r0], p[c0])
    assert np.array_equal(q[r1], q[c0]) and np.array_equal(p[r0], p[c1])
    assert np.array_equal(s[c0], q[c1]) and np.array_equal(s[r1], s[c1])
    R = cat.rank
    code = ((p[r0] * R + q[r0]) * R + q[r1]) * R + s[r1]
    assert np.array_equal(code, np.repeat(F.blocks, F.dims * F.dims))
    assert np.array_equal(F.entry(*V), F.buf)


def test_associativity_failure_names_the_first_bad_triple():
    """Vec_Z3 with 1 x 1 = 1 instead of 2: (1, 1, 2) is the first triple,
    in lexicographic order, where (1 1) 2 and 1 (1 2) differ."""
    data = _vec_zn(3)
    data["N"] = [[a, b, 1 if (a, b) == (1, 1) else c, v] for a, b, c, v in data["N"]]
    with pytest.raises(ValidationError, match=r"^associativity violated at \(1, 1, 2\)$"):
        category_from_dict(data, "vec_z3_broken")


def test_frobenius_reciprocity_failure_names_the_first_bad_triple():
    """x x = y, x y = y x = 1 + x and y y = x + y is associative, with
    x-bar = y and N_xy^1 = 1, but N_xx^x = 0 while N_{x-bar x}^x =
    N_yx^x = 1."""
    products = {("x", "x"): ["y"], ("x", "y"): ["1", "x"], ("y", "x"): ["1", "x"],
                ("y", "y"): ["x", "y"]}
    labels = ["1", "x", "y"]
    N = [[0, b, b, 1] for b in range(3)] + [[a, 0, a, 1] for a in (1, 2)]
    N += [[labels.index(a), labels.index(b), labels.index(c), 1]
          for (a, b), cs in products.items() for c in cs]
    data = {"rank": 3, "labels": labels, "dual": [0, 2, 1], "qdim": [1.0, 2.0, 2.0], "N": N}
    with pytest.raises(ValidationError,
                       match=r"^Frobenius reciprocity violated at \(x, x, x\): "
                             r"N\[a, b, c\] = 0, N\[dual a, c, b\] = 1$"):
        category_from_dict(data, "not_frobenius")


def _first_nonassociative(N):
    """The first (a, b, c), in lexicographic order, where (a b) c and
    a (b c) differ, by exact integer sums."""
    n = len(N)
    for a, b, c in itertools.product(range(n), repeat=3):
        for d in range(n):
            left = sum(int(N[a, b, e]) * int(N[e, c, d]) for e in range(n))
            right = sum(int(N[b, c, f]) * int(N[a, f, d]) for f in range(n))
            if left != right:
                return a, b, c
    return None


@pytest.mark.parametrize("rank,top", [(4, 3), (3, 2 ** 24)])
def test_float_associativity_matches_integer_sums(rank, top):
    """Random tables with entries up to `top`; at rank 3 and 2^24, rank *
    top^2 = 3 * 2^48 is just under the 2^53 bound.  The float64 sums name
    the first bad triple that exact integer sums name."""
    rng = np.random.default_rng(rank)
    names = [str(i) for i in range(rank)]
    for _ in range(10):
        N = rng.integers(0, top + 1, size=(rank,) * 3)
        a, b, c = _first_nonassociative(N)
        assert fusion_ring_failure(N, 0, np.arange(rank), names) == \
            f"associativity violated at ({a}, {b}, {c})"
    vec_z5 = category_from_dict(_vec_zn(5), "vec_z5")
    assert _first_nonassociative(vec_z5.N) is None
    assert fusion_ring_failure(vec_z5.N, 0, vec_z5.dual, vec_z5.labels) is None


def test_a_table_past_the_exact_float_bound_is_refused():
    """rank * max(N)^2 = 2 * (2^26)^2 = 2^53: the associativity sums would
    no longer be exact, so the loader refuses the table."""
    data = _vec_zn(2)
    data["N"] = [[a, b, c, 2 ** 26 if (a, b) == (1, 1) else v] for a, b, c, v in data["N"]]
    with pytest.raises(ValidationError, match=r"too large for exact associativity sums"):
        category_from_dict(data, "vec_z2_huge")
    N = category_from_dict(_vec_zn(2), "vec_z2").N * (2 ** 26 - 1)
    assert "too large" not in fusion_ring_failure(N, 0, [0, 1], ["0", "1"])
