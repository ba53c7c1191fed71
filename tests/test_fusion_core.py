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
    GroupData,
    ValidationError,
    build_crossed_extension,
    bundled_path,
    category_from_dict,
    degree_zero_part,
    fp_dimensions,
    group_from_pointed,
    load_category,
    trivially_graded,
    verify_action,
    verify_pentagon,
)

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
    assert G.conjugacy_classes() == [[0], [1]]


def test_group_from_pointed_s3(cats):
    G = group_from_pointed(cats["vec_s3"])
    assert G.order == 6
    assert sorted(len(c) for c in G.conjugacy_classes()) == [1, 2, 3]
    # centralizer orders per class: 6, 3 (3-cycles), 2 (transpositions)
    orders = sorted(len(G.centralizer(c[0])) for c in G.conjugacy_classes())
    assert orders == [2, 3, 6]


def test_action_inversion_is_strict(cats):
    rep = verify_action(cats["vec_z3"], "inversion")
    assert rep["pass"], rep["failures"]
    assert rep["max_deviation"] == 0.0


def test_unknown_action_name(cats):
    with pytest.raises(DataError):
        cats["vec_z3"].action("flip")


def test_trivially_graded_forgets_grading(cats):
    flat = trivially_graded(cats["ising"])
    assert flat.group.order == 1
    assert set(flat.neutral_sector()) == set(range(flat.rank))
    assert np.array_equal(flat.N, cats["ising"].N)


def test_degree_zero_part_of_ising(cats):
    sub, keep = degree_zero_part(cats["ising"])
    assert sub.rank == 2
    assert [cats["ising"].labels[a] for a in keep] == list(sub.labels)
    # 1, psi form the Z2 fusion ring
    assert sub.N[1, 1, 0] == 1


def test_crossed_extension_of_z3(cats):
    ext = build_crossed_extension(cats["vec_z3"], "inversion")
    assert ext.rank == 6
    assert sorted(int(d) for d in ext.deg) == [0, 0, 0, 1, 1, 1]
    # fusion of the extension is the S3 group law: three involutions
    G = group_from_pointed(ext)
    invs = [g for g in range(6) if g != G.neutral and G.mul(g, g) == G.neutral]
    assert len(invs) == 3


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
    R = range(len(N))

    def entry(p, q, r, s, left, right):
        lch = [(e, mu, nu) for e in R for mu in range(N[p, q, e]) for nu in range(N[e, r, s])]
        rch = [(f, ka, la) for f in R for ka in range(N[q, r, f]) for la in range(N[p, f, s])]
        mat = F.get((p, q, r, s), np.eye(len(lch)))
        return mat[lch.index(left), rch.index(right)]

    worst = 0.0
    for t, x, y, w, z in itertools.product(R, repeat=5):
        for m1, m2, m3, n1, n2, n3 in itertools.product(
                range(N[a, b, x]), range(N[x, c, y]), range(N[y, d, t]),
                range(N[c, d, w]), range(N[b, w, z]), range(N[a, z, t])):
            one = sum(entry(x, c, d, t, (y, m2, m3), (w, n1, r))
                      * entry(a, b, w, t, (x, m1, r), (z, n2, n3))
                      for r in range(N[x, w, t]))
            two = sum(entry(a, b, c, y, (x, m1, m2), (v, k1, l1))
                      * entry(a, v, d, t, (y, l1, m3), (z, k2, n3))
                      * entry(b, c, d, z, (v, k1, k2), (w, n1, n2))
                      for v in R for k1 in range(N[b, c, v]) for l1 in range(N[a, v, y])
                      for k2 in range(N[v, d, z]))
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
        got = fusion_core._pentagon_residual(cat, *key)
        assert got == pytest.approx(_reference_pentagon(N, F, *key), abs=1e-12), key
        worst = max(worst, got)
    rep = verify_pentagon(cat)
    assert rep["max_residual"] == worst > 0.1 and not rep["pass"]


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
    got = fusion_core._pentagon_residual(cat, t, t, t, t)
    assert got != got
    rep = verify_pentagon(cat)
    assert rep["max_residual"] != rep["max_residual"] and not rep["pass"]
