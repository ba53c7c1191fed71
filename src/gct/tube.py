"""Tube algebras of graded unitary fusion categories.

A tube element with loop label x and outer strands (a, b) is a morphism
T : a x -> x' b, where x' is the loop label on the outgoing side: x' = x
for the plain flavour (`build_tube`) and x' = g[x] for the twisted flavour
(`build_twisted_tube`, twisted by a strict group action).  Either way the
tube is fixed by its category and its action: the loops are the category's
degree-neutral simples, and the outer strands of grade g are the simples of
degree g in the plain flavour and every simple in the twisted one, whose
category is neutrally graded, so that there every simple is a loop.  The
loader checks deg(c) = deg(a) deg(b) on every channel a b -> c, a neutral
unit and deg(abar) = deg(a)^-1, so the neutral sector is closed under
fusion and duals.

Products splice two loops through an orthonormal channel basis of the
fused loop; the star bends the loop around with a conjugate pair.  The
matrix-unit basis used here is orthonormal for the Hilbert-Schmidt
pairing, so a structure constant is one entry of a spliced morphism.  The
splice of X : a x -> x' b and Y : b y -> y' c is
rtens(T'^*, c) ltens(x', Y) rtens(X, y) ltens(a, T), summed over T in
onb(z, x y) with T' its transport (which keeps the multiplicity index of
T).  Both rtens factors are re-indexings and each ltens is one F-move, so
on each output channel d the constants are read in closed form off three
F-blocks: F^{a x y}_d, F^{x' b y}_d and F^{x' y' c}_d.  The star of X is
(xbar' a Rbar^*)(xbar' X^* xbar)(R b xbar) with R : 1 -> xbar' x' and
Rbar : 1 -> x xbar from `conjugates(x)` (R transported in the twisted
flavour); on channel d of b xbar it is r conj(rbar) times entries of
F^{xbar' a x}_b, F^{xbar' x' b}_b and F^{d x xbar}_d, with r and rbar the
coefficients of R and Rbar.  Both fills expand every term over the basis
with array arithmetic, gather its F entries by fusion vertices from the
category's F-entry table (`GradedCategory.f_entries`) and sum them into the
ideals; they build no morphism.  The constants read F only through their
blocks, so they equal the splice on any F data, also data that fail the
pentagon.  The star moves F once where the tree engine's bend factors
xbar' a x xbar letter by letter, so the two agree up to rounding where the
pentagon holds.  The splice and the bend are kept only as the oracles of
the tests.  `decompose` computes the block structure (minimal central
projections, block ranks, corner multiplicities) of one graded component.

Each graded component is a direct sum of two-sided *-ideals, one per
connected component of its outer-label graph, in which an element p -> r
joins p and r.  A chained block x: a -> b, y: b -> c, z: a -> c lies in
one ideal, so a product of elements of two ideals is zero, and the star of
p -> r runs r -> p.  The algebra is stored that way: each `TubeIdeal`
holds its sorted basis positions I, the dense cube C[I, I, I] and the star
block S[I, I] in that local order, and nothing else of the n^3 and n^2
index ranges is stored, so no star can couple two ideals.

`verify_algebra` checks every axiom on every entry, ideal by ideal.  A
pattern gate requires c[i, j, k] to be exactly 0.0 unless the outer labels
chain (target of i = source of j) and b_k runs from the source of i to the
target of j, and S[k, j] to be exactly 0.0 unless b_k runs the reverse way
of b_j.  Given the gate, associativity is checked per outer-label chain
block p -> q -> r -> s, and the Gram form and multiplication by the unit
are block diagonal over the ideals; every entry and contraction index the
ideals skip is a product with an exact zero, so each per-ideal maximum
equals the dense one at a cost of sum n_I^4 instead of n^4.  `decompose`
works on each ideal on its own (commutant, trace form, probe, projections,
corner counts): the center of the grade is the direct sum of the ideals'
centers, and each block's projection is stored on its ideal's positions.

The kernels run as BLAS matrix products.  The Gram form is S^T (C t), with
the trace vector contracted first.  `decompose` checks centrality as M z
with the commutant matrix M it already built, and takes every product
z_a z_b from one contraction of the cube with its projections on both
sides.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .fusion_core import (
    GradedCategory,
    GroupAction,
    InternalCheckError,
    ValidationError,
    _before,
    _fan,
    _runs,
    verify_action,
)
from .morphisms import Mor, engine_for, residual_max

__all__ = [
    "TubeBasisElement",
    "TubeIdeal",
    "TubeAlgebra",
    "TubeBlock",
    "TubeDecomposition",
    "build_tube",
    "build_twisted_tube",
    "verify_algebra",
    "decompose",
    "twisted_untwisted_iso",
    "probes",
    "spectral_clusters",
    "tube_dump_dict",
    "decomposition_dict",
]

AXIOM_TOL = 1e-8    # bound on the algebra axioms and the twisted/plain deviation
PROBES = 8          # seeded probes per spectral split: seed, seed + 1, ...
CLUSTER_GAP = 1e-6  # relative spectral gap that separates two clusters


@dataclasses.dataclass(frozen=True, order=True)
class TubeBasisElement:
    """Matrix unit of one loop space Hom(a x, x' b).

    `col` indexes the channel basis of Hom(channel, a x) and `row` that of
    Hom(channel, x' b).  The field order is the lexicographic basis order
    of the algebra.
    """

    grade: int
    loop: int
    source_outer: int
    target_outer: int
    channel: int
    col: int
    row: int


@dataclasses.dataclass(eq=False)
class TubeIdeal:
    """One two-sided *-ideal of a graded component: the basis elements whose
    outer labels lie in one component of the grade's outer-label graph.

    `positions` are its basis indices in increasing order; `cube` holds
    c[i, j, k] and `star` holds S[k, j] for i, j, k in `positions`, in that
    local order.
    """

    grade: int
    labels: tuple                   # outer labels of the component
    positions: np.ndarray
    cube: np.ndarray | None = None  # filled by TubeAlgebra._fill_constants
    star: np.ndarray | None = None  # filled by TubeAlgebra._fill_star


class TubeAlgebra:
    """A tube algebra in its matrix-unit basis.

    The interesting attributes after construction:

    - ``basis``: list of `TubeBasisElement` in lexicographic order;
    - ``ideals``: the `TubeIdeal`s, grade by grade, each grade's in the
      order of their first outer label; b_i b_j = sum_k c[i, j, k] b_k and
      star(x) = S conj(x) (an antilinear involution), with c stored as one
      cube and S as one block per ideal, both zero elsewhere;
    - ``ideal_of``: the ideal number of each basis element, as an array;
    - ``trace_vector``, ``unit_coords``: the canonical trace and unit;
    - ``grade_slice(g)``: contiguous index range of one graded component;
    - ``grade_of``, ``source_of``, ``target_of``: the grade and outer labels
      of each basis element, as arrays.
    """

    def __init__(self, cat: GradedCategory, action: GroupAction | None = None):
        self.cat = cat
        self.eng = engine_for(cat)
        self.kind = "relative" if action is None else "twisted"
        self.action = action
        self.loop_labels = tuple(cat.neutral_sector())
        every = tuple(range(cat.rank))
        self.outer_by_grade = {g: tuple(cat.sector(g)) if action is None else every
                               for g in range(cat.group.order)}
        self.grades = tuple(sorted(self.outer_by_grade))
        self._enumerate()
        self._fill_unit_and_trace()
        self._fill_constants()
        self._fill_star()

    # ------------------------------------------------------------ basis

    def tloop(self, g: int, x: int) -> int:
        """Loop label on the outgoing side (moved by the action if any)."""
        if self.action is None:
            return x
        return self.action.on_label(g, x)

    def _enumerate(self) -> None:
        """The matrix units of Hom(p x, x' r): one per channel c of p x and
        pair of multiplicity indices."""
        N = self.cat.N
        basis = []
        for g in self.grades:
            outers = self.outer_by_grade[g]
            for x in self.loop_labels:
                tl = self.tloop(g, x)
                for p in outers:
                    channels = self.cat.fusion_channels(p, x)
                    for r in outers:
                        for c, m in channels:
                            n = int(N[tl, r, c])
                            basis.extend((g, x, p, r, c, i, j)
                                         for i in range(m) for j in range(n))
        basis.sort()
        self.basis = [TubeBasisElement(*e) for e in basis]
        self.dim = len(basis)
        self.index = {e: k for k, e in enumerate(self.basis)}
        self._fields = np.array(basis, dtype=int).reshape(-1, 7).T
        self.grade_of, _, self.source_of, self.target_of = self._fields[:4]
        self._find_ideals()

    def _find_ideals(self) -> None:
        """The connected components of each grade's outer-label graph, in
        which an element p -> r joins p and r, as cubeless `TubeIdeal`s."""
        self.ideal_of = np.empty(self.dim, dtype=int)
        ideals = []
        for g in self.grades:
            sl = self.grade_slice(g)
            src, tgt = self.source_of[sl], self.target_of[sl]
            root = {p: p for p in self.outer_by_grade[g]}
            for p, r in set(zip(src.tolist(), tgt.tolist())):
                root[_find(root, r)] = _find(root, p)
            groups: dict = {}
            for p in self.outer_by_grade[g]:
                groups.setdefault(_find(root, p), []).append(p)
            for labels in sorted(groups.values()):
                I = sl.start + np.flatnonzero(np.isin(src, labels))
                self.ideal_of[I] = len(ideals)
                ideals.append(TubeIdeal(g, tuple(labels), I))
        self.ideals = tuple(ideals)

    def element_mor(self, k: int) -> Mor:
        """Basis element k as the matrix unit X : (a x,) -> (x' b,)."""
        e = self.basis[k]
        src = ((e.source_outer, e.loop),)
        tgt = ((self.tloop(e.grade, e.loop), e.target_outer),)
        return self.eng.elementary(src, tgt, e.channel, e.col, e.row)

    def grade_slice(self, g: int) -> slice:
        lo = int(np.searchsorted(self.grade_of, g, side="left"))
        hi = int(np.searchsorted(self.grade_of, g, side="right"))
        return slice(lo, hi)

    def grade_name(self, g: int) -> str:
        return self.cat.group.elements[g]

    # ------------------------------------------------------------ fills

    def _fill_unit_and_trace(self) -> None:
        """The unit is the sum of the unit loops on each outer p, which are
        identities of p with unit letters relabelled in (coefficient 1, see
        `gct.morphisms`); the trace reads each with weight d(p)."""
        u = self.cat.unit
        self.unit_coords = np.zeros(self.dim, dtype=complex)
        self.trace_vector = np.zeros(self.dim, dtype=complex)
        for g in self.grades:
            for p in self.outer_by_grade[g]:
                k = self.index.get(TubeBasisElement(g, u, p, p, p, 0, 0))
                if k is None:
                    raise InternalCheckError(
                        f"unit loop element missing for {self.cat.label_name(p)}")
                self.unit_coords[k] = 1.0
                self.trace_vector[k] = float(self.cat.qdim[p])

    def _elements(self) -> tuple:
        """Per basis element X : a x -> x' b on channel c: its grade, x, x',
        a, b, c, its vertices (a x -> c; col) and (x' b -> c; row) in the
        category's F-entry table, and the code of its run (grade, x, a, b),
        which ascends with the basis."""
        R, F = self.cat.rank, self.cat.f_entries()
        g, x, a, b, c, col, row = self._fields
        xp = x if self.action is None else self.action.perm[g, x]
        run = ((g * R + x) * R + a) * R + b
        return g, x, xp, a, b, c, F.at[a, x, c] + col, F.at[xp, b, c] + row, run

    def _fill_constants(self) -> None:
        """c[i, j, k] for b_i = X : a x -> x' b, b_j = Y : b y -> y' c and
        b_k : a z -> z' c on channel d, from three F-blocks (see the module
        docstring): the sum over nu, lam and t of
        F^{a x y}_d[(c_i, col_i, nu), (z, t, col_k)]
        conj(F^{x' b y}_d[(c_i, row_i, nu), (c_j, col_j, lam)])
        F^{x' y' c}_d[(z', t, row_k), (c_j, row_j, lam)], every term one
        gather of the F-entry table."""
        cat, F = self.cat, self.cat.f_entries()
        N, R = cat.N, cat.rank
        g, x, xp, a, b, c, vin, vout, run = self._elements()
        # every chained pair: the elements leaving b in the grade of i
        key = g * R + a
        order = np.argsort(key, kind="stable")
        i, j = _fan(np.searchsorted(key[order], np.arange(cat.group.order * R + 1)),
                    g * R + b)
        j = order[j]
        # every channel (x y -> z; t), then every element z: a -> c
        p, t = _fan(F.by_pq, x[i] * R + x[j])
        i, j = i[p], j[p]
        p, k = _members(run, ((g[i] * R + F.s[t]) * R + a[i]) * R + b[j])
        i, j, t = i[p], j[p], t[p]
        d = c[k]
        nlam = N[xp[i], c[j], d]
        p, nu = _runs(N[c[i], x[j], d] * nlam)
        nu, lam = np.divmod(nu, nlam[p])
        i, j, k, t, d = i[p], j[p], k[p], t[p], d[p]
        cy = F.at[c[i], x[j], d] + nu
        xc = F.at[xp[i], c[j], d] + lam
        zt = F.at[xp[i], xp[j], xp[k]] + F.mu[t]
        self._store("cube", (i, j, k), np.einsum(
            "i,i,i->i", F.entry(vin[i], cy, t, vin[k]),
            np.conj(F.entry(vout[i], cy, vin[j], xc)), F.entry(zt, vout[k], vout[j], xc)))

    def _fill_star(self) -> None:
        """S[k, j] for b_j = X : a x -> x' b on channel c and b_k : b xbar ->
        xbar' a on channel d: the bend of X through the conjugate pair
        R : 1 -> xbar' x' (transported in the twisted flavour) and
        Rbar : 1 -> x xbar of x, in closed form.  With r and rbar their
        coefficients, it is r conj(rbar) times the sum over nu and lam of
        F^{xbar' a x}_b[(d, row_k, nu), (c, col_j, lam)]
        conj(F^{xbar' x' b}_b[(1, 0, 0), (c, row_j, lam)])
        conj(F^{d x xbar}_d[(b, nu, col_k), (1, 0, 0)]).  One `conjugates`
        solve per loop; the star of p -> r runs r -> p, so it stays in the
        ideal."""
        cat, F = self.cat, self.cat.f_entries()
        N, R, u = cat.N, cat.rank, cat.unit
        g, x, xp, a, b, c, vin, vout, run = self._elements()
        coef = np.zeros(R, dtype=complex)
        for y in self.loop_labels:
            pair = self.eng.conjugates(y)
            coef[y] = pair.R.blocks[u][0, 0] * np.conj(pair.Rbar.blocks[u][0, 0])
        xb = cat.dual[x]
        xbp = xb if self.action is None else self.action.perm[g, xb]
        j, k = _members(run, ((g * R + xb) * R + b) * R + a)
        d = c[k]
        nlam = N[xbp[j], c[j], b[j]]
        p, nu = _runs(N[d, x[j], b[j]] * nlam)
        nu, lam = np.divmod(nu, nlam[p])
        j, k, d = j[p], k[p], d[p]
        db = F.at[d, x[j], b[j]] + nu
        xc = F.at[xbp[j], c[j], b[j]] + lam
        bend = F.entry(F.at[xbp[j], xp[j], u], F.at[u, b[j], b[j]], vout[j], xc)
        cap = F.entry(db, vin[k], F.at[x[j], xb[j], u], F.at[d, u, d])
        self._store("star", (k, j), coef[x[j]] * np.einsum(
            "i,i,i->i", F.entry(vout[k], db, vin[j], xc), np.conj(bend), np.conj(cap)))

    def _store(self, field: str, index: tuple, terms: np.ndarray) -> None:
        """Sum the terms into the ideals' arrays `field` ("cube" or "star"),
        each term at its basis indices `index`, all in one ideal; the
        arrays are consecutive parts of one buffer."""
        sizes = np.bincount(self.ideal_of, minlength=len(self.ideals))
        local = np.empty(self.dim, dtype=int)
        local[np.argsort(self.ideal_of, kind="stable")] = _runs(sizes)[1]
        span = sizes ** len(index)
        starts = _before(span)
        r = self.ideal_of[index[0]]
        pos = 0
        for k in index:
            pos = pos * sizes[r] + local[k]
        flat = np.zeros(int(span.sum()), dtype=complex)
        flat.real = np.bincount(starts[r] + pos, terms.real, flat.size)
        flat.imag = np.bincount(starts[r] + pos, terms.imag, flat.size)
        for idl, at, n in zip(self.ideals, starts, sizes):
            setattr(idl, field, flat[at:at + n ** len(index)].reshape((n,) * len(index)))


def _gram(C: np.ndarray, S: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tau(b_i^* b_j) = sum_kl S[k, i] c[k, j, l] t_l for the columns i, j
    that C and S hold."""
    return S.T @ (C @ t)


def _left_mult(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i x_i C[i, j, k] as the matrix [k, j] of left multiplication."""
    n = C.shape[0]
    return (x @ C.reshape(n, n * n)).reshape(n, n).T


def _members(run: np.ndarray, key: np.ndarray) -> tuple:
    """(owner, k) for every basis element k whose run code is key[owner]."""
    lo = np.searchsorted(run, key)
    owner, k = _runs(np.searchsorted(run, key, "right") - lo)
    return owner, lo[owner] + k


def _find(root: dict, p):
    while root[p] != p:
        p = root[p]
    return p


# ---------------------------------------------------------------------------
# builders


def build_tube(cat: GradedCategory) -> TubeAlgebra:
    """Tube algebra of `cat` relative to its neutral sector: the loops are
    the degree-neutral simples and the outer strands of grade g the simples
    of degree g.  The full (ungraded) tube of the underlying category is
    ``build_tube(trivially_graded(cat))``, where every simple is a loop.
    """
    tube = TubeAlgebra(cat)
    rep = verify_algebra(tube)
    if not rep["pass"]:
        raise InternalCheckError(f"tube algebra axioms fail: {rep}")
    return tube


def build_twisted_tube(d0: GradedCategory, action) -> TubeAlgebra:
    """Group-twisted tube algebra of a trivially graded category.

    `action` is an action name bundled with `d0` (or a GroupAction, which
    is used as given and not registered on `d0`); it must be strict, i.e.
    preserve the fusion rules, duals, dimensions and every F entry, which
    is re-verified here.
    """
    if any(int(d) != d0.group.neutral for d in d0.deg):
        raise ValidationError("twisted tube needs a trivially graded category")
    act = d0.action(action)
    rep = verify_action(d0, act)
    if not rep["pass"]:
        raise ValidationError(f"action {act.name!r} is not strict: {rep}")
    tube = TubeAlgebra(d0, act)
    rep2 = verify_algebra(tube)
    if not rep2["pass"]:
        raise InternalCheckError(f"twisted tube algebra axioms fail: {rep2}")
    return tube


# ---------------------------------------------------------------------------
# verification


def _pattern_violation(tube: TubeAlgebra) -> float:
    """Largest |c[i, j, k]| of a cube and |S[k, j]| of a star block off
    the pattern of the module docstring."""
    r = tube.cat.rank
    worst = 0.0
    for idl in tube.ideals:
        s, t = tube.source_of[idl.positions], tube.target_of[idl.positions]
        key_ij = np.where(t[:, None] == s, s[:, None] * r + t, -1)
        # boolean masks only: values are read just at off-pattern nonzeros
        hit = key_ij[:, :, None] != s * r + t
        hit &= idl.cube != 0
        # S[k, j] needs b_k: q -> p for b_j: p -> q
        off = (s * r + t)[:, None] != t * r + s
        off &= idl.star != 0
        for A, mask in ((idl.cube, hit), (idl.star, off)):
            if mask.any():
                worst = residual_max(worst, float(np.abs(A[mask]).max()))
    return worst


def _block_associativity(tube: TubeAlgebra, ideal: TubeIdeal) -> float:
    """max |(b_i b_j) b_k - b_i (b_j b_k)| over every outer-label chain of
    the ideal.

    For each chain p -> q -> r -> s, with I_pq the local positions of the
    elements running from p to q, compares C[I_pq, I_qr, I_pr] C[I_pr, I_rs, I_ps] with
    C[I_qr, I_rs, I_qs] C[I_pq, I_qs, I_ps].  Over all ideals this equals
    the dense n^4 maximum whenever `_pattern_violation` reads 0.0.
    """
    C, outers = ideal.cube, ideal.labels
    src, tgt = tube.source_of[ideal.positions], tube.target_of[ideal.positions]
    index = {(p, q): np.flatnonzero((src == p) & (tgt == q))
             for p in outers for q in outers}
    worst = 0.0
    for p in outers:
        for q in outers:
            Ipq = index[p, q]
            a = Ipq.size
            if not a:
                continue
            for r in outers:
                Iqr, Ipr = index[q, r], index[p, r]
                b, c = Iqr.size, Ipr.size
                if not b:
                    continue
                ij = C[np.ix_(Ipq, Iqr, Ipr)].reshape(a * b, c)
                for s in outers:
                    Irs, Ips, Iqs = index[r, s], index[p, s], index[q, s]
                    d, e, f = Irs.size, Ips.size, Iqs.size
                    if not (d and e):
                        continue
                    lhs = ij @ C[np.ix_(Ipr, Irs, Ips)].reshape(c, d * e)
                    jk = C[np.ix_(Iqr, Irs, Iqs)].reshape(b * d, f)
                    im = C[np.ix_(Ipq, Iqs, Ips)].transpose(1, 0, 2)
                    rhs = (jk @ im.reshape(f, a * e)).reshape(b, d, a, e)
                    rhs = rhs.transpose(2, 0, 1, 3).reshape(a * b, d * e)
                    worst = residual_max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _star_anti_mult(C: np.ndarray, S: np.ndarray) -> float:
    """max |star(b_i b_j) - star(b_j) star(b_i)| over one ideal's cube C and
    star block S.  Over all ideals this equals the dense n^3 maximum
    whenever `_pattern_violation` reads 0.0."""
    n = S.shape[0]
    # star(b_i b_j)_k = sum_m conj(c_ijm) S_km;
    # (star b_j)(star b_i)_k = sum_pq S_pj S_qi c_pqk
    star_of_prod = np.conj(C) @ S.T                                # [i, j, k]
    sj_c = (S.T @ C.reshape(n, n * n)).reshape(n, n, n)           # [j, q, k]
    prod_of_stars = (S.T @ sj_c).transpose(1, 0, 2)               # [i, j, k]
    return float(np.max(np.abs(star_of_prod - prod_of_stars)))


def verify_algebra(tube: TubeAlgebra) -> dict:
    """Report the *-algebra axioms: associativity, star, trace, unit.

    Pure report; `pass` summarizes every residual against `AXIOM_TOL`.
    Every entry of every axiom is checked ideal by ideal, as the module
    docstring says; `pass` needs the pattern gate `pattern_violation_max`
    to be exactly 0.0.
    """
    rows, eigs = [], []
    for idl in tube.ideals:
        I, C, S = idl.positions, idl.cube, idl.star
        eye = np.eye(I.size)
        G = _gram(C, S, tube.trace_vector[I])
        # eigvalsh cannot take a NaN; a NaN eigenvalue fails the verdict
        eigs.append(np.linalg.eigvalsh((G + G.conj().T) / 2) if np.isfinite(G).all()
                    else np.full(I.size, np.nan))
        u = tube.unit_coords[I]
        rows.append((
            _block_associativity(tube, idl),
            float(np.max(np.abs(S @ np.conj(S) - eye))),
            _star_anti_mult(C, S),
            float(np.max(np.abs(G - G.conj().T))),
            residual_max(float(np.max(np.abs(_left_mult(C, u) - eye))),
                         float(np.max(np.abs((u @ C).T - eye))))))
    assoc, invol, anti, gram_herm, unit_res = (residual_max(*col) for col in zip(*rows))
    eigs = np.concatenate(eigs)
    min_eig = float(eigs.min())
    max_eig = float(eigs.max())
    pattern = _pattern_violation(tube)
    ok = (residual_max(assoc, invol, anti, gram_herm) < AXIOM_TOL
          and unit_res < 1e-9 and pattern == 0.0
          and min_eig > 1e-10 * max(1.0, max_eig))
    return {
        "dim": tube.dim,
        "associativity": assoc,
        "star_involution": invol,
        "star_anti_mult": anti,
        "gram_hermiticity": gram_herm,
        "trace_min_eig": min_eig,
        "trace_max_eig": max_eig,
        "unit_residual": unit_res,
        "pattern_violation_max": pattern,
        "tol": AXIOM_TOL,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# block decomposition


def null_space_abs(A: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Kernel basis columns with an absolute singular-value floor.

    A purely relative cutoff misreads matrices that are zero up to
    roundoff (every singular value tiny but nonzero) as full rank; such
    matrices arise here whenever two independently constructed data sets
    agree to machine precision.
    """
    if A.size == 0:
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A)
    return _kernel_columns(A.shape, s, vh, atol)


def _kernel_columns(shape, s: np.ndarray, vh: np.ndarray,
                    atol: float) -> np.ndarray:
    """The rows of vh past the numerical rank, as columns (shared rank cut)."""
    cut = max(atol, float(s[0]) * max(shape) * np.finfo(float).eps)
    rank = int(np.sum(s > cut))
    return vh[rank:].conj().T


@dataclasses.dataclass
class TubeBlock:
    """One matrix block of a graded tube component."""

    rank: int
    positions: np.ndarray           # basis positions of the block's ideal
    projection: np.ndarray          # the minimal central projection on them
    corners: dict                   # outer label -> corner multiplicity


@dataclasses.dataclass
class TubeDecomposition:
    grade: int
    grade_name: str
    dim: int
    center_dim: int
    blocks: list
    seed: int
    retries: int

    def block_ranks(self) -> list[int]:
        return [b.rank for b in self.blocks]


def probes(seed: int):
    """(attempt, generator) for each probe of a spectral split: attempt a
    below `PROBES` draws from default_rng(seed + a)."""
    for attempt in range(PROBES):
        yield attempt, np.random.default_rng(seed + attempt)


def spectral_clusters(w) -> list[list[int]]:
    """The index runs of an ascending spectrum w, cut wherever two
    neighbours lie more than CLUSTER_GAP * max(1, max |w|) apart."""
    scale = max(1.0, float(np.max(np.abs(w))))
    cuts = [i for i in range(1, len(w)) if w[i] - w[i - 1] > CLUSTER_GAP * scale]
    return [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [len(w)])]


def decompose(tube: TubeAlgebra, grade: int, seed: int = 7) -> TubeDecomposition:
    """Block structure of one graded component.

    The grade splits into its ideals (see the module docstring).  For each
    ideal, solves the commutant equations for its center, probes it with a
    seeded random Hermitian central element (`probes`), clusters the
    spectrum (`spectral_clusters`) and turns each cluster into a minimal
    central projection.  A probe that fails a check gives way to the next;
    the largest attempt index of any ideal is reported as `retries`.

    The blocks are sorted by rank, corners and rounded projection.  Blocks
    of two ideals differ in their corners, since a block's corners over its
    own labels sum to its rank, so the projections are compared only
    within one ideal.
    """
    sl = tube.grade_slice(grade)
    ng = sl.stop - sl.start
    if ng == 0:
        # a grade with no objects carries the zero algebra and no simples
        return TubeDecomposition(grade, tube.grade_name(grade), 0, 0, [],
                                 seed, 0)
    outer = tube.outer_by_grade[grade]
    blocks = []
    retries = 0
    for idl in tube.ideals:
        if idl.grade != grade:
            continue
        found, attempt = _decompose_ideal(tube, idl, seed)
        retries = max(retries, attempt)
        for m, zc, corners in found:
            blocks.append(TubeBlock(rank=m, positions=idl.positions, projection=zc,
                                    corners={p: corners.get(p, 0) for p in outer}))

    def order_key(blk: TubeBlock):
        return (blk.rank,
                tuple(blk.corners[p] for p in outer),
                tuple(np.round(blk.projection.real, 6)),
                tuple(np.round(blk.projection.imag, 6)))

    blocks.sort(key=order_key)
    return TubeDecomposition(grade=grade, grade_name=tube.grade_name(grade),
                             dim=ng, center_dim=len(blocks), blocks=blocks,
                             seed=seed, retries=retries)


def _decompose_ideal(tube: TubeAlgebra, ideal: TubeIdeal, seed: int) -> tuple:
    """Minimal central projections of one ideal: a list of (rank,
    projection on the ideal's positions, corner multiplicity of each of its
    labels), and the attempt index."""
    I, C, S = ideal.positions, ideal.cube, ideal.star
    n = I.size
    unit = tube.unit_coords[I]
    labels = ideal.labels
    where = "outer labels " + ", ".join(tube.cat.label_name(p) for p in labels)

    # commutant: sum_k x_k (C[k,i,m] - C[i,k,m]) = 0 for all i, m.  The
    # system is n^2 x n, so the economy SVD's vh is already complete.
    M = np.subtract(C.transpose(1, 2, 0), C.transpose(0, 2, 1),
                    order="C").reshape(n * n, n)
    s, vh = np.linalg.svd(M, full_matrices=False)[1:]
    Z = _kernel_columns(M.shape, s, vh, 1e-9)
    nc = Z.shape[1]
    if nc == 0:
        raise InternalCheckError(f"tube component has empty center ({where})")

    G = _gram(C, S, tube.trace_vector[I])
    Gh = (G + G.conj().T) / 2
    cond = float(np.linalg.cond(Gh))
    try:
        U = np.linalg.cholesky(Gh).conj().T     # Gh = U^H U, U upper triangular
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(
            f"trace form not positive definite on {where} "
            f"(cond {cond:.3e})") from exc
    Uinv = np.linalg.inv(U)

    corner_pos = np.searchsorted(I, [
        tube.index[TubeBasisElement(ideal.grade, tube.cat.unit, p, p, p, 0, 0)]
        for p in labels])
    # the corner count of p in block z is trace(lmat(z e_p)) / rank, where
    # e_p is the unit's corner at p; z e_p = unit[p] lmat(z)[:, p] and
    # trace(lmat(x)) = x . t with t_i = sum_k c[i, k, k]
    corner_trace = (C @ np.einsum("ikk->i", C))[:, corner_pos]

    last_reason = ""
    for attempt, rng in probes(seed):
        coeff = rng.standard_normal(nc) + 1j * rng.standard_normal(nc)
        z0 = Z @ coeff
        z = z0 + S @ np.conj(z0)
        if np.linalg.norm(z) < 1e-8:
            last_reason = "degenerate Hermitian probe"
            continue
        Mh = U @ _left_mult(C, z) @ Uinv
        herm_dev = float(np.max(np.abs(Mh - Mh.conj().T)))
        if herm_dev > 1e-6 * max(1.0, float(np.max(np.abs(Mh)))):
            last_reason = f"probe not Hermitian in the trace form ({herm_dev:.2e})"
            continue
        w, V = np.linalg.eigh((Mh + Mh.conj().T) / 2)
        clusters = spectral_clusters(w)
        if len(clusters) != nc:
            last_reason = f"{len(clusters)} spectral clusters for a {nc}-dim center"
            continue
        ranks = [math.isqrt(len(cl)) for cl in clusters]
        if any(m * m != len(cl) for m, cl in zip(ranks, clusters)):
            last_reason = "eigenvalue collision (non-square cluster)"
            continue

        projs = [Uinv @ (V[:, cl] @ V[:, cl].conj().T) @ U @ unit for cl in clusters]
        zs = np.stack(projs, axis=1)
        dev = _projection_residual(C, S, M, unit, zs)
        if not dev <= 1e-6:  # a NaN residual is a failed probe too
            last_reason = f"projection system residual {dev:.2e}"
            continue

        # row a: the corner counts of block a, one per label
        vals = unit[corner_pos] * (zs.T @ corner_trace) / np.array(ranks)[:, None]
        counts = np.round(vals.real)
        if not (np.abs(vals - counts).max() <= 1e-6 and (counts.sum(axis=1) == ranks).all()):
            last_reason = "non-integral corner multiplicities"
            continue
        if sum(m * m for m in ranks) != n:
            last_reason = "block ranks do not fill the component"
            continue
        return [(m, zc, dict(zip(labels, map(int, row))))
                for m, zc, row in zip(ranks, projs, counts)], attempt

    raise InternalCheckError(
        f"block decomposition of {where} failed after {attempt + 1} probes "
        f"(last: {last_reason}; Gram condition number {cond:.3e})")


def _projection_residual(C: np.ndarray, S: np.ndarray, M: np.ndarray,
                         unit: np.ndarray, zs: np.ndarray) -> float:
    """Worst defect of the columns of zs as a system of central projections.

    The largest of: |sum_a z_a - 1|, and for each z_a the norm of
    star(z_a) - z_a, the largest entry of its commutator matrix M z_a
    (M as `decompose` builds it, so M z is L_z - R_z flattened), and the
    largest |z_a z_b - delta_ab z_a| over b.  The products come from one
    contraction of C with zs on both sides.
    """
    ng, nc = zs.shape
    prods = zs.T @ (zs.T @ C.reshape(ng, ng * ng)).reshape(nc, ng, ng)   # [a, b, k]
    own = np.arange(nc)
    prods[own, own] -= zs.T
    return residual_max(float(np.linalg.norm(zs.sum(axis=1) - unit)),
                        float(np.max(np.linalg.norm(S @ np.conj(zs) - zs, axis=0))),
                        float(np.max(np.abs(M @ zs))),
                        float(np.max(np.linalg.norm(prods, axis=2))))


# ---------------------------------------------------------------------------
# twisted vs plain comparison


def twisted_untwisted_iso(twisted: TubeAlgebra, relative: TubeAlgebra) -> dict:
    """Compare a twisted tube with the plain tube of the matching extension.

    `relative` must be the tube of the crossed extension of `twisted`'s
    category by the same action, with loops in the neutral sector.  The
    canonical basis bijection sends the loop/outer labels of the extension
    to their base labels and inverts the grade; the report carries the
    worst deviation between the mapped structure constants, which passes
    below `AXIOM_TOL` (and, for information, of the star, trace and unit
    data).
    """
    if twisted.kind != "twisted" or relative.kind != "relative":
        raise ValidationError("arguments must be (twisted, relative) tube algebras")
    D = relative.cat
    d0 = twisted.cat
    grp = D.group
    r0 = d0.rank
    if D.rank != grp.order * r0 or grp.order != d0.group.order:
        raise ValidationError(
            "basis bijection fails: categories are not a twisted/extension pair")
    if relative.dim != twisted.dim:
        raise ValidationError(
            f"basis bijection fails: dim {relative.dim} vs {twisted.dim}")

    def base(label: int) -> tuple[int, int]:
        g = int(D.deg[label])
        a = label - g * r0
        if not 0 <= a < r0:
            raise InternalCheckError("extension labels are not grade-major")
        return g, a

    perm = np.empty(relative.dim, dtype=int)
    for k, e in enumerate(relative.basis):
        gx, x = base(e.loop)
        if gx != grp.neutral:
            raise InternalCheckError("relative tube loop is not degree-neutral")
        _, p = base(e.source_outer)
        _, r = base(e.target_outer)
        _, c = base(e.channel)
        elt = TubeBasisElement(grp.inv(e.grade), x, p, r, c, e.col, e.row)
        k2 = twisted.index.get(elt)
        if k2 is None:
            raise ValidationError(f"basis bijection fails: no image for {e}")
        perm[k] = k2
    if len(set(perm.tolist())) != relative.dim:
        raise ValidationError("basis bijection fails: map is not injective")

    def deviation(field: str) -> float:
        # the dense max |relative - twisted[perm]|: both sides' stored
        # entries, keyed by global index, compared over the union of keys
        rel, rv = _stored_entries(relative, field)
        tw, tv = _stored_entries(twisted, field)
        shape = (relative.dim,) * rel.shape[1]
        mapped = np.ravel_multi_index(perm[rel].T, shape)
        own = np.ravel_multi_index(tw.T, shape)
        keys = np.union1d(mapped, own)
        diff = np.zeros(keys.size, dtype=complex)
        diff[np.searchsorted(keys, mapped)] = rv
        diff[np.searchsorted(keys, own)] -= tv
        return float(np.max(np.abs(diff), initial=0.0))

    dev = deviation("cube")
    sdev = deviation("star")
    tdev = float(np.max(np.abs(relative.trace_vector - twisted.trace_vector[perm])))
    udev = float(np.max(np.abs(relative.unit_coords - twisted.unit_coords[perm])))
    grade_map = {grp.elements[g]: grp.elements[grp.inv(g)]
                 for g in range(grp.order)}
    return {
        "max_deviation": dev,
        "star_deviation": sdev,
        "trace_deviation": tdev,
        "unit_deviation": udev,
        "grade_map": grade_map,
        "tol": AXIOM_TOL,
        "pass": bool(dev < AXIOM_TOL),
    }


# ---------------------------------------------------------------------------
# dumps


def tube_dump_dict(tube: TubeAlgebra, seed: int = 7) -> dict:
    """JSON-ready dump: basis descriptors, sparse constants, star, trace."""
    cat = tube.cat
    names = cat.labels
    basis = [[tube.grade_name(e.grade), names[e.loop], names[e.source_outer],
              names[e.target_outer], names[e.channel], e.col, e.row]
             for e in tube.basis]
    consts = _listed(*_stored_entries(tube, "cube", 1e-12))
    star = _listed(*_stored_entries(tube, "star", 1e-12))
    trace, unit = _nonzeros(tube.trace_vector), _nonzeros(tube.unit_coords)
    grades = {}
    for g in tube.grades:
        sl = tube.grade_slice(g)
        grades[tube.grade_name(g)] = [int(sl.start), int(sl.stop)]
    return {
        "header": {
            "kind": tube.kind,
            "category": cat.name,
            "group": list(cat.group.elements),
            "loops": [names[x] for x in tube.loop_labels],
            "action": tube.action.name if tube.action is not None else None,
            "seed": int(seed),
            "tolerance": AXIOM_TOL,
        },
        "dim": tube.dim,
        "grades": grades,
        "basis": basis,
        "constants": consts,
        "star": star,
        "trace": trace,
        "unit": unit,
    }


def _stored_entries(tube: TubeAlgebra, field: str, above: float = 0.0) -> tuple:
    """Every stored entry with modulus above `above` of the ideals' cubes
    (field "cube") or star blocks ("star"): the global indices, one row per
    entry, and the values, in C order over the whole n^3 or n^2 range."""
    ndim = 3 if field == "cube" else 2
    parts = [(np.zeros((0, ndim), dtype=int), np.zeros(0, dtype=complex))]
    for idl in tube.ideals:
        A = getattr(idl, field)
        hit = np.abs(A) > above
        parts.append((idl.positions[np.argwhere(hit)], A[hit]))
    index, vals = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort(index.T[::-1])
    return index[order], vals[order]


def _nonzeros(A: np.ndarray) -> list:
    """[*index, re, im] for each entry of A above 1e-12 in modulus, in C
    order."""
    hit = np.abs(A) > 1e-12
    return _listed(np.argwhere(hit), A[hit])


def _listed(index: np.ndarray, values: np.ndarray) -> list:
    """[*index, re, im] for each row of index and its value."""
    return [[*map(int, ix), float(v.real), float(v.imag)]
            for ix, v in zip(index, values)]


def decomposition_dict(dec: TubeDecomposition, tube: TubeAlgebra) -> dict:
    labels = tube.cat.labels
    blocks = []
    for b in dec.blocks:
        proj = [[int(b.positions[i]), float(b.projection[i].real),
                 float(b.projection[i].imag)]
                for i in np.nonzero(np.abs(b.projection) > 1e-9)[0]]
        blocks.append({
            "rank": int(b.rank),
            "corners": {labels[k]: int(v) for k, v in sorted(b.corners.items())},
            "projection": proj,
        })
    return {
        "grade": dec.grade_name,
        "dim": int(dec.dim),
        "center_dim": int(dec.center_dim),
        "seed": int(dec.seed),
        "retries": int(dec.retries),
        "blocks": blocks,
    }
