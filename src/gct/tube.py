"""Tube algebras of graded unitary fusion categories.

A tube element with loop label x and outer strands (a, b) is a morphism
T : a x -> x' b, where x' is the loop label on the outgoing side: x' = x
for the plain flavour (`build_tube`, loops drawn from a fusion/dual-closed
set of degree-neutral simples, outer strands of a fixed degree), and
x' = g[x] for the twisted flavour (`build_twisted_tube`, loops and strands
from a trivially graded category, twisted by a strict group action).

Products splice two loops through an orthonormal channel basis of the
fused loop; the star bends the loop around with a conjugate pair.  The
matrix-unit basis used here is orthonormal for the Hilbert-Schmidt
pairing, so structure constants are plain block reads of the spliced
morphisms.  `decompose` computes the block structure (minimal central
projections, block ranks, corner multiplicities) of one graded component.

`verify_algebra` checks every axiom on every entry without dense n^4
intermediates.  A pattern gate requires c[i, j, k] to be exactly 0.0
unless i, j, k share a grade, the outer labels chain (target of i =
source of j) and b_k runs from the source of i to the target of j.  Given
the gate, associativity is checked per outer-label chain block
p -> q -> r -> s and equals the dense check, because every entry and
contraction index the blocks skip is a product with an exact zero.  The
star anti-multiplicativity runs on all n^3 entries as two matrix products.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from ._memo import memo
from .fusion_core import (
    GradedCategory,
    GroupAction,
    InternalCheckError,
    ValidationError,
    trivially_graded,
    verify_action,
)
from .morphisms import Mor, engine_for

__all__ = [
    "TubeBasisElement",
    "TubeAlgebra",
    "TubeBlock",
    "TubeDecomposition",
    "build_tube",
    "build_twisted_tube",
    "verify_algebra",
    "decompose",
    "twisted_untwisted_iso",
    "tube_dump_dict",
    "decomposition_dict",
]


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


class TubeAlgebra:
    """A tube algebra in its matrix-unit basis.

    The interesting attributes after construction:

    - ``basis``: list of `TubeBasisElement` in lexicographic order;
    - ``constants``: dense c[i, j, k] with b_i b_j = sum_k c[i, j, k] b_k;
    - ``star_matrix``: S with star(x) = S conj(x) (antilinear involution);
    - ``trace_vector``, ``unit_coords``: the canonical trace and unit;
    - ``grade_slice(g)``: contiguous index range of one graded component;
    - ``grade_of``, ``source_of``, ``target_of``: the grade and outer labels
      of each basis element, as arrays.

    Products of elements in different grades vanish identically; the
    constants array is block diagonal over grades by construction.
    """

    def __init__(self, cat: GradedCategory, loop_labels, outer_by_grade,
                 action: GroupAction | None = None, kind: str = "relative"):
        self.cat = cat
        self.eng = engine_for(cat)
        self.kind = kind
        self.action = action
        self.loop_labels = tuple(int(x) for x in loop_labels)
        self.outer_by_grade = {int(g): tuple(int(a) for a in v)
                               for g, v in outer_by_grade.items()}
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

    def words(self, elt: TubeBasisElement) -> tuple:
        src = ((elt.source_outer, elt.loop),)
        tgt = ((self.tloop(elt.grade, elt.loop), elt.target_outer),)
        return src, tgt

    def _enumerate(self) -> None:
        eng = self.eng
        basis = []
        for g in self.grades:
            outers = self.outer_by_grade[g]
            for x in self.loop_labels:
                tl = self.tloop(g, x)
                for p in outers:
                    for r in outers:
                        src = ((p, x),)
                        tgt = ((tl, r),)
                        for c in range(self.cat.rank):
                            m = eng.vdim(c, src)
                            n = eng.vdim(c, tgt)
                            if m and n:
                                for i in range(m):
                                    for j in range(n):
                                        basis.append(
                                            TubeBasisElement(g, x, p, r, c, i, j))
        basis.sort()
        self.basis = basis
        self.dim = len(basis)
        self.index = {e: k for k, e in enumerate(basis)}
        self.grade_of = np.array([e.grade for e in basis], dtype=int)
        self.source_of = np.array([e.source_outer for e in basis], dtype=int)
        self.target_of = np.array([e.target_outer for e in basis], dtype=int)
        self._mors = [self.element_mor(k) for k in range(self.dim)]

    def element_mor(self, k: int) -> Mor:
        e = self.basis[k]
        src, tgt = self.words(e)
        return self.eng.elementary(src, tgt, e.channel, e.col, e.row)

    def grade_slice(self, g: int) -> slice:
        lo = int(np.searchsorted(self.grade_of, g, side="left"))
        hi = int(np.searchsorted(self.grade_of, g, side="right"))
        return slice(lo, hi)

    def grade_name(self, g: int) -> str:
        return self.cat.group.elements[g]

    @memo
    def _onb(self, z: int, x: int, y: int) -> list:
        return self.eng.onb(z, ((x, y),))

    # ------------------------------------------------- product and star

    def product_mor(self, g: int, X: Mor, Y: Mor) -> dict:
        """Splice two loop morphisms at grade g.

        X : (a x,) -> (x' b,) and Y : (b y,) -> (y' c,); returns a dict
        mapping each surviving new loop label z to the combined morphism
        (a z,) -> (z' c,).
        """
        eng = self.eng
        a, x = X.source[0]
        y = Y.source[0][1]
        c2 = Y.target[0][1]
        xp = self.tloop(g, x)
        s2 = eng.rtens(X, y)
        s3 = eng.ltens(xp, Y)
        mid = s3 @ s2
        out: dict = {}
        for z in self.loop_labels:
            acc = None
            for T in self._onb(z, x, y):
                Tg = T if self.action is None else eng.transport(T, g, self.action)
                term = eng.rtens(Tg.H, c2) @ mid @ eng.ltens(a, T)
                acc = term if acc is None else acc + term
            if acc is not None and acc.blocks:
                out[z] = acc
        return out

    def star_mor(self, g: int, X: Mor) -> Mor:
        """Bend the loop of X : (a x,) -> (x' b,) into (b xbar,) -> (xbar' a,)."""
        eng = self.eng
        a, x = X.source[0]
        b = X.target[0][1]
        xbar = int(self.cat.dual[x])
        pair = eng.conjugates(x)
        R = pair.R if self.action is None else eng.transport(pair.R, g, self.action)
        xpbar = self.tloop(g, xbar)
        s1 = eng.drop_units(eng.rtens(R, (b, xbar)), "source", (0,))
        s2 = eng.rtens(eng.ltens(xpbar, X.H), xbar)
        s3 = eng.drop_units(eng.ltens((xpbar, a), pair.Rbar.H), "target", (2,))
        return s3 @ (s2 @ s1)

    # ------------------------------------------------------------ fills

    def _fill_unit_and_trace(self) -> None:
        eng = self.eng
        u = self.cat.unit
        if u not in self.loop_labels:
            raise InternalCheckError("loop labels do not contain the unit")
        self.unit_coords = np.zeros(self.dim, dtype=complex)
        self.trace_vector = np.zeros(self.dim, dtype=complex)
        for g in self.grades:
            for p in self.outer_by_grade[g]:
                one = eng.identity((p,))
                one = eng.insert_units(one, "source", (1,))
                one = eng.insert_units(one, "target", (0,))
                kappa = complex(one.blocks[p][0, 0])
                elt = TubeBasisElement(g, u, p, p, p, 0, 0)
                k = self.index.get(elt)
                if k is None or abs(kappa) < 1e-12:
                    raise InternalCheckError(
                        f"unit loop element missing for {self.cat.label_name(p)}")
                self.unit_coords[k] = kappa
                self.trace_vector[k] = float(self.cat.qdim[p]) / kappa

    def _fill_constants(self) -> None:
        n = self.dim
        C = np.zeros((n, n, n), dtype=complex)
        for k1, e1 in enumerate(self.basis):
            for k2, e2 in enumerate(self.basis):
                if e1.grade != e2.grade or e1.target_outer != e2.source_outer:
                    continue
                terms = self.product_mor(e1.grade, self._mors[k1], self._mors[k2])
                for z, Zm in terms.items():
                    for c, B in Zm.blocks.items():
                        for j, i in np.argwhere(np.abs(B) > 0):
                            elt = TubeBasisElement(
                                e1.grade, z, e1.source_outer, e2.target_outer,
                                c, int(i), int(j))
                            C[k1, k2, self.index[elt]] += B[j, i]
        self.constants = C

    def _fill_star(self) -> None:
        n = self.dim
        S = np.zeros((n, n), dtype=complex)
        for k, e in enumerate(self.basis):
            Zm = self.star_mor(e.grade, self._mors[k])
            xbar = int(self.cat.dual[e.loop])
            for c, B in Zm.blocks.items():
                for j, i in np.argwhere(np.abs(B) > 0):
                    elt = TubeBasisElement(
                        e.grade, xbar, e.target_outer, e.source_outer,
                        c, int(i), int(j))
                    S[self.index[elt], k] += B[j, i]
        self.star_matrix = S

    # ------------------------------------------------------- arithmetic

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by x on the whole algebra."""
        return np.einsum("i,ijk->kj", x, self.constants)

    def right_mult(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("j,ijk->ki", x, self.constants)

    def gram(self, g: int | None = None) -> np.ndarray:
        """Gram matrix tau(b_i^* b_j), optionally restricted to one grade."""
        sl = slice(None) if g is None else self.grade_slice(g)
        S = self.star_matrix[:, sl]
        return np.einsum("ki,kjl,l->ij", S, self.constants[:, sl, :],
                         self.trace_vector)


# ---------------------------------------------------------------------------
# builders


def _resolve_labels(cat: GradedCategory, labels) -> list[int]:
    out = []
    for a in labels:
        if isinstance(a, str):
            if a not in cat.labels:
                raise ValidationError(f"unknown label {a!r}")
            out.append(cat.labels.index(a))
        else:
            out.append(int(a))
    return sorted(set(out))


def _check_loop_closure(cat: GradedCategory, loops: list[int]) -> None:
    ls = set(loops)
    if cat.unit not in ls:
        raise ValidationError("loop set must contain the unit")
    for a in loops:
        if int(cat.dual[a]) not in ls:
            raise ValidationError(
                f"loop set not closed under duals: missing dual of {cat.label_name(a)}")
    for a in loops:
        for b in loops:
            for c in np.nonzero(cat.N[a, b])[0]:
                if int(c) not in ls:
                    raise ValidationError(
                        "loop set not closed under fusion: "
                        f"{cat.label_name(a)} x {cat.label_name(b)} hits "
                        f"{cat.label_name(int(c))}")


def build_tube(cat: GradedCategory, subcat=None, verify: bool = True,
               tol: float = 1e-8) -> TubeAlgebra:
    """Tube algebra with loops in `subcat` and outer strands graded by `cat`.

    `subcat` may be a list of label names/indices, or None for the full
    degree-neutral sector.  Passing every label of a nontrivially graded
    category regrades it trivially first, which yields the full (ungraded)
    tube algebra of the underlying category.
    """
    neutral = cat.neutral_sector()
    loops = list(neutral) if subcat is None else _resolve_labels(cat, subcat)
    if set(loops) == set(range(cat.rank)) and len(neutral) != cat.rank:
        cat = trivially_graded(cat)
        loops = list(range(cat.rank))
    if not set(loops) <= set(cat.neutral_sector()):
        raise ValidationError(
            "loop labels must be degree-neutral (or the full label set)")
    _check_loop_closure(cat, loops)
    outer = {g: cat.sector(g) for g in range(cat.group.order)}
    tube = TubeAlgebra(cat, sorted(loops), outer, action=None, kind="relative")
    if verify:
        rep = verify_algebra(tube, tol)
        if not rep["pass"]:
            raise InternalCheckError(f"tube algebra axioms fail: {rep}")
    return tube


def build_twisted_tube(d0: GradedCategory, action, verify: bool = True,
                       tol: float = 1e-8) -> TubeAlgebra:
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
    outer = {g: list(range(d0.rank)) for g in range(d0.group.order)}
    tube = TubeAlgebra(d0, list(range(d0.rank)), outer, action=act,
                       kind="twisted")
    if verify:
        rep2 = verify_algebra(tube, tol)
        if not rep2["pass"]:
            raise InternalCheckError(f"twisted tube algebra axioms fail: {rep2}")
    return tube


# ---------------------------------------------------------------------------
# verification


def _outer_index(tube: TubeAlgebra, g: int) -> dict:
    """Index arrays I[p, q] of the grade-g basis elements with outer p -> q."""
    sl = tube.grade_slice(g)
    src, tgt = tube.source_of[sl], tube.target_of[sl]
    outers = tube.outer_by_grade[g]
    return {(p, q): sl.start + np.flatnonzero((src == p) & (tgt == q))
            for p in outers for q in outers}


def _pattern_violations(tube: TubeAlgebra) -> tuple[float, float]:
    """Largest |c[i, j, k]| off the chaining pattern (see the module
    docstring), and its part over pairs (i, j) of different grades."""
    r = tube.cat.rank
    grade, src, tgt = tube.grade_of, tube.source_of, tube.target_of
    key_k = (grade * r + src) * r + tgt
    key_ij = (grade[:, None] * r + src[:, None]) * r + tgt[None, :]
    cross = grade[:, None] != grade[None, :]
    key_ij[cross | (tgt[:, None] != src[None, :])] = -1
    off = np.abs(np.where(key_ij[:, :, None] == key_k, 0.0, tube.constants))
    return float(off.max()), float(off[cross].max()) if cross.any() else 0.0


def _block_associativity(tube: TubeAlgebra) -> float:
    """max |(b_i b_j) b_k - b_i (b_j b_k)| over every outer-label chain.

    For each grade and chain p -> q -> r -> s, with I_pq the basis elements
    running from p to q, compares C[I_pq, I_qr, I_pr] C[I_pr, I_rs, I_ps]
    with C[I_qr, I_rs, I_qs] C[I_pq, I_qs, I_ps].  This equals the dense
    n^4 maximum whenever `_pattern_violations` reads 0.0.
    """
    C = tube.constants
    worst = 0.0
    for g in tube.grades:
        index = _outer_index(tube, g)
        outers = tube.outer_by_grade[g]
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
                        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def verify_algebra(tube: TubeAlgebra, tol: float = 1e-8) -> dict:
    """Report the *-algebra axioms: associativity, star, trace, unit.

    Pure report; `pass` summarizes every residual against its tolerance.
    Every entry of every axiom is checked, as the module docstring says;
    `pass` needs the pattern gate `pattern_violation_max` (whose
    cross-grade part is `grade_mismatch_max`) to be exactly 0.0.
    """
    C = tube.constants
    S = tube.star_matrix
    n = tube.dim
    eye = np.eye(n)
    pattern, cross = _pattern_violations(tube)
    assoc = _block_associativity(tube)
    invol = float(np.max(np.abs(S @ np.conj(S) - eye)))
    # star(b_i b_j)_k = sum_m conj(c_ijm) S_km;
    # (star b_j)(star b_i)_k = sum_pq S_pj S_qi c_pqk
    star_of_prod = (np.conj(C).reshape(n * n, n) @ S.T).reshape(n, n, n)
    sj_c = (S.T @ C.reshape(n, n * n)).reshape(n, n, n)
    anti = float(np.max(np.abs(
        star_of_prod - np.tensordot(S, sj_c, axes=(0, 1)))))
    G = tube.gram()
    gram_herm = float(np.max(np.abs(G - G.conj().T)))
    eigs = np.linalg.eigvalsh((G + G.conj().T) / 2)
    min_eig = float(eigs.min())
    max_eig = float(eigs.max())
    u = tube.unit_coords
    unit_res = float(max(np.max(np.abs(tube.left_mult(u) - eye)),
                         np.max(np.abs(tube.right_mult(u) - eye))))
    ok = (assoc < tol and invol < tol and anti < tol and gram_herm < tol
          and unit_res < 1e-9 and pattern == 0.0
          and min_eig > 1e-10 * max(1.0, max_eig))
    return {
        "dim": n,
        "associativity": assoc,
        "star_involution": invol,
        "star_anti_mult": anti,
        "gram_hermiticity": gram_herm,
        "trace_min_eig": min_eig,
        "trace_max_eig": max_eig,
        "unit_residual": unit_res,
        "grade_mismatch_max": cross,
        "pattern_violation_max": pattern,
        "tol": tol,
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
    _, s, vh = scipy.linalg.svd(A)
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
    projection: np.ndarray          # coords of the minimal central projection
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


def decompose(tube: TubeAlgebra, grade: int, seed: int = 7,
              cluster_tol: float = 1e-6, tol: float = 1e-8,
              max_retries: int = 8) -> TubeDecomposition:
    """Block structure of one graded component.

    Solves the commutant equations for the component's center, probes it
    with a seeded random Hermitian central element, clusters the spectrum
    (gap threshold `cluster_tol`) and turns each cluster into a minimal
    central projection.  Probes that produce eigenvalue collisions are
    retried with seed+1, seed+2, ...; the retry count is reported.
    """
    sl = tube.grade_slice(grade)
    ng = sl.stop - sl.start
    if ng == 0:
        # a grade with no objects carries the zero algebra and no simples
        return TubeDecomposition(grade, tube.grade_name(grade), 0, 0, [],
                                 seed, 0)
    C = tube.constants[sl, sl, sl]
    S = tube.star_matrix[sl, sl]
    unit = tube.unit_coords[sl]

    # commutant: sum_k x_k (C[k,i,m] - C[i,k,m]) = 0 for all i, m.  The
    # system is ng^2 x ng, so the economy SVD's vh is already complete.
    M = (C.transpose(1, 2, 0) - C.transpose(0, 2, 1)).reshape(ng * ng, ng)
    _, s, vh = scipy.linalg.svd(M, full_matrices=False)
    Z = _kernel_columns(M.shape, s, vh, 1e-9)
    nc = Z.shape[1]
    if nc == 0:
        raise InternalCheckError("tube component has empty center")

    G = tube.gram(grade)
    Gh = (G + G.conj().T) / 2
    cond = float(np.linalg.cond(Gh))
    try:
        U = scipy.linalg.cholesky(Gh)
    except scipy.linalg.LinAlgError as exc:
        raise InternalCheckError(
            f"trace form not positive definite (cond {cond:.3e})") from exc
    Uinv = np.linalg.inv(U)

    # left / right multiplication by x: (x @ c_left).reshape(ng, ng).T and
    # (x @ c_right).reshape(ng, ng).T; the trace of the left one is x . t
    # with t_i = sum_k c[i, k, k]
    c_left = C.reshape(ng, ng * ng)
    c_right = C.transpose(1, 0, 2).reshape(ng, ng * ng)
    diag_trace = np.einsum("ikk->i", C)

    outer = tube.outer_by_grade[grade]
    corner_pos = [tube.index[TubeBasisElement(grade, tube.cat.unit, p, p, p, 0, 0)]
                  - sl.start for p in outer]

    last_reason = ""
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        coeff = rng.standard_normal(nc) + 1j * rng.standard_normal(nc)
        z0 = Z @ coeff
        z = z0 + S @ np.conj(z0)
        if np.linalg.norm(z) < 1e-8:
            last_reason = "degenerate Hermitian probe"
            continue
        A = np.einsum("i,ijk->kj", z, C)
        Mh = U @ A @ Uinv
        herm_dev = float(np.max(np.abs(Mh - Mh.conj().T)))
        if herm_dev > 1e-6 * max(1.0, float(np.max(np.abs(Mh)))):
            last_reason = f"probe not Hermitian in the trace form ({herm_dev:.2e})"
            continue
        w, V = scipy.linalg.eigh((Mh + Mh.conj().T) / 2)
        scale = max(1.0, float(np.max(np.abs(w))))
        clusters = []
        start = 0
        for idx in range(1, ng):
            if w[idx] - w[idx - 1] > cluster_tol * scale:
                clusters.append(list(range(start, idx)))
                start = idx
        clusters.append(list(range(start, ng)))
        if len(clusters) != nc:
            last_reason = f"{len(clusters)} spectral clusters for a {nc}-dim center"
            continue
        ranks = []
        for cl in clusters:
            m = math.isqrt(len(cl))
            ranks.append(m if m * m == len(cl) else -1)
        if -1 in ranks:
            last_reason = "eigenvalue collision (non-square cluster)"
            continue

        projs = []
        for cl in clusters:
            P = V[:, cl] @ V[:, cl].conj().T
            p_alg = Uinv @ P @ U
            projs.append(p_alg @ unit)

        # Li @ zs holds every product z_i z_j; Li[:, corner_pos] is all the
        # corner count needs of Li
        zs = np.stack(projs, axis=1)
        corner_cols = []
        devs = [float(np.linalg.norm(sum(projs) - unit))]
        for ii, zi in enumerate(projs):
            Li = (zi @ c_left).reshape(ng, ng).T
            Ri = (zi @ c_right).reshape(ng, ng).T
            prods = Li @ zs
            prods[:, ii] -= zi          # z_i z_j should be delta_ij z_i
            devs.append(float(np.linalg.norm(S @ np.conj(zi) - zi)))
            devs.append(float(np.max(np.abs(Li - Ri))))
            devs.append(float(np.max(np.linalg.norm(prods, axis=0))))
            corner_cols.append(Li[:, corner_pos])
        if max(devs) > 1e-6:
            last_reason = f"projection system residual {max(devs):.2e}"
            continue

        blocks = []
        corner_ok = True
        for zc, cols, m in zip(projs, corner_cols, ranks):
            # the corner count of p is trace(lmat(z_c e_p)) / m, where e_p is
            # the unit's corner at p, so z_c e_p = unit[q] Li[:, q]
            vals = unit[corner_pos] * (diag_trace @ cols) / m
            corners = {}
            for p, val in zip(outer, vals):
                nval = round(val.real)
                if abs(val - nval) > 1e-6:
                    corner_ok = False
                corners[p] = int(nval)
            if sum(corners.values()) != m:
                corner_ok = False
            full = np.zeros(tube.dim, dtype=complex)
            full[sl] = zc
            blocks.append(TubeBlock(rank=m, projection=full, corners=corners))
        if not corner_ok:
            last_reason = "non-integral corner multiplicities"
            continue
        if sum(b.rank ** 2 for b in blocks) != ng:
            last_reason = "block ranks do not fill the component"
            continue

        def order_key(blk: TubeBlock):
            zc = blk.projection[sl]
            return (blk.rank,
                    tuple(blk.corners[p] for p in outer),
                    tuple(np.round(zc.real, 6)),
                    tuple(np.round(zc.imag, 6)))

        blocks.sort(key=order_key)
        return TubeDecomposition(grade=grade, grade_name=tube.grade_name(grade),
                                 dim=ng, center_dim=nc, blocks=blocks,
                                 seed=seed, retries=attempt)

    raise InternalCheckError(
        f"block decomposition failed after {max_retries} probes "
        f"(last: {last_reason}; Gram condition number {cond:.3e})")


# ---------------------------------------------------------------------------
# twisted vs plain comparison


def twisted_untwisted_iso(twisted: TubeAlgebra, relative: TubeAlgebra,
                          tol: float = 1e-8) -> dict:
    """Compare a twisted tube with the plain tube of the matching extension.

    `relative` must be the tube of the crossed extension of `twisted`'s
    category by the same action, with loops in the neutral sector.  The
    canonical basis bijection sends the loop/outer labels of the extension
    to their base labels and inverts the grade; the report carries the
    worst deviation between the mapped structure constants (and, for
    information, of the star, trace and unit data).
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

    dev = float(np.max(np.abs(
        relative.constants - twisted.constants[np.ix_(perm, perm, perm)])))
    sdev = float(np.max(np.abs(
        relative.star_matrix - twisted.star_matrix[np.ix_(perm, perm)])))
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
        "tol": tol,
        "pass": bool(dev < tol),
    }


# ---------------------------------------------------------------------------
# dumps


def tube_dump_dict(tube: TubeAlgebra, seed: int = 7, tol: float = 1e-8) -> dict:
    """JSON-ready dump: basis descriptors, sparse constants, star, trace."""
    cat = tube.cat
    names = cat.labels
    basis = [[tube.grade_name(e.grade), names[e.loop], names[e.source_outer],
              names[e.target_outer], names[e.channel], e.col, e.row]
             for e in tube.basis]
    consts = [[int(i), int(j), int(k),
               float(tube.constants[i, j, k].real),
               float(tube.constants[i, j, k].imag)]
              for i, j, k in np.argwhere(np.abs(tube.constants) > 1e-12)]
    star = [[int(k), int(i),
             float(tube.star_matrix[k, i].real), float(tube.star_matrix[k, i].imag)]
            for k, i in np.argwhere(np.abs(tube.star_matrix) > 1e-12)]
    trace = [[int(i), float(tube.trace_vector[i].real),
              float(tube.trace_vector[i].imag)]
             for i in np.nonzero(np.abs(tube.trace_vector) > 1e-12)[0]]
    unit = [[int(i), float(tube.unit_coords[i].real),
             float(tube.unit_coords[i].imag)]
            for i in np.nonzero(np.abs(tube.unit_coords) > 1e-12)[0]]
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
            "tolerance": float(tol),
        },
        "dim": tube.dim,
        "grades": grades,
        "basis": basis,
        "constants": consts,
        "star": star,
        "trace": trace,
        "unit": unit,
    }


def decomposition_dict(dec: TubeDecomposition, tube: TubeAlgebra | None = None) -> dict:
    name = (lambda a: tube.cat.labels[a]) if tube is not None else str
    blocks = []
    for b in dec.blocks:
        proj = [[int(i), float(b.projection[i].real), float(b.projection[i].imag)]
                for i in np.nonzero(np.abs(b.projection) > 1e-9)[0]]
        blocks.append({
            "rank": int(b.rank),
            "corners": {name(k): int(v) for k, v in sorted(b.corners.items())},
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
