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
pairing, so a structure constant is one entry of a spliced morphism.  The
splice of X : a x -> x' b and Y : b y -> y' c is
rtens(T'^*, c) ltens(x', Y) rtens(X, y) ltens(a, T), summed over T in
onb(z, x y) with T' its transport (which keeps the multiplicity index of
T).  Both rtens factors are re-indexings and each ltens is one F-move, so
on each output channel d the constants are read in closed form off three
F-blocks: F^{a x y}_d, F^{x' b y}_d and F^{x' y' c}_d.  `_fill_constants`
evaluates each chained block C[x: a -> b, y: b -> c, z: a -> c] this way,
batched over blocks of one shape, and builds no morphism.  The constants
read F only through these blocks, so they equal the splice on any F data,
also data that fail the pentagon; the splice itself is kept only as the
oracle of the tests.  The star is still bent from morphisms, one
`star_mor` per basis element.  `decompose` computes the block structure
(minimal central projections, block ranks, corner multiplicities) of one
graded component.

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
import itertools
import math

import numpy as np

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
    "TubeIdeal",
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
                            basis.extend(TubeBasisElement(g, x, p, r, c, i, j)
                                         for i in range(m) for j in range(n))
        basis.sort()
        self.basis = basis
        self.dim = len(basis)
        self.index = {e: k for k, e in enumerate(basis)}
        self.grade_of = np.array([e.grade for e in basis], dtype=int)
        self.source_of = np.array([e.source_outer for e in basis], dtype=int)
        self.target_of = np.array([e.target_outer for e in basis], dtype=int)
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

    # ------------------------------------------------------------- star

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
        """Every chained block of the constants from three F-blocks per
        output channel (see the module docstring).  The basis elements of one
        (grade, loop, source, target) form a run of consecutive indices, and
        a block is C[run x: a -> b, run y: b -> c, the runs z: a -> c], all
        in the ideal of a.  The blocks that start with one loop x are
        evaluated together, one numpy contraction for all blocks of one
        shape, and scattered into the ideals' cubes, which are consecutive
        parts of one array."""
        sizes = np.array([idl.positions.size for idl in self.ideals])
        starts = np.concatenate(([0], np.cumsum(sizes ** 3)))
        local = np.empty(self.dim, dtype=int)
        for idl in self.ideals:
            local[idl.positions] = np.arange(idl.positions.size)
        flat = np.zeros(starts[-1], dtype=complex)
        runs: dict = {}
        for k, e in enumerate(self.basis):
            key = (e.grade, e.loop, e.source_outer, e.target_outer)
            runs[key] = range(runs[key].start if key in runs else k, k + 1)
        leaving: dict = {}
        for (g, y, b, c), sy in runs.items():
            leaving.setdefault((g, b), []).append((y, c, sy))
        fsums = _FSums(self.cat)
        # runs come in basis order, so those of one (grade, loop) are adjacent
        for (g, x), firsts in itertools.groupby(runs.items(), lambda kv: kv[0][:2]):
            by_shape: dict = {}
            for (_, _, a, b), sx in firsts:
                for y, c, sy in leaving[g, b]:
                    blk = self._chained_block(fsums, runs, g, x, y, a, b, c, sx, sy)
                    if blk is not None:
                        rA, _, _, cB, R = blk[:5]
                        shape = (len(rA), len(rA[0]), len(cB), len(cB[0]),
                                 len(R), len(R[0]))
                        by_shape.setdefault(shape, []).append(blk)
            for blks in by_shape.values():
                X, Y, O, vals = _block_values(fsums.flat(), blks)
                r = self.ideal_of[X[:, :1, None, None]]
                m = sizes[r]
                where = (local[X][:, :, None, None] * m
                         + local[Y][:, None, :, None]) * m + local[O][:, None, None, :]
                np.put(flat, starts[r] + where, vals)
        for idl, at, m in zip(self.ideals, starts, sizes):
            idl.cube = flat[at:at + m ** 3].reshape(m, m, m)

    def _chained_block(self, fsums: _FSums, runs: dict, g: int, x: int,
                       y: int, a: int, b: int, c: int, sx: range,
                       sy: range) -> tuple | None:
        """Where b_X b_Y reads its three F-blocks, for X in Hom(a x, x' b) on
        the run sx and Y in Hom(b y, y' c) on sy; None if it reaches no
        element z: a -> c.

        The splice is rtens(T'^*, c) ltens(x', Y) rtens(X, y) ltens(a, T),
        summed over T in onb(z, x y), with T' the transport of T to
        Hom(z', x' y'), which keeps its multiplicity index t.  Both rtens
        factors are re-indexings.  On channel d, ltens(a, T) is column
        (z, t, .) of A = F^{a x y}_d (right to left coordinates) and
        ltens(x', Y) is D E_Y B^*, with B = F^{x' b y}_d, D = F^{x' y' c}_d
        and E_Y the matrix unit of Y on right channels; T'^* reads row
        (z', t, .) of D.  Returns flat positions into `fsums`, as lists of
        lists cut to one length: the rows of A [X, nu] and the columns of A
        [o, t] that T pairs with the rows of D [o, t]; the rows of B [X, nu]
        that rtens(X, y) pairs with those of A; the columns of B [Y, lam]
        that E_Y pairs with the columns of D [Y, lam]; then the basis
        positions of X, Y and the output elements o.
        """
        xp, yp = self.tloop(g, x), self.tloop(g, y)
        rowA, colA, padA = fsums.positions(a, x, y)
        rowB, colB, padB = fsums.positions(xp, b, y)
        rowD, colD, padD = fsums.positions(xp, yp, c)
        R, P, out = [], [], []
        for z, nt in self.cat.fusion_channels(x, y):
            so = runs.get((g, z, a, c))
            if so is None:
                continue
            zp = self.tloop(g, z)
            for e in self.basis[so.start:so.stop]:
                R.append([rowD[e.channel, zp, t, e.row] for t in range(nt)])
                P.append([colA[e.channel, z, t, e.col] for t in range(nt)])
            out.extend(so)
        if not out:
            return None
        Xs = self.basis[sx.start:sx.stop]
        Ys = self.basis[sy.start:sy.stop]
        # rtens(X, y) sends row (d, ch, col, nu) of A to row (d, ch, row, nu) of B
        rA = [[rowA[d, e.channel, e.col, nu] for d, nu in self._pairs(e.channel, y)]
              for e in Xs]
        rB = [[rowB[d, e.channel, e.row, nu] for d, nu in self._pairs(e.channel, y)]
              for e in Xs]
        # E_Y sends column (d, ch, col, lam) of B to column (d, ch, row, lam) of D
        cB = [[colB[d, e.channel, e.col, lam] for d, lam in self._pairs(xp, e.channel)]
              for e in Ys]
        cD = [[colD[d, e.channel, e.row, lam] for d, lam in self._pairs(xp, e.channel)]
              for e in Ys]
        return (_padded(rA, padA[0]), _padded(P, padA[1]),
                _padded(rB, padB[0]), _padded(cB, padB[1]),
                _padded(R, padD[0]), _padded(cD, padD[1]), sx, sy, out)

    @memo
    def _pairs(self, u: int, v: int) -> list:
        """(d, k) for every channel d of u v and k < N[u, v, d]."""
        return [(d, k) for d, m in self.cat.fusion_channels(u, v) for k in range(m)]

    def _fill_star(self) -> None:
        """Each ideal's star block, one `star_mor` per basis element.  The
        star of p -> r runs r -> p, so it stays in the ideal."""
        for idl in self.ideals:
            I = idl.positions
            S = np.zeros((I.size, I.size), dtype=complex)
            for col, k in enumerate(I.tolist()):
                e = self.basis[k]
                Zm = self.star_mor(e.grade, self.element_mor(k))
                xbar = int(self.cat.dual[e.loop])
                for c, B in Zm.blocks.items():
                    for j, i in np.argwhere(np.abs(B) > 0):
                        elt = TubeBasisElement(
                            e.grade, xbar, e.target_outer, e.source_outer,
                            c, int(i), int(j))
                        S[np.searchsorted(I, self.index[elt]), col] += B[j, i]
            idl.star = S


def _gram(C: np.ndarray, S: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tau(b_i^* b_j) = sum_kl S[k, i] c[k, j, l] t_l for the columns i, j
    that C and S hold."""
    return S.T @ (C @ t)


def _left_mult(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i x_i C[i, j, k] as the matrix [k, j] of left multiplication."""
    n = C.shape[0]
    return (x @ C.reshape(n, n * n)).reshape(n, n).T


def _padded(rows: list, pad: int) -> list:
    """Lists of positions cut to one length, the short ones filled with
    `pad`, the position of a zero."""
    lengths = list(map(len, rows))
    width = max(lengths)
    if min(lengths) == width:
        return rows
    return [r + [pad] * (width - len(r)) for r in rows]


def _block_values(F: np.ndarray, blks: list) -> tuple:
    """The basis positions X, Y, O and the values of a list of chained
    blocks of one shape, as `TubeAlgebra._chained_block` describes them:
    c[X, Y, o] = sum over nu, lam, t of A[X nu, o t] conj(B[X nu, Y lam])
    D[o t, Y lam]."""
    rA, P, rB, cB, R, cD, X, Y, O = (np.array(part) for part in zip(*blks))
    a = F[rA[:, :, :, None, None] + P[:, None, None]]          # [k, X, nu, o, t]
    b = F[rB[:, :, :, None, None] + cB[:, None, None]]         # [k, X, nu, Y, lam]
    d = F[R[:, :, :, None, None] + cD[:, None, None]]          # [k, o, t, Y, lam]
    return X, Y, O, np.einsum("kxnot,kxnyl,kotyl->kxyo", a, np.conj(b), d)


class _FSums:
    """F^{u v w}_d over every channel d of a triple, as one block-diagonal
    matrix with a zero row and column appended, the triples stored flat one
    after another, each when first asked for."""

    def __init__(self, cat: GradedCategory):
        self.cat = cat
        self.parts: list = []
        self.size = 0

    @memo
    def positions(self, u: int, v: int, w: int) -> tuple:
        """The flat offset of the row of each (d, left channel) of the
        triple, the column of each (d, right channel), and the pair (zero
        row, zero column) that padding reads."""
        cat = self.cat
        ds = sorted({d for e, _ in cat.fusion_channels(u, v)
                     for d, _ in cat.fusion_channels(e, w)})
        blocks = [cat.f_block(u, v, w, d) for d in ds]
        size = sum(len(fb) for fb in blocks)
        width = size + 1
        M = np.zeros((width, width), dtype=complex)
        rows, cols = {}, {}
        at = 0
        for d, fb in zip(ds, blocks):
            M[at:at + len(fb), at:at + len(fb)] = fb
            for i, ch in enumerate(cat.left_channels(u, v, w, d)):
                rows[(d, *ch)] = self.size + (at + i) * width
            for i, ch in enumerate(cat.right_channels(u, v, w, d)):
                cols[(d, *ch)] = at + i
            at += len(fb)
        pads = (self.size + size * width, size)
        self.parts.append(M.ravel())
        self.size += M.size
        return rows, cols, pads

    def flat(self) -> np.ndarray:
        """Every triple stored so far, as one array."""
        if len(self.parts) > 1:
            self.parts = [np.concatenate(self.parts)]
        return self.parts[0]


def _find(root: dict, p):
    while root[p] != p:
        p = root[p]
    return p


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
                worst = max(worst, float(np.abs(A[mask]).max()))
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
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
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


def verify_algebra(tube: TubeAlgebra, tol: float = 1e-8) -> dict:
    """Report the *-algebra axioms: associativity, star, trace, unit.

    Pure report; `pass` summarizes every residual against its tolerance.
    Every entry of every axiom is checked ideal by ideal, as the module
    docstring says; `pass` needs the pattern gate `pattern_violation_max`
    to be exactly 0.0.
    """
    rows, eigs = [], []
    for idl in tube.ideals:
        I, C, S = idl.positions, idl.cube, idl.star
        eye = np.eye(I.size)
        G = _gram(C, S, tube.trace_vector[I])
        eigs.append(np.linalg.eigvalsh((G + G.conj().T) / 2))
        u = tube.unit_coords[I]
        rows.append((
            _block_associativity(tube, idl),
            float(np.max(np.abs(S @ np.conj(S) - eye))),
            _star_anti_mult(C, S),
            float(np.max(np.abs(G - G.conj().T))),
            float(max(np.max(np.abs(_left_mult(C, u) - eye)),
                      np.max(np.abs((u @ C).T - eye))))))
    assoc, invol, anti, gram_herm, unit_res = map(max, zip(*rows))
    eigs = np.concatenate(eigs)
    min_eig = float(eigs.min())
    max_eig = float(eigs.max())
    pattern = _pattern_violation(tube)
    ok = (assoc < tol and invol < tol and anti < tol and gram_herm < tol
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


def decompose(tube: TubeAlgebra, grade: int, seed: int = 7,
              cluster_tol: float = 1e-6, tol: float = 1e-8,
              max_retries: int = 8) -> TubeDecomposition:
    """Block structure of one graded component.

    The grade splits into its ideals (see the module docstring).  For each
    ideal, solves the commutant equations for its center, probes it with a
    seeded random Hermitian central element, clusters the spectrum (gap
    threshold `cluster_tol`) and turns each cluster into a minimal central
    projection.
    Probes that produce eigenvalue collisions are retried with seed+1,
    seed+2, ...; the largest retry count of any ideal is reported.

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
        found, attempt = _decompose_ideal(tube, idl, seed, cluster_tol, max_retries)
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


def _decompose_ideal(tube: TubeAlgebra, ideal: TubeIdeal, seed: int,
                     cluster_tol: float, max_retries: int) -> tuple:
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
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
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
        scale = max(1.0, float(np.max(np.abs(w))))
        clusters = []
        start = 0
        for idx in range(1, n):
            if w[idx] - w[idx - 1] > cluster_tol * scale:
                clusters.append(list(range(start, idx)))
                start = idx
        clusters.append(list(range(start, n)))
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

        zs = np.stack(projs, axis=1)
        dev = _projection_residual(C, S, M, unit, zs)
        if dev > 1e-6:
            last_reason = f"projection system residual {dev:.2e}"
            continue

        found = []
        corner_ok = True
        for zc, tr, m in zip(projs, zs.T @ corner_trace, ranks):
            vals = unit[corner_pos] * tr / m
            corners = {}
            for p, val in zip(labels, vals):
                nval = round(val.real)
                if abs(val - nval) > 1e-6:
                    corner_ok = False
                corners[p] = int(nval)
            if sum(corners.values()) != m:
                corner_ok = False
            found.append((m, zc, corners))
        if not corner_ok:
            last_reason = "non-integral corner multiplicities"
            continue
        if sum(m * m for m in ranks) != n:
            last_reason = "block ranks do not fill the component"
            continue
        return found, attempt

    raise InternalCheckError(
        f"block decomposition of {where} failed after {max_retries} probes "
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
    return max(float(np.linalg.norm(zs.sum(axis=1) - unit)),
               float(np.max(np.linalg.norm(S @ np.conj(zs) - zs, axis=0))),
               float(np.max(np.abs(M @ zs))),
               float(np.max(np.linalg.norm(prods, axis=2))))


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


def decomposition_dict(dec: TubeDecomposition, tube: TubeAlgebra | None = None) -> dict:
    name = (lambda a: tube.cat.labels[a]) if tube is not None else str
    blocks = []
    for b in dec.blocks:
        proj = [[int(b.positions[i]), float(b.projection[i].real),
                 float(b.projection[i].imag)]
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
