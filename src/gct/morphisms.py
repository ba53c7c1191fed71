"""Morphism calculus over left-nested fusion trees.

Objects here are formal direct sums of tensor words of simples: a *word* is
a tuple of label ints, an object (`VObj`) a tuple of words.  A morphism is
stored channel-wise: for every simple c the matrix of the induced map
Hom(c, source) -> Hom(c, target) in the left-nested tree basis.  By
semisimplicity this loses nothing, and composition / adjoint become matrix
multiplication / conjugate transpose per channel.

The basis of Hom(c, w) is enumerated by *paths*: for each letter of w after
the first, the pair (simple reached before fusing that letter, multiplicity
index), lexicographically.  With this convention

* tensoring on the right by a simple is a pure re-indexing (no F data),
* tensoring on the left uses cached factorization unitaries built from
  F-blocks, one recoupling per letter, and
* inserting or dropping unit letters changes no block, only an endpoint.
  A unit letter at position k > 0 adds the path step (m, 0), and its m is
  the m of the next step, or the channel when the unit is the last letter;
  a unit at position 0 fixes the next step to (unit, 0).  Either way the
  step is determined by the others, so removing it keeps the order of the
  paths.  This is the strict-unit convention of the bends through conjugate
  pairs (Longo-Rehren 1995, Mueger 2003).

Everything downstream (tube algebras, half-braidings) is phrased through
this module, so its unitarity invariants are what the test-suite leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._memo import memo
from .fusion_core import GradedCategory, GroupAction, InternalCheckError, residual_max

__all__ = [
    "Word",
    "VObj",
    "Mor",
    "TreeEngine",
    "engine_for",
    "as_vobj",
    "vobj_tensor",
    "ConjugatePair",
    "residual_max",
]

Word = tuple  # tuple[int, ...]
VObj = tuple  # tuple[Word, ...]


def engine_for(cat: GradedCategory) -> "TreeEngine":
    """The category's engine, created on first use and kept on the category.

    The category and its engine reference each other, so the pair is freed
    together by the cycle collector once the caller drops the category.
    """
    eng = getattr(cat, "_engine", None)
    if eng is None:
        eng = cat._engine = TreeEngine(cat)
    return eng


def as_vobj(x) -> VObj:
    """Normalise an int / word / VObj into a VObj."""
    if isinstance(x, (int, np.integer)):
        return ((int(x),),)
    if isinstance(x, tuple) and x and all(isinstance(t, (int, np.integer)) for t in x):
        return (tuple(int(t) for t in x),)
    if isinstance(x, tuple) and all(isinstance(w, tuple) for w in x):
        return tuple(tuple(int(t) for t in w) for w in x)
    raise TypeError(f"cannot interpret {x!r} as an object")


def vobj_tensor(A: VObj, B: VObj) -> VObj:
    """Tensor product of two VObjs: concatenation of words, left factor major.

    Both arguments must already be normalised (see `as_vobj`).
    """
    return tuple(wa + wb for wa in A for wb in B)


@dataclass(eq=False)
class Mor:
    """A morphism between formal sums of fusion words.

    blocks[c] has shape (dim Hom(c, target), dim Hom(c, source)); channels
    with a zero-dimensional side are simply absent.
    """

    eng: "TreeEngine"
    source: VObj
    target: VObj
    blocks: dict

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "Mor") -> "Mor":
        if other.target != self.source:
            raise InternalCheckError(
                f"composition mismatch: inner objects differ\n  {other.target}\n  {self.source}"
            )
        out = {}
        for c, B in self.blocks.items():
            A = other.blocks.get(c)
            if A is not None:
                out[c] = B @ A
        return Mor(self.eng, other.source, self.target, out)

    def __add__(self, other: "Mor") -> "Mor":
        if other.source != self.source or other.target != self.target:
            raise InternalCheckError("sum of morphisms with different endpoints")
        out = dict(self.blocks)
        for c, B in other.blocks.items():
            out[c] = out[c] + B if c in out else B
        return Mor(self.eng, self.source, self.target, out)

    def __sub__(self, other: "Mor") -> "Mor":
        return self + (-1.0) * other

    def __mul__(self, z) -> "Mor":
        return Mor(self.eng, self.source, self.target, {c: z * B for c, B in self.blocks.items()})

    __rmul__ = __mul__

    @property
    def H(self) -> "Mor":
        """Adjoint: conjugate transpose per channel (tree bases are orthonormal)."""
        return Mor(self.eng, self.target, self.source, {c: B.conj().T for c, B in self.blocks.items()})

    # -- inspection ---------------------------------------------------------

    def block(self, c: int) -> np.ndarray:
        B = self.blocks.get(c)
        if B is not None:
            return B
        return np.zeros((self.eng.vdim(c, self.target), self.eng.vdim(c, self.source)), dtype=complex)

    def flat(self) -> np.ndarray:
        """Fixed-order vectorization of the blocks, absent ones zero-filled."""
        parts = []
        dt, ds = self.eng.vdims(self.target), self.eng.vdims(self.source)
        for c, (m, n) in enumerate(zip(dt, ds)):
            if m and n:
                B = self.blocks.get(c)
                parts.append((np.zeros((m, n), dtype=complex) if B is None else B).ravel())
        if not parts:
            return np.zeros(0, dtype=complex)
        return np.concatenate(parts)

    def norm(self) -> float:
        return residual_max(0.0, *(float(np.linalg.norm(B)) for B in self.blocks.values()))

    def diff_norm(self, other: "Mor") -> float:
        if other.source != self.source or other.target != self.target:
            raise InternalCheckError("comparing morphisms with different endpoints")
        chans = set(self.blocks) | set(other.blocks)
        return residual_max(0.0, *(float(np.linalg.norm(self.block(c) - other.block(c)))
                                   for c in chans))

    def scalar(self) -> complex:
        """The unique coefficient of a morphism between two 1-dimensional homs."""
        vals = [B for B in self.blocks.values() if B.size]
        if len(vals) != 1 or vals[0].shape != (1, 1):
            raise InternalCheckError("morphism is not a scalar")
        return complex(vals[0][0, 0])


@dataclass(eq=False)
class ConjugatePair:
    """Normalised solution of the conjugate equations for one simple.

    R : unit -> (abar, a),  Rbar : unit -> (a, abar), with both zig-zags
    exactly the identity and R^* R = Rbar^* Rbar = d(a).  `fs_indicator` is
    +1/-1 for self-dual a and 0 otherwise.
    """

    label: int
    R: Mor
    Rbar: Mor
    fs_indicator: int
    residual: float


@dataclass(eq=False, slots=True)
class _TensorPlan:
    """A tensor with id_V on every morphism S -> T, as placements.

    ``left`` tells id_V (x) f from f (x) id_V.  Each block f_d is raveled
    and written into one buffer of ``size`` entries at ``place[d]``, an
    index array with one row per group where f_d lands.  Channel c of the
    result is Phi_t^* @ buf[at:at + mt * ms].reshape(mt, ms) @ Phi_s for
    each entry (c, mask, at, mt, ms, Phi_t, Phi_s) of ``chans``, or that
    slice itself when the Phis are None; it is present when f has a block
    d with bit d set in mask.
    """

    V: VObj
    left: bool
    place: list
    chans: list
    size: int


class TreeEngine:
    """Per-category memos (see `gct._memo`) and tensor calculus for
    tree-basis morphisms."""

    def __init__(self, cat: GradedCategory):
        self.cat = cat
        self.rank = cat.rank
        self.unit = cat.unit
        self.unit_vobj: VObj = ((cat.unit,),)

    # ------------------------------------------------------------------ paths

    @memo
    def word_dims(self, w: Word) -> tuple:
        """dim Hom(c, w) for every channel c: dims(w) = dims(w[:-1]) @ N[:, w[-1], :]."""
        if len(w) == 1:
            return tuple(int(c == w[0]) for c in range(self.rank))
        return tuple((np.asarray(self.word_dims(w[:-1])) @ self.cat.N[:, w[-1], :]).tolist())

    def dim(self, c: int, w: Word) -> int:
        return self.word_dims(w)[c]

    def paths(self, c: int, w: Word) -> list:
        """Tree paths of Hom(c, w); most (c, w) pairs are empty and are not
        memoised, since storing them costs memory."""
        return self._paths(c, w) if self.word_dims(w)[c] else []

    @memo
    def _paths(self, c: int, w: Word) -> list:
        if len(w) == 1:
            return [()]
        N = self.cat.N
        out = []
        prefix, last = w[:-1], w[-1]
        for m in range(self.rank):
            nm = N[m, last, c]
            if nm == 0:
                continue
            for p in self.paths(m, prefix):
                for mu in range(nm):
                    out.append(p + ((m, mu),))
        return out

    @memo
    def vdims(self, vobj: VObj) -> tuple:
        """dim Hom(c, vobj) for every channel c."""
        return tuple(map(sum, zip(*map(self.word_dims, vobj)))) or (0,) * self.rank

    def vdim(self, c: int, vobj: VObj) -> int:
        return self.vdims(vobj)[c]

    @memo
    def offsets(self, c: int, vobj: VObj) -> list:
        out = [0]
        for w in vobj:
            out.append(out[-1] + self.word_dims(w)[c])
        return out

    def path_index(self, c: int, w: Word) -> dict:
        return {p: i for i, p in enumerate(self.paths(c, w))}

    # -------------------------------------------------------------- basic Mor

    def identity(self, x) -> Mor:
        V = as_vobj(x)
        blocks = {}
        for c in range(self.rank):
            n = self.vdim(c, V)
            if n:
                blocks[c] = np.eye(n, dtype=complex)
        return Mor(self, V, V, blocks)

    def zero(self, src, tgt) -> Mor:
        return Mor(self, as_vobj(src), as_vobj(tgt), {})

    def elementary(self, src, tgt, c: int, i: int, j: int) -> Mor:
        """Matrix unit: i-th basis vector of Hom(c, src) to j-th of Hom(c, tgt)."""
        S, T = as_vobj(src), as_vobj(tgt)
        B = np.zeros((self.vdim(c, T), self.vdim(c, S)), dtype=complex)
        B[j, i] = 1.0
        return Mor(self, S, T, {c: B})

    def onb(self, c: int, V: VObj) -> list:
        """Orthonormal basis of Hom(c, V) as morphisms from the simple c;
        V must be normalised (see `as_vobj`)."""
        n = self.vdim(c, V)
        out = []
        for i in range(n):
            B = np.zeros((n, 1), dtype=complex)
            B[i, 0] = 1.0
            out.append(Mor(self, ((c,),), V, {c: B}))
        return out

    # ---------------------------------------------------------- tensor plans
    #
    # Channel c of f (x) id_V and of id_V (x) f, for f : S -> T, places every
    # block f_d at groups of positions keyed by tuples (d, ...), each group
    # ordered like Hom(d, S) on the columns and like Hom(d, T) on the rows.  On the
    # right the groups are positions in the tree basis itself; on the left
    # they are positions in a factored basis, reached from the tree basis by
    # the unitary Phi(V, X, c).  Both are one-sided, built for X = S and
    # X = T whatever f is, and `_tensor_plan` pairs their groups once per
    # (V, S, T), so a call places each block of f once.

    @memo
    def factor_unitary(self, a: int, w: Word) -> dict:
        """Per channel c: unitary from Hom(c, (a,)+w) to the factored basis.

        The factored basis is enumerated (d ascending, path of Hom(d, w),
        nu < N[a, d, c]).
        """
        N = self.cat.N
        if len(w) == 1:
            return {c: np.eye(N[a, w[0], c], dtype=complex)
                    for c in range(self.rank) if N[a, w[0], c]}
        if len(w) == 2:
            # paths of (a,) + w are the left channels of F^{a w0 w1}_c and
            # the factored basis its right channels: one F-block, adjoint
            dims = N[a, w[0]] @ N[:, w[1]]
            F = self.cat.f_entries()
            return {c: F.block(a, w[0], w[1], c).conj().T
                    for c in np.flatnonzero(dims).tolist()}

        out = {}
        prefix, b = w[:-1], w[-1]
        U_pre = self.factor_unitary(a, prefix)
        F = self.cat.f_entries()
        for c in range(self.rank):
            src_paths = self.paths(c, (a,) + w)
            if not src_paths:
                continue
            n_src = len(src_paths)
            # intermediate basis after factoring the prefix: (m, (e, p', nu), mu)
            inter = []
            for m in range(self.rank):
                nmu = N[m, b, c]
                if nmu == 0 or m not in U_pre:
                    continue
                for (e, pp, nu) in self._factored_labels(a, prefix, m):
                    for mu in range(nmu):
                        inter.append((m, e, pp, nu, mu))
            i_inter = {lab: i for i, lab in enumerate(inter)}
            T1 = np.zeros((len(inter), n_src), dtype=complex)
            src_index = {p: i for i, p in enumerate(src_paths)}
            for m in range(self.rank):
                nmu = N[m, b, c]
                if nmu == 0 or m not in U_pre:
                    continue
                Um = U_pre[m]
                pre_paths = self.paths(m, (a,) + prefix)
                fac_labels = self._factored_labels(a, prefix, m)
                for col, q in enumerate(pre_paths):
                    for row, (e, pp, nu) in enumerate(fac_labels):
                        val = Um[row, col]
                        if val == 0:
                            continue
                        for mu in range(nmu):
                            T1[i_inter[(m, e, pp, nu, mu)], src_index[q + ((m, mu),)]] += val
            # F-move on (a, e, b; c) for each prefix path: column (m, nu, mu)
            # reads the row (a e -> m; nu), (m b -> c; mu) of F^{a e b}_c
            tgt_labels = self._factored_labels(a, w, c)
            i_tgt = {lab: i for i, lab in enumerate(tgt_labels)}
            T2 = np.zeros((len(tgt_labels), len(inter)), dtype=complex)
            for col, (m, e, pp, nu, mu) in enumerate(inter):
                right = self.cat.right_channels(a, e, b, c)
                f, kappa, lam = np.array(right).T
                vals = np.conj(F.entry(F.at[a, e, m] + nu, F.at[m, b, c] + mu,
                                       F.at[e, b, f] + kappa, F.at[a, f, c] + lam))
                for (d, kap, lam), val in zip(right, vals):
                    if val == 0:
                        continue
                    T2[i_tgt[(d, pp + ((e, kap),), lam)], col] += val
            U = T2 @ T1
            if U.shape[0] != U.shape[1]:
                raise InternalCheckError(f"factorization not square at (a={a}, w={w}, c={c})")
            out[c] = U
        return out

    def _factored_labels(self, a: int, w: Word, c: int):
        """Labels (d, path, nu) of the factored basis of Hom(c, (a,)+w)."""
        N = self.cat.N
        out = []
        for d in range(self.rank):
            nnu = N[a, d, c]
            if nnu == 0:
                continue
            for p in self.paths(d, w):
                for nu in range(nnu):
                    out.append((d, p, nu))
        return out

    def _right_groups(self, X: VObj, V: VObj) -> dict:
        """Per channel c: (n, None, groups) of (.) (x) id_V on the object X.

        n = dim Hom(c, X V), and groups maps keys (d, ...) to the tuple of
        positions in Hom(c, X V) where f_d lands, ordered like Hom(d, X).
        One letter b sends the path (m, p, mu) of Hom(c, Y b) to the key
        (m, mu); a word composes its letters from the right, and a sum of
        words places each word's groups on its words of X V (every len(V)-th
        one).  Only channels with Hom(c, X V) nonzero are present.  The None
        stands where `_left_side` keeps its unitary.  Not memoised: a piece
        is read once per plan built, and kept it would cost more memory than
        rebuilding it costs time.
        """
        if len(V) > 1:
            XV = vobj_tensor(X, V)
            parts = [self._right_groups(X, (v,)) for v in V]
            out = {}
            for c in np.flatnonzero(self.vdims(XV)).tolist():
                offs, groups = self.offsets(c, XV), {}
                for j, part in enumerate(parts):
                    if c in part:
                        pos = [p for k in range(j, len(XV), len(V))
                               for p in range(offs[k], offs[k + 1])]
                        for key, q in part[c][2].items():
                            groups[key + (j,)] = tuple(pos[i] for i in q)
                out[c] = (offs[-1], None, groups)
            return out
        prefix, b = V[0][:-1], V[0][-1]
        Y = vobj_tensor(X, (prefix,)) if prefix else X
        ones, pos = self._letter_groups(Y, lambda m: self.cat.fusion_channels(m, b))
        if prefix:
            inner = self._right_groups(X, (prefix,))
            ones = {c: {key + step: tuple(p[i] for i in q)
                        for step, p in one.items() for key, q in inner[step[0]][2].items()}
                    for c, one in ones.items()}
        return {c: (pos[c], None, one) for c, one in ones.items()}

    def _left_side(self, V: VObj, X: VObj) -> dict:
        """Per channel c: (n, Phi, groups) of id_V (x) (.) on the object X.

        n = dim Hom(c, V X), Phi is the unitary from the tree basis of
        Hom(c, V X) to a factored basis, and groups maps each key (d, ...)
        to the tuple of positions of the d-slot in it, ordered like
        Hom(d, X).  For one letter a, Phi is block diagonal over the words w
        of X with blocks ``factor_unitary(a, w)[c]``, and the factored basis
        runs (w, d, path of Hom(d, w), nu < N[a, d, c]) with key (d, nu).  A
        word a w' peels its first letter, then applies Phi(w', X, e) inside
        each slot (e, nu): Phi = U Phi(a, w' X, c), with U those blocks
        placed on the slots.  These are the one-letter F-moves of tensoring
        letter by letter, composed.  A sum of words is block diagonal.  Only
        channels with Hom(c, V X) nonzero are present.  Not memoised (the
        F-moves come from the memoised `factor_unitary`); callers must not
        modify the returned arrays.
        """
        if len(V) > 1:
            VX, nx = vobj_tensor(V, X), len(X)
            parts = [self._left_side((v,), X) for v in V]
            out = {}
            for c in np.flatnonzero(self.vdims(VX)).tolist():
                offs = self.offsets(c, VX)
                Phi = np.zeros((offs[-1], offs[-1]), dtype=complex)
                groups = {}
                for i, part in enumerate(parts):
                    if c in part:
                        lo, hi = offs[i * nx], offs[(i + 1) * nx]
                        _, P, g = part[c]
                        Phi[lo:hi, lo:hi] = P
                        for key, p in g.items():
                            groups[key + (i,)] = tuple(lo + k for k in p)
                out[c] = (offs[-1], Phi, groups)
            return out
        a, tail = V[0][0], V[0][1:]
        if tail:
            inner = self._left_side((tail,), X)
            out = {}
            for c, (n, Phi, one) in self._left_side(((a,),), vobj_tensor((tail,), X)).items():
                U = np.zeros_like(Phi)
                groups = {}
                for step, p in one.items():
                    _, P, g = inner[step[0]]
                    idx = np.array(p)
                    U[idx[:, None], idx] = P
                    for key, q in g.items():
                        groups[key + step] = tuple(p[i] for i in q)
                out[c] = (n, U @ Phi, groups)
            return out
        units = [self.factor_unitary(a, w) for w in X]
        groups, pos = self._letter_groups(X, lambda d: self.cat.fusion_channels(a, d))
        out = {}
        for c, g in groups.items():
            if len(X) == 1:
                Phi = units[0][c]
            else:
                offs = self.offsets(c, vobj_tensor(V, X))
                Phi = np.zeros((offs[-1], offs[-1]), dtype=complex)
                for k, U in enumerate(units):
                    if c in U:
                        Phi[offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = U[c]
            out[c] = (pos[c], Phi, g)
        return out

    def _letter_groups(self, X: VObj, channels) -> tuple:
        """Per channel c, the positions of a one-letter tensor on X grouped
        by (d, k), each ordered like Hom(d, X); and the dims.

        ``channels(d)`` lists (c, n) for the channels c of d with the letter
        (in either order).  Positions run (word of X, d, path of Hom(d,
        word), k < n), the tree order of Hom(c, X b) and the factored order
        of Hom(c, a X) alike.
        """
        groups: dict = {}
        pos = [0] * self.rank
        for w in X:
            for d, dd in enumerate(self.word_dims(w)):
                if dd:
                    for c, n in channels(d):
                        g = groups.setdefault(c, {})
                        for k in range(n):
                            g[d, k] = g.get((d, k), ()) + tuple(range(pos[c] + k, pos[c] + dd * n, n))
                        pos[c] += dd * n
        return groups, pos

    def _sides(self, side: str, V: VObj, S: VObj, T: VObj) -> tuple:
        """The one-sided pieces (per channel) of a tensor with id_V on S and T."""
        if side == "left":
            return self._left_side(V, S), self._left_side(V, T)
        if side == "right":
            return self._right_groups(S, V), self._right_groups(T, V)
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    @staticmethod
    def _pairs(ps, pt) -> tuple:
        """(nt, ns, Phi_t, Phi_s, {key: (rows, cols)}) for one channel.

        The channel of the tensor of f : S -> T is the nt x ns matrix
        Phi_t^* D Phi_s, where D holds f_d at rows x cols for each key
        (d, ...) the two sides share; on the right both Phis are None (the
        identity).
        """
        ns, Ps, gs = ps
        nt, Pt, gt = pt
        return nt, ns, Pt, Ps, {k: (gt[k], cols) for k, cols in gs.items() if k in gt}

    @memo
    def _tensor_plan(self, side: str, x, S: VObj, T: VObj) -> _TensorPlan:
        """The plan of ``ltens(x, .)`` (side "left") or ``rtens(., x)``
        (side "right") on morphisms S -> T.  The raw x is normalised here,
        once per key."""
        V = as_vobj(x)
        ps, pt = self._sides(side, V, S, T)
        chans, place, at = [], {}, 0
        for c in sorted(ps.keys() & pt.keys()):
            mt, ms, Pt, Ps, pairs = self._pairs(ps[c], pt[c])
            if not pairs:
                continue
            mask = 0
            for (d, *_), (rows, cols) in pairs.items():
                place.setdefault(d, []).append([at + r * ms + k for r in rows for k in cols])
                mask |= 1 << d
            chans.append((c, mask, at, mt, ms, Pt, Ps))
            at += mt * ms
        return _TensorPlan(V, side == "left", [(d, np.array(idx, dtype=np.intp))
                                               for d, idx in place.items()], chans, at)

    def _run_plan(self, plan: _TensorPlan, f: Mor) -> Mor:
        blocks = f.blocks
        buf = np.zeros(plan.size, dtype=complex)
        got = 0
        for d, idx in plan.place:
            B = blocks.get(d)
            if B is not None:
                buf[idx] = B.ravel()
                got |= 1 << d
        out = {}
        for c, mask, at, mt, ms, Pt, Ps in plan.chans:
            if got & mask:
                B = buf[at:at + mt * ms].reshape(mt, ms)
                out[c] = B if Pt is None else Pt.conj().T @ B @ Ps
        V, S, T = plan.V, f.source, f.target
        if plan.left:
            return Mor(self, vobj_tensor(V, S), vobj_tensor(V, T), out)
        return Mor(self, vobj_tensor(S, V), vobj_tensor(T, V), out)

    def rtens(self, f: Mor, x) -> Mor:
        """f tensor id_x for x a simple, word, or object.

        A pure re-indexing: channel c places each block f_d at the row and
        column groups that `_right_groups` gives on X = f.target and
        X = f.source.  The plan is memoised per (x, f.source, f.target) and
        normalises x on its miss, so a call is one placement per block of f.
        """
        return self._run_plan(self._tensor_plan("right", x, f.source, f.target), f)

    def ltens(self, x, f: Mor) -> Mor:
        """id_x tensor f for x a simple, word, or object.

        Channel c is Phi_t^* D(f) Phi_s: D(f) places each block f_d at the
        factored positions that `_left_side` gives on X = f.target and
        X = f.source, and Phi_t = Phi(x, f.target, c), Phi_s =
        Phi(x, f.source, c) are its factorization unitaries, composed from
        `factor_unitary` (memoised per letter and word).  The plan is
        memoised per (x, f.source, f.target) and normalises x on its miss,
        so a call is one placement and two small products per channel.
        """
        return self._run_plan(self._tensor_plan("left", x, f.source, f.target), f)

    def tensor_factors(self, side: str, a: int, source: VObj, target: VObj,
                       c: int) -> list:
        """Channel c of a one-letter tensor with id_a as two-sided products.

        For every f : source -> target, channel c of ``ltens(a, f)`` (side
        "left") or of ``rtens(f, a)`` (side "right") is the sum of
        L @ f.blocks[d] @ R over the returned triples (d, L, R), read off
        the one-sided pieces a tensor plan is built from: on the right L and
        R are 0/1 selections (the re-indexing); on the left
        L = Phi_t^*[:, rows] and R = Phi_s[cols, :], the column and row
        groups of the factorization unitaries where the d-slot sits.  With
        vec(L X R) = (L kron R^T) vec(X) a linear solve over f can be set up
        without building f from matrix units.  Memoised per (side, a,
        source, target) for all channels; callers must not modify the
        returned matrices.
        """
        return self._tensor_factors(side, a, source, target).get(c, [])

    @memo
    def _tensor_factors(self, side: str, a: int, source: VObj, target: VObj) -> dict:
        ps, pt = self._sides(side, ((a,),), source, target)
        out = {}
        for c in ps.keys() & pt.keys():
            nt, ns, Pt, Ps, pairs = self._pairs(ps[c], pt[c])
            pairs = [(k[0], list(rows), list(cols)) for k, (rows, cols) in sorted(pairs.items())]
            if side == "left":
                Lt = Pt.conj().T
                out[c] = [(d, Lt[:, rows], Ps[cols, :]) for d, rows, cols in pairs]
            else:
                out[c] = [(d, np.eye(nt)[:, rows], np.eye(ns)[cols, :]) for d, rows, cols in pairs]
        return out

    # ---------------------------------------------------- unit insert / drop

    def _drop_word(self, w: Word, positions: tuple) -> Word:
        """w without its unit letters at positions, negative ones from its end."""
        dels = {k + len(w) if k < 0 else k for k in positions}
        for k in dels:
            if not 0 <= k < len(w) or w[k] != self.unit:
                raise InternalCheckError(f"cannot drop non-unit letter at position {k} of {w}")
        kept = tuple(t for i, t in enumerate(w) if i not in dels)
        if not kept:
            raise InternalCheckError("cannot drop every letter of a word")
        return kept

    def _grow_word(self, w: Word, positions: tuple) -> Word:
        """w with unit letters at positions of the result, negative ones from its end."""
        n = len(w) + len(positions)
        out = list(w)
        for k in sorted(k + n if k < 0 else k for k in positions):
            out.insert(k, self.unit)
        return tuple(out)

    def _relabel(self, f: Mor, where: str, word) -> Mor:
        if where == "source":
            return Mor(self, tuple(map(word, f.source)), f.target, f.blocks)
        if where == "target":
            return Mor(self, f.source, tuple(map(word, f.target)), f.blocks)
        raise ValueError(f"where must be 'source' or 'target', got {where!r}")

    def drop_units(self, f: Mor, where: str, positions: tuple) -> Mor:
        """Remove the unit letters at `positions` of every word on one side.

        A negative position counts from the end of each word.  This is the
        canonical unit isomorphism, and it keeps every block of f (see the
        module docstring).
        """
        return self._relabel(f, where, lambda w: self._drop_word(w, positions))

    def insert_units(self, f: Mor, where: str, positions: tuple) -> Mor:
        """Insert unit letters so they sit at `positions` of every new word;
        the inverse of `drop_units`, it keeps every block of f."""
        return self._relabel(f, where, lambda w: self._grow_word(w, positions))

    def strip_word(self, w: Word) -> Word:
        out = tuple(t for t in w if t != self.unit)
        return out if out else (self.unit,)

    # ----------------------------------------------------------- conjugates

    @memo
    def conjugates(self, a: int) -> ConjugatePair:
        rep = min(a, int(self.cat.dual[a]))
        if a == rep:
            return self._solve_conjugates(a)
        p = self.conjugates(rep)
        return ConjugatePair(label=a, R=p.Rbar, Rbar=p.R, fs_indicator=0, residual=p.residual)

    def _solve_conjugates(self, a: int) -> ConjugatePair:
        cat = self.cat
        abar = int(cat.dual[a])
        d = float(cat.qdim[a])
        v = self.onb(self.unit, ((abar, a),))[0]
        vbar = self.onb(self.unit, ((a, abar),))[0]
        R = math.sqrt(d) * v

        # zig-zag with a trial Rbar fixes the phase and scale of Rbar
        s = self._zig(vbar, R, a).scalar()
        if abs(s) < 1e-12:
            raise InternalCheckError(f"degenerate zig-zag for simple {cat.labels[a]}")
        Rbar = (1.0 / np.conj(s)) * vbar

        res = self.conjugate_residual(a, R, Rbar)
        fs = 0
        if abar == a:
            kappa = complex(Rbar.blocks[self.unit][0, 0] / R.blocks[self.unit][0, 0])
            fs = 1 if kappa.real > 0 else -1
            if abs(kappa - fs) > 1e-8:
                raise InternalCheckError(
                    f"Frobenius-Schur indicator of {cat.labels[a]} is not a sign: {kappa}"
                )
            # independent read from the F data: d(a) * unit entry of F^{a abar a}_a
            F, u = cat.f_entries(), self.unit
            kf = d * F.entry(F.at[a, abar, u], F.at[u, a, a], F.at[abar, a, u], F.at[a, u, a])
            if abs(kf - fs) > 1e-8:
                raise InternalCheckError(
                    f"Frobenius-Schur indicator mismatch for {cat.labels[a]}: "
                    f"zig-zag gives {fs}, F data gives {kf}"
                )
        return ConjugatePair(label=a, R=R, Rbar=Rbar, fs_indicator=fs, residual=res)

    def _zig(self, Rbar: Mor, R: Mor, a: int) -> Mor:
        """(Rbar^* tensor a) o (a tensor R), with unit legs dropped, in End(a)."""
        up = self.drop_units(self.ltens(a, R), "source", (1,))      # a -> a abar a
        down = self.drop_units(self.rtens(Rbar.H, a), "target", (0,))  # a abar a -> a
        return down @ up

    def conjugate_residual(self, a: int, R: Mor, Rbar: Mor) -> float:
        """Worst deviation in the four conjugate-equation identities."""
        abar = int(self.cat.dual[a])
        d = float(self.cat.qdim[a])
        ida = self.identity(a)
        idabar = self.identity(abar)
        z1 = self._zig(Rbar, R, a).diff_norm(ida)
        z2 = (
            self.drop_units(self.rtens(R.H, abar), "target", (0,))
            @ self.drop_units(self.ltens(abar, Rbar), "source", (1,))
        ).diff_norm(idabar)
        n1 = abs((R.H @ R).scalar() - d)
        n2 = abs((Rbar.H @ Rbar).scalar() - d)
        return residual_max(z1, z2, n1, n2)

    @memo
    def word_R(self, w: Word) -> tuple[Mor, Mor]:
        """(R, Rbar) for a word: R: unit -> wbar w, Rbar: unit -> w wbar."""
        if len(w) == 1:
            pair = self.conjugates(w[0])
            return pair.R, pair.Rbar
        prefix, b = w[:-1], w[-1]
        bbar = int(self.cat.dual[b])
        Rp, Rbarp = self.word_R(prefix)
        Rb, Rbarb = self.word_R((b,))
        # R_w = (bbar tensor R_prefix tensor b) o R_b
        mid = self.rtens(self.drop_units(self.ltens(bbar, Rp), "source", (1,)), (b,))
        R = mid @ Rb
        # Rbar_w = (prefix tensor Rbar_b tensor prefixbar) o Rbar_prefix
        pbar = self.cat.dual_word(prefix)
        np_ = len(prefix)
        mid2 = self.rtens(
            self.drop_units(self.ltens(prefix, Rbarb), "source", (np_,)), pbar
        )
        Rbar = mid2 @ Rbarp
        return R, Rbar

    def vobj_R(self, V) -> tuple[Mor, Mor]:
        """(R, Rbar) for an object: diagonal sum of per-word solutions."""
        V = as_vobj(V)
        Vbar = tuple(self.cat.dual_word(w) for w in V)
        tgt_R = vobj_tensor(Vbar, V)
        tgt_Rbar = vobj_tensor(V, Vbar)
        n = len(V)
        R_blocks: dict = {}
        Rbar_blocks: dict = {}
        c = self.unit
        BR = np.zeros((self.vdim(c, tgt_R), 1), dtype=complex)
        BRbar = np.zeros((self.vdim(c, tgt_Rbar), 1), dtype=complex)
        offs_R = self.offsets(c, tgt_R)
        offs_Rbar = self.offsets(c, tgt_Rbar)
        for i, w in enumerate(V):
            Rw, Rbarw = self.word_R(w)
            k = i * n + i
            colR = Rw.block(c)
            BR[offs_R[k]:offs_R[k + 1], :] += colR
            colRbar = Rbarw.block(c)
            BRbar[offs_Rbar[k]:offs_Rbar[k + 1], :] += colRbar
        if BR.size:
            R_blocks[c] = BR
        if BRbar.size:
            Rbar_blocks[c] = BRbar
        R = Mor(self, self.unit_vobj, tgt_R, R_blocks)
        Rbar = Mor(self, self.unit_vobj, tgt_Rbar, Rbar_blocks)
        return R, Rbar

    # ------------------------------------------------- transport by actions

    def transport(self, f: Mor, g: int, act: GroupAction) -> Mor:
        """Apply a strict action element to a morphism (relabel + re-index)."""
        src = self._moved_vobj(act, g, f.source)
        tgt = self._moved_vobj(act, g, f.target)
        blocks = {}
        for c, B in f.blocks.items():
            gc = act.on_label(g, c)
            rperm = self._transport_perm(act, g, f.target, c)
            cperm = self._transport_perm(act, g, f.source, c)
            nB = np.zeros_like(B)
            nB[rperm[:, None], cperm] = B
            blocks[gc] = nB
        return Mor(self, src, tgt, blocks)

    # Both memos below are keyed by the action object itself, weakly: two
    # actions may share a name (every ``--action trivial`` run makes a fresh one).

    @memo(weak=True)
    def _moved_vobj(self, act: GroupAction, g: int, vobj: VObj) -> VObj:
        """g[vobj]."""
        return tuple(act.on_word(g, w) for w in vobj)

    @memo(weak=True)
    def _transport_perm(self, act: GroupAction, g: int, vobj: VObj, c: int) -> np.ndarray:
        """Index map Hom(c, vobj) -> Hom(g[c], g[vobj])."""
        gvobj = self._moved_vobj(act, g, vobj)
        gc = act.on_label(g, c)
        offs = self.offsets(gc, gvobj)
        parts = []
        for k, (w, gw) in enumerate(zip(vobj, gvobj)):
            tgt_index = self.path_index(gc, gw)
            part = np.zeros(self.dim(c, w), dtype=int)
            for i, p in enumerate(self.paths(c, w)):
                gp = tuple((act.on_label(g, m), mu) for (m, mu) in p)
                part[i] = tgt_index[gp]
            parts.append(part + offs[k])
        return np.concatenate(parts) if parts else np.zeros(0, dtype=int)

    # ------------------------------------------------- Frobenius transposes

    def frobenius_transpose(self, T: Mor) -> Mor:
        """Hom(zeta, w xi) -> Hom(xibar, zetabar w) by bending both ends.

        Normalised by sqrt(d(xi)/d(zeta)) so that orthonormal bases map to
        orthonormal bases.
        """
        if len(T.source) != 1 or len(T.source[0]) != 1 or len(T.target) != 1:
            raise InternalCheckError("frobenius_transpose expects a simple source and a single target word")
        zeta = T.source[0][0]
        wfull = T.target[0]
        if len(wfull) < 1:
            raise InternalCheckError("empty target word")
        w, xi = wfull[:-1], wfull[-1]
        cat = self.cat
        zbar = int(cat.dual[zeta])
        xibar = int(cat.dual[xi])
        Rz, _ = self.word_R((zeta,))
        _, Rbarxi = self.word_R((xi,))
        start = self.drop_units(self.rtens(Rz, (xibar,)), "source", (0,))   # xibar -> zbar zeta xibar
        mid = self.rtens(self.ltens((zbar,), T), (xibar,))                  # ... -> zbar w xi xibar
        finish = self.drop_units(
            self.ltens((zbar,) + w, Rbarxi.H), "target", (len(w) + 1,)
        )                                                                   # -> zbar w
        out = finish @ mid @ start
        return math.sqrt(float(cat.qdim[xi]) / float(cat.qdim[zeta])) * out
