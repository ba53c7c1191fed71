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

* tensoring on the right by a simple is a pure re-indexing (no F data), and
* tensoring on the left uses cached factorization unitaries built from
  F-blocks, one recoupling per letter.

Everything downstream (tube algebras, half-braidings) is phrased through
this module, so its unitarity invariants are what the test-suite leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._memo import memo
from .fusion_core import GradedCategory, GroupAction, InternalCheckError

__all__ = [
    "Word",
    "VObj",
    "Mor",
    "TreeEngine",
    "engine_for",
    "as_vobj",
    "vobj_tensor",
    "hom_dim",
    "left_tensor",
    "right_tensor",
    "onb",
    "conjugate_solution",
    "frobenius_transpose",
    "ConjugatePair",
    "residual_max",
]

Word = tuple  # tuple[int, ...]
VObj = tuple  # tuple[Word, ...]


def residual_max(*residuals: float) -> float:
    """The largest residual, or NaN if any of them is NaN.

    A NaN residual compares false with every tolerance, and Python's max
    drops a NaN that is not its first argument (max(0.0, nan) is 0.0), so
    every fold of residuals that decides a verdict goes through here.
    """
    for r in residuals:
        if r != r:
            return r
    return max(residuals)


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
        return max((float(np.linalg.norm(B)) for B in self.blocks.values()), default=0.0)

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

    def onb(self, c: int, x) -> list:
        """Orthonormal basis of Hom(c, x) as morphisms from the simple c."""
        V = as_vobj(x)
        n = self.vdim(c, V)
        out = []
        for i in range(n):
            B = np.zeros((n, 1), dtype=complex)
            B[i, 0] = 1.0
            out.append(Mor(self, ((c,),), V, {c: B}))
        return out

    # ---------------------------------------------------------- right tensor

    @memo
    def _grouped_positions(self, c: int, vobj: VObj, pi: int) -> dict:
        """Positions in Hom(c, vobj*pi) grouped by (m, mu), ordered like Hom(m, vobj)."""
        N = self.cat.N
        out = {}
        pos = 0
        for w in vobj:
            for m in range(self.rank):
                nm = N[m, pi, c]
                if nm == 0:
                    continue
                dm = self.dim(m, w)
                for pidx in range(dm):
                    for mu in range(nm):
                        out.setdefault((m, mu), []).append(pos)
                        pos += 1
        return {k: np.asarray(v, dtype=int) for k, v in out.items()}

    def _rtens_simple(self, f: Mor, pi: int) -> Mor:
        src = tuple(w + (pi,) for w in f.source)
        tgt = tuple(w + (pi,) for w in f.target)
        N = self.cat.N
        dt, ds = self.vdims(tgt), self.vdims(src)
        blocks = {}
        for c in range(self.rank):
            nt, ns = dt[c], ds[c]
            if nt == 0 or ns == 0:
                continue
            gp_s = self._grouped_positions(c, f.source, pi)
            gp_t = self._grouped_positions(c, f.target, pi)
            B = np.zeros((nt, ns), dtype=complex)
            got = False
            for m, Bm in f.blocks.items():
                for mu in range(N[m, pi, c]):
                    rows = gp_t.get((m, mu))
                    cols = gp_s.get((m, mu))
                    if rows is None or cols is None:
                        continue
                    B[rows[:, None], cols] = Bm
                    got = True
            if got:
                blocks[c] = B
        return Mor(self, src, tgt, blocks)

    def rtens(self, f: Mor, x) -> Mor:
        """f tensor id_x for x a simple, word, or object."""
        if isinstance(x, (int, np.integer)):
            return self._rtens_simple(f, int(x))
        return self._rtens_vobj(f, as_vobj(x))

    def _rtens_vobj(self, f: Mor, V: VObj) -> Mor:
        if len(V) == 1:
            out = f
            for letter in V[0]:
                out = self._rtens_simple(out, letter)
            return out
        src = vobj_tensor(f.source, V)
        tgt = vobj_tensor(f.target, V)
        out = Mor(self, src, tgt, {})
        nv = len(V)
        for j, w in enumerate(V):
            sub = self._rtens_vobj(f, (w,))
            # scatter sub's blocks into the (·, j) summand slots
            for c, B in sub.blocks.items():
                rows = self.strided_positions(c, tgt, j, nv)
                cols = self.strided_positions(c, src, j, nv)
                big = out.blocks.get(c)
                if big is None:
                    big = np.zeros((self.vdim(c, tgt), self.vdim(c, src)), dtype=complex)
                    out.blocks[c] = big
                big[rows[:, None], cols] = B
        return out

    def strided_positions(self, c: int, vobj: VObj, j: int, nv: int) -> np.ndarray:
        """Positions in Hom(c, vobj) of the words j, j + nv, j + 2 nv, ...

        Not cached: the Vec_S3 center asks for over 3 000 distinct arrays of
        about one entry each, and caching them cost about 0.9 MB of peak
        memory for a few per cent of its wall time.
        """
        offs = self.offsets(c, vobj)
        return np.asarray([p for k in range(j, len(vobj), nv)
                           for p in range(offs[k], offs[k + 1])], dtype=int)

    # ----------------------------------------------------------- left tensor

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
            return {c: self.cat.f_block(a, w[0], w[1], c).conj().T
                    for c in np.flatnonzero(dims).tolist()}

        out = {}
        prefix, b = w[:-1], w[-1]
        U_pre = self.factor_unitary(a, prefix)
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
            # F-move on (a, e, b; c) for each prefix path
            tgt_labels = self._factored_labels(a, w, None, channel=c)
            i_tgt = {lab: i for i, lab in enumerate(tgt_labels)}
            T2 = np.zeros((len(tgt_labels), len(inter)), dtype=complex)
            for col, (m, e, pp, nu, mu) in enumerate(inter):
                fb = self.cat.f_block(a, e, b, c)
                row_l = self.cat.left_index(a, e, b, c)[(m, nu, mu)]
                for col_r, (d, kap, lam) in enumerate(self.cat.right_channels(a, e, b, c)):
                    val = np.conj(fb[row_l, col_r])
                    if val == 0:
                        continue
                    T2[i_tgt[(d, pp + ((e, kap),), lam)], col] += val
            U = T2 @ T1
            if U.shape[0] != U.shape[1]:
                raise InternalCheckError(f"factorization not square at (a={a}, w={w}, c={c})")
            out[c] = U
        return out

    def _factored_labels(self, a: int, w: Word, m: int | None, channel: int | None = None):
        """Labels (d, path, nu) of the factored basis of Hom(c, (a,)+w).

        With m given, c = m; with channel given, c = channel.
        """
        c = m if m is not None else channel
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

    def _ltens_simple(self, a: int, f: Mor) -> Mor:
        src = tuple((a,) + w for w in f.source)
        tgt = tuple((a,) + w for w in f.target)
        N = self.cat.N
        ds, dt = self.vdims(src), self.vdims(tgt)
        blocks = {}
        for c in range(self.rank):
            if ds[c] == 0 or dt[c] == 0:
                continue
            Phi_s = self._phi(a, f.source, c)
            Phi_t = self._phi(a, f.target, c)
            fp_s = self._factored_positions(a, f.source, c)
            fp_t = self._factored_positions(a, f.target, c)
            # middle operator: f acting on the d-slot of the factored basis
            D = np.zeros((Phi_t.shape[0], Phi_s.shape[0]), dtype=complex)
            got = False
            for d, Bd in f.blocks.items():
                for nu in range(N[a, d, c]):
                    rows = fp_t.get((d, nu))
                    cols = fp_s.get((d, nu))
                    if rows is not None and cols is not None:
                        D[rows[:, None], cols] = Bd
                        got = True
            if got:
                blocks[c] = Phi_t.conj().T @ D @ Phi_s
        return Mor(self, src, tgt, blocks)

    @memo
    def _phi(self, a: int, vobj: VObj, c: int) -> np.ndarray:
        """Block-diagonal factorization unitary for a whole object.

        For a one-word object this is the memoised factorization unitary
        itself; callers must not modify it.
        """
        if len(vobj) == 1:
            return self.factor_unitary(a, vobj[0])[c]
        mats = []
        for w in vobj:
            U = self.factor_unitary(a, w).get(c)
            n = self.dim(c, (a,) + w)
            if U is None:
                U = np.zeros((0, 0), dtype=complex)
            if U.shape != (n, n):  # pragma: no cover
                raise InternalCheckError("factorization unitary has wrong shape")
            mats.append(U)
        total = sum(m.shape[0] for m in mats)
        out = np.zeros((total, total), dtype=complex)
        pos = 0
        for m in mats:
            k = m.shape[0]
            out[pos:pos + k, pos:pos + k] = m
            pos += k
        return out

    @memo
    def _factored_positions(self, a: int, vobj: VObj, c: int) -> dict:
        """Positions in the factored basis of Hom(c, a*vobj) grouped by
        (d, nu), each ordered like Hom(d, vobj)."""
        N = self.cat.N
        out = {}
        pos = 0
        for w in vobj:
            dims = self.word_dims(w)
            for d in range(self.rank):
                nnu = N[a, d, c]
                if nnu == 0:
                    continue
                for p in range(dims[d]):
                    for nu in range(nnu):
                        out.setdefault((d, nu), []).append(pos)
                        pos += 1
        return {k: np.asarray(v, dtype=int) for k, v in out.items()}

    def ltens(self, x, f: Mor) -> Mor:
        """id_x tensor f for x a simple, word, or object."""
        if isinstance(x, (int, np.integer)):
            return self._ltens_simple(int(x), f)
        return self._ltens_vobj(as_vobj(x), f)

    def _ltens_vobj(self, V: VObj, f: Mor) -> Mor:
        if len(V) == 1:
            out = f
            for letter in reversed(V[0]):
                out = self._ltens_simple(letter, out)
            return out
        src = vobj_tensor(V, f.source)
        tgt = vobj_tensor(V, f.target)
        out = Mor(self, src, tgt, {})
        ns, nt = len(f.source), len(f.target)
        for i, w in enumerate(V):
            sub = self._ltens_vobj((w,), f)
            # summand i occupies the contiguous words i*n .. (i+1)*n - 1
            for c, B in sub.blocks.items():
                rows, cols = self.offsets(c, tgt), self.offsets(c, src)
                big = out.blocks.get(c)
                if big is None:
                    big = np.zeros((self.vdim(c, tgt), self.vdim(c, src)), dtype=complex)
                    out.blocks[c] = big
                big[rows[i * nt]:rows[(i + 1) * nt], cols[i * ns]:cols[(i + 1) * ns]] = B
        return out

    @memo
    def tensor_factors(self, side: str, a: int, source: VObj, target: VObj,
                       c: int) -> list:
        """Channel c of a one-letter tensor with id_a as two-sided products.

        For every f : source -> target, channel c of ``ltens(a, f)`` (side
        "left") or of ``rtens(f, a)`` (side "right") is the sum of
        L @ f.blocks[d] @ R over the returned triples (d, L, R).  On the
        right L and R are 0/1 selections (the re-indexing); on the left
        L = Phi_t^*[:, rows] and R = Phi_s[cols, :], the column and row
        groups of the factorization unitaries where the d-slot sits.  With
        vec(L X R) = (L kron R^T) vec(X) a linear solve over f can be set
        up without building f from matrix units.  Memoised; callers must
        not modify the returned matrices.
        """
        if side == "left":
            src = tuple((a,) + w for w in source)
            tgt = tuple((a,) + w for w in target)
            if not (self.vdim(c, src) and self.vdim(c, tgt)):
                return []
            Lt = self._phi(a, target, c).conj().T
            Rs = self._phi(a, source, c)
            fp_s = self._factored_positions(a, source, c)
            fp_t = self._factored_positions(a, target, c)
            keys = sorted(fp_t.keys() & fp_s.keys())
            return [(d, Lt[:, fp_t[(d, nu)]], Rs[fp_s[(d, nu)], :]) for d, nu in keys]
        if side == "right":
            nt = self.vdim(c, tuple(w + (a,) for w in target))
            ns = self.vdim(c, tuple(w + (a,) for w in source))
            if not (nt and ns):
                return []
            gp_s = self._grouped_positions(c, source, a)
            gp_t = self._grouped_positions(c, target, a)
            keys = sorted(gp_t.keys() & gp_s.keys())
            return [(m, np.eye(nt)[:, gp_t[(m, mu)]], np.eye(ns)[gp_s[(m, mu)], :])
                    for m, mu in keys]
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    # ---------------------------------------------------- unit insert / drop

    def _drop_word(self, w: Word, dels: tuple) -> Word:
        for k in dels:
            if w[k] != self.unit:
                raise InternalCheckError(f"cannot drop non-unit letter at position {k} of {w}")
        kept = tuple(t for i, t in enumerate(w) if i not in dels)
        if not kept:
            raise InternalCheckError("cannot drop every letter of a word")
        return kept

    @memo
    def _drop_perm(self, c: int, w: Word, dels: tuple) -> np.ndarray:
        """Index map paths(c, w) -> paths(c, w with unit letters at dels removed)."""
        new_w = self._drop_word(w, dels)
        first_kept = next(i for i in range(len(w)) if i not in dels)
        tgt_index = self.path_index(c, new_w)
        perm = np.zeros(len(self.paths(c, w)), dtype=int)
        for i, p in enumerate(self.paths(c, w)):
            sig = tuple(
                p[k - 1]
                for k in range(1, len(w))
                if k not in dels and k != first_kept
            )
            perm[i] = tgt_index[sig]
        if len(set(perm.tolist())) != len(perm):  # pragma: no cover
            raise InternalCheckError(f"unit dropping is not a bijection for word {w} at {dels}")
        return perm

    def _vobj_drop_perm(self, c: int, vobj: VObj, specs: list) -> np.ndarray:
        offs_new = self.offsets(c, tuple(self._drop_word(w, d) for w, d in zip(vobj, specs)))
        parts = []
        for k, (w, d) in enumerate(zip(vobj, specs)):
            parts.append(self._drop_perm(c, w, d) + offs_new[k])
        return np.concatenate(parts) if parts else np.zeros(0, dtype=int)

    def _drop_units_specs(self, f: Mor, where: str, specs: list) -> Mor:
        if where == "source":
            new_src = tuple(self._drop_word(w, d) for w, d in zip(f.source, specs))
            blocks = {}
            for c, B in f.blocks.items():
                perm = self._vobj_drop_perm(c, f.source, specs)
                nB = np.empty_like(B)
                nB[:, perm] = B
                blocks[c] = nB
            return Mor(self, new_src, f.target, blocks)
        if where == "target":
            new_tgt = tuple(self._drop_word(w, d) for w, d in zip(f.target, specs))
            blocks = {}
            for c, B in f.blocks.items():
                perm = self._vobj_drop_perm(c, f.target, specs)
                nB = np.empty_like(B)
                nB[perm, :] = B
                blocks[c] = nB
            return Mor(self, f.source, new_tgt, blocks)
        raise ValueError(f"where must be 'source' or 'target', got {where!r}")

    def drop_units(self, f: Mor, where: str, positions: tuple) -> Mor:
        """Remove unit letters at the given positions of every word on one side.

        The same positions are dropped from each word of the chosen endpoint;
        this is the canonical unit isomorphism, a pure re-indexing.
        """
        if not positions:
            return f
        positions = tuple(sorted(positions))
        vobj = f.source if where == "source" else f.target
        return self._drop_units_specs(f, where, [positions] * len(vobj))

    def _word_end_drop(self, f: Mor, where: str) -> Mor:
        """Drop the (unit) last letter of every word on one side."""
        vobj = f.source if where == "source" else f.target
        return self._drop_units_specs(f, where, [(len(w) - 1,) for w in vobj])

    def _word_start_drop(self, f: Mor, where: str) -> Mor:
        """Drop the (unit) first letter of every word on one side."""
        vobj = f.source if where == "source" else f.target
        return self._drop_units_specs(f, where, [(0,)] * len(vobj))

    def insert_units(self, f: Mor, where: str, positions: tuple) -> Mor:
        """Insert unit letters so they sit at `positions` of every new word."""
        if not positions:
            return f
        positions = tuple(sorted(positions))

        def grow(w: Word) -> Word:
            out = list(w)
            for k in positions:
                out.insert(k, self.unit)
            return tuple(out)

        if where == "source":
            new_src = tuple(grow(w) for w in f.source)
            blocks = {}
            for c, B in f.blocks.items():
                perm = self._vobj_drop_perm(c, new_src, [positions] * len(new_src))
                blocks[c] = B[:, perm]
            return Mor(self, new_src, f.target, blocks)
        if where == "target":
            new_tgt = tuple(grow(w) for w in f.target)
            blocks = {}
            for c, B in f.blocks.items():
                perm = self._vobj_drop_perm(c, new_tgt, [positions] * len(new_tgt))
                blocks[c] = B[perm, :]
            return Mor(self, f.source, new_tgt, blocks)
        raise ValueError(f"where must be 'source' or 'target', got {where!r}")

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
            lpos, rpos = cat.left_index(a, abar, a, a), cat.right_index(a, abar, a, a)
            fb = cat.f_block(a, abar, a, a)
            kf = d * fb[lpos[(self.unit, 0, 0)], rpos[(self.unit, 0, 0)]]
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
        return max(z1, z2, n1, n2)

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

    def conj_mor(self, T: Mor) -> Mor:
        """Conjugate (bar) of a morphism: Hom(x, y) -> Hom(xbar, ybar).

        Anti-linear and covariant; concretely R_x^* o xbar(T^*) o xbar(Rbar_y)
        with the identity legs written out.
        """
        x, y = T.source, T.target
        xbar = tuple(self.cat.dual_word(w) for w in x)
        ybar = tuple(self.cat.dual_word(w) for w in y)
        Rx, _ = self.vobj_R(x)
        _, Rbary = self.vobj_R(y)
        first = self._word_end_drop(self.ltens(xbar, Rbary), "source")   # xbar -> xbar y ybar
        second = self.rtens(self.ltens(xbar, T.H), ybar)                 # -> xbar x ybar
        third = self._word_start_drop(self.rtens(Rx.H, ybar), "target")  # -> ybar
        return third @ second @ first

    def hat(self, T: Mor) -> Mor:
        """Transpose: Hom(x, y) -> Hom(ybar, xbar), with hat(S o T) = hat(T) o hat(S)."""
        return self.conj_mor(T.H)


# ---------------------------------------------------------------------------
# module-level operation wrappers (the engine is cached per category)


def hom_dim(cat: GradedCategory, c: int, w) -> int:
    """dim Hom(c, w) for a simple c and a word or object w."""
    eng = engine_for(cat)
    return eng.vdim(c, as_vobj(w))


def left_tensor(cat: GradedCategory, x, f: Mor) -> Mor:
    return engine_for(cat).ltens(x, f)


def right_tensor(cat: GradedCategory, f: Mor, x) -> Mor:
    return engine_for(cat).rtens(f, x)


def onb(cat: GradedCategory, c: int, x) -> list:
    return engine_for(cat).onb(c, x)


def conjugate_solution(cat: GradedCategory, a: int) -> ConjugatePair:
    return engine_for(cat).conjugates(a)


def frobenius_transpose(cat: GradedCategory, T: Mor) -> Mor:
    return engine_for(cat).frobenius_transpose(T)
