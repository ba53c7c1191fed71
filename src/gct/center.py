"""Half-braidings and the simple objects of graded centers.

A half-braiding is an object sigma together with unitaries
E(pi) : sigma pi -> pi' sigma, one per loop simple pi, where pi' = pi in
the plain graded case (loops run over the degree-neutral simples) and
pi' = g[pi] in the action-twisted case (loops run over all simples of a
trivially graded category, moved by a strict action element g).  The two
cases share one class; a missing action context is exactly the plain
case.

The module provides the axioms verifier, morphism spaces between
half-braidings (`hom_center`), duals, tensor products, the transport of
half-braidings along the action, induced objects with formula-level
E-data, and the extraction of simple half-braidings from the block
decomposition of the matching tube algebra.  Every object produced here
is re-verified numerically; no construction is trusted on derivation
alone.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np

from ._memo import memo
from .fusion_core import (
    GradedCategory,
    GroupAction,
    InternalCheckError,
    ValidationError,
)
from .morphisms import Mor, as_vobj, engine_for, residual_max, vobj_tensor
from .tube import TubeAlgebra, TubeDecomposition, null_space_abs

__all__ = [
    "HalfBraiding",
    "identity_half_braiding",
    "unit_loop_E",
    "verify_half_braiding",
    "hom_center",
    "center_hom_residual",
    "conjugate_half_braiding",
    "tensor_half_braidings",
    "g_action_on_center",
    "induce_object",
    "extract_simples",
    "tube_representation",
    "center_report_dict",
]


# ---------------------------------------------------------------------------
# the half-braiding container


@dataclasses.dataclass(eq=False)
class HalfBraiding:
    """Object with a (possibly action-twisted) half-braiding.

    ``obj`` is a sum of words; ``E[pi]`` is a morphism
    obj*pi -> pi'*obj for every loop simple pi.  ``grade`` is the common
    degree of the object's words in the plain case, or the acting group
    element in the twisted case (``action`` set).

    Values that depend only on the object's data and an argument are
    memoised on it under the policy of `gct._memo`.  That is sound because
    no object's data changes after construction: ``E`` is stored as a
    read-only mapping, and the morphisms in it are never modified in place.
    """

    cat: GradedCategory
    obj: tuple
    grade: int
    E: dict
    action: GroupAction | None = None
    name: str = ""

    def __post_init__(self) -> None:
        self.obj = as_vobj(self.obj)
        self.E = types.MappingProxyType(dict(self.E))
        self.eng = engine_for(self.cat)

    # -- structure ----------------------------------------------------------

    def loop_labels(self) -> list[int]:
        if self.action is not None:
            return list(range(self.cat.rank))
        return self.cat.neutral_sector()

    def tgt_label(self, pi: int) -> int:
        """Loop label on the outgoing side."""
        if self.action is None:
            return pi
        return self.action.on_label(self.grade, pi)

    def tgt_word(self, w: tuple) -> tuple:
        return tuple(self.tgt_label(a) for a in w)

    def tgt_vobj(self, V: tuple) -> tuple:
        return tuple(self.tgt_word(w) for w in V)

    def qdim(self) -> float:
        return float(sum(self.cat.dims_product(w) for w in self.obj))

    def multiplicities(self) -> dict:
        """Simple-content count {label: n} (objects that are sums of simples)."""
        out: dict = {}
        for w in self.obj:
            ws = self.eng.strip_word(w)
            if len(ws) != 1:
                raise ValidationError("object is not a sum of simples")
            out[ws[0]] = out.get(ws[0], 0) + 1
        return out

    # -- E on composite arguments ------------------------------------------

    @memo
    def E_word(self, w: tuple) -> Mor:
        """E extended over a word (a tuple of labels) by the multiplicative rule."""
        if len(w) == 0:
            return self.eng.identity(self.obj)
        if len(w) == 1:
            return self.E[w[0]]
        head, rest = w[0], w[1:]
        first = self.eng.rtens(self.E[head], rest)
        second = self.eng.ltens(self.tgt_label(head), self.E_word(rest))
        return second @ first

    def E_vobj(self, V) -> Mor:
        """E extended over a sum of words (diagonal over the summands).

        Each summand's `E_word` block is placed straight into the sum: on
        the source obj*V (obj-major) summand i holds the strided words i,
        i + len(V), ...; on the target V'*obj (V-major) it holds the
        contiguous words i*len(obj) .. (i+1)*len(obj) - 1.
        """
        V = as_vobj(V)
        if len(V) == 1:
            return self.E_word(V[0])
        return self._E_sum(V)

    @memo
    def _E_sum(self, V: tuple) -> Mor:
        eng = self.eng
        nv, no = len(V), len(self.obj)
        src = vobj_tensor(self.obj, V)
        tgt = vobj_tensor(self.tgt_vobj(V), self.obj)
        pieces = []
        for i, w in enumerate(V):
            for c, B in self.E_word(w).blocks.items():
                rows = eng.offsets(c, tgt)
                pieces.append((c, slice(rows[i * no], rows[(i + 1) * no]),
                               eng.strided_positions(c, src, i, nv), B))
        return _placed(eng, src, tgt, pieces)


def _placed(eng, src: tuple, tgt: tuple, pieces) -> Mor:
    """The morphism src -> tgt with each block B of pieces (c, rows, cols, B)
    at the given rows and columns of channel c, and zeros elsewhere."""
    blocks = {}
    for c, rows, cols, B in pieces:
        big = blocks.get(c)
        if big is None:
            big = blocks[c] = np.zeros((eng.vdim(c, tgt), eng.vdim(c, src)),
                                       dtype=complex)
        big[rows, cols] = B
    return Mor(eng, src, tgt, blocks)


def unit_loop_E(eng, obj) -> Mor:
    """The canonical morphism obj*unit -> unit*obj (a pure re-indexing)."""
    obj = as_vobj(obj)
    u = eng.cat.unit
    grown = tuple(w + (u,) for w in obj)
    out = eng.identity(grown)
    out = eng._word_end_drop(out, "target")
    return eng.insert_units(out, "target", (0,))


def identity_half_braiding(cat: GradedCategory,
                           action: GroupAction | None = None) -> HalfBraiding:
    """The unit object of the center: E is the unit re-shuffle everywhere."""
    eng = engine_for(cat)
    obj = ((cat.unit,),)
    g = cat.group.neutral
    E = {}
    loops = list(range(cat.rank)) if action is not None else cat.neutral_sector()
    for pi in loops:
        one = eng.identity((pi,))
        one = eng.insert_units(one, "source", (0,))
        one = eng.insert_units(one, "target", (1,))
        E[pi] = one
    return HalfBraiding(cat, obj, g, E, action=action, name="unit")


# ---------------------------------------------------------------------------
# verification


def verify_half_braiding(hb: HalfBraiding, tol: float = 1e-8) -> dict:
    """Axioms check via the single combined identity.

    For all loop simples xi, pi and every channel eta with an intertwiner
    T : eta -> xi pi, the composite moving the object through xi-then-pi
    must agree with moving it through eta:

        (T' x obj) o E(eta) = xi'(E(pi)) o (E(xi) x pi) o (obj x T)

    with T' the action transport of T at the object's grade (T' = T in
    the plain case).  Unitarity of each E(pi) is checked channel-wise;
    channels where the two sides of E(pi) have different dimensions are
    reported in `non_square` (no unitary can exist there).  The verdict
    is memoised on the object per tolerance; callers get a copy.

    Endpoints, missing loops, non-square channels and unitarity are read
    off E as given.  The combined identity runs on the object's
    simple-letter form: with u : + (c,) -> obj exactly the identity on
    each channel, E'(pi) = (pi' x u)^* E(pi) (u x pi).  By naturality of
    the associator both sides of the identity for E' are those for E
    conjugated by the unitaries (xi' pi' x u)^* and u x eta, so every
    channel's residual norm is the same; only the words are shorter (one
    letter against the three of an induced object).  Objects whose words
    are single letters are checked as they are.
    """
    got = _verify_half_braiding(hb, tol)
    return dict(got, non_square=list(got["non_square"]))


def _simple_letter_form(hb: HalfBraiding) -> HalfBraiding:
    """hb carried to the sum of its simple channels (see verify_half_braiding)."""
    if all(len(w) == 1 for w in hb.obj):
        return hb
    eng = hb.eng
    dims = eng.vdims(hb.obj)
    obj = tuple((c,) for c in range(eng.rank) for _ in range(dims[c]))
    u = Mor(eng, obj, hb.obj, {c: np.eye(n, dtype=complex)
                               for c, n in enumerate(dims) if n})
    E = {pi: eng.ltens(hb.tgt_label(pi), u).H @ hb.E[pi] @ eng.rtens(u, pi)
         for pi in hb.loop_labels()}
    return HalfBraiding(hb.cat, obj, hb.grade, E, action=hb.action)


@memo
def _verify_half_braiding(hb: HalfBraiding, tol: float) -> dict:
    eng = hb.eng
    cat = hb.cat
    loops = hb.loop_labels()
    for pi in loops:
        if pi not in hb.E:
            raise ValidationError(f"missing E for loop simple {cat.label_name(pi)}")
    non_square = []
    unit_defect = 0.0
    for pi in loops:
        Em = hb.E[pi]
        src = vobj_tensor(hb.obj, ((pi,),))
        tgt = vobj_tensor(((hb.tgt_label(pi),),), hb.obj)
        if Em.source != src or Em.target != tgt:
            raise ValidationError(
                f"E({cat.label_name(pi)}) has wrong endpoints for the object/grade")
        for c in range(cat.rank):
            m, n = eng.vdim(c, tgt), eng.vdim(c, src)
            if m == 0 and n == 0:
                continue
            if m != n:
                non_square.append((cat.label_name(pi), cat.label_name(c), m, n))
                continue
            B = Em.blocks.get(c)
            B = np.zeros((m, n), dtype=complex) if B is None else B
            eye = np.eye(n)
            unit_defect = residual_max(unit_defect,
                                       float(np.max(np.abs(B.conj().T @ B - eye))),
                                       float(np.max(np.abs(B @ B.conj().T - eye))))
    sl = _simple_letter_form(hb)
    max_res = 0.0
    checked = 0
    for xi in loops:
        Exi = sl.E[xi]
        for pi in loops:
            through = eng.ltens(sl.tgt_label(xi), sl.E[pi]) @ eng.rtens(Exi, pi)
            for eta in loops:
                for T in eng.onb(eta, ((xi, pi),)):
                    Tg = T if sl.action is None else eng.transport(
                        T, sl.grade, sl.action)
                    lhs = eng.rtens(Tg, sl.obj) @ sl.E[eta]
                    rhs = through @ eng.ltens(sl.obj, T)
                    max_res = residual_max(max_res, lhs.diff_norm(rhs))
                    checked += 1
    ok = (max_res < tol and unit_defect < tol and not non_square)
    return {
        "max_residual": max_res,
        "unitarity": unit_defect,
        "non_square": non_square,
        "checked": checked,
        "tol": tol,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# morphisms of the center


def _same_context(x: HalfBraiding, y: HalfBraiding) -> bool:
    ax, ay = x.action, y.action
    if (ax is None) != (ay is None):
        raise ValidationError("half-braidings live in different center contexts")
    if ax is not None and ax.name != ay.name:
        raise ValidationError("half-braidings use different actions")
    return True


def lincomb(coeffs, basis: list) -> Mor:
    """sum_k coeffs[k] * basis[k], accumulated left to right."""
    acc = None
    for coef, T in zip(coeffs, basis):
        term = T * complex(coef)
        acc = term if acc is None else acc + term
    return acc


def kernel_solve(A: np.ndarray, basis: list, tol: float):
    """Dimension and basis of the solutions sum_k z_k basis[k] with A z = 0.

    Column k of A is the residual of basis[k]; the kernel is cut by
    `null_space_abs` at the absolute floor `tol`.
    """
    Z = null_space_abs(A, atol=tol)
    return Z.shape[1], [lincomb(Z[:, k], basis) for k in range(Z.shape[1])]


def hom_center(x: HalfBraiding, y: HalfBraiding, tol: float = 1e-9):
    """Dimension and basis of the center hom space x -> y.

    Solves E_y(pi) (T x pi) = (pi' x T) E_x(pi) over T in Hom(obj_x, obj_y)
    for every loop simple pi.  The unknowns are T's channel blocks T_d in
    row-major order, and each equation is set up in Kronecker form,
    vec(L T_d R) = (L kron R^T) vec(T_d), from the one-letter tensor
    factors (`TreeEngine.tensor_factors`): T x pi contributes E_y's
    columns at the re-indexed rows, pi' x T the factorization unitaries'
    column groups against Phi E_x.  Each basis morphism is read off a
    kernel column by reshaping.  Objects of different grades are
    orthogonal by grade bookkeeping (the grade is part of the object's
    identity even when the action is not faithful), so the solve runs only
    within a grade and (0, []) is returned across grades.  The solution is
    memoised on x per (y, tol), with y held weakly.
    """
    _same_context(x, y)
    if x.grade != y.grade:
        return 0, []
    return _solve_hom_center(x, y, tol)


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron(A, B) for matrices, without its per-call overhead."""
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(
        A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])


def _hom_system(x: HalfBraiding, y: HalfBraiding):
    """The hom_center equations as one matrix over vec(T), and the
    (channel, offset, shape) of each block T_d in vec(T)."""
    eng = x.eng
    layout, n_unknowns = [], 0
    for d, (m, n) in enumerate(zip(eng.vdims(y.obj), eng.vdims(x.obj))):
        if m and n:
            layout.append((d, n_unknowns, (m, n)))
            n_unknowns += m * n
    where = {d: slice(off, off + m * n) for d, off, (m, n) in layout}
    rows = []
    for pi in x.loop_labels() if layout else ():
        pip = x.tgt_label(pi)
        dt = eng.vdims(vobj_tensor(((pip,),), y.obj))
        ds = eng.vdims(vobj_tensor(x.obj, ((pi,),)))
        Ey, Ex = y.E[pi].blocks, x.E[pi].blocks
        for c, (mt, ns) in enumerate(zip(dt, ds)):
            if not (mt and ns):
                continue
            S = np.zeros((mt * ns, n_unknowns), dtype=complex)
            if c in Ey:
                for d, L, R in eng.tensor_factors("right", pi, x.obj, y.obj, c):
                    S[:, where[d]] += _kron(Ey[c] @ L, R.T)
            if c in Ex:
                for d, L, R in eng.tensor_factors("left", pip, x.obj, y.obj, c):
                    S[:, where[d]] -= _kron(L, (R @ Ex[c]).T)
            rows.append(S)
    A = np.concatenate(rows, axis=0) if rows else np.zeros((0, n_unknowns), dtype=complex)
    return A, layout


@memo(weak=True)
def _solve_hom_center(x: HalfBraiding, y: HalfBraiding, tol: float):
    A, layout = _hom_system(x, y)
    if not layout:
        return 0, []
    Z = null_space_abs(A, atol=tol)
    basis = [Mor(x.eng, x.obj, y.obj,
                 {d: Z[off:off + m * n, k].reshape(m, n) for d, off, (m, n) in layout})
             for k in range(Z.shape[1])]
    return Z.shape[1], basis


def center_hom_residual(x: HalfBraiding, y: HalfBraiding, T: Mor) -> float:
    """How far a given morphism T : obj_x -> obj_y is from intertwining."""
    _same_context(x, y)
    eng = x.eng
    worst = 0.0
    for pi in x.loop_labels():
        lhs = y.E[pi] @ eng.rtens(T, pi)
        rhs = eng.ltens(x.tgt_label(pi), T) @ x.E[pi]
        worst = residual_max(worst, lhs.diff_norm(rhs))
    return worst


# ---------------------------------------------------------------------------
# duals, tensor products, action transport


def conjugate_half_braiding(x: HalfBraiding) -> HalfBraiding:
    """Half-braiding on the dual object; the grade inverts.

    E'(pi) = (R* x ...) o (obj_bar(E(arg)*) x obj_bar) o (obj_bar pi (Rbar))
    with arg the loop label moved back by the new grade, so that the
    outgoing loop label is exactly pi's image under the inverted grade.
    """
    eng = x.eng
    cat = x.cat
    grp = cat.group
    ginv = grp.inv(x.grade)
    objbar = tuple(cat.dual_word(w) for w in x.obj)
    R, Rbar = eng.vobj_R(x.obj)
    E2 = {}
    for pi in x.loop_labels():
        arg = pi if x.action is None else x.action.on_label(ginv, pi)
        A = vobj_tensor(objbar, ((pi,),))
        s1 = eng._word_end_drop(eng.ltens(A, Rbar), "source")
        s2 = eng.rtens(eng.ltens(objbar, x.E[arg].H), objbar)
        s3 = eng._word_start_drop(
            eng.rtens(R.H, vobj_tensor(((arg,),), objbar)), "target")
        E2[pi] = s3 @ s2 @ s1
    return HalfBraiding(cat, objbar, ginv, E2, action=x.action,
                        name=f"conj({x.name})" if x.name else "")


@memo(weak=True)
def tensor_half_braidings(x: HalfBraiding, y: HalfBraiding) -> HalfBraiding:
    """Tensor product object with the composite half-braiding.

    E_{xy}(pi) = (E_x(y-moved pi) x obj_y) o (obj_x x E_y(pi)); the grade
    multiplies.  Each product is built once and memoised on x, with y held
    weakly.
    """
    _same_context(x, y)
    eng = x.eng
    grade = x.cat.group.mul(x.grade, y.grade)
    obj = vobj_tensor(x.obj, y.obj)
    E2 = {}
    for pi in x.loop_labels():
        arg = y.tgt_label(pi)
        s1 = eng.ltens(x.obj, y.E[pi])
        s2 = eng.rtens(x.E[arg], y.obj)
        E2[pi] = s2 @ s1
    return HalfBraiding(x.cat, obj, grade, E2, action=x.action,
                        name=f"{x.name}*{y.name}" if x.name and y.name else "")


def g_action_on_center(x: HalfBraiding, k: int) -> HalfBraiding:
    """Transport a half-braiding along the action element k.

    The object is relabeled by k, E'(pi) = transport_k(E(k^{-1}[pi])), and
    the grade conjugates: g -> k g k^{-1}.  The moved copy is built once
    per k and memoised on x, so it keeps its own memos across calls; its
    name is re-derived on every call, so it follows a later rename of x.
    """
    if x.action is None:
        raise ValidationError("no action configured for this half-braiding")
    got = _moved_copy(x, k)
    got.name = f"{x.cat.group.elements[k]}[{x.name}]" if x.name else ""
    return got


@memo
def _moved_copy(x: HalfBraiding, k: int) -> HalfBraiding:
    grp = x.cat.group
    act = x.action
    kinv = grp.inv(k)
    obj2 = tuple(act.on_word(k, w) for w in x.obj)
    grade2 = grp.mul(grp.mul(k, x.grade), kinv)
    E2 = {}
    for pi in x.loop_labels():
        E2[pi] = x.eng.transport(x.E[act.on_label(kinv, pi)], k, act)
    return HalfBraiding(x.cat, obj2, grade2, E2, action=act)


# ---------------------------------------------------------------------------
# induced objects


def induce_object(cat: GradedCategory, mu: int, k: int = 0,
                  action: GroupAction | None = None) -> HalfBraiding:
    """Induced half-braiding around the simple mu.

    Plain case: object + over loop-sector simples xi in C_k of the words
    (xi, mu, xi-bar); the E-blocks splice an orthonormal basis of
    (zeta, pi xi) against its Frobenius transpose.  Twisted case (action
    given, k an acting element): object words (k[xi], mu, xi-bar) over all
    simples xi, with the basis element transported by k on the outgoing
    side.  The result's E-data comes from a closed formula; callers are
    expected to run `verify_half_braiding` (builders here always do).
    """
    eng = engine_for(cat)
    mu = int(mu)
    if action is None:
        loops_out = cat.sector(k)
        if not loops_out:
            raise ValidationError(f"empty sector for {cat.group.elements[k]}")
        grade = None
        for xi in loops_out:
            g = cat.group.mul(cat.group.mul(int(cat.deg[xi]), int(cat.deg[mu])),
                              cat.group.inv(int(cat.deg[xi])))
            grade = g if grade is None else grade
            if g != grade:
                raise InternalCheckError("induced object is not grade-homogeneous")
        tl = {xi: xi for xi in loops_out}
    else:
        loops_out = list(range(cat.rank))
        grade = k
        tl = {xi: action.on_label(k, xi) for xi in loops_out}
    obj = tuple((tl[xi], mu, int(cat.dual[xi])) for xi in loops_out)
    loop_dom = list(range(cat.rank)) if action is not None else cat.neutral_sector()

    E = {}
    for pi in loop_dom:
        pip = pi if action is None else action.on_label(grade, pi)
        src = vobj_tensor(obj, ((pi,),))
        tgt = vobj_tensor(((pip,),), obj)
        pieces = []
        for i, zeta in enumerate(loops_out):
            for j, xi in enumerate(loops_out):
                xibar = int(cat.dual[xi])
                comp = None
                for T in eng.onb(zeta, ((pi, xi),)):
                    ft = eng.frobenius_transpose(T)
                    Tg = T if action is None else eng.transport(T, k, action)
                    term = (eng.rtens(Tg, (mu, xibar))
                            @ eng.ltens((tl[zeta], mu), ft.H))
                    comp = term if comp is None else comp + term
                if comp is None:
                    continue
                # word i of src to word j of tgt
                for c, B in comp.blocks.items():
                    rows, cols = eng.offsets(c, tgt), eng.offsets(c, src)
                    pieces.append((c, slice(rows[j], rows[j + 1]),
                                   slice(cols[i], cols[i + 1]), B))
        E[pi] = _placed(eng, src, tgt, pieces)
    label = cat.label_name(mu)
    if action is None:
        name = f"ind[{cat.group.elements[k]}]({label})"
    else:
        name = f"ind^{cat.group.elements[k]}({label})"
    return HalfBraiding(cat, obj, grade, E, action=action, name=name)


# ---------------------------------------------------------------------------
# splitting induced objects into simples


def _spectral_cuts(theta: HalfBraiding, rng, cluster_tol: float = 1e-6):
    """Minimal projections of End(theta) from a random Hermitian probe.

    Returns None when the probe is degenerate (eigenvalue collision across
    distinct summands), so the caller can retry with fresh randomness.
    """
    n_end, basis = hom_center(theta, theta)
    if n_end == 1:
        return [None]
    eng = theta.eng
    coeff = rng.standard_normal(n_end) + 1j * rng.standard_normal(n_end)
    h = lincomb(coeff, basis)
    h = h + h.H
    chans = [c for c in range(eng.rank) if eng.vdim(c, theta.obj)]
    spectra = {}
    vals = []
    for c in chans:
        B = h.block(c)
        w, V = np.linalg.eigh((B + B.conj().T) / 2)
        spectra[c] = (w, V)
        vals.extend(float(v) for v in w)
    vals.sort()
    scale = max(1.0, abs(vals[0]), abs(vals[-1]))
    edges = [vals[0] - 1.0]
    for a, b in zip(vals, vals[1:]):
        if b - a > cluster_tol * scale:
            edges.append((a + b) / 2)
    edges.append(vals[-1] + 1.0)
    projs = []
    for lo, hi in zip(edges, edges[1:]):
        blocks = {}
        for c in chans:
            w, V = spectra[c]
            sel = (w > lo) & (w <= hi)
            if np.any(sel):
                blocks[c] = V[:, sel] @ V[:, sel].conj().T
        projs.append(Mor(eng, theta.obj, theta.obj, blocks))
    return projs


def _cut_by_projection(theta: HalfBraiding, p: Mor | None,
                       tol: float = 1e-8) -> HalfBraiding:
    """Sub-half-braiding on the range of a projection p in End(theta).

    The range is presented as a sum of simples via per-channel isometries;
    E restricts because p commutes with the braiding data, and the
    restricted blocks are snapped to exact unitaries by polar decomposition
    before the result is re-verified by the caller.
    """
    eng = theta.eng
    if p is None and all(len(eng.strip_word(w)) == 1 for w in theta.obj):
        return theta
    iso_blocks = {}
    words = []
    for c in range(eng.rank):
        n = eng.vdim(c, theta.obj)
        if not n:
            continue
        if p is None:
            P = np.eye(n, dtype=complex)
        else:
            P = p.block(c)
        w, V = np.linalg.eigh((P + P.conj().T) / 2)
        sel = w > 0.5
        if np.any(np.abs(w - np.round(w)) > 1e-6):
            raise InternalCheckError("extraction probe is not a projection")
        r = int(np.sum(sel))
        if r:
            iso_blocks[c] = V[:, sel]
            words.extend([(c,)] * r)
    obj = tuple(sorted(words))
    u = Mor(eng, obj, theta.obj, iso_blocks)
    E = {}
    for pi in theta.loop_labels():
        pip = theta.tgt_label(pi)
        cut = (eng.ltens((pip,), u).H
               @ theta.E[pi]
               @ eng.rtens(u, (pi,)))
        snapped = {}
        for c, B in cut.blocks.items():
            if B.shape[0] == B.shape[1] and B.shape[0]:
                if np.linalg.norm(B) < tol:
                    continue
                w, _, vh = np.linalg.svd(B, full_matrices=False)
                snapped[c] = w @ vh     # the unitary polar factor of B
            else:
                snapped[c] = B
        E[pi] = Mor(eng, cut.source, cut.target, snapped)
    return HalfBraiding(theta.cat, obj, theta.grade, E, action=theta.action)


def extract_simples(tube: TubeAlgebra, dec: TubeDecomposition, seed: int = 7,
                    tol: float = 1e-8, max_retries: int = 8) -> list[HalfBraiding]:
    """Simple half-braidings of one grade, ordered like the tube blocks.

    Induces an object around every simple of the grade's outer sector,
    splits each induced object with minimal projections of its
    endomorphism algebra, throws away repeats (detected by `hom_center`),
    and finally pairs each survivor with a tube block by evaluating the
    block's central projection in the tube representation carried by the
    half-braiding.  Corner multiplicities are cross-checked against the
    object's simple content.  Any mismatch is a hard failure: the tube
    decomposition is the ground truth for how many simples must appear.
    """
    cat = tube.cat
    g = dec.grade
    act = tube.action
    k_ind = g if act is not None else cat.group.neutral
    reps: list[HalfBraiding] = []
    for mu in tube.outer_by_grade[g]:
        theta = induce_object(cat, mu, k=k_ind, action=act)
        chk = verify_half_braiding(theta, tol)
        if not chk["pass"]:
            raise InternalCheckError(
                f"induced object around {cat.label_name(mu)} fails the axioms: {chk}")
        cuts = None
        for attempt in range(max_retries):
            rng = np.random.default_rng(seed + attempt)
            projs = _spectral_cuts(theta, rng)
            trial = [_cut_by_projection(theta, p, tol) for p in projs]
            good = True
            for cut in trial:
                if hom_center(cut, cut)[0] != 1:
                    good = False
                    break
                if not verify_half_braiding(cut, tol)["pass"]:
                    good = False
                    break
            if good:
                cuts = trial
                break
        if cuts is None:
            raise InternalCheckError(
                f"could not split the object induced around {cat.label_name(mu)} "
                f"after {max_retries} probes")
        for cut in cuts:
            if all(hom_center(cut, r)[0] == 0 for r in reps):
                reps.append(cut)
    if len(reps) != len(dec.blocks):
        raise InternalCheckError(
            f"extracted {len(reps)} simples but the tube component has "
            f"{len(dec.blocks)} blocks")

    sl = tube.grade_slice(g)
    ordered: list[HalfBraiding | None] = [None] * len(dec.blocks)
    for X in reps:
        rep = tube_representation(tube, X, tol)
        if not rep["pass"]:
            info = {k: v for k, v in rep.items() if k != "matrices"}
            raise InternalCheckError(
                f"tube representation checks fail for {X.name or X.obj}: {info}")
        hits = []
        for bi, blk in enumerate(dec.blocks):
            t = complex(np.einsum("k,kii->", blk.projection,
                                  rep["matrices"][blk.positions - sl.start]))
            if abs(t - blk.rank) < 1e-4:
                hits.append(bi)
            elif abs(t) > 1e-4:
                raise InternalCheckError(
                    f"central projection evaluates to {t:.4f} "
                    f"(expected 0 or the block rank {blk.rank})")
        if len(hits) != 1 or ordered[hits[0]] is not None:
            raise InternalCheckError("block pairing is not one-to-one")
        bi = hits[0]
        mult = X.multiplicities()
        corners = {p: mult.get(p, 0) for p in tube.outer_by_grade[g]}
        if corners != dec.blocks[bi].corners:
            raise InternalCheckError(
                f"corner multiplicities {corners} disagree with the tube "
                f"block's {dec.blocks[bi].corners}")
        X.name = f"{dec.grade_name}:{bi}"
        ordered[bi] = X
    return list(ordered)


# ---------------------------------------------------------------------------
# tube representations carried by half-braidings


def _psi_apply(tube: TubeAlgebra, hb: HalfBraiding, elt, B: Mor, v: Mor) -> Mor:
    """Action of one tube basis morphism on a vector v in Hom(target_outer, obj)."""
    eng = hb.eng
    x = elt.loop
    p = elt.source_outer
    xp = tube.tloop(elt.grade, x)
    xbar = int(hb.cat.dual[x])
    pair = eng.conjugates(x)
    s1 = eng.drop_units(eng.ltens((p,), pair.Rbar), "source", (1,))
    s2 = eng.rtens(B, (xbar,))
    s3 = eng.rtens(eng.ltens((xp,), v), (xbar,))
    s4 = eng.rtens(hb.E[x].H, (xbar,))
    s5 = eng._word_end_drop(eng.ltens(hb.obj, pair.Rbar.H), "target")
    return s5 @ (s4 @ (s3 @ (s2 @ s1)))


def tube_representation(tube: TubeAlgebra, hb: HalfBraiding,
                        tol: float = 1e-8) -> dict:
    """The tube component's representation on + over rho of Hom(rho, obj).

    Returns the matrices of every basis element of the half-braiding's
    grade component together with residuals of the representation checks:
    multiplicativity against the structure constants, the image of the
    algebra unit, and compatibility of the star with the quantum-dimension
    weighted inner product on the representation space.
    """
    eng = hb.eng
    cat = hb.cat
    g = hb.grade
    if g not in tube.outer_by_grade:
        raise ValidationError("half-braiding grade is not a tube grade")
    outers = tube.outer_by_grade[g]
    vecs = []
    pos = {}
    for rho in outers:
        n = eng.vdim(rho, hb.obj)
        for i in range(n):
            col = np.zeros((n, 1), dtype=complex)
            col[i, 0] = 1.0
            pos[(rho, i)] = len(vecs)
            vecs.append((rho, Mor(eng, ((rho,),), hb.obj, {rho: col})))
    H = len(vecs)
    sl = tube.grade_slice(g)
    ng = sl.stop - sl.start
    mats = np.zeros((ng, H, H), dtype=complex)
    for k in range(sl.start, sl.stop):
        e = tube.basis[k]
        B = tube.element_mor(k)
        for j, (rho, v) in enumerate(vecs):
            if rho != e.target_outer:
                continue
            w = _psi_apply(tube, hb, e, B, v)
            col = w.blocks.get(e.source_outer)
            if col is None:
                continue
            for i in range(col.shape[0]):
                mats[k - sl.start, pos[(e.source_outer, i)], j] = col[i, 0]
    weights = np.array([float(cat.qdim[rho]) for rho, _ in vecs])
    W = np.diag(weights)
    Winv = np.diag(1.0 / weights)
    # rho(b_a) rho(b_b) and sum_c c_abc rho(b_c) both vanish for a, b in
    # two ideals, and the star stays in its ideal, so both are checked per
    # ideal
    hom_res = star_res = 0.0
    for idl in tube.ideals:
        if idl.grade == g and H:
            R = mats[idl.positions - sl.start]
            lhs = np.einsum("aij,bjk->abik", R, R)
            rhs = np.einsum("abc,cik->abik", idl.cube, R)
            hom_res = residual_max(hom_res, float(np.max(np.abs(lhs - rhs))))
            lhs = np.einsum("ik,ijl->kjl", idl.star, R)
            rhs = Winv @ R.conj().transpose(0, 2, 1) @ W
            star_res = residual_max(star_res, float(np.max(np.abs(lhs - rhs))))
    unit_mat = np.einsum("k,kij->ij", tube.unit_coords[sl], mats)
    unit_res = float(np.max(np.abs(unit_mat - np.eye(H)))) if H else 0.0
    ok = hom_res < tol and unit_res < tol and star_res < tol
    return {
        "matrices": mats,
        "space": [(cat.label_name(rho), i)
                  for (rho, i) in sorted(pos, key=pos.get)],
        "hom_residual": hom_res,
        "unit_residual": unit_res,
        "star_residual": star_res,
        "dim": H,
        "tol": tol,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# reporting


def center_report_dict(tube: TubeAlgebra, decs: dict, simples: dict,
                       tol: float = 1e-8) -> dict:
    """JSON-ready summary of a center computation.

    `decs` maps grade -> TubeDecomposition and `simples` maps grade -> the
    matching list from `extract_simples`.  The report lists each simple
    with its object content, quantum dimension and verification residual,
    plus the hom-dimension table between all extracted simples.
    """
    cat = tube.cat
    out: dict = {"category": cat.name, "kind": tube.kind,
                 "group": list(cat.group.elements), "tol": tol, "grades": {}}
    flat: list[tuple[str, HalfBraiding]] = []
    for g in sorted(decs):
        dec = decs[g]
        xs = simples[g]
        entries = []
        for blk, X in zip(dec.blocks, xs):
            chk = verify_half_braiding(X, tol)
            entries.append({
                "name": X.name,
                "object": {cat.label_name(a): n
                           for a, n in sorted(X.multiplicities().items())},
                "rank": blk.rank,
                "corners": {cat.label_name(p): n
                            for p, n in sorted(blk.corners.items())},
                "qdim": X.qdim(),
                "residual": chk["max_residual"],
                "unitarity": chk["unitarity"],
                "pass": chk["pass"],
            })
            flat.append((X.name, X))
        out["grades"][dec.grade_name] = {
            "dim": dec.dim,
            "center_dim": dec.center_dim,
            "block_ranks": dec.block_ranks(),
            "seed": dec.seed,
            "retries": dec.retries,
            "simples": entries,
        }
    table = {}
    for na, a in flat:
        row = {}
        for nb, b in flat:
            row[nb] = hom_center(a, b)[0]
        table[na] = row
    out["hom_table"] = table
    total = sum(len(v) for v in simples.values())
    out["simple_count"] = total
    return out
