"""Crossed braiding on graded centers, its reverse, and equivariantization.

The half-braiding E of a center object X extends over any second object Y
to a crossed braiding E(X, Y) : X Y -> g[Y] X, where g is X's grade and
g[.] is the strict action in the twisted flavour (and the identity in the
plain flavour, where Y must be degree-neutral so that the extension is
defined letter by letter).  This module builds that braiding, checks the
crossed-braiding axioms by sweeping channel bases, constructs the reverse
braiding, and equivariantizes: objects with a coherent family of
isometries along the action, on which the crossed braiding descends to an
honest braiding.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fusion_core import InternalCheckError, ValidationError
from .morphisms import Mor, residual_max, vobj_tensor
from .center import (
    HalfBraiding,
    center_hom_residual,
    conjugate_half_braiding,
    g_action_on_center,
    hom_center,
    identity_half_braiding,
    kernel_solve,
    tensor_half_braidings,
    unit_loop_E,
)

__all__ = [
    "build_G_braiding",
    "verify_G_braiding",
    "reverse_braiding",
    "verify_reverse_braiding",
    "EquivariantObject",
    "direct_sum_half_braidings",
    "regular_equivariant",
    "scalar_twist_equivariant",
    "tensor_equivariant",
    "conjugate_equivariant",
    "hom_equivariant",
    "verify_equivariant",
    "verify_equivariant_braiding",
    "equivariant_count",
    "equivariant_braiding",
    "monodromy_matrix",
]


def _moved_obj(x: HalfBraiding, k: int) -> tuple:
    if x.action is None:
        return x.obj
    return tuple(x.action.on_word(k, w) for w in x.obj)


def _unitarity_defect(m: Mor) -> float:
    """Worst entry of B^* B - 1 over the nonempty channel blocks B of m."""
    worst = 0.0
    for B in m.blocks.values():
        if B.size:
            worst = residual_max(
                worst, float(np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1])))))
    return worst


def _check_second_slot(x: HalfBraiding, y: HalfBraiding) -> None:
    if x.action is None and y.grade != x.cat.group.neutral:
        raise ValidationError(
            "plain-flavour braiding needs a degree-neutral second slot "
            "(the half-braiding only knows neutral loop labels)")


def build_G_braiding(x: HalfBraiding, y: HalfBraiding) -> Mor:
    """Crossed braiding X Y -> g[Y] X from X's half-braiding."""
    _check_second_slot(x, y)
    return x.E_vobj(y.obj)


def reverse_braiding(x: HalfBraiding, y: HalfBraiding) -> Mor:
    """Reverse crossed braiding X Y -> Y h^{-1}[X], h the grade of Y.

    This is the adjoint of Y's half-braiding extended over the object of
    X pulled back along h; with unitary E-data it inverts the forward
    braiding on the matching slots.
    """
    hinv = y.cat.group.inv(y.grade)
    if y.action is None:
        if x.grade != x.cat.group.neutral:
            raise ValidationError(
                "plain-flavour reverse braiding needs a degree-neutral first slot")
        arg = x.obj
    else:
        arg = tuple(y.action.on_word(hinv, w) for w in x.obj)
    return y.E_vobj(arg).H


def verify_G_braiding(simples: list, tol: float = 1e-8,
                      pairwise: dict | None = None) -> dict:
    """Crossed-braiding axiom sweep over a family of center simples.

    Checks, for all pairs/triples from `simples` (plus the unit object):
    unit rows, unitarity, multiplicativity in either slot against tensor
    products, naturality in either slot against full center-hom bases,
    and - in the twisted flavour - equivariance of the whole family under
    transport by every group element.

    `pairwise` optionally supplies the braiding morphisms for pairs of
    family members, keyed by their (first, second) indices in `simples`;
    identities involving the unit or tensor/transported objects are still
    built from the half-braiding data, so the sweep cross-examines the
    supplied morphisms instead of merely recomputing them.  A missing
    entry for a pair the sweep needs raises ValidationError.

    The sweep does not check the half-braidings themselves.  With the
    braidings built from the same data, a corrupted E(pi) for a loop pi
    other than the unit goes unseen: multiplicativity holds for any E,
    because `E_vobj` extends E by the same rule the check uses, and
    naturality ranges only over the scalar endomorphisms of simples.
    `verify_half_braiding` is the check that covers E; run it on every
    member first, as the CLI and ``braid-check`` do.
    """
    if not simples:
        raise ValidationError("empty family")
    x0 = simples[0]
    cat, eng, act = x0.cat, x0.eng, x0.action
    grp = cat.group
    unit_hb = identity_half_braiding(cat, action=act)
    fam = [unit_hb] + list(simples)

    def second_ok(y):
        return act is not None or y.grade == grp.neutral

    def braid(i, j):
        if pairwise is not None and i > 0 and j > 0:
            try:
                return pairwise[(i - 1, j - 1)]
            except KeyError:
                raise ValidationError(
                    f"braiding map is missing entries: no braiding for "
                    f"({fam[i].name!r}, {fam[j].name!r})") from None
        return build_G_braiding(fam[i], fam[j])

    res = {k: 0.0 for k in ("unit_rows", "unitarity", "mult_second",
                            "nat_second", "mult_first", "nat_first",
                            "equivariance")}
    counts = {k: 0 for k in res}

    for x in fam:
        # unit rows; E(1,X) puts X in the constrained second slot
        if second_ok(x):
            left = build_G_braiding(unit_hb, x)
            res["unit_rows"] = residual_max(res["unit_rows"],
                                            left.diff_norm(unit_loop_E(eng, x.obj).H))
        right = build_G_braiding(x, unit_hb)
        res["unit_rows"] = residual_max(res["unit_rows"],
                                        right.diff_norm(unit_loop_E(eng, x.obj)))
        counts["unit_rows"] += 1

    for i, x in enumerate(fam):
        for j, y in enumerate(fam):
            if not second_ok(y):
                continue
            res["unitarity"] = residual_max(res["unitarity"], _unitarity_defect(braid(i, j)))
            counts["unitarity"] += 1

    # multiplicativity in the second slot
    for j, y in enumerate(fam):
        for k, z in enumerate(fam):
            if not (second_ok(y) and second_ok(z)):
                continue
            yz = tensor_half_braidings(y, z)
            for i, x in enumerate(fam):
                lhs = build_G_braiding(x, yz)
                rhs = (eng.ltens(x.tgt_vobj(y.obj), braid(i, k))
                       @ eng.rtens(braid(i, j), z.obj))
                res["mult_second"] = residual_max(res["mult_second"], lhs.diff_norm(rhs))
                counts["mult_second"] += 1

    # multiplicativity in the first slot
    for i, x in enumerate(fam):
        for j, xp in enumerate(fam):
            xx = tensor_half_braidings(x, xp)
            for k, y in enumerate(fam):
                if not second_ok(y):
                    continue
                lhs = build_G_braiding(xx, y)
                moved = (y if act is None
                         else g_action_on_center(y, xp.grade))
                first = (braid(i, k) if act is None
                         else build_G_braiding(x, moved))
                rhs = (eng.rtens(first, xp.obj)
                       @ eng.ltens(x.obj, braid(j, k)))
                res["mult_first"] = residual_max(res["mult_first"], lhs.diff_norm(rhs))
                counts["mult_first"] += 1

    # naturality in either slot against each center hom T : fam[i] -> fam[j]
    for i, x in enumerate(fam):
        for j, xp in enumerate(fam):
            basis = hom_center(x, xp)[1]
            for k, z in enumerate(fam):
                for T in basis:
                    if second_ok(x) and second_ok(xp):  # T in the second slot
                        Tg = T if act is None else eng.transport(T, z.grade, act)
                        lhs = eng.rtens(Tg, z.obj) @ braid(k, i)
                        rhs = braid(k, j) @ eng.ltens(z.obj, T)
                        res["nat_second"] = residual_max(res["nat_second"], lhs.diff_norm(rhs))
                        counts["nat_second"] += 1
                    if second_ok(z):  # T in the first slot
                        lhs = (eng.ltens(x.tgt_vobj(z.obj), T)
                               @ braid(i, k))
                        rhs = braid(j, k) @ eng.rtens(T, z.obj)
                        res["nat_first"] = residual_max(res["nat_first"], lhs.diff_norm(rhs))
                        counts["nat_first"] += 1

    # equivariance of the family under transport
    if act is not None:
        for k in range(grp.order):
            for i, x in enumerate(fam):
                for j, y in enumerate(fam):
                    B = braid(i, j)
                    moved = build_G_braiding(g_action_on_center(x, k),
                                             g_action_on_center(y, k))
                    res["equivariance"] = residual_max(
                        res["equivariance"],
                        moved.diff_norm(eng.transport(B, k, act)))
                    counts["equivariance"] += 1

    worst = residual_max(*res.values())
    out = dict(res)
    out.update({"counts": counts, "max_residual": worst, "tol": tol,
                "pass": bool(worst < tol)})
    return out


def verify_reverse_braiding(simples: list, tol: float = 1e-8) -> dict:
    """Reverse-braiding checks: inversion, membership, double reverse."""
    if not simples:
        raise ValidationError("empty family")
    x0 = simples[0]
    cat, eng, act = x0.cat, x0.eng, x0.action
    grp = cat.group
    unit_hb = identity_half_braiding(cat, action=act)
    fam = [unit_hb] + list(simples)

    def first_ok(x):
        return act is not None or x.grade == grp.neutral

    res = {"inversion": 0.0, "membership": 0.0, "double_reverse": 0.0,
           "unit_rows": 0.0}
    n = 0
    for x in fam:
        if not first_ok(x):
            continue
        for y in fam:
            Rv = reverse_braiding(x, y)
            hinv = grp.inv(y.grade)
            xm = x if act is None else g_action_on_center(x, hinv)
            Fw = build_G_braiding(y, xm)
            src = vobj_tensor(x.obj, y.obj)
            back = Fw @ Rv
            res["inversion"] = residual_max(
                res["inversion"], back.diff_norm(eng.identity(src)))
            xy = tensor_half_braidings(x, y)
            yxm = tensor_half_braidings(y, xm)
            res["membership"] = residual_max(
                res["membership"], center_hom_residual(xy, yxm, Rv))
            if act is not None or y.grade == grp.neutral:
                gx = x.grade
                ym = y if act is None else g_action_on_center(y, gx)
                dbl = reverse_braiding(ym, x).H
                res["double_reverse"] = residual_max(
                    res["double_reverse"],
                    dbl.diff_norm(build_G_braiding(x, y)))
            n += 1
        Rv1 = reverse_braiding(x, unit_hb)
        res["unit_rows"] = residual_max(res["unit_rows"],
                                        Rv1.diff_norm(unit_loop_E(eng, x.obj)))
    worst = residual_max(*res.values())
    out = dict(res)
    out.update({"checked": n, "tol": tol, "pass": bool(worst < tol)})
    return out


# ---------------------------------------------------------------------------
# equivariantization


def direct_sum_half_braidings(parts: list) -> HalfBraiding:
    """Direct sum of half-braidings of one grade (E acts block-diagonally)."""
    if not parts:
        raise ValidationError("empty direct sum")
    x0 = parts[0]
    eng = x0.eng
    if any(p.grade != x0.grade for p in parts):
        raise ValidationError("direct sum of half-braidings of different grades")
    obj = tuple(w for p in parts for w in p.obj)
    offs = [0]
    for p in parts:
        offs.append(offs[-1] + len(p.obj))
    E = {}
    for pi in x0.loop_labels():
        pip = x0.tgt_label(pi)
        src = vobj_tensor(obj, ((pi,),))
        tgt = vobj_tensor(((pip,),), obj)
        acc = Mor(eng, src, tgt, {})
        for p, off in zip(parts, offs):
            Ep = p.E[pi]
            blocks = {}
            for c in range(eng.rank):
                m, nn = eng.vdim(c, tgt), eng.vdim(c, src)
                if not (m and nn):
                    continue
                B = Ep.block(c)
                if not B.size or not np.any(B):
                    continue
                big = np.zeros((m, nn), dtype=complex)
                ro = eng.offsets(c, tgt)
                co = eng.offsets(c, src)
                big[ro[off]:ro[off] + B.shape[0],
                    co[off]:co[off] + B.shape[1]] = B
                blocks[c] = big
            acc = acc + Mor(eng, src, tgt, blocks)
        E[pi] = acc
    return HalfBraiding(x0.cat, obj, x0.grade, E, action=x0.action)


@dataclasses.dataclass(eq=False)
class EquivariantObject:
    """A center object with unitary transport isometries c_g : base -> g[base].

    `cocycle[g]` intertwines the half-braidings and satisfies the chain
    rule transport_g(c_h) o c_g = c_{gh}; the neutral entry is the
    identity.
    """

    base: HalfBraiding
    cocycle: dict
    name: str = ""


def regular_equivariant(x: HalfBraiding) -> EquivariantObject:
    """Free equivariant object on x: base + over g of g[x], permutation cocycle."""
    if x.action is None:
        raise ValidationError("equivariantization needs an action context")
    grp = x.cat.group
    eng = x.eng
    parts = [g_action_on_center(x, g) for g in range(grp.order)]
    base = direct_sum_half_braidings(parts)
    nblk = len(x.obj)
    cocycle = {}
    for g in range(grp.order):
        tgt_obj = _moved_obj(base, g)
        blocks: dict = {}
        for h in range(grp.order):
            gh = grp.mul(g, h)
            # summand h of g[base] is g[h[x]] = (gh)[x]: route base summand gh there
            idf = eng.identity(parts[gh].obj)
            for c, B in idf.blocks.items():
                m = eng.vdim(c, tgt_obj)
                nn = eng.vdim(c, base.obj)
                big = blocks.setdefault(c, np.zeros((m, nn), dtype=complex))
                ro = eng.offsets(c, tgt_obj)
                co = eng.offsets(c, base.obj)
                big[ro[h * nblk]:ro[h * nblk] + B.shape[0],
                    co[gh * nblk]:co[gh * nblk] + B.shape[1]] = B
        cocycle[g] = Mor(eng, base.obj, tgt_obj, blocks)
    return EquivariantObject(base, cocycle, name=f"reg({x.name})" if x.name else "reg")


def _scalar_ratio(comp: Mor, ref: Mor) -> complex:
    """Scalar w with comp = w * ref (both nonzero multiples of one morphism)."""
    for c in comp.blocks:
        A = comp.blocks[c].ravel()
        B = ref.block(c).ravel()
        k = int(np.argmax(np.abs(B)))
        if abs(B[k]) > 1e-9:
            return complex(A[k] / B[k])
    raise InternalCheckError("cannot form a scalar ratio against a zero morphism")


def scalar_twist_equivariant(x: HalfBraiding, phase_choice: int = 0,
                             tol: float = 1e-8) -> EquivariantObject:
    """Equivariant structure on a fixed simple by phase-correcting isometries.

    Requires g[x] isomorphic to x for every g.  The isomorphisms are
    unique up to phase (Schur), so the chain-rule defect is a scalar
    2-cocycle; it is trivialised along a cyclic generator when possible
    ('phase_choice' picks among the |stab-order| many solutions, e.g. the
    two characters for a Z2 stabiliser).  A defect that survives every
    phase correction is a genuine obstruction and a hard failure.
    """
    if x.action is None:
        raise ValidationError("equivariantization needs an action context")
    grp = x.cat.group
    eng = x.eng
    if hom_center(x, x)[0] != 1:
        raise ValidationError("scalar twisting needs a simple base")
    raw = {grp.neutral: eng.identity(x.obj)}
    for g in range(grp.order):
        if g == grp.neutral:
            continue
        moved = g_action_on_center(x, g)
        nsol, sols = hom_center(x, moved)
        if nsol != 1:
            raise ValidationError(
                f"base is not fixed by {grp.elements[g]} (hom dim {nsol})")
        T = sols[0]
        c = next(iter(T.blocks))
        T = T * (1.0 / np.linalg.norm(T.blocks[c][:, 0]))
        raw[g] = T

    # pick a generator whose powers exhaust the group (the bundled acting
    # groups are cyclic) and fix the closure phase of its power chain
    gen = None
    for g in range(grp.order):
        k, e = 1, g
        while e != grp.neutral:
            e = grp.mul(e, g)
            k += 1
        if k == grp.order:
            gen = g
            break
    if gen is None:
        raise ValidationError("acting group is not cyclic; no generic phase fix")
    n = grp.order

    chain = raw[gen]
    for _ in range(n - 1):
        chain = eng.transport(chain, gen, x.action) @ raw[gen]
    closure = _scalar_ratio(chain, raw[grp.neutral])
    lam = closure ** (-1.0 / n) * np.exp(2j * np.pi * phase_choice / n)

    u = raw[gen] * lam
    cocycle = {grp.neutral: raw[grp.neutral]}
    g, cur = gen, u
    while g != grp.neutral:
        cocycle[g] = cur
        cur = eng.transport(cur, gen, x.action) @ u
        g = grp.mul(gen, g)
    for a in range(grp.order):
        for b in range(grp.order):
            ab = grp.mul(a, b)
            comp = eng.transport(cocycle[b], a, x.action) @ cocycle[a]
            if comp.diff_norm(cocycle[ab]) > tol:
                raise InternalCheckError(
                    "scalar obstruction does not vanish along the generator chain")
    return EquivariantObject(x, cocycle,
                             name=f"fix({x.name})" if x.name else "fix")


def hom_equivariant(X: EquivariantObject, Y: EquivariantObject,
                    tol: float = 1e-8):
    """Dimension and basis of morphisms respecting the equivariant structure.

    Filters the center hom space by the commutation condition with every
    cocycle entry, c'_g o T = transport_g(T) o c_g.
    """
    base_dim, basis = hom_center(X.base, Y.base)
    if base_dim == 0:
        return 0, []
    eng = X.base.eng
    grp = X.base.cat.group
    act = X.base.action
    rows = []
    for g in range(grp.order):
        cols = []
        for T in basis:
            D = (Y.cocycle[g] @ T) - (eng.transport(T, g, act) @ X.cocycle[g])
            cols.append(D.flat())
        rows.append(np.stack(cols, axis=1))
    return kernel_solve(np.concatenate(rows, axis=0), basis, tol)


def conjugate_equivariant(X: EquivariantObject) -> EquivariantObject:
    """Equivariant structure on the conjugate base via bent cocycle legs."""
    base = X.base
    eng = base.eng
    grp = base.cat.group
    act = base.action
    cbar = conjugate_half_braiding(base)
    R, Rbar = eng.vobj_R(base.obj)
    cocycle = {}
    for g in range(grp.order):
        gobj = _moved_obj(base, g)
        gobjbar = tuple(base.cat.dual_word(w) for w in gobj)
        Rg = eng.transport(Rbar, g, act)
        s1 = eng._word_end_drop(eng.ltens(cbar.obj, Rg), "source")
        s2 = eng.rtens(eng.ltens(cbar.obj, X.cocycle[g].H), gobjbar)
        s3 = eng._word_start_drop(eng.rtens(R.H, gobjbar), "target")
        cocycle[g] = s3 @ s2 @ s1
    return EquivariantObject(cbar, cocycle,
                             name=f"conj({X.name})" if X.name else "")


def tensor_equivariant(X: EquivariantObject, Y: EquivariantObject) -> EquivariantObject:
    """Tensor product of equivariant objects with the spliced cocycle."""
    base = tensor_half_braidings(X.base, Y.base)
    eng = base.eng
    grp = base.cat.group
    cocycle = {}
    for g in range(grp.order):
        cocycle[g] = (eng.ltens(_moved_obj(X.base, g), Y.cocycle[g])
                      @ eng.rtens(X.cocycle[g], Y.base.obj))
    name = f"{X.name}*{Y.name}" if X.name and Y.name else ""
    return EquivariantObject(base, cocycle, name=name)


def verify_equivariant(X: EquivariantObject, tol: float = 1e-8) -> dict:
    """Cocycle checks: intertwining, unitarity, chain rule, conjugate legs."""
    base = X.base
    eng = base.eng
    grp = base.cat.group
    act = base.action
    res = {"intertwining": 0.0, "chain_rule": 0.0, "unitarity": 0.0,
           "neutral": 0.0}
    res["neutral"] = X.cocycle[grp.neutral].diff_norm(eng.identity(base.obj))
    for g in range(grp.order):
        cg = X.cocycle[g]
        moved = g_action_on_center(base, g)
        res["intertwining"] = residual_max(res["intertwining"],
                                           center_hom_residual(base, moved, cg))
        res["unitarity"] = residual_max(res["unitarity"], _unitarity_defect(cg))
        for h in range(grp.order):
            gh = grp.mul(g, h)
            comp = eng.transport(X.cocycle[h], g, act) @ cg
            res["chain_rule"] = residual_max(res["chain_rule"],
                                             comp.diff_norm(X.cocycle[gh]))
    worst = residual_max(*res.values())
    out = dict(res)
    out.update({"tol": tol, "pass": bool(worst < tol)})
    return out


def equivariant_count(simples: list, tol: float = 1e-8) -> dict:
    """Count simple equivariant objects by orbits and stabiliser classes.

    Sorts the family into action orbits; each orbit contributes one
    simple equivariant object per irreducible representation of its
    stabiliser (counted by conjugacy classes), assuming the scalar
    obstruction vanishes for every orbit - which holds in all bundled
    examples but is not checked here object by object, hence the flag in
    the report.
    """
    if not simples:
        raise ValidationError("empty family")
    grp = simples[0].cat.group
    seen = [False] * len(simples)
    orbits = []

    def find(y):
        for j, s in enumerate(simples):
            if hom_center(y, s)[0] > 0:
                return j
        raise InternalCheckError("action image leaves the family")

    for i, x in enumerate(simples):
        if seen[i]:
            continue
        members = set()
        stab = []
        for g in range(grp.order):
            j = find(g_action_on_center(x, g))
            members.add(j)
            if j == i:
                stab.append(g)
        for j in members:
            seen[j] = True
        orbits.append({"members": sorted(members), "stabilizer": stab,
                       "count": grp.class_count_of_subgroup(stab)})
    total = sum(o["count"] for o in orbits)
    return {"orbits": orbits, "count": total,
            "assumes_vanishing_obstruction": True, "tol": tol}


def equivariant_braiding(X: EquivariantObject, Y: EquivariantObject) -> Mor:
    """Braiding of equivariant objects: crossed braiding then cocycle leg."""
    g = X.base.grade
    eng = X.base.eng
    B = build_G_braiding(X.base, Y.base)
    return eng.rtens(Y.cocycle[g].H, X.base.obj) @ B


def verify_equivariant_braiding(objs: list, tol: float = 1e-8) -> dict:
    """Braiding checks after equivariantization: the crossed structure
    closes to an honest braiding.

    For all pairs/triples from `objs`: the braiding is unitary, commutes
    with every cocycle leg (so it is a morphism of equivariant objects),
    and satisfies both hexagon identities with respect to
    `tensor_equivariant`.
    """
    if not objs:
        raise ValidationError("empty family")
    eng = objs[0].base.eng
    grp = objs[0].base.cat.group
    act = objs[0].base.action
    res = {"unitarity": 0.0, "membership": 0.0, "hexagon_second": 0.0,
           "hexagon_first": 0.0}
    for X in objs:
        for Y in objs:
            B = equivariant_braiding(X, Y)
            res["unitarity"] = residual_max(res["unitarity"], _unitarity_defect(B))
            XY = tensor_equivariant(X, Y)
            YX = tensor_equivariant(Y, X)
            for k in range(grp.order):
                lhs = YX.cocycle[k] @ B
                rhs = eng.transport(B, k, act) @ XY.cocycle[k]
                res["membership"] = residual_max(res["membership"], lhs.diff_norm(rhs))
    for X in objs:
        for Y in objs:
            for Z in objs:
                YZ = tensor_equivariant(Y, Z)
                lhs = equivariant_braiding(X, YZ)
                rhs = (eng.ltens(Y.base.obj, equivariant_braiding(X, Z))
                       @ eng.rtens(equivariant_braiding(X, Y), Z.base.obj))
                res["hexagon_second"] = residual_max(res["hexagon_second"],
                                                     lhs.diff_norm(rhs))
                XY = tensor_equivariant(X, Y)
                lhs2 = equivariant_braiding(XY, Z)
                rhs2 = (eng.rtens(equivariant_braiding(X, Z), Y.base.obj)
                        @ eng.ltens(X.base.obj, equivariant_braiding(Y, Z)))
                res["hexagon_first"] = residual_max(res["hexagon_first"],
                                                    lhs2.diff_norm(rhs2))
    worst = residual_max(*res.values())
    out = dict(res)
    out.update({"tol": tol, "pass": bool(worst < tol)})
    return out


def monodromy_matrix(X: EquivariantObject, Y: EquivariantObject) -> dict:
    """Double braiding of equivariant objects; reports symmetry deviation."""
    eng = X.base.eng
    fwd = equivariant_braiding(X, Y)
    back = equivariant_braiding(Y, X)
    mono = back @ fwd
    dev = mono.diff_norm(eng.identity(fwd.source))
    return {"monodromy": mono, "deviation_from_identity": float(dev)}
