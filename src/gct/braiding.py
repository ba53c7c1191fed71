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

from .fusion_core import (
    InternalCheckError,
    ValidationError,
    fusion_ring_failure,
    unit_candidates,
    unitarity_defect,
)
from .morphisms import Mor, residual_max, vobj_tensor
from .center import (
    HalfBraiding,
    _placed,
    center_hom_residual,
    g_action_on_center,
    hom_center,
    identity_half_braiding,
    kernel_solve,
    tensor_half_braidings,
    unit_loop_E,
    verify_half_braiding,
)

__all__ = [
    "braidable",
    "build_G_braiding",
    "verify_G_braiding",
    "reverse_braiding",
    "verify_reverse_braiding",
    "certify",
    "EquivariantObject",
    "direct_sum_half_braidings",
    "regular_equivariant",
    "scalar_twist_equivariant",
    "tensor_equivariant",
    "hom_equivariant",
    "verify_equivariant",
    "verify_equivariant_braiding",
    "equivariant_count",
    "equivariant_braiding",
    "monodromy_matrix",
]


def _unitarity_defect(m: Mor) -> float:
    """Worst entry of B^* B - 1 over the nonempty channel blocks B of m."""
    return residual_max(0.0, *(unitarity_defect(B) for B in m.blocks.values() if B.size))


def braidable(y: HalfBraiding) -> bool:
    """Whether a half-braiding of y's context extends over y: always in the
    twisted flavour, and for a degree-neutral y in the plain flavour, where
    a half-braiding only knows the neutral loop labels.  This is the second
    slot of the crossed braiding and the first of the reverse one."""
    return y.action is not None or y.grade == y.cat.group.neutral


def build_G_braiding(x: HalfBraiding, y: HalfBraiding) -> Mor:
    """Crossed braiding X Y -> g[Y] X from X's half-braiding."""
    if not braidable(y):
        raise ValidationError(
            "plain-flavour braiding needs a degree-neutral second slot "
            "(the half-braiding only knows neutral loop labels)")
    return x.E_vobj(y.obj)


def reverse_braiding(x: HalfBraiding, y: HalfBraiding) -> Mor:
    """Reverse crossed braiding X Y -> Y h^{-1}[X], h the grade of Y.

    This is the adjoint of Y's half-braiding extended over the object of
    X pulled back along h; with unitary E-data it inverts the forward
    braiding on the matching slots.
    """
    if not braidable(x):
        raise ValidationError(
            "plain-flavour reverse braiding needs a degree-neutral first slot")
    hinv = y.cat.group.inv(y.grade)
    arg = x.obj if y.action is None else y.eng._moved_vobj(y.action, hinv, x.obj)
    return y.E_vobj(arg).H


def _keyed(members: list, key) -> list:
    """One (index, weight) pair per distinct key(index) among the indices
    `members`: the first index with that key and how many share it."""
    groups: dict = {}
    for j in members:
        k = key(j)
        first, weight = groups.get(k, (j, 0))
        groups[k] = (first, weight + 1)
    return list(groups.values())


def _value(f: Mor) -> tuple:
    """All a sweep reads of f: its endpoints and the bytes of its blocks,
    whose shapes the endpoints fix."""
    return (f.source, f.target,
            tuple((c, B.tobytes()) for c, B in sorted(f.blocks.items())))


def verify_G_braiding(simples: list, pairwise: dict, tol: float = 1e-8) -> dict:
    """Crossed-braiding axiom sweep over a family of center simples.

    Checks, for all pairs/triples from `simples` (plus the unit object):
    unit rows, unitarity, multiplicativity in either slot against tensor
    products, naturality in either slot against full center-hom bases,
    and - in the twisted flavour - equivariance of the whole family under
    transport by every group element.

    `pairwise` holds the braidings of member pairs, keyed by their
    (first, second) indices in `simples`; a missing entry the sweep needs
    raises ValidationError.  Only the unit row and column, and the tensor
    and transported objects the identities compare against, are built from
    half-braiding data, so the sweep checks the stored maps themselves.

    Every identity but naturality in the second slot and the unit rows
    reads its second slot Y only through obj Y and Y's column, the entries
    E(X, Y) over every first slot X, the unit included.  So each runs once
    per key (obj Y, the value of each entry of the column), the first slot
    per member: unitarity per (X, key Y), multiplicativity per
    (X, key Y, key Z) in the second slot and (X, X', key Y) in the first,
    naturality with T : X -> X' in the first slot per (X, X', T, key Z),
    equivariance per (g, X, key Y).  Members with equal keys give equal
    inputs, so every residual and count is that of the per-member sweep.

    The sweep does not check the half-braidings themselves.  With the
    braidings built from the same data, a corrupted E(pi) for a loop pi
    other than the unit goes unseen: multiplicativity holds for any E,
    because `E_vobj` extends E by the same rule the check uses, and
    naturality ranges only over the scalar endomorphisms of simples.
    `verify_half_braiding` is the check that covers E; `certify` runs it
    on every member.
    """
    if not simples:
        raise ValidationError("empty family")
    x0 = simples[0]
    cat, eng, act = x0.cat, x0.eng, x0.action
    grp = cat.group
    unit_hb = identity_half_braiding(cat, action=act)
    fam = [unit_hb] + list(simples)

    def braid(i, j):
        if i and j:
            try:
                return pairwise[(i - 1, j - 1)]
            except KeyError:
                raise ValidationError(
                    f"braiding map is missing entries: no braiding for "
                    f"({fam[i].name!r}, {fam[j].name!r})") from None
        return build_G_braiding(fam[i], fam[j])

    def column(j):
        return fam[j].obj, tuple(_value(braid(i, j)) for i in range(len(fam)))

    # (index, weight) pairs that stand for the second-slot members
    seconds = _keyed([j for j, y in enumerate(fam) if braidable(y)], column)

    res = {k: 0.0 for k in ("unit_rows", "unitarity", "mult_second",
                            "nat_second", "mult_first", "nat_first",
                            "equivariance")}
    counts = {k: 0 for k in res}

    for x in fam:
        # unit rows; E(1,X) puts X in the constrained second slot
        if braidable(x):
            left = build_G_braiding(unit_hb, x)
            res["unit_rows"] = residual_max(res["unit_rows"],
                                            left.diff_norm(unit_loop_E(eng, x.obj).H))
        right = build_G_braiding(x, unit_hb)
        res["unit_rows"] = residual_max(res["unit_rows"],
                                        right.diff_norm(unit_loop_E(eng, x.obj)))
        counts["unit_rows"] += 1

    for i in range(len(fam)):
        for j, w in seconds:
            res["unitarity"] = residual_max(res["unitarity"], _unitarity_defect(braid(i, j)))
            counts["unitarity"] += w

    # multiplicativity in the second slot
    for j, wj in seconds:
        y = fam[j]
        for k, wk in seconds:
            z = fam[k]
            yz = vobj_tensor(y.obj, z.obj)
            for i, x in enumerate(fam):
                lhs = x.E_vobj(yz)
                rhs = (eng.ltens(x.tgt_vobj(y.obj), braid(i, k))
                       @ eng.rtens(braid(i, j), z.obj))
                res["mult_second"] = residual_max(res["mult_second"], lhs.diff_norm(rhs))
                counts["mult_second"] += wj * wk

    # multiplicativity in the first slot
    for i, x in enumerate(fam):
        for j, xp in enumerate(fam):
            xx = tensor_half_braidings(x, xp)
            for k, w in seconds:
                y = fam[k]
                lhs = xx.E_vobj(y.obj)
                first = (braid(i, k) if act is None
                         else x.E_vobj(eng._moved_vobj(act, xp.grade, y.obj)))
                rhs = (eng.rtens(first, xp.obj)
                       @ eng.ltens(x.obj, braid(j, k)))
                res["mult_first"] = residual_max(res["mult_first"], lhs.diff_norm(rhs))
                counts["mult_first"] += w

    # naturality in either slot against each center hom T : fam[i] -> fam[j]
    for i, x in enumerate(fam):
        for j, xp in enumerate(fam):
            for T in hom_center(x, xp)[1]:
                if braidable(x) and braidable(xp):  # T in the second slot
                    for k, z in enumerate(fam):
                        Tg = T if act is None else eng.transport(T, z.grade, act)
                        lhs = eng.rtens(Tg, z.obj) @ braid(k, i)
                        rhs = braid(k, j) @ eng.ltens(z.obj, T)
                        res["nat_second"] = residual_max(res["nat_second"], lhs.diff_norm(rhs))
                        counts["nat_second"] += 1
                for k, w in seconds:  # T in the first slot
                    z = fam[k]
                    lhs = (eng.ltens(x.tgt_vobj(z.obj), T)
                           @ braid(i, k))
                    rhs = braid(j, k) @ eng.rtens(T, z.obj)
                    res["nat_first"] = residual_max(res["nat_first"], lhs.diff_norm(rhs))
                    counts["nat_first"] += w

    # equivariance of the family under transport
    if act is not None:
        for k in range(grp.order):
            for i, x in enumerate(fam):
                xk = g_action_on_center(x, k)
                for j, w in seconds:
                    B = braid(i, j)
                    lhs = xk.E_vobj(eng._moved_vobj(act, k, fam[j].obj))
                    res["equivariance"] = residual_max(
                        res["equivariance"],
                        lhs.diff_norm(eng.transport(B, k, act)))
                    counts["equivariance"] += w

    worst = residual_max(*res.values())
    out = dict(res)
    out.update({"counts": counts, "max_residual": worst, "tol": tol,
                "pass": bool(worst < tol)})
    return out


def verify_reverse_braiding(simples: list, tol: float = 1e-8) -> dict:
    """Reverse-braiding checks: inversion and membership.

    Over every pair (X, Y) with X a valid first slot.  Membership, that
    the reverse braiding is a center morphism, is checked per pair.
    Inversion reads X only through its object, so it runs once per
    (Y, obj X).  `checked` counts pairs.
    """
    if not simples:
        raise ValidationError("empty family")
    x0 = simples[0]
    cat, eng, act = x0.cat, x0.eng, x0.action
    grp = cat.group
    fam = [identity_half_braiding(cat, action=act)] + list(simples)

    firsts = [(i, x) for i, x in enumerate(fam) if braidable(x)]
    # the members that stand for their object
    reps = {i for i, _ in _keyed([i for i, _ in firsts], lambda i: fam[i].obj)}

    res = {"inversion": 0.0, "membership": 0.0}
    n = 0
    for i, x in firsts:
        for y in fam:
            Rv = reverse_braiding(x, y)
            xm = x if act is None else g_action_on_center(x, grp.inv(y.grade))
            if i in reps:
                back = build_G_braiding(y, xm) @ Rv
                res["inversion"] = residual_max(
                    res["inversion"],
                    back.diff_norm(eng.identity(vobj_tensor(x.obj, y.obj))))
            xy = tensor_half_braidings(x, y)
            yxm = tensor_half_braidings(y, xm)
            res["membership"] = residual_max(
                res["membership"], center_hom_residual(xy, yxm, Rv))
            n += 1
    worst = residual_max(*res.values())
    out = dict(res)
    out.update({"checked": n, "tol": tol, "pass": bool(worst < tol)})
    return out


def _closure_residual(simples: list, table: dict) -> float:
    """Worst |sum_z N_xy^z d_z - d_x d_y| over the member pairs of the
    fusion table {x: {y: {z: N_xy^z}}}, keyed by member name.  It vanishes
    on a fusion-closed family."""
    qd = {x.name: x.qdim() for x in simples}
    return residual_max(0.0, *(abs(sum(table[x][y].get(z, 0) * qd[z] for z in qd)
                                   - qd[x] * qd[y]) for x in qd for y in qd))


def _ring_failure(simples: list, table: dict, gate: float) -> str | None:
    """The first fusion-ring axiom that the integer fusion table of a whole
    center fails, or None.  The unit is the one member whose row and
    column are the identity, and the dual of x the member y with
    N_xy^unit = 1; past `fusion_ring_failure`, d_xbar = d_x within `gate`,
    and N_xy = N_yx for a neutral x, whose braiding gives X Y = Y X."""
    names = [x.name for x in simples]
    k = len(names)
    N = np.array([[[table[x][y].get(z, 0) for z in names] for y in names]
                  for x in names], dtype=np.int64).reshape(k, k, k)
    units = unit_candidates(N)
    if len(units) != 1:
        return f"unit axiom violated: found {len(units)} candidate unit objects"
    dual = np.argmax(N[:, :, units[0]] == 1, axis=1)
    failure = fusion_ring_failure(N, units[0], dual, names)
    if failure:
        return failure
    d = np.array([x.qdim() for x in simples])
    (bad,) = np.nonzero(~(np.abs(d[dual] - d) < gate))
    if len(bad):
        return f"duality violated at {names[bad[0]]}: d_xbar != d_x"
    neutral = [i for i, x in enumerate(simples) if x.grade == x.cat.group.neutral]
    bad = np.argwhere((N[neutral] != N[:, neutral].transpose(1, 0, 2)).any(axis=2))
    if len(bad):
        return f"commutativity violated at ({names[neutral[bad[0, 0]]]}, {names[bad[0, 1]]})"
    return None


def _family_gate(simples: list, homs: list, gate: float, full: bool) -> dict:
    """Schur orthogonality, dim Hom(X, Y) = [X is Y] over the member pairs
    (`homs[i][j]` = dim Hom(simples[i], simples[j])), and sum_X d_X^2
    against the dimension of the center: dim C_e dim C for Z_{C_e}(C)
    (Gelaki-Naidu-Nikshych 2009), (dim C)^2 for the full center, |G|
    times that for a twisted center.  The sum gates only a `full` family."""
    schur = max(abs(n - (i == j)) for i, row in enumerate(homs) for j, n in enumerate(row))
    cat = simples[0].cat
    d2 = cat.qdim ** 2
    want = float(d2[cat.neutral_sector()].sum() * d2.sum())
    if simples[0].action is not None:
        want *= cat.group.order
    dim_sum = float(sum(x.qdim() ** 2 for x in simples))
    res = abs(dim_sum - want)
    return {"schur_defect": schur, "dim_sum": dim_sum, "center_dim": want,
            "dim_residual": res, "tol": gate,
            "pass": bool(schur == 0 and (not full or res < gate))}


def certify(simples: list, pairwise: dict, fusion_table: dict, tol: float,
            full: bool) -> dict:
    """The one verdict on a center family: `verify_half_braiding` on every
    member, both sweeps (`pairwise` as in `verify_G_braiding`), the closure
    residual of `fusion_table`, the family gate on the hom table `hom`
    (dim Hom(x, y) over the member pairs) and the fusion-ring axioms
    (`ring`, the first failure or None).  The closure identity, the ring
    axioms and the dimension sum hold only for the whole center, so they
    gate, at max(tol, 1e-6), only a `full` family, not one grade of it."""
    gate = max(tol, 1e-6)
    half = [verify_half_braiding(x, tol) for x in simples]
    forward = verify_G_braiding(simples, pairwise, tol)
    reverse = verify_reverse_braiding(simples, tol)
    closure = _closure_residual(simples, fusion_table)
    homs = [[hom_center(x, y)[0] for y in simples] for x in simples]
    family = _family_gate(simples, homs, gate, full)
    ring = _ring_failure(simples, fusion_table, gate) if full else None
    ok = (all(h["pass"] for h in half) and forward["pass"] and reverse["pass"]
          and family["pass"] and ring is None and (not full or closure < gate))
    return {"half": half, "forward": forward, "reverse": reverse,
            "closure_residual": closure, "hom": homs, "family": family,
            "ring": ring, "pass": bool(ok)}


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
        src = vobj_tensor(obj, ((pi,),))
        tgt = vobj_tensor(((x0.tgt_label(pi),),), obj)
        pieces = []
        for p, off in zip(parts, offs):
            for c in sorted(p.E[pi].blocks):
                B = p.E[pi].blocks[c]
                if not np.any(B):
                    continue
                ro, co = eng.offsets(c, tgt)[off], eng.offsets(c, src)[off]
                pieces.append((c, slice(ro, ro + B.shape[0]), slice(co, co + B.shape[1]), B))
        E[pi] = _placed(eng, src, tgt, pieces)
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
        tgt_obj = eng._moved_vobj(x.action, g, base.obj)
        pieces = []
        for h in range(grp.order):
            gh = grp.mul(g, h)
            # summand h of g[base] is g[h[x]] = (gh)[x]: route base summand gh there
            for c, B in eng.identity(parts[gh].obj).blocks.items():
                ro = eng.offsets(c, tgt_obj)[h * nblk]
                co = eng.offsets(c, base.obj)[gh * nblk]
                pieces.append((c, slice(ro, ro + B.shape[0]), slice(co, co + B.shape[1]), B))
        cocycle[g] = _placed(eng, base.obj, tgt_obj, pieces)
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


def tensor_equivariant(X: EquivariantObject, Y: EquivariantObject) -> EquivariantObject:
    """Tensor product of equivariant objects with the spliced cocycle."""
    base = tensor_half_braidings(X.base, Y.base)
    eng = base.eng
    grp = base.cat.group
    act = base.action
    cocycle = {}
    for g in range(grp.order):
        cocycle[g] = (eng.ltens(eng._moved_vobj(act, g, X.base.obj), Y.cocycle[g])
                      @ eng.rtens(X.cocycle[g], Y.base.obj))
    name = f"{X.name}*{Y.name}" if X.name and Y.name else ""
    return EquivariantObject(base, cocycle, name=name)


def verify_equivariant(X: EquivariantObject, tol: float = 1e-8) -> dict:
    """Cocycle checks: intertwining, unitarity, chain rule, neutral element."""
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


def equivariant_count(simples: list) -> dict:
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
            "assumes_vanishing_obstruction": True}


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
