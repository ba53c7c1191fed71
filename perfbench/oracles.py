"""Expected values for the benchmark's output checks, from the raw files only.

Nothing here imports gct or reads its answers.  Every number is derived by
counting over the fusion table and group tables of a category file, or from
a closed formula in the literature:

* tube dimension per grade by direct hom counting,
  sum over loops x, outer labels p, r and channels c of N_{px}^c N_{x'r}^c,
  with x' = g[x] in the action-twisted flavour;
* simples of Z(Vec_G) from conjugacy classes and centralizer irreps: one
  simple per (class K, irrep rho of the centralizer), of dimension |K| dim rho;
* sum of qdim^2 over the simples: dim(C)^2 for a full center and
  dim(C_e) dim(C) for the center relative to the neutral part
  (Gelaki-Naidu-Nikshych, Centers of graded fusion categories, 2009);
* rank Z(TY(A)) = |A| (|A| + 7) / 2 (Izumi 2001), 9 for Ising = TY(Z2).
"""

from __future__ import annotations

import itertools
import json


def load_raw(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def fusion(raw: dict) -> dict:
    """Sparse fusion multiplicities {(a, b, c): n} of a category file."""
    return {(a, b, c): n for a, b, c, n in raw["N"] if n}


def _group(raw: dict) -> tuple[list, list]:
    grp = raw.get("group") or {"elements": ["e"], "table": [[0]]}
    grading = raw.get("grading") or [0] * raw["rank"]
    return grp["elements"], grading


def _hom_count(N: dict, rank: int, loops, outer, twist) -> int:
    return sum(N.get((p, x, c), 0) * N.get((twist[x], r, c), 0)
               for x in loops for p in outer for r in outer for c in range(rank))


def tube_dims(raw: dict, subcat: str = "degree0") -> dict:
    """Grade name -> dimension of the plain tube algebra.

    ``subcat='degree0'`` takes the neutral labels as loops and splits the
    outer labels by grade; ``'all'`` takes every label as a loop over the
    trivially regraded category, so there is one component.
    """
    rank, N = raw["rank"], fusion(raw)
    elements, grading = _group(raw)
    ident = list(range(rank))
    if subcat == "all":
        return {elements[0]: _hom_count(N, rank, ident, ident, ident)}
    loops = [a for a in ident if grading[a] == 0]
    return {g: _hom_count(N, rank, loops, [a for a in ident if grading[a] == k], ident)
            for k, g in enumerate(elements)}


def twisted_tube_dims(raw: dict, action: str) -> dict:
    """Grade name -> dimension of the action-twisted tube algebra."""
    rank, N = raw["rank"], fusion(raw)
    act = raw["action"]
    if act["name"] != action:
        raise ValueError(f"file has action {act['name']!r}, not {action!r}")
    ident = list(range(rank))
    return {g: _hom_count(N, rank, ident, ident, perm)
            for g, perm in act["perm"].items()}


# ---------------------------------------------------------------------------
# dimensions


def global_dim(raw: dict, degree0: bool = False) -> float:
    """dim(C) = sum d_a^2, or dim(C_e) over the neutral labels."""
    _, grading = _group(raw)
    return sum(d * d for a, d in enumerate(raw["qdim"])
               if not degree0 or grading[a] == 0)


def center_qdim_square_sum(raw: dict, subcat: str = "degree0") -> float:
    """Sum of qdim^2 over the simples of the (relative) center."""
    if subcat == "all":
        return global_dim(raw) ** 2
    return global_dim(raw, degree0=True) * global_dim(raw)


def ty_center_rank(order: int) -> int:
    """Rank of Z(TY(A, chi, tau)) for |A| = order (Izumi 2001)."""
    return order * (order + 7) // 2


# ---------------------------------------------------------------------------
# finite groups given by multiplication tables


def pointed_group(raw: dict) -> list[list[int]]:
    """Multiplication table of G for a file describing Vec_G."""
    rank, N = raw["rank"], fusion(raw)
    table = [[None] * rank for _ in range(rank)]
    for (a, b, c), n in N.items():
        if n != 1 or table[a][b] is not None:
            raise ValueError("not a pointed category: a product is not simple")
        table[a][b] = c
    if any(c is None for row in table for c in row):
        raise ValueError("fusion table is incomplete")
    return table


def semidirect_product(table: list[list[int]], perms: list[list[int]],
                       acting: list[list[int]]) -> list[list[int]]:
    """Table of A x| H, (a, g)(b, h) = (a g[b], gh); element (a, g) -> a*|H|+g.

    ``perms[g]`` is the automorphism of A by which g acts and ``acting`` is
    the multiplication table of H.
    """
    n, m = len(table), len(acting)
    out = [[0] * (n * m) for _ in range(n * m)]
    for a, g, b, h in itertools.product(range(n), range(m), range(n), range(m)):
        out[a * m + g][b * m + h] = table[a][perms[g][b]] * m + acting[g][h]
    return out


def _identity(table) -> int:
    return next(e for e in range(len(table))
                if all(table[e][x] == x for x in range(len(table))))


def _inverse(table, x: int) -> int:
    e = _identity(table)
    return next(y for y in range(len(table)) if table[x][y] == e)


def conjugacy_classes(table, members=None) -> list[list[int]]:
    members = list(range(len(table))) if members is None else list(members)
    seen, out = set(), []
    for x in members:
        if x in seen:
            continue
        cls = sorted({table[table[g][x]][_inverse(table, g)] for g in members})
        seen.update(cls)
        out.append(cls)
    return out


def centralizer(table, x: int) -> list[int]:
    return [g for g in range(len(table)) if table[g][x] == table[x][g]]


def _generated(table, gens) -> set:
    out = {_identity(table)} | set(gens)
    while True:
        new = {table[a][b] for a in out for b in out} - out
        if not new:
            return out
        out |= new


def irrep_dims(table, members) -> list[int]:
    """Irreducible dimensions of the subgroup ``members``, from counting.

    The number of irreps is the number of classes, the one-dimensional
    ones number |H/[H,H]|, the squares sum to |H| and each dimension
    divides |H|.  Raises if these constraints leave more than one answer.
    """
    members = list(members)
    order, k = len(members), len(conjugacy_classes(table, members))
    comm = _generated(table, [table[table[a][b]][_inverse(table, table[b][a])]
                              for a in members for b in members])
    linear = order // len(comm)
    rest = order - linear
    cands = [d for d in range(2, order + 1) if order % d == 0 and d * d <= rest]
    sols = [c for c in itertools.combinations_with_replacement(cands, k - linear)
            if sum(d * d for d in c) == rest]
    if len(sols) != 1:
        raise ValueError(f"irrep dimensions of a group of order {order} with "
                         f"{k} classes are not fixed by counting: {sols}")
    return [1] * linear + list(sols[0])


def vec_g_center_qdims(table) -> list[int]:
    """Sorted quantum dimensions of the simples of Z(Vec_G)."""
    out = []
    for cls in conjugacy_classes(table):
        out += [len(cls) * d for d in irrep_dims(table, centralizer(table, cls[0]))]
    return sorted(out)


def equivariant_count(raw: dict, action: str) -> int:
    """Simples of Z(Vec_A)^H = Z(Vec_{A x| H}) for an action on a pointed Vec_A."""
    act = raw["action"]
    if act["name"] != action:
        raise ValueError(f"file has action {act['name']!r}, not {action!r}")
    acting = raw["group"]["table"]
    perms = [act["perm"][g] for g in raw["group"]["elements"]]
    return len(vec_g_center_qdims(semidirect_product(pointed_group(raw), perms, acting)))
