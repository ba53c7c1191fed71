"""Skeletal data for finite graded unitary fusion categories.

A category is given by fusion multiplicities N[a, b, c] (= dim Hom(c, ab)),
duals, quantum dimensions, a grading by a finite group, and a table of
F-matrices in the unit-normalized gauge.  Everything is indexed by integer
labels; label names are only for I/O and error messages.

F-matrix convention
-------------------
``F[(a, b, c, d)]`` is the matrix of the identity between the two
parenthesisations of Hom(d, abc): rows are indexed by left-nested channels
(e, mu, nu) with mu < N[a,b,e], nu < N[e,c,d], columns by right-nested
channels (f, kappa, lam) with kappa < N[b,c,f], lam < N[a,f,d], both in
lexicographic order.  It converts right-nested coordinates into left-nested
ones.  Blocks with a unit among a, b, c must be the identity; blocks not
listed in a data file default to the identity.  The loader checks the
dict; every other reader takes its entries from the category's F-entry
table (``GradedCategory.f_entries``, see `_Pentagon`), which addresses
each entry by its four fusion vertices.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._memo import memo

__all__ = [
    "DataError",
    "ValidationError",
    "InternalCheckError",
    "GroupData",
    "GroupAction",
    "GradedCategory",
    "load_category",
    "category_from_dict",
    "fp_dimensions",
    "fusion_ring_failure",
    "unit_candidates",
    "verify_pentagon",
    "verify_action",
    "build_crossed_extension",
    "neutrally_graded",
    "trivially_graded",
    "bundled_path",
]

ATOL = 1e-9  # shared validation tolerance for unitary / dimension data


class DataError(Exception):
    """Malformed input data (schema level)."""


class ValidationError(Exception):
    """Well-formed data violating a category axiom."""


class InternalCheckError(Exception):
    """An internal consistency check failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# groups


@dataclass(eq=False)
class GroupData:
    """A finite group as a multiplication table.

    Attributes
    ----------
    elements : tuple of str
        Element names; index 0..n-1.
    table : ndarray
        table[g, h] = index of g*h.
    """

    elements: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.elements)
        self.table = np.asarray(self.table, dtype=int)
        if self.table.shape != (n, n):
            raise DataError(f"group table shape {self.table.shape} != ({n}, {n})")
        if self.table.min() < 0 or self.table.max() >= n:
            raise DataError("group table entries out of range")
        # locate the neutral element
        neutral = [g for g in range(n) if all(self.table[g, h] == h and self.table[h, g] == h for h in range(n))]
        if len(neutral) != 1:
            raise ValidationError("group axiom violated: no unique neutral element")
        self.neutral: int = neutral[0]
        inv = np.full(n, -1, dtype=int)
        for g in range(n):
            hits = np.where(self.table[g] == self.neutral)[0]
            if len(hits) != 1:
                raise ValidationError(f"group axiom violated: element {self.elements[g]} has no unique inverse")
            inv[g] = hits[0]
        self.inverse: np.ndarray = inv
        for g, h, k in itertools.product(range(n), repeat=3):
            if self.table[self.table[g, h], k] != self.table[g, self.table[h, k]]:
                raise ValidationError(
                    f"group axiom violated: associativity fails at ({self.elements[g]}, {self.elements[h]}, {self.elements[k]})"
                )

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverse[g])

    def conj(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inv(g))

    def class_count_of_subgroup(self, members: list[int]) -> int:
        """Number of conjugacy classes of the subgroup spanned by `members`.

        `members` must already be closed under the group law; this equals the
        number of irreducible representations of that subgroup.
        """
        mem = sorted(set(members))
        memset = set(mem)
        for a, b in itertools.product(mem, repeat=2):
            if self.mul(a, b) not in memset:
                raise InternalCheckError("subgroup not closed under multiplication")
        seen: set[int] = set()
        count = 0
        for h in mem:
            if h in seen:
                continue
            seen.update(self.mul(self.mul(g, h), self.inv(g)) for g in mem)
            count += 1
        return count

    @staticmethod
    def trivial() -> "GroupData":
        return GroupData(("e",), np.zeros((1, 1), dtype=int))


@dataclass(eq=False)
class GroupAction:
    """A strict action of the grading group by label permutations.

    perm[g, a] is the image label of a under g.  Strictness means the
    permutations preserve N, duals, quantum dimensions and every F entry;
    `verify_action` checks all of that.
    """

    name: str
    perm: np.ndarray

    def on_label(self, g: int, a: int) -> int:
        return int(self.perm[g, a])

    def on_word(self, g: int, word: tuple[int, ...]) -> tuple[int, ...]:
        row = self.perm[g]
        return tuple(int(row[a]) for a in word)


# ---------------------------------------------------------------------------
# the category container


@dataclass(eq=False)
class GradedCategory:
    labels: tuple[str, ...]
    dual: np.ndarray
    qdim: np.ndarray
    N: np.ndarray
    group: GroupData
    deg: np.ndarray
    F: dict[tuple[int, int, int, int], np.ndarray]
    actions: dict[str, GroupAction] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        self.rank = len(self.labels)
        self.dual = np.asarray(self.dual, dtype=int)
        self.qdim = np.asarray(self.qdim, dtype=float)
        self.N = np.asarray(self.N, dtype=int)
        self.deg = np.asarray(self.deg, dtype=int)
        self.unit = self._find_unit()

    # -- basic structure ----------------------------------------------------

    def _find_unit(self) -> int:
        units = unit_candidates(self.N)
        if len(units) != 1:
            raise ValidationError(f"unit axiom violated: found {len(units)} candidate unit objects")
        return units[0]

    def label_name(self, a: int) -> str:
        return self.labels[a]

    def sector(self, g: int) -> list[int]:
        """Simple labels of degree g."""
        return [a for a in range(self.rank) if self.deg[a] == g]

    def neutral_sector(self) -> list[int]:
        return self.sector(self.group.neutral)

    # -- F access -----------------------------------------------------------

    @memo
    def fusion_channels(self, a: int, b: int) -> tuple[tuple[int, int], ...]:
        """(c, N[a, b, c]) for every simple c in a x b, as Python ints."""
        row = self.N[a, b]
        return tuple((c, int(row[c])) for c in np.flatnonzero(row).tolist())

    @memo
    def left_channels(self, a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
        N = self.N
        return [
            (e, mu, nu)
            for e, m in self.fusion_channels(a, b)
            for mu in range(m)
            for nu in range(N[e, c, d])
        ]

    @memo
    def right_channels(self, a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
        N = self.N
        return [
            (f, kappa, lam)
            for f, k in self.fusion_channels(b, c)
            for kappa in range(k)
            for lam in range(N[a, f, d])
        ]

    @memo
    def f_entries(self) -> "_Pentagon":
        """Every F entry, addressed by fusion vertices (see `_Pentagon`)."""
        return _Pentagon(self)

    # -- misc ---------------------------------------------------------------

    def dims_product(self, word: tuple[int, ...]) -> float:
        return float(np.prod([self.qdim[a] for a in word])) if word else 1.0

    def dual_word(self, word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(int(self.dual[a]) for a in reversed(word))

    def action(self, name: str | GroupAction) -> GroupAction:
        """The bundled action called `name`; a GroupAction passes through
        unchanged, so callers may hand over an action that is not bundled."""
        if isinstance(name, GroupAction):
            return name
        try:
            return self.actions[name]
        except KeyError:
            raise DataError(f"category '{self.name}' has no action named '{name}'") from None


# ---------------------------------------------------------------------------
# loading and validation


def _int(x, what: str) -> int:
    """A JSON integer.  ``int()`` and ``dtype=int`` would truncate 1.7 to 1
    and read ``true`` as 1, so any other number, a boolean or a string is
    refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DataError(f"{what} must hold integers, not {x!r}")
    return x


def _real(x, what: str) -> float:
    """A JSON number.  ``float()`` and ``dtype=float`` would read ``"1.5"``
    and ``true``, so a string or a boolean is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DataError(f"{what} must hold numbers, not {x!r}")
    return float(x)


def _ints(data, what: str) -> np.ndarray:
    """An integer array from nested JSON lists, every entry checked by `_int`."""
    def check(x):
        return [check(y) for y in x] if isinstance(x, list) else _int(x, what)
    return np.asarray(check(data), dtype=int)


def _as_complex_matrix(rows: list) -> np.ndarray:
    """A matrix of F entries [re, im].  Reading entry[0] and entry[1] would
    drop a third component, so any other shape is refused."""
    def entry(z):
        if not isinstance(z, list) or len(z) != 2:
            raise DataError(f"F entries must be [re, im], not {z!r}")
        return complex(_real(z[0], "F entries"), _real(z[1], "F entries"))
    return np.array([[entry(z) for z in row] for row in rows])


def category_from_dict(data: dict, name: str = "") -> GradedCategory:
    """Build and fully validate a category from parsed JSON data.

    Malformed data ends in DataError (schema) or ValidationError (axioms);
    a field of the wrong type or shape never escapes as a bare TypeError,
    ValueError, KeyError or IndexError.
    """
    if not isinstance(data, dict):
        raise DataError(f"category data must be a JSON object, not {type(data).__name__}")
    try:
        return _category_from_dict(data, name)
    except (TypeError, ValueError, KeyError, IndexError, AttributeError,
            OverflowError) as exc:
        raise DataError(f"malformed category data: {type(exc).__name__}: {exc}") from None


def _category_from_dict(data: dict, name: str) -> GradedCategory:
    try:
        rank = _int(data["rank"], "rank")
        labels = tuple(str(x) for x in data["labels"])
        dual = _ints(data["dual"], "dual")
        qdim = np.array([_real(x, "qdim") for x in data["qdim"]])
        group_raw = data.get("group")
        grading_raw = data.get("grading")
        n_raw = data["N"]
        f_raw = data.get("F", [])
    except KeyError as exc:
        raise DataError(f"missing required field {exc}") from None

    if len(labels) != rank:
        raise DataError(f"rank {rank} != number of labels {len(labels)}")
    if dual.shape != (rank,):
        raise DataError("dual table must list one label per simple")
    if qdim.shape != (rank,):
        raise DataError("qdim must list one value per simple")
    if not np.all(np.isfinite(qdim)):
        # every later check compares a residual with a tolerance, and a NaN
        # residual passes such a comparison
        raise DataError("qdim entries must be finite numbers")

    if group_raw is None:
        group = GroupData.trivial()
    else:
        group = GroupData(tuple(str(e) for e in group_raw["elements"]), _ints(group_raw["table"], "group table"))
    if grading_raw is None:
        deg = np.full(rank, group.neutral, dtype=int)
    else:
        deg = _ints(grading_raw, "grading")
        if deg.shape != (rank,):
            raise DataError("grading must assign a group element to each simple")
        if deg.min() < 0 or deg.max() >= group.order:
            raise DataError("grading entries out of range of the group")

    N = np.zeros((rank, rank, rank), dtype=int)
    for item in n_raw:
        if len(item) != 4:
            raise DataError(f"N entry {item!r} is not [a, b, c, value]")
        a, b, c, v = (_int(x, "N entry") for x in item)
        if not (0 <= a < rank and 0 <= b < rank and 0 <= c < rank) or v < 0:
            raise DataError(f"N entry {item!r} out of range")
        N[a, b, c] = v

    F: dict[tuple[int, int, int, int], np.ndarray] = {}
    _declared_channels: list = []
    for item in f_raw:
        try:
            key = tuple(_int(x, "F abcd") for x in item["abcd"])
            mat = _as_complex_matrix(item["matrix"])
        except (KeyError, TypeError, IndexError) as exc:
            raise DataError(f"malformed F entry: {exc}") from None
        if len(key) != 4 or not all(0 <= x < rank for x in key):
            raise DataError(f"F key {key} out of range")
        if not np.all(np.isfinite(mat)):
            raise DataError(f"F entry {key} has a non-finite value")
        F[key] = mat
        declared_rc = {"rows": item.get("rows"), "cols": item.get("cols")}
        _declared_channels.append((key, declared_rc))

    cat = GradedCategory(labels=labels, dual=dual, qdim=qdim, N=N, group=group, deg=deg, F=F, name=name)

    for act_raw in data.get("actions", []) or ([data["action"]] if "action" in data else []):
        perm = np.zeros((group.order, rank), dtype=int)
        for gname, images in act_raw["perm"].items():
            if gname not in group.elements:
                raise DataError(f"action permutation given for unknown group element '{gname}'")
            g = group.elements.index(gname)
            perm[g] = _ints(images, "action perm")
        act = GroupAction(str(act_raw.get("name", "action")), perm)
        cat.actions[act.name] = act

    _validate(cat)

    # F entries listed in the file must match admissible block shapes and be
    # unitary; unit-argument blocks must be exactly the identity.
    for (a, b, c, d), mat in cat.F.items():
        nl = len(cat.left_channels(a, b, c, d))
        nr = len(cat.right_channels(a, b, c, d))
        if mat.shape != (nl, nr):
            raise DataError(
                f"F block {_key_names(cat.labels, (a, b, c, d))} has shape {mat.shape}, expected ({nl}, {nr})"
            )
        if nl and unitarity_defect(mat) > ATOL:
            raise ValidationError(f"F block {_key_names(cat.labels, (a, b, c, d))} is not unitary")
        if cat.unit in (a, b, c) and nl and np.abs(mat - np.eye(nl)).max() > 1e-12:
            raise ValidationError(
                f"gauge violation: F block {_key_names(cat.labels, (a, b, c, d))} with a unit argument is not the identity"
            )
    for key, declared in _declared_channels:
        for which, canon in (("rows", cat.left_channels(*key)), ("cols", cat.right_channels(*key))):
            got = declared[which]
            if got and [tuple(ch) for ch in got] != canon:
                raise DataError(
                    f"F block {_key_names(cat.labels, key)}: declared {which} do not match the canonical channel order"
                )

    for act in cat.actions.values():
        rep = verify_action(cat, act.name)
        if not rep["pass"]:
            raise ValidationError(f"action '{act.name}' is not strict: {rep['failures'][0]}")
    return cat


def _key_names(names, key: tuple[int, ...]) -> str:
    return "(" + ", ".join(names[k] for k in key) + ")"


def unit_candidates(N: np.ndarray) -> list[int]:
    """The labels whose row and column of the fusion table N are the identity."""
    eye = np.eye(len(N), dtype=N.dtype)
    return [u for u in range(len(N)) if (N[u] == eye).all() and (N[:, u] == eye).all()]


def fusion_ring_failure(N: np.ndarray, unit: int, dual, names) -> str | None:
    """The first fusion-ring axiom that the integer table N[a, b, c] = N_ab^c
    fails, naming the first bad labels in lexicographic order, or None.

    Checks associativity, that `dual` is an involution with N_{a b}^unit =
    [b = dual a], and Frobenius reciprocity N_ab^c = N_{dual a, c}^b.
    `names[i]` names index i in the message.  The associativity sums run
    in float64, exact while rank * max(N)^2 < 2^53; a larger table is
    refused.
    """
    rank = len(N)
    dual = np.asarray(dual)
    if rank and rank * int(N.max()) ** 2 >= 2 ** 53:
        return (f"fusion table too large for exact associativity sums: rank {rank}, "
                f"max multiplicity {int(N.max())}, rank * max(N)^2 >= 2^53")

    # per first label a, sum_e N[a,b,e] N[e,c,:] against sum_f N[b,c,f] N[a,f,:]
    Nf = N.astype(float)
    for a in range(rank):
        bad = np.argwhere((Nf[a] @ Nf.reshape(rank, -1)).reshape(N.shape) != Nf @ Nf[a])
        if len(bad):
            return f"associativity violated at {_key_names(names, (a, *bad[0, :2]))}"

    if not np.array_equal(dual[dual], np.arange(rank)):
        return "duality violated: dual map is not an involution"
    expect = (np.arange(rank)[None, :] == dual[:, None]).astype(N.dtype)
    bad = np.argwhere(N[:, :, unit] != expect)
    if len(bad):
        a, b = bad[0]
        return (f"duality violated at {_key_names(names, (a, b))}: N[a, b, unit] = {N[a, b, unit]}, "
                f"expected {expect[a, b]}")

    bad = np.argwhere(N != N[dual].transpose(0, 2, 1))
    if len(bad):
        a, b, c = bad[0]
        return (f"Frobenius reciprocity violated at {_key_names(names, (a, b, c))}: N[a, b, c] = "
                f"{N[a, b, c]}, N[dual a, c, b] = {N[dual[a], c, b]}")
    return None


def _validate(cat: GradedCategory) -> None:
    rank, N, dual, u = cat.rank, cat.N, cat.dual, cat.unit

    failure = fusion_ring_failure(N, u, dual, cat.labels)
    if failure:
        raise ValidationError(failure)

    # quantum dimensions: declared values must match the Frobenius-Perron
    # eigenvector, per-label and as a simultaneous eigenvector of fusion.
    fp = fp_dimensions(cat)
    declared = cat.qdim
    fp_vec = np.array([fp[cat.labels[a]] for a in range(rank)])
    if np.abs(fp_vec - declared).max() > 1e-6:
        bad = int(np.argmax(np.abs(fp_vec - declared)))
        raise ValidationError(
            f"quantum dimension mismatch at {cat.labels[bad]}: declared {declared[bad]}, Frobenius-Perron {fp_vec[bad]}"
        )
    for a, b in itertools.product(range(rank), repeat=2):
        lhs = float(N[a, b] @ declared)
        if abs(lhs - declared[a] * declared[b]) > 1e-6 * max(1.0, declared[a] * declared[b]):
            raise ValidationError(
                f"quantum dimensions are not multiplicative at {_key_names(cat.labels, (a, b))}"
            )
    if np.abs(declared[dual] - declared).max() > 1e-9:
        raise ValidationError("quantum dimension not dual-invariant")

    # grading compatibility
    tbl = cat.group.table
    for a, b, c in zip(*np.nonzero(N)):
        if tbl[cat.deg[a], cat.deg[b]] != cat.deg[c]:
            raise ValidationError(
                f"grading violated at {_key_names(cat.labels, (int(a), int(b), int(c)))}: "
                f"deg(c) != deg(a) deg(b)"
            )
    if cat.deg[u] != cat.group.neutral:
        raise ValidationError("grading violated: unit is not of neutral degree")
    for a in range(rank):
        if cat.deg[dual[a]] != cat.group.inv(cat.deg[a]):
            raise ValidationError(f"grading violated: deg(dual) != deg^-1 at {cat.labels[a]}")


def load_category(path: str | os.PathLike) -> GradedCategory:
    """Load a category description from a JSON file and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read category file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: category data must be a JSON object")
    name = data.get("name", os.path.splitext(os.path.basename(str(path)))[0])
    return category_from_dict(data, name=name)


def bundled_path(name: str) -> str:
    """Path of a category description shipped with the package."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "data", name + ".json")


def fp_dimensions(cat: GradedCategory) -> dict[str, float]:
    """Frobenius-Perron dimension of every simple, recomputed from N alone."""
    out: dict[str, float] = {}
    for a in range(cat.rank):
        ev = np.linalg.eigvals(cat.N[a].astype(float))
        out[cat.labels[a]] = float(np.max(ev.real))
    return out


# ---------------------------------------------------------------------------
# pentagon
#
# One instance of the pentagon is a root t of Hom(t, abcd) with one basis
# tree on each side: the left tree ((ab)c)d, labelled (x, m1, y, m2, m3)
# with x in ab, y in xc and t in yd, and the right tree a(b(cd)), labelled
# (w, n1, z, n2, n3) with w in cd, z in bw and t in az.  The two routes
# from the right tree to the left one give the entries
#
#   sum_r F^{xcd}_t[(y,m2,m3),(w,n1,r)] F^{abw}_t[(x,m1,r),(z,n2,n3)]
#   sum_{v,k1,l1,k2} F^{abc}_y[(x,m1,m2),(v,k1,l1)]
#                    F^{avd}_t[(y,l1,m3),(z,k2,n3)] F^{bcd}_z[(v,k1,k2),(w,n1,n2)]
#
# over channels (e, mu, nu) x (f, kappa, lam) of each F^{pqr}_s.  A tree is
# a column of fusion vertices (p, q, s, mu), mu < N[p, q, s]; the trees are
# grown by array fans over the vertices, and every F entry is read from one
# flat buffer.

_PENTAGON_CHUNK = 1 << 15  # left trees per pass; bounds the pass's arrays


def unitarity_defect(B: np.ndarray) -> float:
    """max |B^* B - 1| over the entries, for a matrix B with a column;
    unitarity_defect(B.conj().T) is max |B B^* - 1|."""
    return float(np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1]))))


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


def _before(counts: np.ndarray) -> np.ndarray:
    """Exclusive running sum: the items before each group."""
    return np.cumsum(counts) - counts


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, k) for every item when item group i holds counts[i] items,
    k being the item's rank within its group."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - _before(counts)[owner]


def _fan(start: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (i, j) with start[key[i]] <= j < start[key[i] + 1]."""
    lo = start[key]
    i, k = _runs(start[key + 1] - lo)
    return i, lo[i] + k


def _grow(tree: np.ndarray, i: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows i of a table of vertex columns, with the column v added."""
    return np.vstack((tree[:, i], v))


def _channel_groups(code: np.ndarray, ch: np.ndarray, size: np.ndarray, R: int):
    """Channel groups of F blocks, given by block code, channel label and
    size: each group's first position within its block and its block's
    index, then the block codes in ascending order and their dimensions."""
    order = np.argsort(code * R + ch, kind="stable")
    code, sz = code[order], size[order]
    new = np.r_[True, code[1:] != code[:-1]]
    blk = np.cumsum(new) - 1
    before = _before(sz)
    first, block = np.empty_like(sz), np.empty_like(sz)
    first[order], block[order] = before - before[new][blk], blk
    return first, block, code[new], np.add.reduceat(sz, np.flatnonzero(new))


class _Pentagon:
    """The fusion vertices of a category and every F entry, addressed by
    vertices.

    Vertex i is (p, q, s, mu) with mu < N[p, q, s], in lexicographic order.
    The entry F^{abc}_d[(e, mu, nu), (f, kappa, lam)] has row vertices
    (a b -> e; mu), (e c -> d; nu) and column vertices (b c -> f; kappa),
    (a f -> d; lam).  The triples of the two row vertices name one row
    group of one block, those of the two column vertices one column group;
    every block sits row-major at its offset in one flat buffer, the blocks
    in lexicographic order of (a, b, c, d).
    """

    def __init__(self, cat: GradedCategory):
        N, R = cat.N, cat.rank
        self.N, self.R = N, R
        p, q, s = np.nonzero(N)              # the triples, lexicographic
        n = N[p, q, s]
        tri, self.mu = _runs(n)              # each vertex's triple and mu
        self.p, self.q, self.s, self.mult = p[tri], q[tri], s[tri], n[tri]
        self.at = np.zeros_like(N)           # first vertex of each triple
        self.at[p, q, s] = _before(n)
        self.by_p = np.searchsorted(self.p, np.arange(R + 1))
        self.by_pq = np.searchsorted(self.p * R + self.q, np.arange(R * R + 1))
        # row groups (a b -> e), (e c -> d): the second triple runs over p = e;
        # a pair's group is the first triple's start plus the second's rank
        tp = np.searchsorted(p, np.arange(R + 1))
        i, j = _fan(tp, s)
        rfirst, rblock, blocks, dims = _channel_groups(
            ((p[i] * R + q[i]) * R + q[j]) * R + s[j], s[i], n[i] * n[j], R)
        self.rg = (_before(tp[s + 1] - tp[s])[tri], (np.arange(len(p)) - tp[p])[tri])
        # column groups (b c -> f), (a f -> d): the second runs over q = f
        qorder = np.argsort(q, kind="stable")
        tq = np.searchsorted(q[qorder], np.arange(R + 1))
        i, k = _fan(tq, s)
        j = qorder[k]
        cfirst = _channel_groups(
            ((p[j] * R + p[i]) * R + q[i]) * R + s[j], s[i], n[i] * n[j], R)[0]
        qrank = np.empty_like(q)
        qrank[qorder] = np.arange(len(q)) - tq[q[qorder]]
        self.cg = (_before(tq[s + 1] - tq[s])[tri], qrank[tri])
        self.blocks, self.dims = blocks, dims
        self.off = off = _before(dims * dims)
        self.rfirst, self.cfirst = rfirst, cfirst
        self.rbase, self.rdim = off[rblock], dims[rblock]
        # blocks absent from cat.F are the identity
        self.buf = np.zeros(int(np.sum(dims * dims)), dtype=complex)
        b, k = _runs(dims)
        self.buf[off[b] + k * (dims[b] + 1)] = 1.0
        if cat.F:
            a, b, c, d = np.array(list(cat.F)).T
            b = np.searchsorted(blocks, ((a * R + b) * R + c) * R + d)
            owner, k = _runs(dims[b] * dims[b])
            self.buf[off[b][owner] + k] = np.concatenate([np.ravel(m) for m in cat.F.values()])

    def position(self, r0, r1, c0, c1) -> np.ndarray:
        """Buffer position of the F entries with row vertices r0, r1 and
        column vertices c0, c1."""
        mu, mult = self.mu, self.mult
        g = self.rg[0][r0] + self.rg[1][r1]
        h = self.cg[0][c0] + self.cg[1][c1]
        row = self.rfirst[g] + mu[r0] * mult[r1] + mu[r1]
        col = self.cfirst[h] + mu[c0] * mult[c1] + mu[c1]
        return self.rbase[g] + row * self.rdim[g] + col

    def entry(self, r0, r1, c0, c1) -> np.ndarray:
        """The F entries with row vertices r0, r1 and column vertices c0, c1."""
        return self.buf[self.position(r0, r1, c0, c1)]

    @memo
    def vertices(self) -> np.ndarray:
        """The vertices (r0, r1, c0, c1) of every entry, as four rows in
        buffer order: each row pair (a b -> e; mu), (e c -> d; nu) with every
        column pair (b c -> f; kappa), (a f -> d; lam) of its block."""
        R, p, q, s = self.R, self.p, self.q, self.s
        r0, r1 = _fan(self.by_p, s)
        i, c0 = _fan(self.by_pq, q[r0] * R + q[r1])
        r0, r1 = r0[i], r1[i]
        a, f, d = p[r0], s[c0], s[r1]
        i, lam = _runs(self.N[a, f, d])
        r0, r1, c0 = r0[i], r1[i], c0[i]
        c1 = self.at[a[i], f[i], d[i]] + lam
        out = np.empty((4, len(self.buf)), dtype=int)
        out[:, self.position(r0, r1, c0, c1)] = r0, r1, c0, c1
        return out

    def moved(self, perm: np.ndarray) -> np.ndarray:
        """Each vertex (p, q, s; mu) sent to (perm[p], perm[q], perm[s]; mu)
        by a label permutation that preserves N (over the last axis of perm)."""
        return self.at[perm[..., self.p], perm[..., self.q], perm[..., self.s]] + self.mu

    def block(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """F^{abc}_d as a matrix, a view of the buffer."""
        i = np.searchsorted(self.blocks, ((a * self.R + b) * self.R + c) * self.R + d)
        n = self.dims[i]
        return self.buf[self.off[i]:self.off[i] + n * n].reshape(n, n)

    def residuals(self, a0: int, a1: int) -> tuple[np.ndarray, np.ndarray]:
        """|route 1 - route 2| of every instance whose label a lies in
        [a0, a1), and the code ((a R + b) R + c) R + d of its quadruple."""
        N, R, p, q, s, at = self.N, self.R, self.p, self.q, self.s, self.at
        # left tree ((ab)c)d: v0 (a b -> x), v1 (x c -> y), v2 (y d -> t)
        tree = np.arange(self.by_p[a0], self.by_p[a1])[None]
        tree = _grow(tree, *_fan(self.by_p, s[tree[-1]]))
        tree = _grow(tree, *_fan(self.by_p, s[tree[-1]]))
        # right tree a(b(cd)): u0 (c d -> w), u1 (b w -> z), u2 (a z -> t)
        tree = _grow(tree, *_fan(self.by_pq, q[tree[1]] * R + q[tree[2]]))
        tree = _grow(tree, *_fan(self.by_pq, q[tree[0]] * R + s[tree[3]]))
        a, z, t = p[tree[0]], s[tree[4]], s[tree[2]]
        i, k = _runs(N[a, z, t])
        v0, v1, v2, u0, u1 = tree[:, i]
        u2 = at[a[i], z[i], t[i]] + k
        n = len(u2)
        # route 1: F^{xcd}_t F^{abw}_t over r < N[x, w, t]
        x, w, t = s[v0], s[u0], s[v2]
        e, k = _runs(N[x, w, t])
        xwt = at[x[e], w[e], t[e]] + k
        one = _sums(e, self.entry(v1[e], v2[e], u0[e], xwt)
                    * self.entry(v0[e], xwt, u1[e], u2[e]), n)
        # route 2: F^{abc}_y F^{avd}_t F^{bcd}_z over (b c -> v; k1),
        # l1 < N[a, v, y] and k2 < N[v, d, z]
        e, bcv = _fan(self.by_pq, q[v0] * R + q[v1])
        a, v, y, d, z = p[v0][e], s[bcv], s[v1][e], q[v2][e], s[u1][e]
        vdz = N[v, d, z]
        i, k = _runs(N[a, v, y] * vdz)
        l1, k2 = np.divmod(k, vdz[i])
        avy = at[a[i], v[i], y[i]] + l1
        vdz = at[v[i], d[i], z[i]] + k2
        e, bcv = e[i], bcv[i]
        two = _sums(e, self.entry(v0[e], v1[e], bcv, avy)
                    * self.entry(avy, v2[e], vdz, u2[e])
                    * self.entry(bcv, vdz, u0[e], u1[e]), n)
        quad = ((p[v0] * R + q[v0]) * R + q[v1]) * R + q[v2]
        return np.abs(one - two), quad


def _quadruple(code, R: int) -> tuple:
    """(a, b, c, d) of the code ((a R + b) R + c) R + d, or of an array of them."""
    return tuple(code // R ** k % R for k in (3, 2, 1, 0))


def _sums(owner: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """The terms summed per owner, in their order; n owners."""
    return np.bincount(owner, terms.real, n) + 1j * np.bincount(owner, terms.imag, n)


def verify_pentagon(cat: GradedCategory, tol: float = 1e-12) -> dict:
    """Check the pentagon identity for every quadruple of simples.

    Returns a report dict with the worst residual, the first quadruple in
    lexicographic order that reaches it (None when every residual is 0),
    and a pass flag at tolerance `tol`.  A NaN residual beats every number.
    Every instance, a root t and one basis tree of Hom(t, abcd) on each
    side, is evaluated by array passes over the labels, each pass taking
    the quadruples of a range of first labels a.  Every command that builds
    from a category (tube, center, gcenter, braid-check) refuses it unless
    this check passes, and so does `build_crossed_extension`.
    """
    N, R = cat.N, cat.rank
    pent = cat.f_entries()
    trees = N.sum(1) @ (N.sum(1) @ N.sum((1, 2)))  # left trees under each a
    before = np.cumsum(trees) - trees
    cuts = [*np.flatnonzero(np.diff(before // _PENTAGON_CHUNK, prepend=-1)).tolist(), R]
    worst, code = 0.0, None
    for a0, a1 in zip(cuts, cuts[1:]):
        res, quad = pent.residuals(a0, a1)
        nan = np.isnan(res)
        if nan.any():
            worst, code = float("nan"), int(quad[nan].min())
            break
        top = float(res.max(initial=0.0))
        if top > worst:
            worst, code = top, int(quad[res == top].min())
    worst_at = None if code is None else tuple(cat.labels[k] for k in _quadruple(code, R))
    return {"max_residual": worst, "worst_at": worst_at, "tol": tol, "pass": worst <= tol}


# ---------------------------------------------------------------------------
# actions


def verify_action(cat: GradedCategory, name: str | GroupAction) -> dict:
    """Check that an action (a bundled name, or a GroupAction) is strict."""
    act = cat.action(name)
    G = cat.group
    failures: list[str] = []
    max_dev = 0.0

    if not np.array_equal(act.perm[G.neutral], np.arange(cat.rank)):
        failures.append("neutral element does not act as the identity")
    for g, h in itertools.product(range(G.order), repeat=2):
        if not np.array_equal(act.perm[G.mul(g, h)], act.perm[g][act.perm[h]]):
            failures.append(f"action is not a homomorphism at ({G.elements[g]}, {G.elements[h]})")
            break

    for g in range(G.order):
        p = act.perm[g]
        if sorted(p) != list(range(cat.rank)):
            failures.append(f"action of {G.elements[g]} is not a permutation")
            continue
        fusion_kept = np.array_equal(cat.N[np.ix_(p, p, p)], cat.N)
        if not fusion_kept:
            failures.append(f"action of {G.elements[g]} does not preserve fusion multiplicities")
        dev = float(np.abs(cat.qdim[p] - cat.qdim).max())
        max_dev = residual_max(max_dev, dev)
        if not dev <= ATOL:
            failures.append(f"action of {G.elements[g]} does not preserve quantum dimensions")
        if not np.array_equal(cat.dual[p], p[cat.dual]):
            failures.append(f"action of {G.elements[g]} does not commute with duals")
        for a in range(cat.rank):
            if cat.deg[p[a]] != G.conj(g, int(cat.deg[a])):
                failures.append(f"action of {G.elements[g]} does not conjugate the grading at {cat.labels[a]}")
                break
        if not fusion_kept:
            continue  # its vertices have no images to read F at
        # F invariance: every entry against the entry at its moved vertices
        F = cat.f_entries()
        dev = np.abs(F.entry(*F.moved(p)[F.vertices()]) - F.buf)
        max_dev = residual_max(max_dev, float(dev.max(initial=0.0)))
        bad = np.flatnonzero(~(dev <= ATOL))
        if len(bad):
            block = int(F.blocks[np.searchsorted(F.off, bad[0], "right") - 1])
            failures.append(f"action of {G.elements[g]} changes the F block at "
                            f"{_key_names(cat.labels, _quadruple(block, cat.rank))}")
    return {"action": act.name, "max_deviation": max_dev, "failures": failures, "pass": not failures}


# ---------------------------------------------------------------------------
# derived categories


def neutrally_graded(cat: GradedCategory, group: GroupData,
                     actions: dict) -> GradedCategory:
    """The same fusion data with every label in the neutral degree of `group`.

    `trivially_graded` takes the one-element group.  The twisted-center
    pipeline keeps the category's own group and actions, so the group can
    still act on what it treats as the degree-neutral base.
    """
    return GradedCategory(
        labels=cat.labels,
        dual=cat.dual.copy(),
        qdim=cat.qdim.copy(),
        N=cat.N.copy(),
        group=group,
        deg=np.full(cat.rank, group.neutral, dtype=int),
        F=dict(cat.F),
        actions=dict(actions),
        name=cat.name,
    )


def trivially_graded(cat: GradedCategory) -> GradedCategory:
    """The same fusion data regraded by the one-element group."""
    return neutrally_graded(cat, GroupData.trivial(), {})


def build_crossed_extension(d0: GradedCategory,
                            action_name: str | GroupAction) -> GradedCategory:
    """G-crossed extension of a trivially graded category with a G-action.

    Labels are pairs (g, a) named "g|a"; fusion, duals and F data are induced
    from the base category by transporting each letter through the inverse of
    the product of the extension degrees strictly to its right.  The result
    is a G-graded category whose neutral sector is the input, and it is
    pentagon-checked before being returned.
    """
    if np.any(d0.deg != d0.group.neutral) and d0.group.order > 1:
        raise DataError("crossed extension expects a trivially graded base category")
    act = d0.action(action_name)
    G = d0.group
    r0 = d0.rank
    nG = G.order

    def lab(g: int, a: int) -> int:
        return g * r0 + a

    labels = tuple(f"{G.elements[g]}|{d0.labels[a]}" for g in range(nG) for a in range(r0))
    rank = nG * r0
    deg = np.array([g for g in range(nG) for _ in range(r0)], dtype=int)
    qdim = np.array([d0.qdim[a] for _ in range(nG) for a in range(r0)], dtype=float)
    dual = np.zeros(rank, dtype=int)
    for g in range(nG):
        for a in range(r0):
            dual[lab(g, a)] = lab(G.inv(g), act.on_label(g, int(d0.dual[a])))

    N = np.zeros((rank, rank, rank), dtype=int)
    for g, h in itertools.product(range(nG), repeat=2):
        gh = G.mul(g, h)
        hinv = G.inv(h)
        for a, b in itertools.product(range(r0), repeat=2):
            ta = act.on_label(hinv, a)
            for c in range(r0):
                v = d0.N[ta, b, c]
                if v:
                    N[lab(g, a), lab(h, b), lab(gh, c)] = v

    # F, gathered from the base table: the entry at vertices (r0, r1, c0, c1)
    # is the base entry at (k^-1 beta(r0), beta(r1), beta(c0), beta(c1)), with
    # beta(A B -> E; mu) = (h^-1[a], b -> e; mu) for h = deg B, and k = deg C
    # of its block, C being the second letter of r1
    shell = GradedCategory(labels=labels, dual=dual, qdim=qdim, N=N, group=G,
                           deg=deg, F={}, name=d0.name + "-crossed")
    base, ext = d0.f_entries(), _Pentagon(shell)
    beta = base.at[act.perm[G.inverse[deg[ext.q]], ext.p % r0], ext.q % r0, ext.s % r0] + ext.mu
    V = ext.vertices()
    row0, *rest = beta[V]
    buf = base.entry(base.moved(act.perm)[G.inverse[deg[ext.q[V[1]]]], row0], *rest)
    keys = zip(*(x.tolist() for x in _quadruple(ext.blocks, rank)))
    out = replace(shell, F={key: m.reshape(n, n) for key, m, n
                            in zip(keys, np.split(buf, ext.off[1:]), ext.dims)})
    rep = verify_pentagon(out)
    if not rep["pass"]:
        raise InternalCheckError(
            f"crossed extension failed its pentagon check: residual {rep['max_residual']:.3e} at {rep['worst_at']}"
        )
    return out
