"""Skeletal data for finite graded unitary fusion categories.

A category is given by fusion multiplicities N[a, b, c] (= dim Hom(c, ab)),
duals, quantum dimensions, a grading by a finite group, and a table of
F-matrices in the unit-normalized gauge.  Everything is indexed by integer
labels; label names are only for I/O and error messages.

F-matrix convention
-------------------
``f_block(a, b, c, d)`` is the matrix of the identity between the two
parenthesisations of Hom(d, abc): rows are indexed by left-nested channels
(e, mu, nu) with mu < N[a,b,e], nu < N[e,c,d], columns by right-nested
channels (f, kappa, lam) with kappa < N[b,c,f], lam < N[a,f,d], both in
lexicographic order.  It converts right-nested coordinates into left-nested
ones.  Blocks with a unit among a, b, c must be the identity; blocks not
listed in a data file default to the identity.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

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
    "verify_pentagon",
    "verify_action",
    "build_crossed_extension",
    "neutrally_graded",
    "trivially_graded",
    "degree_zero_part",
    "group_from_pointed",
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

    def conjugacy_classes(self) -> list[list[int]]:
        seen: set[int] = set()
        classes = []
        for h in range(self.order):
            if h in seen:
                continue
            cls = sorted({self.conj(g, h) for g in range(self.order)})
            seen.update(cls)
            classes.append(cls)
        return classes

    def centralizer(self, h: int) -> list[int]:
        return [g for g in range(self.order) if self.mul(g, h) == self.mul(h, g)]

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
        units = []
        eye = np.eye(self.rank, dtype=int)
        for u in range(self.rank):
            if np.array_equal(self.N[u], eye) and np.array_equal(self.N[:, u, :], eye):
                units.append(u)
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

    def left_channels(self, a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
        N = self.N
        return [
            (e, mu, nu)
            for e in range(self.rank)
            for mu in range(N[a, b, e])
            for nu in range(N[e, c, d])
        ]

    def right_channels(self, a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
        N = self.N
        return [
            (f, kappa, lam)
            for f in range(self.rank)
            for kappa in range(N[b, c, f])
            for lam in range(N[a, f, d])
        ]

    @memo
    def f_block(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Transition matrix from right-nested to left-nested coordinates."""
        key = (a, b, c, d)
        nl = len(self.left_channels(a, b, c, d))
        nr = len(self.right_channels(a, b, c, d))
        if nl != nr:  # pragma: no cover - guarded by load-time associativity check
            raise InternalCheckError(f"associativity broken at F block {key}: {nl} != {nr}")
        out = self.F.get(key)
        return np.eye(nl, dtype=complex) if out is None else out

    # -- misc ---------------------------------------------------------------

    def dims_product(self, word: tuple[int, ...]) -> float:
        return float(np.prod([self.qdim[a] for a in word])) if word else 1.0

    def dual_word(self, word: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(int(self.dual[a]) for a in reversed(word))

    def action(self, name: str | GroupAction | None) -> GroupAction:
        """The bundled action called `name`; a GroupAction passes through
        unchanged, so callers may hand over an action that is not bundled."""
        if isinstance(name, GroupAction):
            return name
        if name is None:
            if len(self.actions) == 1:
                return next(iter(self.actions.values()))
            raise DataError(
                f"category '{self.name}' bundles {len(self.actions)} actions; specify one by name"
            )
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


def _ints(data, what: str) -> np.ndarray:
    """An integer array from nested JSON lists, every entry checked by `_int`."""
    def check(x):
        return [check(y) for y in x] if isinstance(x, list) else _int(x, what)
    return np.asarray(check(data), dtype=int)


def _as_complex_matrix(rows: list) -> np.ndarray:
    mat = np.array([[complex(entry[0], entry[1]) for entry in row] for row in rows])
    return mat


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
        qdim = np.asarray(data["qdim"], dtype=float)
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
                f"F block {_key_names(cat, (a, b, c, d))} has shape {mat.shape}, expected ({nl}, {nr})"
            )
        if nl and np.abs(mat.conj().T @ mat - np.eye(nl)).max() > ATOL:
            raise ValidationError(f"F block {_key_names(cat, (a, b, c, d))} is not unitary")
        if cat.unit in (a, b, c) and nl and np.abs(mat - np.eye(nl)).max() > 1e-12:
            raise ValidationError(
                f"gauge violation: F block {_key_names(cat, (a, b, c, d))} with a unit argument is not the identity"
            )
    for key, declared in _declared_channels:
        for which, canon in (("rows", cat.left_channels(*key)), ("cols", cat.right_channels(*key))):
            got = declared[which]
            if got and [tuple(ch) for ch in got] != canon:
                raise DataError(
                    f"F block {_key_names(cat, key)}: declared {which} do not match the canonical channel order"
                )

    for act in cat.actions.values():
        rep = verify_action(cat, act.name)
        if not rep["pass"]:
            raise ValidationError(f"action '{act.name}' is not strict: {rep['failures'][0]}")
    return cat


def _key_names(cat: GradedCategory, key: tuple[int, ...]) -> str:
    return "(" + ", ".join(cat.labels[k] for k in key) + ")"


def _validate(cat: GradedCategory) -> None:
    rank, N, dual, u = cat.rank, cat.N, cat.dual, cat.unit

    # associativity of the fusion ring, reported at the first bad triple
    for a, b, c in itertools.product(range(rank), repeat=3):
        lhs = N[a, b] @ N[:, c, :]  # sum_e N[a,b,e] N[e,c,:]
        rhs = N[b, c] @ N[a]  # sum_f N[b,c,f] N[a,f,:]
        if not np.array_equal(lhs, rhs):
            raise ValidationError(
                f"associativity violated at {_key_names(cat, (a, b, c))}"
            )

    # duals
    if not np.array_equal(dual[dual], np.arange(rank)):
        raise ValidationError("duality violated: dual map is not an involution")
    for a, b in itertools.product(range(rank), repeat=2):
        expect = 1 if b == dual[a] else 0
        if N[a, b, u] != expect:
            raise ValidationError(
                f"duality violated at {_key_names(cat, (a, b))}: N[a, b, unit] = {N[a, b, u]}, expected {expect}"
            )

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
                f"quantum dimensions are not multiplicative at {_key_names(cat, (a, b))}"
            )
    if np.abs(declared[dual] - declared).max() > 1e-9:
        raise ValidationError("quantum dimension not dual-invariant")

    # grading compatibility
    tbl = cat.group.table
    for a, b, c in zip(*np.nonzero(N)):
        if tbl[cat.deg[a], cat.deg[b]] != cat.deg[c]:
            raise ValidationError(
                f"grading violated at {_key_names(cat, (int(a), int(b), int(c)))}: "
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


def _pentagon_residual(cat: GradedCategory, a: int, b: int, c: int, d: int) -> float:
    """Max deviation between the two recoupling routes a(b(cd)) -> ((ab)c)d."""
    N = cat.N
    rank = cat.rank

    def idx(basis):
        return {lab: i for i, lab in enumerate(basis)}

    worst = 0.0
    for t in range(rank):
        B1 = [
            (x, m1, y, m2, m3)
            for x in range(rank)
            for m1 in range(N[a, b, x])
            for y in range(rank)
            for m2 in range(N[x, c, y])
            for m3 in range(N[y, d, t])
        ]
        if not B1:
            continue
        B2 = [
            (v, k1, s, l1, l2)
            for v in range(rank)
            for k1 in range(N[b, c, v])
            for s in range(rank)
            for l1 in range(N[a, v, s])
            for l2 in range(N[s, d, t])
        ]
        B3 = [
            (v, k1, z, k2, n3)
            for v in range(rank)
            for k1 in range(N[b, c, v])
            for z in range(rank)
            for k2 in range(N[v, d, z])
            for n3 in range(N[a, z, t])
        ]
        B4 = [
            (w, n1, z, n2, n3)
            for w in range(rank)
            for n1 in range(N[c, d, w])
            for z in range(rank)
            for n2 in range(N[b, w, z])
            for n3 in range(N[a, z, t])
        ]
        B5 = [
            (x, m1, w, n1, r)
            for x in range(rank)
            for m1 in range(N[a, b, x])
            for w in range(rank)
            for n1 in range(N[c, d, w])
            for r in range(N[x, w, t])
        ]
        i1, i2, i3, i4, i5 = idx(B1), idx(B2), idx(B3), idx(B4), idx(B5)

        m45 = np.zeros((len(B5), len(B4)), dtype=complex)
        for w in range(rank):
            if N[c, d, w] == 0:
                continue
            fb = cat.f_block(a, b, w, t)
            lch = cat.left_channels(a, b, w, t)
            rch = cat.right_channels(a, b, w, t)
            for (x, m1, r), row in zip(lch, range(len(lch))):
                for (z, n2, n3), col in zip(rch, range(len(rch))):
                    val = fb[row, col]
                    if val == 0:
                        continue
                    for n1 in range(N[c, d, w]):
                        m45[i5[(x, m1, w, n1, r)], i4[(w, n1, z, n2, n3)]] += val

        m51 = np.zeros((len(B1), len(B5)), dtype=complex)
        for x in range(rank):
            if N[a, b, x] == 0:
                continue
            fb = cat.f_block(x, c, d, t)
            lch = cat.left_channels(x, c, d, t)
            rch = cat.right_channels(x, c, d, t)
            for (y, m2, m3), row in zip(lch, range(len(lch))):
                for (w, n1, r), col in zip(rch, range(len(rch))):
                    val = fb[row, col]
                    if val == 0:
                        continue
                    for m1 in range(N[a, b, x]):
                        m51[i1[(x, m1, y, m2, m3)], i5[(x, m1, w, n1, r)]] += val

        m43 = np.zeros((len(B3), len(B4)), dtype=complex)
        for z in range(rank):
            if N[a, z, t] == 0:
                continue
            fb = cat.f_block(b, c, d, z)
            lch = cat.left_channels(b, c, d, z)
            rch = cat.right_channels(b, c, d, z)
            for (v, k1, k2), row in zip(lch, range(len(lch))):
                for (w, n1, n2), col in zip(rch, range(len(rch))):
                    val = fb[row, col]
                    if val == 0:
                        continue
                    for n3 in range(N[a, z, t]):
                        m43[i3[(v, k1, z, k2, n3)], i4[(w, n1, z, n2, n3)]] += val

        m32 = np.zeros((len(B2), len(B3)), dtype=complex)
        for v in range(rank):
            if N[b, c, v] == 0:
                continue
            fb = cat.f_block(a, v, d, t)
            lch = cat.left_channels(a, v, d, t)
            rch = cat.right_channels(a, v, d, t)
            for (s, l1, l2), row in zip(lch, range(len(lch))):
                for (z, k2, n3), col in zip(rch, range(len(rch))):
                    val = fb[row, col]
                    if val == 0:
                        continue
                    for k1 in range(N[b, c, v]):
                        m32[i2[(v, k1, s, l1, l2)], i3[(v, k1, z, k2, n3)]] += val

        m21 = np.zeros((len(B1), len(B2)), dtype=complex)
        for s in range(rank):
            if N[s, d, t] == 0:
                continue
            fb = cat.f_block(a, b, c, s)
            lch = cat.left_channels(a, b, c, s)
            rch = cat.right_channels(a, b, c, s)
            for (x, m1, m2), row in zip(lch, range(len(lch))):
                for (v, k1, l1), col in zip(rch, range(len(rch))):
                    val = fb[row, col]
                    if val == 0:
                        continue
                    for l2 in range(N[s, d, t]):
                        m21[i1[(x, m1, s, m2, l2)], i2[(v, k1, s, l1, l2)]] += val

        diff = m51 @ m45 - m21 @ m32 @ m43
        if diff.size:
            worst = max(worst, float(np.abs(diff).max()))
    return worst


def verify_pentagon(cat: GradedCategory, tol: float = 1e-12) -> dict:
    """Check the pentagon identity for every quadruple of simples.

    Returns a report dict with the worst residual, the quadruple achieving
    it, and a pass flag at tolerance `tol`.
    """
    worst = 0.0
    worst_at: tuple[str, ...] | None = None
    for a, b, c, d in itertools.product(range(cat.rank), repeat=4):
        res = _pentagon_residual(cat, a, b, c, d)
        if res > worst:
            worst = res
            worst_at = tuple(cat.labels[k] for k in (a, b, c, d))
    return {"max_residual": worst, "worst_at": worst_at, "tol": tol, "pass": worst <= tol}


# ---------------------------------------------------------------------------
# actions


def verify_action(cat: GradedCategory, name: str | GroupAction | None = None) -> dict:
    """Check that an action (bundled, by name, or given) is strict."""
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
        if not np.array_equal(cat.N[np.ix_(p, p, p)], cat.N):
            failures.append(f"action of {G.elements[g]} does not preserve fusion multiplicities")
        dev = float(np.abs(cat.qdim[p] - cat.qdim).max())
        max_dev = max(max_dev, dev)
        if dev > ATOL:
            failures.append(f"action of {G.elements[g]} does not preserve quantum dimensions")
        if not np.array_equal(cat.dual[p], p[cat.dual]):
            failures.append(f"action of {G.elements[g]} does not commute with duals")
        for a in range(cat.rank):
            if cat.deg[p[a]] != G.conj(g, int(cat.deg[a])):
                failures.append(f"action of {G.elements[g]} does not conjugate the grading at {cat.labels[a]}")
                break
        # F invariance, entrywise through the induced channel relabelling
        for (a, b, c, d) in _admissible_quadruples(cat):
            src = cat.f_block(a, b, c, d)
            dst = cat.f_block(p[a], p[b], p[c], p[d])
            rperm = _channel_perm(cat, cat.left_channels(a, b, c, d), cat.left_channels(p[a], p[b], p[c], p[d]), p)
            cperm = _channel_perm(cat, cat.right_channels(a, b, c, d), cat.right_channels(p[a], p[b], p[c], p[d]), p)
            dev = float(np.abs(dst[np.ix_(rperm, cperm)] - src).max()) if src.size else 0.0
            max_dev = max(max_dev, dev)
            if dev > ATOL:
                failures.append(
                    f"action of {G.elements[g]} changes the F block at {_key_names(cat, (a, b, c, d))}"
                )
                break
    return {"action": act.name, "max_deviation": max_dev, "failures": failures, "pass": not failures}


def _admissible_quadruples(cat: GradedCategory):
    for key in itertools.product(range(cat.rank), repeat=4):
        if cat.left_channels(*key):
            yield key


def _channel_perm(cat, src_channels, dst_channels, p) -> list[int]:
    pos = {lab: i for i, lab in enumerate(dst_channels)}
    try:
        return [pos[(int(p[e]), mu, nu)] for (e, mu, nu) in src_channels]
    except KeyError:  # pragma: no cover - implies N not preserved, caught earlier
        raise InternalCheckError("channel sets not matched by the action") from None


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


def degree_zero_part(cat: GradedCategory) -> tuple[GradedCategory, list[int]]:
    """The neutral sector as a trivially graded category, plus the label map."""
    keep = cat.neutral_sector()
    pos = {a: i for i, a in enumerate(keep)}
    rank = len(keep)
    N = np.zeros((rank, rank, rank), dtype=int)
    for i, a in enumerate(keep):
        for j, b in enumerate(keep):
            for k, c in enumerate(keep):
                N[i, j, k] = cat.N[a, b, c]
    F = {}
    for (a, b, c, d), mat in cat.F.items():
        if all(x in pos for x in (a, b, c, d)):
            F[(pos[a], pos[b], pos[c], pos[d])] = mat
    sub = GradedCategory(
        labels=tuple(cat.labels[a] for a in keep),
        dual=np.array([pos[int(cat.dual[a])] for a in keep], dtype=int),
        qdim=cat.qdim[keep].copy(),
        N=N,
        group=GroupData.trivial(),
        deg=np.zeros(rank, dtype=int),
        F=F,
        name=cat.name + "0",
    )
    return sub, keep


def group_from_pointed(cat: GradedCategory) -> GroupData:
    """Fusion group of a pointed category (all quantum dimensions 1)."""
    if np.abs(cat.qdim - 1.0).max() > 1e-9:
        raise ValidationError("category is not pointed: quantum dimensions differ from 1")
    table = np.zeros((cat.rank, cat.rank), dtype=int)
    for a in range(cat.rank):
        for b in range(cat.rank):
            cs = np.nonzero(cat.N[a, b])[0]
            if len(cs) != 1 or cat.N[a, b, cs[0]] != 1:
                raise ValidationError("category is not pointed: fusion is not a group law")
            table[a, b] = cs[0]
    return GroupData(cat.labels, table)


def build_crossed_extension(d0: GradedCategory,
                            action_name: str | GroupAction | None = None) -> GradedCategory:
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

    F: dict[tuple[int, int, int, int], np.ndarray] = {}
    # shell category used only for channel enumeration while building F
    base = GradedCategory(
        labels=labels, dual=dual, qdim=qdim, N=N,
        group=G, deg=deg, F={}, name=d0.name + "-crossed",
    )
    for g, h, k in itertools.product(range(nG), repeat=3):
        ghk = G.mul(G.mul(g, h), k)
        hk = G.mul(h, k)
        t_a = G.inv(hk)
        t_b = G.inv(k)
        for a, b, c in itertools.product(range(r0), repeat=3):
            a0 = act.on_label(t_a, a)
            b0 = act.on_label(t_b, b)
            for d in range(r0):
                base_block = d0.f_block(a0, b0, c, d)
                if base_block.size == 0:
                    continue
                A, B, C = lab(g, a), lab(h, b), lab(k, c)
                Dd = lab(ghk, d)
                lch = base.left_channels(A, B, C, Dd)
                rch = base.right_channels(A, B, C, Dd)
                lch0 = d0.left_channels(a0, b0, c, d)
                rch0 = d0.right_channels(a0, b0, c, d)
                lpos = {ch: i for i, ch in enumerate(lch0)}
                rpos = {ch: i for i, ch in enumerate(rch0)}
                mat = np.zeros((len(lch), len(rch)), dtype=complex)
                for i, (E, mu, nu) in enumerate(lch):
                    e0 = act.on_label(t_b, E % r0)
                    for j, (Ff, kap, lamb) in enumerate(rch):
                        f0 = Ff % r0
                        mat[i, j] = base_block[lpos[(e0, mu, nu)], rpos[(f0, kap, lamb)]]
                F[(A, B, C, Dd)] = mat

    out = GradedCategory(
        labels=labels, dual=dual, qdim=qdim, N=N, group=G, deg=deg, F=F,
        name=d0.name + "-crossed",
    )
    rep = verify_pentagon(out)
    if not rep["pass"]:
        raise InternalCheckError(
            f"crossed extension failed its pentagon check: residual {rep['max_residual']:.3e} at {rep['worst_at']}"
        )
    return out
