"""The center report: one writer for each stored field, beside its reader.

`center` and `gcenter` write their report, and decide its `pass`, with
`center_report`.  `braid-check` reads one back with `read_report` and
`read_family`, certifies the family, and compares every stored field that
the family determines with its writer's output on the rebuilt family
(`stale_fields`).  A block added to `family_fields` is thereby written
and re-checked by one function.

A morphism is stored as {"source", "target", "blocks"}: the endpoint
objects as lists of label-index words, and each nonempty channel block,
keyed by the channel's label name, as rows of [re, im] pairs.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .braiding import braidable, build_G_braiding, certify, equivariant_count
from ._memo import forget
from .center import HalfBraiding, center_report_dict, hom_dim, tensor_half_braidings
from .fusion_core import DataError, build_crossed_extension
from .morphisms import Mor, engine_for, vobj_tensor
from .tube import build_tube, twisted_untwisted_iso

SUBCATS = ("degree0", "all")
# the fields of a simple's entry under `grades` that its half-braiding determines
SIMPLE_FIELDS = ("name", "object", "qdim")


def header(args, seed: int, tol: float) -> dict:
    """The run a report comes from: command, input, seed, tol and context."""
    action = getattr(args, "action", None)
    return {
        "tool": "gct",
        "command": args.command,
        "input": args.input,
        "seed": int(seed),
        "tol": float(tol),
        # --action excludes --subcat, so a twisted run reads no subcat
        "subcat": None if action else getattr(args, "subcat", None),
        "action": action,
        "grade": getattr(args, "grade", None),
    }


def _ser_mor(f: Mor) -> dict:
    cat = f.eng.cat
    blocks = {}
    for c in sorted(f.blocks):
        M = np.asarray(f.blocks[c])
        if M.size == 0:
            continue
        blocks[cat.label_name(c)] = [[[float(z.real), float(z.imag)] for z in row]
                                     for row in M]
    return {
        "source": [list(map(int, w)) for w in f.source],
        "target": [list(map(int, w)) for w in f.target],
        "blocks": blocks,
    }


def _deser_mor(eng, data: dict, where: str) -> Mor:
    """A stored morphism; `where` names the report entry in error messages."""
    cat = eng.cat
    index = {name: i for i, name in enumerate(cat.labels)}
    src = tuple(tuple(int(a) for a in w) for w in data["source"])
    tgt = tuple(tuple(int(a) for a in w) for w in data["target"])
    for w in src + tgt:
        for a in w:
            if not 0 <= a < cat.rank:
                raise DataError(f"schema mismatch: label index {a} out of range")
    blocks = {}
    for cname, rows in data["blocks"].items():
        if cname not in index:
            raise DataError(f"schema mismatch: unknown channel label {cname!r}")
        c = index[cname]
        M = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
        want = (eng.vdim(c, tgt), eng.vdim(c, src))
        if M.shape != want:
            raise DataError(
                f"schema mismatch: block {cname!r} has shape {M.shape}, "
                f"expected {want}")
        if not np.all(np.isfinite(M)):
            # a NaN residual compares false with every tolerance
            raise DataError(f"{where}, block {cname!r} has a non-finite entry")
        blocks[c] = M
    return Mor(eng, src, tgt, blocks)


# ---------------------------------------------------------------------------
# the sections that `certify` reads, and the fields the family determines


def _braiding_section(fam: list[HalfBraiding]):
    """The braidings of member pairs, keyed by their indices in `fam`, and
    the report entries that serialise them."""
    pairwise = {(i, j): build_G_braiding(x, y)
                for i, x in enumerate(fam) for j, y in enumerate(fam)
                if braidable(y)}
    entries = {f"{fam[i].name}|{fam[j].name}": _ser_mor(B)
               for (i, j), B in pairwise.items()}
    return pairwise, entries


def _fusion_table(fam: list[HalfBraiding]) -> dict:
    """The fusion multiplicities {x: {y: {z: N_xy^z}}} of the members,
    keyed by name, nonzero entries only; `hom_dim` keeps no basis on the
    products."""
    table: dict = {}
    for x in fam:
        row = {}
        for y in fam:
            t = tensor_half_braidings(x, y)
            row[y.name] = {z.name: n for z in fam if (n := hom_dim(t, z))}
        table[x.name] = row
    return table


def _equivariant(fam: list[HalfBraiding]) -> dict:
    cnt = equivariant_count(fam)
    elements = fam[0].cat.group.elements
    return {
        "count": cnt["count"],
        "orbits": [{"members": [fam[i].name for i in o["members"]],
                    "stabilizer": [elements[g] for g in o["stabilizer"]]}
                   for o in cnt["orbits"]],
        "assumes_vanishing_obstruction": cnt["assumes_vanishing_obstruction"],
    }


def simple_fields(x: HalfBraiding) -> dict:
    """The `SIMPLE_FIELDS` of a member: its name, its object as
    {label name: multiplicity} and its quantum dimension."""
    return dict(zip(SIMPLE_FIELDS, (x.name, {x.cat.label_name(a): n for a, n
                                             in sorted(x.multiplicities().items())},
                                    x.qdim())))


def family_fields(fam: list[HalfBraiding], verdict: dict, full: bool) -> dict:
    """Every stored field that the family and `certify`'s verdict on it
    determine, keyed by its dotted path in the report.  `grades` lists the
    `SIMPLE_FIELDS` of each member in family order; a full twisted family
    adds its equivariant count, which presumes every simple of the center."""
    names = [x.name for x in fam]
    simples = [simple_fields(x) for x in fam]
    out = {
        "hom_table": {x: dict(zip(names, row)) for x, row in zip(names, verdict["hom"])},
        "fusion.qdims": {s["name"]: s["qdim"] for s in simples},
        "grades": simples,
        "simple_count": len(fam),
    }
    if full and fam[0].action is not None:
        out["equivariant"] = _equivariant(fam)
    return out


def _stored(data: dict, field: str):
    """The stored value of a `family_fields` field."""
    if field == "grades":
        return [{key: s[key] for key in SIMPLE_FIELDS}
                for gd in data["grades"].values() for s in gd["simples"]]
    node = data
    for key in field.split("."):
        node = node[key]
    return node


def _leaves(node, path: str = ""):
    """(path, value) for every leaf of nested dicts and lists; list indices
    are kept in the path."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, f"{path}/{key}")
    else:
        yield path, node


# ---------------------------------------------------------------------------
# writing, reading and comparing a report


def center_report(tube, decs: dict, simples: dict, tol: float, full: bool):
    """The report of the center family `simples` (grade -> the list from
    `extract_simples` on `decs[grade]`), `certify`'s verdict on it, and the
    family.  `full` says that the grades are all of the tube's.  The
    report's `pass` is the verdict's and, for a twisted tube, that of its
    comparison with the tube of the crossed extension."""
    fam = [x for g in sorted(simples) for x in simples[g]]
    table = _fusion_table(fam)
    forget(engine_for(tube.cat))    # a stage boundary (see gct._memo)
    pairwise, entries = _braiding_section(fam)
    verdict = certify(fam, pairwise, table, tol, full)
    fields = family_fields(fam, verdict, full)
    rows = [dict(s, residual=h["max_residual"], unitarity=h["unitarity"], **{"pass": h["pass"]})
            for s, h in zip(fields.pop("grades"), verdict["half"])]
    rep = center_report_dict(tube, decs, rows, tol)
    rep["fusion"] = {"table": table, "closure_residual": verdict["closure_residual"]}
    for field, value in fields.items():
        *parents, key = field.split(".")
        node = rep
        for p in parents:
            node = node[p]
        node[key] = value
    rep.update({
        "family": [x.name for x in fam],
        "simple_data": {x.name: {
            "grade": x.cat.group.elements[x.grade],
            "object_words": [list(map(int, w)) for w in x.obj],
            "E": {x.cat.label_name(pi): _ser_mor(x.E[pi]) for pi in sorted(x.E)},
        } for x in fam},
        "braiding": entries,
        "braiding_summary": verdict["forward"],
        "reverse_summary": verdict["reverse"],
        "family_gate": verdict["family"],
        "pass": verdict["pass"],
    })
    if verdict["ring"]:
        rep["fusion_ring"] = verdict["ring"]
    if tube.action is not None:
        # a report holds no tubes, so braid-check cannot repeat this check
        ext = build_tube(build_crossed_extension(tube.cat, tube.action))
        iso = rep["crossed_extension_iso"] = twisted_untwisted_iso(tube, ext)
        rep["pass"] = verdict["pass"] and iso["pass"]
    return rep, verdict, fam


def read_report(path: str):
    """A center or gcenter report file, its subcat and its action (None
    for a plain center)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"schema mismatch: not a JSON report ({e})") from None
    for key in ("tool", "command", "input", "tol", "family", "simple_data", "braiding"):
        if not isinstance(data, dict) or key not in data:
            raise DataError(f"schema mismatch: report lacks {key!r}")
    if data["tool"] != "gct" or data["command"] not in ("center", "gcenter"):
        raise DataError("schema mismatch: not a center/gcenter report")
    if not isinstance(data["input"], str):  # open() reads an int as a file descriptor
        raise DataError(f"schema mismatch: input {data['input']!r} is not a path")
    if not (type(data["tol"]) in (int, float) and 0 < data["tol"] < float("inf")):
        raise DataError(f"schema mismatch: tol {data['tol']!r} is not a finite positive number")
    subcat = data.get("subcat") or "degree0"
    if subcat not in SUBCATS:
        raise DataError(f"schema mismatch: unknown subcat {subcat!r}")
    action = None
    if data["command"] == "gcenter":
        action = data.get("action")
        if not isinstance(action, str) or not action:
            raise DataError("schema mismatch: gcenter report names no action")
    return data, subcat, action


def read_family(data: dict, cat, act):
    """The family of a report, its braiding entries keyed by member
    positions, and its fusion table, as `certify` takes them; (cat, act)
    is the context the report was written in.  A field of the wrong type
    or shape ends in DataError naming the entry it is in."""
    eng = engine_for(cat)
    where = "the family"
    try:
        fam = []
        for name in data["family"]:
            where = f"simple {name!r}"
            sd = data["simple_data"][name]
            grade = cat.group.elements.index(sd["grade"])
            obj = tuple(tuple(int(a) for a in w) for w in sd["object_words"])
            E = {cat.labels.index(pname): _deser_mor(eng, ser, f"{where}, E({pname})")
                 for pname, ser in sd["E"].items()}
            X = HalfBraiding(cat, obj, grade, E, action=act, name=name)
            if sorted(E) != sorted(X.loop_labels()):
                raise DataError(f"schema mismatch: simple {name!r} lacks E-data "
                                f"for some loops")
            fam.append(X)

        pos = {x.name: i for i, x in enumerate(fam)}
        pairwise = {}
        for key, ser in data["braiding"].items():
            where = f"braiding entry {key!r}"
            a, _, b = key.partition("|")
            if a not in pos or b not in pos:
                raise DataError(f"schema mismatch: {where} does not name two "
                                f"family simples")
            i, j = pos[a], pos[b]
            B = _deser_mor(eng, ser, where)
            x, y = fam[i], fam[j]
            if (B.source != vobj_tensor(x.obj, y.obj)
                    or B.target != vobj_tensor(x.tgt_vobj(y.obj), x.obj)):
                raise DataError(f"schema mismatch: {where} has wrong endpoints "
                                f"for its simples")
            pairwise[(i, j)] = B

        where = "the fusion table"
        stored = data["fusion"]["table"]
        table = {x: {y: {z: operator.index(n) for z, n in stored[x][y].items()}
                     for y in pos} for x in pos}
    except (TypeError, AttributeError, KeyError, ValueError, IndexError) as e:
        raise DataError(f"schema mismatch in {where}: {e!r}") from None
    for entry in (e for row in table.values() for e in row.values()):
        if not (entry.keys() <= pos.keys() and all(0 <= n < 2 ** 53 for n in entry.values())):
            raise DataError(f"schema mismatch in the fusion table: {entry} names "
                            f"no member or holds no multiplicity")
    return fam, pairwise, table


def stale_fields(data: dict, fam: list[HalfBraiding], verdict: dict, full: bool) -> list:
    """One row [field, differing leaves, the first of them] per field of
    `family_fields` whose stored value differs from its writer's output on
    the family rebuilt from the report."""
    rebuilt = family_fields(fam, verdict, full)
    try:
        stored = {field: _stored(data, field) for field in rebuilt}
    except (KeyError, TypeError, AttributeError) as e:
        raise DataError(f"schema mismatch in the stored center data: {e!r}") from None
    rows = []
    for field, want in rebuilt.items():
        got, want = dict(_leaves(stored[field])), dict(_leaves(want))
        bad = sorted(p for p in got.keys() | want.keys()
                     if p not in got or p not in want or got[p] != want[p])
        if bad:
            where = f"{bad[0]}: " if bad[0] else ""
            rows.append([field, len(bad),
                         f"{where}{got.get(bad[0], '-')} != {want.get(bad[0], '-')}"])
    return rows
