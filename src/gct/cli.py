"""Command-line front end.

Subcommands
-----------
verify       load a category file and check its axioms (pentagon, F-unitarity,
             conjugates, bundled actions)
tube         build the (possibly twisted) tube algebra and print its block
             structure per grade
center       extract the simple objects of the relative center, verify their
             half-braidings, and report hom/fusion/braiding data
gcenter      same for the group-twisted center of a category with an action,
             plus the crossed-extension comparison and the equivariant count
braid-check  re-verify the braiding entries of a previously written report
             file against the crossed-braiding axioms

Exit codes: 0 success, 1 I/O error or memory exhausted, 2 bad or failing
input data, 3 internal invariant breach.  JSON output (``--json path``) is
byte-reproducible for a fixed input file, seed and tool version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .braiding import (
    build_G_braiding,
    equivariant_count,
    verify_G_braiding,
    verify_reverse_braiding,
)
from .center import (
    HalfBraiding,
    center_report_dict,
    extract_simples,
    hom_center,
    tensor_half_braidings,
    verify_half_braiding,
)
from .fusion_core import (
    DataError,
    GradedCategory,
    GroupAction,
    InternalCheckError,
    ValidationError,
    build_crossed_extension,
    load_category,
    neutrally_graded,
    verify_action,
    verify_pentagon,
)
from .morphisms import Mor, conjugate_solution, engine_for, residual_max, vobj_tensor
from .tube import (
    build_tube,
    build_twisted_tube,
    decompose,
    decomposition_dict,
    tube_dump_dict,
    twisted_untwisted_iso,
)

EXIT_PASS = 0
EXIT_IO = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-8
PENTAGON_TOL = 1e-12

# the BF axiom groups reported by braid-check, in terms of the sweep keys
BF_GROUPS = (
    ("BF0", ("unit_rows", "unitarity")),
    ("BF1", ("mult_second", "nat_second")),
    ("BF2", ("mult_first", "nat_first")),
    ("BF3", ("equivariance",)),
)


# ---------------------------------------------------------------------------
# plumbing


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("GCT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"GCT_SEED is not an integer: {env!r}") from None
    return DEFAULT_SEED


def _parse_grade(cat: GradedCategory, spec: str) -> int:
    """A grade given on the command line, by group-element name or index."""
    if spec in cat.group.elements:
        return cat.group.elements.index(spec)
    try:
        g = int(spec)
    except ValueError:
        raise DataError(f"unknown grade {spec!r}; group elements are "
                        f"{list(cat.group.elements)}") from None
    if not 0 <= g < cat.group.order:
        raise DataError(f"grade index {g} out of range for a group of order "
                        f"{cat.group.order}")
    return g


def _subcat_labels(cat: GradedCategory, spec: str):
    """Resolve --subcat into the loop-label argument of build_tube."""
    if spec == "degree0":
        return None
    if spec == "all":
        return list(range(cat.rank))
    return [s for s in spec.split(",") if s]


def _twisted_setup(cat: GradedCategory, action_name: str):
    """Category + strict action ready for build_twisted_tube.

    ``--action trivial`` is always available (the identity permutation for
    every group element, not registered on the category); any other name
    must be bundled with the file.
    """
    if any(int(d) != cat.group.neutral for d in cat.deg):
        cat = neutrally_graded(cat, cat.group, cat.actions)
    if action_name == "trivial" and "trivial" not in cat.actions:
        perm = np.tile(np.arange(cat.rank), (cat.group.order, 1))
        return cat, GroupAction("trivial", perm)
    return cat, cat.action(action_name)


def _write_json(path: str | None, payload: dict) -> None:
    if not path:
        return
    text = json.dumps(payload, indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _header(args, seed: int, tol: float) -> dict:
    return {
        "tool": "gct",
        "command": args.command,
        "input": args.input,
        "seed": int(seed),
        "tol": float(tol),
        "subcat": getattr(args, "subcat", None),
        "action": getattr(args, "action", None),
        "grade": getattr(args, "grade", None),
    }


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _fmt(x: float) -> str:
    return f"{x:.3e}"


# ---------------------------------------------------------------------------
# morphism (de)serialization for report files


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
    try:
        src = tuple(tuple(int(a) for a in w) for w in data["source"])
        tgt = tuple(tuple(int(a) for a in w) for w in data["target"])
        raw = data["blocks"]
    except (KeyError, TypeError) as e:
        raise DataError(f"schema mismatch in a morphism entry: {e}") from None
    for w in src + tgt:
        for a in w:
            if not 0 <= a < cat.rank:
                raise DataError(f"schema mismatch: label index {a} out of range")
    blocks = {}
    for cname, rows in raw.items():
        if cname not in index:
            raise DataError(f"schema mismatch: unknown channel label {cname!r}")
        c = index[cname]
        try:
            M = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
        except (TypeError, IndexError, ValueError) as e:
            raise DataError(f"schema mismatch in {where}, block {cname!r}: {e}") from None
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
# shared center pipeline


def _extract_family(tube, grades, seed: int, tol: float):
    decs, simples = {}, {}
    for g in grades:
        dec = decompose(tube, g, seed=seed)
        decs[g] = dec
        simples[g] = extract_simples(tube, dec, seed=seed, tol=tol)
    fam = [x for g in sorted(simples) for x in simples[g]]
    return decs, simples, fam


def _fusion_section(fam: list[HalfBraiding]) -> dict:
    """Fusion multiplicities of the center family, with the dimension check

    sum_k N_ij^k d_k = d_i d_j  (valid because the family is fusion-closed).
    """
    qd = {x.name: x.qdim() for x in fam}
    table: dict = {}
    worst = 0.0
    for x in fam:
        row = {}
        for y in fam:
            t = tensor_half_braidings(x, y)
            s = 0.0
            entry = {}
            for z in fam:
                n = hom_center(t, z)[0]
                if n:
                    entry[z.name] = n
                s += n * qd[z.name]
            row[y.name] = entry
            worst = max(worst, abs(s - qd[x.name] * qd[y.name]))
        table[x.name] = row
    return {"table": table, "qdims": qd, "closure_residual": worst}


def _braiding_section(fam: list[HalfBraiding], tol: float) -> dict:
    act = fam[0].action
    grp = fam[0].cat.group
    entries = {}
    for x in fam:
        for y in fam:
            if act is None and y.grade != grp.neutral:
                continue  # plain flavour: braiding needs a neutral second slot
            entries[f"{x.name}|{y.name}"] = _ser_mor(build_G_braiding(x, y))
    summary = verify_G_braiding(fam, tol)
    reverse = verify_reverse_braiding(fam, tol)
    return {"entries": entries, "summary": summary, "reverse": reverse}


def _simple_data_section(fam: list[HalfBraiding]) -> dict:
    out = {}
    for x in fam:
        grade_name = x.cat.group.elements[x.grade]
        out[x.name] = {
            "grade": grade_name,
            "object_words": [list(map(int, w)) for w in x.obj],
            "E": {x.cat.label_name(pi): _ser_mor(x.E[pi])
                  for pi in sorted(x.E)},
        }
    return out


def _print_center_tables(rep: dict, fusion: dict, braiding: dict) -> None:
    for gname, gdata in rep["grades"].items():
        print(f"grade {gname}: dim {gdata['dim']}, "
              f"blocks {gdata['block_ranks']}, "
              f"{len(gdata['simples'])} simples")
    rows = []
    for gname, gdata in rep["grades"].items():
        for s in gdata["simples"]:
            obj = " + ".join(f"{n}*{a}" if n > 1 else a
                             for a, n in s["object"].items())
            rows.append([s["name"], gname, obj, f"{s['qdim']:.6f}",
                         _fmt(s["residual"]), "ok" if s["pass"] else "FAIL"])
    print()
    _print_table(["simple", "grade", "object", "qdim", "residual", "status"], rows)
    print()
    summ = braiding["summary"]
    rows = [[key, _fmt(summ[key])] for _, keys in BF_GROUPS for key in keys]
    rows.append(["reverse", _fmt(max(v for k, v in braiding["reverse"].items()
                                     if isinstance(v, float) and k != "tol"))])
    rows.append(["fusion closure", _fmt(fusion["closure_residual"])])
    _print_table(["braiding check", "residual"], rows)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    cat = load_category(args.input)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    ptol = args.tol if args.tol is not None else PENTAGON_TOL

    pent = verify_pentagon(cat, tol=ptol)
    funit = 0.0
    for mat in cat.F.values():
        M = np.asarray(mat)
        funit = max(funit, float(np.max(np.abs(M.conj().T @ M - np.eye(M.shape[1])))))
    # the conjugate equations presuppose associativity: without it their
    # solve can fail, and a residual would mean nothing
    conj = (max(conjugate_solution(cat, a).residual for a in range(cat.rank))
            if pent["pass"] else None)

    rows = [
        ["pentagon", _fmt(pent["max_residual"]), _fmt(ptol),
         "ok" if pent["pass"] else "FAIL"],
        ["F-unitarity", _fmt(funit), _fmt(tol), "ok" if funit <= tol else "FAIL"],
        ["conjugates", "-" if conj is None else _fmt(conj), _fmt(tol),
         "skipped" if conj is None else "ok" if conj <= tol else "FAIL"],
    ]
    action_reports = {}
    for name in sorted(cat.actions):
        arep = verify_action(cat, name)
        action_reports[name] = arep
        rows.append([f"action {name}", _fmt(arep["max_deviation"]), _fmt(tol),
                     "ok" if arep["pass"] else "FAIL"])

    print(f"category {cat.name}: rank {cat.rank}, "
          f"group {list(cat.group.elements)}, "
          f"grading {[int(d) for d in cat.deg]}")
    _print_table(["check", "residual", "tol", "status"], rows)
    ok = all(r[3] == "ok" for r in rows)

    seed = _resolve_seed(args)
    payload = _header(args, seed, tol)
    payload.update({
        "category": cat.name,
        "pentagon": pent["max_residual"],
        "f_unitarity": funit,
        "conjugates": conj,
        "actions": {n: {"max_deviation": r["max_deviation"],
                        "failures": r["failures"], "pass": r["pass"]}
                    for n, r in action_reports.items()},
        "pass": ok,
    })
    _write_json(args.json, payload)
    if not ok:
        print("FAIL: category axioms violated", file=sys.stderr)
        return EXIT_DATA
    return EXIT_PASS


def _build_any_tube(args, cat: GradedCategory):
    if getattr(args, "action", None):
        cat2, act = _twisted_setup(cat, args.action)
        return build_twisted_tube(cat2, act)
    return build_tube(cat, _subcat_labels(cat, args.subcat))


def cmd_tube(args) -> int:
    cat = load_category(args.input)
    tube = _build_any_tube(args, cat)
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else DEFAULT_TOL

    grades = ([_parse_grade(tube.cat, args.grade)] if args.grade
              else list(tube.grades))
    rows, dumps = [], {}
    for g in grades:
        dec = decompose(tube, g, seed=seed)
        rows.append([tube.grade_name(g), dec.dim, dec.center_dim,
                     dec.block_ranks(), len(dec.blocks)])
        dumps[tube.grade_name(g)] = decomposition_dict(dec, tube)

    print(f"tube algebra of {tube.cat.name} ({tube.kind}), "
          f"loops {[tube.cat.label_name(x) for x in tube.loop_labels]}, "
          f"dim {tube.dim}")
    _print_table(["grade", "dim", "center", "block ranks", "simples"], rows)

    payload = _header(args, seed, tol)
    payload.update(tube_dump_dict(tube, seed=seed, tol=tol))
    payload["decompositions"] = dumps
    _write_json(args.json, payload)
    return EXIT_PASS


def _center_payload(args, tube, seed: int, tol: float):
    grades = ([_parse_grade(tube.cat, args.grade)] if args.grade
              else list(tube.grades))
    decs, simples, fam = _extract_family(tube, grades, seed, tol)
    rep = center_report_dict(tube, decs, simples, tol)
    fusion = _fusion_section(fam)
    braiding = _braiding_section(fam, tol)
    payload = _header(args, seed, tol)
    payload.update(rep)
    payload["input"] = args.input
    payload["family"] = [x.name for x in fam]
    payload["simple_data"] = _simple_data_section(fam)
    payload["fusion"] = fusion
    payload["braiding"] = braiding["entries"]
    payload["braiding_summary"] = braiding["summary"]
    payload["reverse_summary"] = braiding["reverse"]
    ok = (all(s["pass"] for gd in rep["grades"].values() for s in gd["simples"])
          and braiding["summary"]["pass"] and braiding["reverse"]["pass"])
    # the dimension-closure identity only holds for the full, fusion-closed
    # family, so it does not gate a grade-filtered run
    if args.grade is None:
        ok = ok and fusion["closure_residual"] < max(tol, 1e-6)
    return payload, rep, fusion, braiding, fam, ok


def cmd_center(args) -> int:
    cat = load_category(args.input)
    tube = build_tube(cat, _subcat_labels(cat, args.subcat))
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else DEFAULT_TOL

    payload, rep, fusion, braiding, fam, ok = _center_payload(
        args, tube, seed, tol)
    print(f"relative center of {tube.cat.name} over loops "
          f"{[tube.cat.label_name(x) for x in tube.loop_labels]}: "
          f"{payload['simple_count']} simples")
    _print_center_tables(rep, fusion, braiding)
    payload["pass"] = ok
    _write_json(args.json, payload)
    if not ok:
        print("FAIL: extracted center data is inconsistent", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS


def cmd_gcenter(args) -> int:
    if not args.action:
        raise DataError("gcenter requires --action (use --action trivial for "
                        "the identity action)")
    cat = load_category(args.input)
    cat2, act = _twisted_setup(cat, args.action)
    tube = build_twisted_tube(cat2, act)
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else DEFAULT_TOL

    payload, rep, fusion, braiding, fam, ok = _center_payload(
        args, tube, seed, tol)
    print(f"twisted center of {cat2.name} under the order-{cat2.group.order} "
          f"action {act.name!r}: {payload['simple_count']} simples")
    _print_center_tables(rep, fusion, braiding)

    # compare against the plain tube of the crossed extension
    ext = build_crossed_extension(cat2, act)
    rel = build_tube(ext)
    iso = twisted_untwisted_iso(tube, rel)
    payload["crossed_extension_iso"] = iso
    print(f"\ncrossed-extension comparison ({ext.name}): "
          f"max deviation {_fmt(iso['max_deviation'])} "
          f"[{'ok' if iso['pass'] else 'FAIL'}]")
    ok = ok and iso["pass"]

    # equivariant count only makes sense over the full family
    if not args.grade:
        cnt = equivariant_count(fam, tol)
        payload["equivariant"] = {
            "count": cnt["count"],
            "orbits": [{"members": [fam[i].name for i in o["members"]],
                        "stabilizer": [cat2.group.elements[g]
                                       for g in o["stabilizer"]]}
                       for o in cnt["orbits"]],
            "assumes_vanishing_obstruction": cnt["assumes_vanishing_obstruction"],
        }
        print(f"equivariant objects: {cnt['count']} "
              f"(from {len(cnt['orbits'])} orbits; assumes vanishing "
              f"stabilizer obstruction)")

    payload["pass"] = ok
    _write_json(args.json, payload)
    if not ok:
        print("FAIL: twisted-center data is inconsistent", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS


def cmd_braid_check(args) -> int:
    with open(args.input) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"schema mismatch: not a JSON report ({e})") from None
    for key in ("tool", "command", "input", "family", "simple_data", "braiding"):
        if key not in data:
            raise DataError(f"schema mismatch: report lacks {key!r}")
    if data["tool"] != "gct" or data["command"] not in ("center", "gcenter"):
        raise DataError("schema mismatch: not a center/gcenter report")
    if not data["braiding"]:
        raise DataError("braiding map has missing entries: it is empty")

    # rebuild the category context the report was produced in
    cat = load_category(data["input"])
    if data["command"] == "gcenter":
        cat2, act = _twisted_setup(cat, data.get("action"))
        tube = build_twisted_tube(cat2, act)
    else:
        act = None
        tube = build_tube(cat, _subcat_labels(cat, data.get("subcat") or "degree0"))
    eng = engine_for(tube.cat)
    grp = tube.cat.group
    tol = args.tol if args.tol is not None else float(data.get("tol", DEFAULT_TOL))

    fam = []
    for name in data["family"]:
        try:
            sd = data["simple_data"][name]
            grade = grp.elements.index(sd["grade"])
            obj = tuple(tuple(int(a) for a in w) for w in sd["object_words"])
            E = {}
            for pname, ser in sd["E"].items():
                pi = tube.cat.labels.index(pname)
                E[pi] = _deser_mor(eng, ser, f"simple {name!r}, E({pname})")
        except (KeyError, ValueError) as e:
            raise DataError(f"schema mismatch in simple {name!r}: {e}") from None
        X = HalfBraiding(tube.cat, obj, grade, E, action=act, name=name)
        if sorted(E) != sorted(X.loop_labels()):
            raise DataError(f"schema mismatch: simple {name!r} lacks E-data "
                            f"for some loops")
        fam.append(X)

    pos = {x.name: i for i, x in enumerate(fam)}
    pairwise = {}
    for key, ser in data["braiding"].items():
        a, _, b = key.partition("|")
        if a not in pos or b not in pos:
            raise DataError(f"schema mismatch: braiding entry {key!r} does not "
                            f"name two family simples")
        i, j = pos[a], pos[b]
        B = _deser_mor(eng, ser, f"braiding entry {key!r}")
        x, y = fam[i], fam[j]
        want_src = vobj_tensor(x.obj, y.obj)
        want_tgt = vobj_tensor(x.tgt_vobj(y.obj), x.obj)
        if B.source != want_src or B.target != want_tgt:
            raise DataError(f"schema mismatch: braiding entry {key!r} has "
                            f"wrong endpoints for its simples")
        pairwise[(i, j)] = B

    rows = []
    for x in fam:
        chk = verify_half_braiding(x, tol)
        rows.append([x.name, _fmt(chk["max_residual"]),
                     "ok" if chk["pass"] else "FAIL"])
    print("half-braiding data:")
    _print_table(["simple", "residual", "status"], rows)
    half_ok = all(r[2] == "ok" for r in rows)

    sweep = verify_G_braiding(fam, tol, pairwise=pairwise)
    print("\nbraiding axioms on the supplied entries:")
    axioms = {bf: residual_max(*(sweep[k] for k in keys)) for bf, keys in BF_GROUPS}
    _print_table(["axiom", "checks", "residual", "status"],
                 [[bf, "+".join(keys), _fmt(axioms[bf]),
                   "ok" if axioms[bf] < tol else "FAIL"] for bf, keys in BF_GROUPS])

    ok = half_ok and sweep["pass"]
    seed = _resolve_seed(args)
    payload = _header(args, seed, tol)
    payload.update({
        "halfbraiding_residuals": {x.name: float(r[1]) for x, r in zip(fam, rows)},
        "axioms": axioms,
        "sweep": sweep,
        "pass": ok,
    })
    _write_json(args.json, payload)
    if not ok:
        print("FAIL: supplied braiding data violates the axioms", file=sys.stderr)
        return EXIT_DATA
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gct",
        description="relative centers of graded unitary fusion categories")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("verify", cmd_verify, "check the axioms of a category file"),
        ("tube", cmd_tube, "tube-algebra block structure per grade"),
        ("center", cmd_center, "simple objects of the relative center"),
        ("gcenter", cmd_gcenter, "twisted center under a group action"),
        ("braid-check", cmd_braid_check, "re-verify braiding data from a report"),
    ]
    for name, func, help_ in specs:
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="category file (JSON), or a report file "
                                     "for braid-check")
        p.add_argument("--subcat", default="degree0",
                       help="loop labels: all, degree0, or a comma list "
                            "(default degree0)")
        p.add_argument("--grade", default=None,
                       help="restrict to one grade (group element name or index)")
        p.add_argument("--action", default=None,
                       help="action name bundled with the file, or 'trivial'")
        p.add_argument("--tol", type=float, default=None,
                       help="verification tolerance (default 1e-8)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: GCT_SEED env var, else 7)")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write a machine-readable report to PATH")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:
        detail = f" ({e})" if str(e) else ""
        print(f"error: gct {args.command}: out of memory{detail}", file=sys.stderr)
        return EXIT_IO
    except (DataError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except InternalCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
