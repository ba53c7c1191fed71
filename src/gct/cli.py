"""Command-line front end.

Subcommands
-----------
verify       load a category file and check its axioms (pentagon, F-unitarity,
             conjugates, bundled actions)
tube         build the (possibly twisted) tube algebra and print its block
             structure per grade
center       extract the simple objects of the relative center, verify their
             half-braidings, and report hom/fusion/braiding data
gcenter      the center command with --action: the group-twisted center of a
             category with an action, plus the crossed-extension comparison
             and the equivariant count
braid-check  re-verify the braiding entries of a previously written report
             file against the crossed-braiding axioms

Exit codes: 0 success, 1 I/O error or memory exhausted, 2 bad or failing
input data (every command that builds refuses a category that fails the
pentagon), 3 internal invariant breach.  JSON output (``--json path``) is
byte-reproducible for a fixed input file, seed and tool version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .braiding import certify
from .center import extract_simples
from .fusion_core import (
    DataError,
    GradedCategory,
    GroupAction,
    InternalCheckError,
    ValidationError,
    load_category,
    neutrally_graded,
    trivially_graded,
    unitarity_defect,
    verify_action,
    verify_pentagon,
)
from .morphisms import engine_for, residual_max
from .report import (
    SUBCATS,
    center_report,
    header,
    read_family,
    read_report,
    simple_fields,
    stale_fields,
)
from .tube import (
    AXIOM_TOL,
    build_tube,
    build_twisted_tube,
    decompose,
    decomposition_dict,
    tube_dump_dict,
)

EXIT_PASS = 0
EXIT_IO = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-8
PENTAGON_TOL = 1e-12

# the BF axiom groups of the gate table, in terms of the sweep keys
BF_GROUPS = (
    ("BF0", ("unit_rows", "unitarity")),
    ("BF1", ("mult_second", "nat_second")),
    ("BF2", ("mult_first", "nat_first")),
    ("BF3", ("equivariance",)),
)


# ---------------------------------------------------------------------------
# plumbing


def _checked(kind, ok, what: str):
    """An argparse type: `kind` of the text, refused unless `ok` holds."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return parse


_seed_arg = _checked(int, lambda s: s >= 0, "a non-negative integer")
_tol_arg = _checked(float, lambda t: 0 < t < float("inf"), "a finite positive number")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _seed_arg(os.environ.get("GCT_SEED", str(DEFAULT_SEED)))
    except argparse.ArgumentTypeError as e:
        raise DataError(f"GCT_SEED: {e}") from None


def _floored(tol: float, what: str) -> float:
    """A center or braid-check tolerance, refused below PENTAGON_TOL: nothing
    built from an input is certified finer than its pentagon is accepted."""
    if tol < PENTAGON_TOL:
        raise DataError(f"{what} {tol:g} is below {PENTAGON_TOL:g}, the pentagon "
                        f"tolerance that every input is accepted at")
    return tol


def _load_associative(path: str) -> GradedCategory:
    """The category in `path`, refused as bad data unless its F-symbols
    satisfy the pentagon, which every tube, center and braiding presupposes."""
    cat = load_category(path)
    pent = verify_pentagon(cat, tol=PENTAGON_TOL)
    if not pent["pass"]:
        raise ValidationError(
            f"pentagon violated: residual {_fmt(pent['max_residual'])} at "
            f"({', '.join(pent['worst_at'])}), tol {_fmt(PENTAGON_TOL)}")
    return cat


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


def _context(cat: GradedCategory, subcat: str | None, action_name: str | None):
    """The category and action (None in the plain flavour) of a tube or
    center; its loops are the category's neutral sector.

    ``--subcat all`` regrades the category trivially when its neutral
    sector is not every label, so that every label is a loop.
    """
    if action_name:
        return _twisted_setup(cat, action_name)
    if subcat == "all" and len(cat.neutral_sector()) != cat.rank:
        cat = trivially_graded(cat)
    return cat, None


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


def _setup(args):
    """The tube and grades of a tube, center or gcenter run."""
    cat, act = _context(_load_associative(args.input), getattr(args, "subcat", None),
                        getattr(args, "action", None))
    tube = build_tube(cat) if act is None else build_twisted_tube(cat, act)
    grades = ([_parse_grade(tube.cat, args.grade)] if args.grade
              else list(tube.grades))
    return tube, grades


def _write_json(path: str | None, payload: dict) -> None:
    if not path:
        return
    text = json.dumps(payload, indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _status(ok: bool | None) -> str:
    return "skipped" if ok is None else "ok" if ok else "FAIL"


def _gate_rows(verdict: dict, full: bool, iso: dict | None = None) -> list:
    """[axiom, checks, residual, ok] per gate of `certify`'s verdict and of
    the crossed-extension comparison `iso`: ok is residual < the gate's
    bound, so a NaN fails, and None for a gate that one grade skips."""
    sweep, rev, family = verdict["forward"], verdict["reverse"], verdict["family"]
    whole = family["tol"] if full else None
    rows = [[bf, "+".join(keys), residual_max(*(sweep[k] for k in keys)), sweep["tol"]]
            for bf, keys in BF_GROUPS]
    rows += [["rev", "inversion+membership",
              residual_max(rev["inversion"], rev["membership"]), rev["tol"]],
             ["fus", "closure_residual", verdict["closure_residual"], whole],
             ["Schur", "schur_defect", family["schur_defect"], 1],  # an integer defect
             ["dim", "dim_residual", family["dim_residual"], whole]]
    if iso is not None:
        rows.append(["iso", "max_deviation", iso["max_deviation"], iso["tol"]])
    return [[a, keys, res, None if bound is None else res < bound]
            for a, keys, res, bound in rows]


def _print_verdict(fam: list, verdict: dict, rows: list) -> None:
    """The simples of a center family with their half-braiding checks, the
    gate `rows`, and the first fusion-ring axiom that fails."""
    simples = []
    for x, h in zip(fam, verdict["half"]):
        name, obj, qdim = simple_fields(x).values()
        simples.append([name, x.cat.group.elements[x.grade],
                        " + ".join(f"{n}*{a}" if n > 1 else a for a, n in obj.items()),
                        f"{qdim:.6f}", _fmt(h["max_residual"]), _status(h["pass"])])
    _print_table(["simple", "grade", "object", "qdim", "residual", "status"], simples)
    print()
    _print_table(["axiom", "checks", "residual", "status"],
                 [[a, keys, _fmt(v), _status(ok)] for a, keys, v, ok in rows])
    if verdict["ring"]:
        print(f"\nfusion ring axioms fail: {verdict['ring']}")


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    cat = load_category(args.input)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    ptol = args.tol if args.tol is not None else PENTAGON_TOL

    pent = verify_pentagon(cat, tol=ptol)
    funit = residual_max(0.0, *(unitarity_defect(np.asarray(m)) for m in cat.F.values()))
    # the conjugate equations presuppose associativity: without it their
    # solve can fail, and a residual would mean nothing
    conj = (residual_max(*(engine_for(cat).conjugates(a).residual for a in range(cat.rank)))
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

    payload = header(args, args.seed, tol)
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


def cmd_tube(args) -> int:
    tube, grades = _setup(args)
    rows, dumps = [], {}
    for g in grades:
        dec = decompose(tube, g, seed=args.seed)
        ranks = dec.block_ranks()
        rows.append([tube.grade_name(g), dec.dim, dec.center_dim,
                     ", ".join(f"{ranks.count(r)} of rank {r}" for r in sorted(set(ranks)))
                     or "-", len(dec.blocks)])
        dumps[tube.grade_name(g)] = decomposition_dict(dec, tube)

    print(f"tube algebra of {tube.cat.name} ({tube.kind}), "
          f"loops {[tube.cat.label_name(x) for x in tube.loop_labels]}, "
          f"dim {tube.dim}")
    _print_table(["grade", "dim", "center", "blocks", "simples"], rows)

    payload = header(args, args.seed, AXIOM_TOL)
    payload.update(tube_dump_dict(tube, seed=args.seed))
    payload["decompositions"] = dumps
    _write_json(args.json, payload)
    return EXIT_PASS


def _center_payload(args, tube, seed: int, tol: float, grades: list):
    """The report of a center run, `certify`'s verdict and the family."""
    decs, simples = {}, {}
    for g in grades:
        decs[g] = decompose(tube, g, seed=seed)
        simples[g] = extract_simples(tube, decs[g], seed=seed, tol=tol)
    rep, verdict, fam = center_report(tube, decs, simples, tol, not args.grade)
    payload = header(args, seed, tol)
    payload.update(rep)
    return payload, verdict, fam


def cmd_center(args) -> int:
    """`center`, and `gcenter`, which is `center` with an action."""
    tol = DEFAULT_TOL if args.tol is None else _floored(args.tol, "--tol")
    tube, grades = _setup(args)
    payload, verdict, fam = _center_payload(args, tube, args.seed, tol, grades)
    cat, act, count = tube.cat, tube.action, payload["simple_count"]
    if act is None:
        print(f"relative center of {cat.name} over loops "
              f"{[cat.label_name(x) for x in tube.loop_labels]}: {count} simples")
    else:
        print(f"twisted center of {cat.name} under the order-{cat.group.order} "
              f"action {act.name!r}: {count} simples")
    for gname, gdata in payload["grades"].items():
        print(f"grade {gname}: dim {gdata['dim']}, blocks {gdata['block_ranks']}, "
              f"{len(gdata['simples'])} simples")
    print()
    _print_verdict(fam, verdict, _gate_rows(verdict, not args.grade,
                                            payload.get("crossed_extension_iso")))
    if "equivariant" in payload:
        print(f"\nequivariant objects: {payload['equivariant']['count']} "
              f"(from {len(payload['equivariant']['orbits'])} orbits; assumes "
              f"vanishing stabilizer obstruction)")
    _write_json(args.json, payload)
    if not payload["pass"]:
        print("FAIL: extracted center data is inconsistent", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS


def cmd_braid_check(args) -> int:
    data, subcat, action_name = read_report(args.input)
    tol = (_floored(args.tol, "--tol") if args.tol is not None
           else _floored(float(data["tol"]), "the report's tol"))
    cat, act = _context(_load_associative(data["input"]), subcat, action_name)
    full = not data.get("grade")
    fam, pairwise, table = read_family(data, cat, act)
    verdict = certify(fam, pairwise, table, tol, full)
    stale = stale_fields(data, fam, verdict, full)
    rows = _gate_rows(verdict, full)
    _print_verdict(fam, verdict, rows)
    if stale:
        print("\nreport fields that differ from the rebuilt family:")
        _print_table(["field", "differing", "first (stored != rebuilt)"], stale)

    payload = header(args, args.seed, tol)
    payload.update({
        "halfbraiding_residuals": {x.name: h["max_residual"]
                                   for x, h in zip(fam, verdict["half"])},
        "axioms": {bf: res for bf, _, res, _ in rows[:len(BF_GROUPS)]},
        "sweep": verdict["forward"],
        "reverse": verdict["reverse"],
        "closure_residual": verdict["closure_residual"],
        "family_gate": verdict["family"],
        "pass": verdict["pass"] and not stale,
    })
    if verdict["ring"]:
        payload["fusion_ring"] = verdict["ring"]
    if stale:
        payload["stale_fields"] = {field: n for field, n, _ in stale}
    _write_json(args.json, payload)
    if not payload["pass"]:
        print("FAIL: the report fails the center checks", file=sys.stderr)
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
        ("gcenter", cmd_center, "twisted center under a group action"),
        ("braid-check", cmd_braid_check, "re-verify braiding data from a report"),
    ]
    for name, func, help_ in specs:
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="category file (JSON), or a report file "
                                     "for braid-check")
        p.set_defaults(func=func)
    # each command takes only the options it reads; a tube's context comes
    # from --subcat or --action, a twisted center's from --action
    tube, center, gcenter = (sub.choices[n] for n in ("tube", "center", "gcenter"))
    context = tube.add_mutually_exclusive_group()
    for p in (context, center):
        p.add_argument("--subcat", default="degree0", choices=SUBCATS,
                       help="loop labels: degree0, the neutral sector "
                            "(default), or all")
    for p, required in ((context, False), (gcenter, True)):
        p.add_argument("--action", required=required,
                       help="action name bundled with the file, or 'trivial'")
    for p in (tube, center, gcenter):
        p.add_argument("--grade", default=None,
                       help="restrict to one grade (group element name or index)")
    for name, p in sub.choices.items():
        if name != "tube":  # a tube is checked at tube.AXIOM_TOL alone
            p.add_argument("--tol", type=_tol_arg, default=None,
                           help="verification tolerance (default 1e-8)")
        p.add_argument("--seed", type=_seed_arg, default=None,
                       help="RNG seed (default: GCT_SEED env var, else 7)")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write a machine-readable report to PATH")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a bad GCT_SEED is refused before any input is read
        args.seed = _resolve_seed(args)
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
