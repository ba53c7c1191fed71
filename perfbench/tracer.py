"""Per-layer tracing of gct from outside: wraps public calls, changes no source.

``Tracer.install()`` replaces each listed function in every ``gct`` module
namespace that holds it (so ``cli``'s and ``center``'s references are both
caught) and each listed method on its class; ``uninstall()`` restores them.
Wrapped calls record parent-linked spans in memory; the hottest engine
primitives are only counted, since a span per call would cost more than
the call.  ``metrics()`` turns the spans into the per-layer figures and
``write()`` dumps every span to one JSON file.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

# (metric prefix, module, class or None, attribute)
SPANNED = [
    ("fusion_core.load_category", "fusion_core", None, "load_category"),
    ("fusion_core.verify_pentagon", "fusion_core", None, "verify_pentagon"),
    ("fusion_core.build_crossed_extension", "fusion_core", None, "build_crossed_extension"),
    ("morphisms.ltens", "morphisms", "TreeEngine", "ltens"),
    ("morphisms.rtens", "morphisms", "TreeEngine", "rtens"),
    ("tube.build_tube", "tube", None, "build_tube"),
    ("tube.build_twisted_tube", "tube", None, "build_twisted_tube"),
    ("tube.verify_algebra", "tube", None, "verify_algebra"),
    ("tube.decompose", "tube", None, "decompose"),
    ("tube.twisted_untwisted_iso", "tube", None, "twisted_untwisted_iso"),
    ("center.extract_simples", "center", None, "extract_simples"),
    ("center.induce_object", "center", None, "induce_object"),
    ("center.tube_representation", "center", None, "tube_representation"),
    ("center.center_report_dict", "center", None, "center_report_dict"),
    ("center.g_action_on_center", "center", None, "g_action_on_center"),
    ("center.verify_half_braiding", "center", None, "verify_half_braiding"),
    ("center.hom_center", "center", None, "hom_center"),
    ("center.tensor_half_braidings", "center", None, "tensor_half_braidings"),
    ("braiding.verify_G_braiding", "braiding", None, "verify_G_braiding"),
    ("braiding.verify_reverse_braiding", "braiding", None, "verify_reverse_braiding"),
    ("braiding.equivariant_count", "braiding", None, "equivariant_count"),
    ("braiding.build_G_braiding", "braiding", None, "build_G_braiding"),
    ("cli.main", "cli", None, "main"),
]
COUNTED = [
    ("morphisms.transport", "morphisms", "TreeEngine", "transport"),
    ("morphisms.onb", "morphisms", "TreeEngine", "onb"),
    ("morphisms.vdim", "morphisms", "TreeEngine", "vdim"),
    ("morphisms.compose", "morphisms", "Mor", "__matmul__"),
]
# calls whose argument objects (or pairs) are fingerprinted for distinct_ratio
DISTINCT_ARGS = {"center.verify_half_braiding": 1, "center.hom_center": 2,
                 "center.tensor_half_braidings": 2}
RSS_TRACKED = ("tube.verify_algebra", "tube.decompose")
BUILDS = ("tube.build_tube", "tube.build_twisted_tube")

PER_LAYER = (
    ["fusion_core.load_category.s", "fusion_core.load_category.calls",
     "fusion_core.verify_pentagon.s", "fusion_core.build_crossed_extension.s"]
    + [f"morphisms.{op}.calls" for op in
       ("ltens", "rtens", "transport", "onb", "vdim", "compose")]
    + ["morphisms.ltens.s", "morphisms.rtens.s",
       "tube.build.self_s", "tube.verify_algebra.s", "tube.decompose.s",
       "tube.decompose.retries", "tube.twisted_untwisted_iso.s", "tube.dim",
       "tube.verify_algebra.rss_delta_mb", "tube.decompose.rss_delta_mb",
       "center.extract_simples.s", "center.induce_object.calls",
       "center.tube_representation.s", "center.center_report_dict.s",
       "center.g_action_on_center.calls"]
    + [f"center.{fn}.{m}" for fn in ("verify_half_braiding", "hom_center",
                                      "tensor_half_braidings")
       for m in ("calls", "s", "distinct_ratio")]
    + ["braiding.verify_G_braiding.s", "braiding.verify_reverse_braiding.s",
       "braiding.equivariant_count.s", "braiding.build_G_braiding.calls",
       "cli.self_s", "cli.report_bytes"]
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans ``[name, parent, request, t0, t1]`` indexed by span id."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.request = -1
        self.calls: dict = {}
        self.inclusive: dict = {}   # outermost spans only, so recursion counts once
        self.active: dict = {}
        self.fingerprints: dict = {}  # id(obj) -> (obj, digest); obj pins the id
        self.seen_args: dict = {n: set() for n in DISTINCT_ARGS}
        self.rss_delta: dict = {n: 0.0 for n in RSS_TRACKED}
        self.retries = 0
        self.tube_dim = 0
        self.report_bytes = 0
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def _fingerprint(self, hb) -> str:
        got = self.fingerprints.get(id(hb))
        if got is not None:
            return got[1]
        h = hashlib.blake2b(repr((id(hb.cat), hb.grade, hb.obj,
                                  getattr(hb.action, "name", None))).encode(),
                            digest_size=16)
        for pi in sorted(hb.E):
            f = hb.E[pi]
            h.update(repr((pi, f.source, f.target, sorted(f.blocks))).encode())
            for c in sorted(f.blocks):
                h.update(f.blocks[c].tobytes())
        digest = h.hexdigest()
        self.fingerprints[id(hb)] = (hb, digest)
        return digest

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        inclusive, active = self.inclusive, self.active
        cell = self.calls[name] = [0]
        inclusive[name] = 0.0
        active[name] = 0
        n_args = DISTINCT_ARGS.get(name)
        rss = name in RSS_TRACKED
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if n_args:
                self.seen_args[name].add(
                    tuple(self._fingerprint(a) for a in args[:n_args]))
            sid = len(spans)
            rec = [name, stack[-1], self.request, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            active[name] += 1
            rss0 = _maxrss_mb() if rss else 0.0
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                active[name] -= 1
                stack.pop()
                if not active[name]:
                    inclusive[name] += rec[4] - rec[3]
                if rss:
                    self.rss_delta[name] += _maxrss_mb() - rss0
            if name == "tube.decompose":
                self.retries += out.retries
            elif name in BUILDS:
                self.tube_dim += out.dim
            return out

        return wrapper

    def _counted(self, name: str, fn):
        cell = self.calls[name] = [0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, mod, cls, attr in table:
                if cls is not None:
                    owner = getattr(sys.modules[f"gct.{mod}"], cls)
                    orig = owner.__dict__[attr]
                    self._undo.append((owner, attr, orig))
                    setattr(owner, attr, make(name, orig))
                    continue
                orig = getattr(sys.modules[f"gct.{mod}"], attr)
                wrapper = make(name, orig)
                for modname, module in list(sys.modules.items()):
                    if modname != "gct" and not modname.startswith("gct."):
                        continue
                    for key, val in list(vars(module).items()):
                        if val is orig:
                            self._undo.append((module, key, orig))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def _self_time(self, parents: tuple, children: tuple | None) -> float:
        """Span time of ``parents`` minus their ``children`` (direct children
        of any name when ``children`` is None, else descendants so named)."""
        total = 0.0
        for name, _, _, t0, t1 in self.spans:
            if name in parents:
                total += t1 - t0
        for name, parent, _, t0, t1 in self.spans:
            if parent < 0:
                continue
            if children is None:
                if self.spans[parent][0] in parents:
                    total -= t1 - t0
            elif name in children:
                while parent >= 0 and self.spans[parent][0] not in parents:
                    parent = self.spans[parent][1]
                if parent >= 0:
                    total -= t1 - t0
        return total

    def metrics(self) -> dict:
        """Every per-layer metric: name -> (value, unit)."""
        out = {}
        for name in self.inclusive:
            out[f"{name}.s"] = (self.inclusive[name], "s")
        for name, cell in self.calls.items():
            out[f"{name}.calls"] = (cell[0], "count")
        for name, seen in self.seen_args.items():
            calls = self.calls[name][0]
            out[f"{name}.distinct_ratio"] = (len(seen) / calls if calls else 1.0, "ratio")
        for name, delta in self.rss_delta.items():
            out[f"{name}.rss_delta_mb"] = (delta, "MB")
        out["tube.build.self_s"] = (self._self_time(BUILDS, ("tube.verify_algebra",)), "s")
        out["tube.decompose.retries"] = (self.retries, "count")
        out["tube.dim"] = (self.tube_dim, "count")
        out["cli.self_s"] = (self._self_time(("cli.main",), None), "s")
        out["cli.report_bytes"] = (self.report_bytes, "bytes")
        return {k: out[k] for k in PER_LAYER}

    def write(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "parent", "request", "t0", "t1"]
        payload["spans"] = self.spans
        payload["calls"] = {n: cell[0] for n, cell in self.calls.items()}
        with open(path, "w") as fh:
            json.dump(payload, fh)
