"""Shared fixtures: bundled categories and their (expensive) center data.

Everything heavy is session-scoped so the acceptance module and the unit
modules share one computation of each tube algebra / extraction.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and with no deadline, so a slow example on a busy
host is not a failure.  Each test keeps its own ``max_examples``.
"""

import itertools

import pytest
from hypothesis import settings

from gct import (
    build_G_braiding,
    build_tube,
    build_twisted_tube,
    bundled_path,
    decompose,
    extract_simples,
    load_category,
    trivially_graded,
    verify_G_braiding,
    verify_reverse_braiding,
)
from gct.morphisms import Mor

BUNDLED = ("fib", "ising", "vec_s3", "vec_z2", "vec_z3")

settings.register_profile("gct", derandomize=True, deadline=None)
settings.load_profile("gct")


@pytest.fixture(scope="session")
def cats():
    return {name: load_category(bundled_path(name)) for name in BUNDLED}


def _center(tube):
    decs, simples = {}, {}
    for g in tube.grades:
        decs[g] = decompose(tube, g)
        simples[g] = extract_simples(tube, decs[g])
    fam = [x for g in sorted(simples) for x in simples[g]]
    return {"tube": tube, "decs": decs, "simples": simples, "fam": fam}


@pytest.fixture(scope="session")
def fib_center(cats):
    return _center(build_tube(cats["fib"]))


@pytest.fixture(scope="session")
def z2_center(cats):
    return _center(build_tube(trivially_graded(cats["vec_z2"])))


@pytest.fixture(scope="session")
def ising_center(cats):
    return _center(build_tube(cats["ising"]))


@pytest.fixture(scope="session")
def ising_full_center(cats):
    return _center(build_tube(trivially_graded(cats["ising"])))


@pytest.fixture(scope="session")
def s3_center(cats):
    return _center(build_tube(cats["vec_s3"]))


@pytest.fixture(scope="session")
def z3_twisted(cats):
    return _center(build_twisted_tube(cats["vec_z3"], "inversion"))


@pytest.fixture(scope="session")
def z3_trivial(cats):
    from gct.cli import _twisted_setup
    return _center(build_twisted_tube(*_twisted_setup(cats["vec_z3"], "trivial")))


@pytest.fixture(scope="session")
def z3_ext_tube(cats):
    from gct.fusion_core import build_crossed_extension
    return build_tube(build_crossed_extension(cats["vec_z3"], "inversion"))


def _supplied(fam):
    """Copies of every braiding the sweep reads from its map of entries."""
    out = {}
    for (i, x), (j, y) in itertools.product(enumerate(fam), repeat=2):
        if x.action is not None or y.grade == y.cat.group.neutral:
            f = build_G_braiding(x, y)
            out[(i, j)] = Mor(f.eng, f.source, f.target,
                              {c: B.copy() for c, B in f.blocks.items()})
    return out


# braiding sweeps are the slowest verifications; run each once per session


@pytest.fixture(scope="session")
def braid_reports(fib_center, z2_center, s3_center, z3_twisted):
    out = {}
    for key, ctx in (("fib", fib_center), ("vec_z2", z2_center),
                     ("vec_s3", s3_center), ("vec_z3^Z2", z3_twisted)):
        out[key] = {
            "forward": verify_G_braiding(ctx["fam"], _supplied(ctx["fam"])),
            "reverse": verify_reverse_braiding(ctx["fam"]),
        }
    return out
