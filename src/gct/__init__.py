"""Relative Drinfeld centers of graded unitary fusion categories.

Computes tube algebras of a graded category relative to its neutral sector,
their block decompositions, the matching (twisted) half-braidings, graded
braiding data and equivariantizations, all numerically over explicit
skeletal data.
"""

from .braiding import (
    EquivariantObject,
    build_G_braiding,
    conjugate_equivariant,
    equivariant_braiding,
    equivariant_count,
    hom_equivariant,
    monodromy_matrix,
    regular_equivariant,
    reverse_braiding,
    scalar_twist_equivariant,
    tensor_equivariant,
    verify_G_braiding,
    verify_equivariant,
    verify_equivariant_braiding,
    verify_reverse_braiding,
)
from .center import (
    HalfBraiding,
    center_report_dict,
    conjugate_half_braiding,
    extract_simples,
    g_action_on_center,
    hom_center,
    identity_half_braiding,
    induce_object,
    tensor_half_braidings,
    tube_representation,
    verify_half_braiding,
)
from .fusion_core import (
    DataError,
    GradedCategory,
    GroupAction,
    GroupData,
    InternalCheckError,
    ValidationError,
    build_crossed_extension,
    bundled_path,
    category_from_dict,
    degree_zero_part,
    fp_dimensions,
    group_from_pointed,
    load_category,
    trivially_graded,
    verify_action,
    verify_pentagon,
)
from .morphisms import (
    Mor,
    conjugate_solution,
    engine_for,
    frobenius_transpose,
    hom_dim,
    left_tensor,
    onb,
    right_tensor,
)
from .tube import (
    TubeAlgebra,
    TubeBasisElement,
    TubeDecomposition,
    build_tube,
    build_twisted_tube,
    decompose,
    twisted_untwisted_iso,
    verify_algebra,
)

__version__ = "0.1.0"
