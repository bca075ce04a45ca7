"""Computational engine for minimal generating sets of finite
permutation groups, centered on affine 3/2-transitive families.

The package builds the relevant groups exactly (finite fields, matrix
groups, permutation actions), computes d(G) — the least size of a
generating set — with verified witnesses, and re-derives a bundled
battery of reference claims via the ``gen32`` command-line tool.
"""

from __future__ import annotations

from .constructions import (
    affine_group,
    affine_of_linear_perms,
    agl1,
    extend_fixing_zero,
    s0_group,
    sl2,
    sl2_order,
    sl2_twisted_check,
    sl2_twisted_group,
    table1_group,
    table1_matrix_group,
    table2_group,
    table2_matrix_group,
    translation_perms,
    z_group,
    z_group_kernel_action,
)
from .errors import IndeterminateError, PreconditionError
from .field import FieldSpec, field_make
from .gens import (
    DResult,
    GenTuple,
    all_abelian_subgroups_cyclic,
    d_affine,
    d_exact,
    d_lower_bound_abelian,
    generates,
)
from .matgroup import MatrixF, MatrixGroup, is_irreducible, perm_from_matrix
from .permgroup import (
    CosetAction,
    Perm,
    PermGroup,
    coset_action,
    derived_subgroup,
    group_from_text,
    group_to_text,
    normal_closure,
    normal_in,
    perm_to_text,
    subgroups_up_to_conjugacy,
    symmetric_group,
)
from .transitivity import (
    TransitivityReport,
    analyze,
    is_frobenius,
    is_half_transitive,
    is_primitive,
    is_three_halves_transitive,
    rank,
)
from .verify import (
    ClaimVerdict,
    run_suite,
    verify_corollary3,
    verify_generation_lemmas,
    verify_lemma7,
    verify_table1,
    verify_table2,
)

__version__ = "1.0.0"

__all__ = [
    "CosetAction",
    "ClaimVerdict",
    "DResult",
    "FieldSpec",
    "GenTuple",
    "IndeterminateError",
    "MatrixF",
    "MatrixGroup",
    "Perm",
    "PermGroup",
    "PreconditionError",
    "TransitivityReport",
    "affine_group",
    "affine_of_linear_perms",
    "agl1",
    "all_abelian_subgroups_cyclic",
    "analyze",
    "coset_action",
    "d_affine",
    "d_exact",
    "d_lower_bound_abelian",
    "derived_subgroup",
    "extend_fixing_zero",
    "field_make",
    "generates",
    "group_from_text",
    "group_to_text",
    "is_frobenius",
    "is_half_transitive",
    "is_irreducible",
    "is_primitive",
    "is_three_halves_transitive",
    "normal_closure",
    "normal_in",
    "perm_from_matrix",
    "perm_to_text",
    "rank",
    "run_suite",
    "s0_group",
    "sl2",
    "sl2_order",
    "sl2_twisted_check",
    "sl2_twisted_group",
    "subgroups_up_to_conjugacy",
    "symmetric_group",
    "table1_group",
    "table1_matrix_group",
    "table2_group",
    "table2_matrix_group",
    "translation_perms",
    "verify_corollary3",
    "verify_generation_lemmas",
    "verify_lemma7",
    "verify_table1",
    "verify_table2",
    "z_group",
    "z_group_kernel_action",
]
