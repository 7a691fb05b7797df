"""Exact invariants of orbifold Landau-Ginzburg models (f, G) built from
invertible polynomials in three variables, and mechanical verification of
the mirror identities relating them to cusp singularities with group action.

All arithmetic is exact (integers and fractions); no floating point.
"""

from .errors import *  # noqa: F401,F403
from .ip_core import (  # noqa: F401
    AtomicPart,
    InvertiblePolynomial,
    TypeTag3,
    WeightSystem,
    canonical_weights,
    cf,
    classify3,
    decompose_atoms,
    det,
    format_polynomial,
    parse_polynomial,
    reduced_weights,
    transpose,
    validate_invertible,
)
from .symmetry import (  # noqa: F401
    DiagonalGroup,
    contains_g0,
    dual_group,
    format_group,
    g0_group,
    gfin,
    group_from_generators,
    is_sl_subgroup,
    junior_count,
    parse_group_spec,
    subgroup_fixing_coordinate,
    subgroups_containing_g0,
    trivial_group,
)
from .curve_side import (  # noqa: F401
    CurveInvariants,
    DolgachevData,
    count_m,
    curve_invariants,
    dolgachev,
    dolgachev_gfin,
    genus,
    orbit_invariants,
)
from .cusp_side import (  # noqa: F401
    CuspPolynomial,
    GabrielovData,
    delta,
    gabrielov,
    gabrielov_prime,
)
from .spectra import (  # noqa: F401
    CycloVector,
    PoincareVerdict,
    char_poly_qh,
    cyclo_expand,
    equivariant_char_poly,
    lefschetz_numbers,
    poincare_series,
    psi,
    psi_closed_form,
    verify_poincare_theorem,
)
from .harness import (  # noqa: F401
    CatalogEntry,
    MirrorReport,
    VerificationSummary,
    analyze,
    builtin_catalog,
    emit_report,
    enumerate_corpus,
    enumerate_polynomials,
    run_verification,
    verify_mirror,
)

__version__ = "0.1.0"
