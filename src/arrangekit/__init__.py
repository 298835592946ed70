"""arrangekit: exact arrangement combinatorics and ball-cusp geometry.

Layers, bottom up: cyclo (exact Q(zeta_4)/Q(zeta_6) scalars), linalg
(echelon forms over any exact field), lattices (graph Hermitian forms,
signatures, box enumeration, reflections), arrangements (posets, flags,
strata, contractions), ball (Siegel frames, cusp stabilizer, arithmetic
systems), series (truncated lattice and orbit sums with tail bounds).
"""

from .cyclo import CycRat, cyc, zeta, units, to_complex, parse_cycrat
from .errors import ArrangeKitError
from .lattices import (
    GraphSpec,
    Signature,
    enumerate_by_norm,
    gram_matrix,
    herm_product,
    is_root,
    orbit_expand,
    preserves_form,
    pullback_gram,
    reflection,
    signature,
)
from .presets import dynkin_graph
from .arrangements import (
    Arrangement,
    Flag,
    IntersectionPoset,
    Subspace,
    build_poset,
    enumerate_flags,
    hat_map,
    hat_strata,
    incidence_check,
    is_independent_locus,
    minimal_blowup_centers,
    normal_dims,
    stratum_of_flag,
    weyl_arrangement,
)
from .ball import (
    HermSpace,
    SiegelFrame,
    arithmetic_system,
    cusp_obstruction_check,
    cusp_scan,
    heisenberg_transvection,
    in_ball,
    scaling_action,
    siegel_coords,
    siegel_frame,
    siegel_point,
)
from .series import (
    OrbitWindow,
    PlanarLattice,
    SeriesResult,
    cusp_limit_check,
    poincare_weierstrass,
    weierstrass_pk,
)

__version__ = "0.1.0"

__all__ = [
    "ArrangeKitError",
    "Arrangement",
    "CycRat",
    "Flag",
    "GraphSpec",
    "HermSpace",
    "IntersectionPoset",
    "OrbitWindow",
    "PlanarLattice",
    "SeriesResult",
    "SiegelFrame",
    "Signature",
    "Subspace",
    "arithmetic_system",
    "build_poset",
    "cusp_limit_check",
    "cusp_obstruction_check",
    "cusp_scan",
    "cyc",
    "dynkin_graph",
    "enumerate_by_norm",
    "enumerate_flags",
    "gram_matrix",
    "hat_map",
    "hat_strata",
    "heisenberg_transvection",
    "herm_product",
    "in_ball",
    "incidence_check",
    "is_independent_locus",
    "is_root",
    "minimal_blowup_centers",
    "normal_dims",
    "orbit_expand",
    "parse_cycrat",
    "poincare_weierstrass",
    "preserves_form",
    "pullback_gram",
    "reflection",
    "scaling_action",
    "siegel_coords",
    "siegel_frame",
    "siegel_point",
    "signature",
    "stratum_of_flag",
    "to_complex",
    "units",
    "weierstrass_pk",
    "weyl_arrangement",
    "zeta",
]
