"""Exact-arithmetic constructor for simply-connected symplectic
4-manifolds, tracking numerical invariants and canonical classes in an
integer-lattice model and certifying the divisibility of the canonical
class."""

from .coverings import (
    CoverParams,
    branched_cover,
    persson_cover,
    persson_image_sector,
    phi_admissible_image,
    phi_inverse,
    phi_map,
    pluri_system_defines_map,
    pluricanonical_cover,
    singular_double_cover,
)
from .errors import ConstructionError, CoveringError, InadmissibleError, LatticeError
from .errors import RecipeError, SymgeoError
from .geography import (
    DivisibilityCertificate,
    FamilyResult,
    ValidationReport,
    certify_class,
    divisibility,
    homotopy_elliptic,
    inequivalent_family,
    negative_c1,
    nonspin_surface,
    realizable,
    spin_surface,
    validate,
)
from .lattice import (
    ClassVector,
    IntersectionLattice,
    Witness,
    coefficient_gcd,
    pairing,
    q_set,
)
from .manifolds import (
    ConstructionRecipe,
    Invariants,
    ManifoldDescriptor,
    catalog,
    derived_invariants,
    elliptic_surface,
    knot_product,
    surface_bundle_y,
)
from .recipes import execute_recipe, parse_recipe, serialize_recipe
from .surgery import (
    blow_up,
    fibre_sum,
    generalized_knot_surgery,
    knot_surgery,
    lagrangian_triple_surgery,
    log_transform,
)

__version__ = "0.1.0"

__all__ = [
    "ClassVector",
    "ConstructionError",
    "ConstructionRecipe",
    "CoverParams",
    "CoveringError",
    "DivisibilityCertificate",
    "FamilyResult",
    "InadmissibleError",
    "IntersectionLattice",
    "Invariants",
    "LatticeError",
    "ManifoldDescriptor",
    "RecipeError",
    "SymgeoError",
    "ValidationReport",
    "Witness",
    "blow_up",
    "branched_cover",
    "catalog",
    "certify_class",
    "coefficient_gcd",
    "derived_invariants",
    "divisibility",
    "elliptic_surface",
    "execute_recipe",
    "fibre_sum",
    "generalized_knot_surgery",
    "homotopy_elliptic",
    "inequivalent_family",
    "knot_product",
    "knot_surgery",
    "lagrangian_triple_surgery",
    "log_transform",
    "negative_c1",
    "nonspin_surface",
    "pairing",
    "parse_recipe",
    "persson_cover",
    "persson_image_sector",
    "phi_admissible_image",
    "phi_inverse",
    "phi_map",
    "pluri_system_defines_map",
    "pluricanonical_cover",
    "q_set",
    "realizable",
    "serialize_recipe",
    "singular_double_cover",
    "spin_surface",
    "surface_bundle_y",
    "validate",
]
