"""Boundary geometry of group actions on CAT(0) model spaces.

The package computes, exactly where the space allows it:

* the character sphere of a group with hemispheres, polyhedral subsets and
  the m-function deciding minimal conic representations (``sphere``);
* distances, geodesics, generalized rays, Busemann functions, horoballs
  and the angular/Tits metrics on Euclidean space, the hyperbolic plane
  and locally finite simplicial trees (``spaces``, ``trees``);
* isometric actions, boundary actions, endpoint characters, the Busemann
  cocycle, the shift calculus for finite control configurations, and a
  desk-scale cocompactness decision (``actions``);
* flag complexes, integer simplicial homology and the Bestvina-Brady
  diagonal test for right-angled Artin groups (``raag``, ``homology``);
* the piecewise formula for the dynamical invariant of cocompact tree
  actions, with the lengths of metabelian groups of finite Prufer rank
  read off the m-function (``treesigma``);
* seeded property suites covering every checkable claim (``verify``) and a
  command-line interface (``cli``).
"""

from . import errors
from .actions import (
    ControlConfiguration,
    EuclideanIsometry,
    CayleyIsometry,
    HnnIsometry,
    GroupAction,
    MoebiusIsometry,
    QuadraticIrrational,
    ShiftReport,
    angle_estimate_audit,
    character_at_end,
    classify_isometry,
    cocompactness_witness,
    equivariance_check,
    fixed_ends_tree,
    iterate_shift_check,
    local_busemann_audit,
    psi_cocycle,
    shift_report,
    sl2z_sigma0_complement,
)
from .homology import SimplicialComplex, homology, join_homology, smith_normal_form
from .raag import (
    SimpleGraph,
    bestvina_brady,
    connectivity_verdict,
    coordinate_hemisphere,
    dominated_core,
    flag_complex,
    flag_verdict,
    join_factors,
)
from .spaces import (
    EDirection,
    EuclideanSpace,
    GeneralizedRay,
    H2_INFINITY,
    Horoball,
    HyperbolicPlane,
    TreeSpace,
    angular_distance,
    asymptotic_offset,
    busemann,
    busemann_limit_audit,
    comparison_angle,
    distance,
    geodesic_point,
    horoball_contains,
    ray_from,
    tits_distance,
)
from .sphere import (
    Character,
    MValue,
    OpenHemisphere,
    PolyhedralSet,
    SpherePoint,
    euclidean_join_decomposition,
    m_value,
    minimal_ray_count,
    normalize_ray,
    polyhedral_contains,
)
from .trees import (
    CayleyTree,
    HnnDown,
    HnnTree,
    HnnUp,
    RegularTree,
    TreePoint,
    WordEnd,
    make_word_end,
)
from .treesigma import (
    GraphOfGroupsSummary,
    MFPRData,
    brown_consistency,
    dynamical_sigma,
    mfpr_lengths,
    sigma_table,
)

__version__ = "0.1.0"
