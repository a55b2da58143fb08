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

import importlib

__version__ = "0.1.0"

# The submodules, and the public names each defines.  Nothing is imported
# until it is first asked for (PEP 562), so a command pays only for the
# modules it uses.  A submodule name always means the submodule: the import
# system sets it on the package when the submodule loads, so the function
# ``homology`` is reached as ``cat0sigma.homology.homology``.
_SUBMODULES = (
    "actions", "cli", "errors", "exactlp", "homology", "jsonio", "raag",
    "spaces", "sphere", "svg", "trees", "treesigma", "verify", "words",
)
_EXPORTS = {
    "actions": (
        "ControlConfiguration EuclideanIsometry CayleyIsometry HnnIsometry GroupAction MoebiusIsometry "
        "QuadraticIrrational ShiftReport angle_estimate_audit character_at_end "
        "cocompactness_witness equivariance_check fixed_ends_tree iterate_shift_check local_busemann_audit "
        "psi_cocycle shift_report sl2z_sigma0_complement"
    ),
    "homology": "SimplicialComplex join_homology smith_normal_form",
    "raag": (
        "SimpleGraph bestvina_brady connectivity_verdict coordinate_hemisphere dominated_core flag_complex "
        "flag_verdict join_factors"
    ),
    "spaces": (
        "EDirection EuclideanSpace GeneralizedRay H2_INFINITY Horoball HyperbolicPlane TreeSpace angular_distance "
        "asymptotic_offset busemann busemann_limit_audit distance horoball_contains "
        "ray_from tits_distance"
    ),
    "sphere": (
        "Character OpenHemisphere PolyhedralSet SpherePoint m_value "
        "minimal_ray_count normalize_ray polyhedral_contains"
    ),
    "trees": "CayleyTree HnnDown HnnTree HnnUp RegularTree TreePoint WordEnd make_word_end",
    "treesigma": "GraphOfGroupsSummary MFPRData dynamical_sigma mfpr_lengths sigma_table",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
