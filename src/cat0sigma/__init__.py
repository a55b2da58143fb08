"""Boundary geometry of group actions on CAT(0) model spaces.

The package computes, exactly where the space allows it:

* the character sphere of a group and the m-function deciding minimal
  conic representations (``sphere``);
* distances, geodesics, generalized rays, Busemann functions, horoballs
  and the angular/Tits metrics on Euclidean space, the hyperbolic plane
  and locally finite simplicial trees (``spaces``, ``trees``);
* isometric actions, boundary actions, endpoint characters, the shift
  calculus for finite control configurations, and a desk-scale
  cocompactness decision (``actions``);
* flag complexes, integer simplicial homology and the Bestvina-Brady
  diagonal test for right-angled Artin groups (``raag``, ``homology``);
* the piecewise formula for the dynamical invariant of cocompact tree
  actions, with the lengths of metabelian groups of finite Prufer rank
  read off the m-function (``treesigma``);
* seeded property suites covering every checkable claim, with their own
  draws, oracles and check helpers (``verify``), and a command-line
  interface (``cli``).

Each name is imported from the submodule that defines it, as in
``from cat0sigma.spaces import ray_from``.
"""

__version__ = "0.1.0"
