"""Sphere pictures: structure of the emitted SVG and byte determinism."""

import pytest

from cat0sigma.errors import UnsupportedDimension
from cat0sigma.sphere import OpenHemisphere, PolyhedralSet, SpherePoint
from cat0sigma.svg import render_sphere_svg


def test_zero_sphere_complement_pair_is_two_dots():
    pts = [SpherePoint((1,)), SpherePoint((-1,))]
    text = render_sphere_svg(pts)
    assert text.count('<circle class="pt"') == 2
    assert "<svg" in text and text.endswith("</svg>\n")


def test_zero_sphere_membership_coloring():
    pset = PolyhedralSet.from_clauses(1, [[OpenHemisphere(SpherePoint((1,)))]])
    text = render_sphere_svg(pset)
    assert text.count('class="in"') == 1
    assert text.count('class="out"') == 1


def test_circle_with_one_hemisphere_draws_a_half_arc():
    pset = PolyhedralSet.from_clauses(2, [[OpenHemisphere(SpherePoint((1, 0)))]])
    text = render_sphere_svg(pset)
    arcs = [line for line in text.splitlines() if line.startswith('<path class="member"')]
    # The member half-circle wraps the sample seam at angle zero, so it may
    # split into two runs; together they cover half of the 720 samples.
    assert 1 <= len(arcs) <= 2
    assert 300 < sum(a.count(" L ") for a in arcs) < 420


def test_circle_with_three_points():
    # Integer stand-ins for three rays at mutual 120 degrees.
    pts = [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))]
    text = render_sphere_svg(pts)
    assert text.count('<circle class="pt"') == 3


def test_two_sphere_hemisphere_boundary_circles():
    # The equator lies in front; the vertical circle normal to (1, 1, 0) is
    # drawn as its back half and then its front half.
    pset = PolyhedralSet.from_clauses(
        3,
        [[OpenHemisphere(SpherePoint((0, 0, 1))), OpenHemisphere(SpherePoint((1, 1, 0)))]],
    )
    text = render_sphere_svg(pset)
    assert text.count('<path class="gc"') == 2 and text.count('<path class="gc-back"') == 1
    text = render_sphere_svg([SpherePoint((0, 0, 1)), SpherePoint((0, 0, -1))])
    assert text.count('class="pt"') == 1 and text.count('class="pt-back"') == 1


def test_two_sphere_member_arcs_bound_the_region():
    # The positive octant is bounded by a quarter of each coordinate great
    # circle, and a lone hemisphere by the whole of its circle, half of it
    # behind the sphere.
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    octant = PolyhedralSet.from_clauses(3, [[OpenHemisphere(SpherePoint(e)) for e in axes]])
    half = PolyhedralSet.from_clauses(3, [[OpenHemisphere(SpherePoint((1, 1, 0)))]])
    arcs = {}
    for name, pset in (("octant", octant), ("half", half)):
        lines = render_sphere_svg(pset).splitlines()
        arcs[name] = [
            (line.split('"')[1], line.count(" L ")) for line in lines if line.startswith('<path class="member')
        ]
    assert arcs == {"octant": [("member", 43)] * 3, "half": [("member-back", 90), ("member", 90)]}


def test_two_sphere_back_arcs_differ_from_front_arcs():
    # The octant and its mirror through z = 0 project to the same member
    # arcs; the mirror's two arcs off the equator lie behind the sphere and
    # are drawn in the back style.
    def octant(z):
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, z))
        return render_sphere_svg(PolyhedralSet.from_clauses(3, [[OpenHemisphere(SpherePoint(e)) for e in axes]]))

    front, mirror = octant(1), octant(-1)
    assert front != mirror
    assert (front.count('<path class="member"'), front.count('<path class="member-back"')) == (3, 0)
    assert (mirror.count('<path class="member"'), mirror.count('<path class="member-back"')) == (1, 2)

def test_rendering_is_deterministic():
    pset = PolyhedralSet.from_clauses(2, [[OpenHemisphere(SpherePoint((2, -3)))]])
    assert render_sphere_svg(pset) == render_sphere_svg(pset)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        render_sphere_svg([SpherePoint((1, 0, 0, 0))])
    with pytest.raises(UnsupportedDimension):
        render_sphere_svg([])
