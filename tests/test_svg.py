"""Sphere pictures: structure of the emitted SVG and byte determinism."""

import pytest

from cat0sigma.errors import UnsupportedDimension
from cat0sigma.sphere import SpherePoint
from cat0sigma.svg import render_sphere_svg


def test_zero_sphere_complement_pair_is_two_dots():
    pts = [SpherePoint((1,)), SpherePoint((-1,))]
    text = render_sphere_svg(1, pts)
    assert text.count('<circle class="pt"') == 2
    assert "<svg" in text and text.endswith("</svg>\n")
    text = render_sphere_svg(1, [SpherePoint((-1,))])
    assert text.count('<circle class="pt"') == 1 and text.count('<circle class="out"') == 1


def test_zero_sphere_membership_coloring():
    # The given point is marked on its own side of the axis.
    for sign, (marked, unmarked) in ((1, ("360", "40")), (-1, ("40", "360"))):
        text = render_sphere_svg(1, [SpherePoint((sign,))])
        assert f'<circle class="pt" cx="{marked}.000000"' in text
        assert f'<circle class="out" cx="{unmarked}.000000"' in text


def test_circle_with_three_points():
    # Integer stand-ins for three rays at mutual 120 degrees.
    pts = [SpherePoint((1, 0)), SpherePoint((0, 1)), SpherePoint((-1, -1))]
    text = render_sphere_svg(2, pts)
    assert text.count('<circle class="pt"') == 3


def test_two_sphere_hemisphere_boundary_circles():
    # A point behind the sphere (z < 0) is drawn hollow, one in front filled.
    text = render_sphere_svg(3, [SpherePoint((0, 0, 1)), SpherePoint((0, 0, -1))])
    assert text.count('class="pt"') == 1 and text.count('class="pt-back"') == 1


def test_two_sphere_back_arcs_differ_from_front_arcs():
    # Points and their mirror through z = 0 project to the same places; the
    # mirror's lie behind the sphere and are drawn in the back style.
    def circles(z):
        text = render_sphere_svg(3, [SpherePoint((1, 0, z)), SpherePoint((0, 1, z)), SpherePoint((1, 1, z))])
        return [line.split(" ", 2)[1:] for line in text.splitlines() if line.startswith("<circle class=\"pt")]

    front, mirror = circles(1), circles(-1)
    assert [place for _, place in front] == [place for _, place in mirror]
    assert {cls for cls, _ in front} == {'class="pt"'} and {cls for cls, _ in mirror} == {'class="pt-back"'}


def test_rendering_is_deterministic():
    pts = [SpherePoint((2, -3)), SpherePoint((-1, 4)), SpherePoint((1, 0))]
    assert render_sphere_svg(2, pts) == render_sphere_svg(2, list(reversed(pts)))


def test_empty_spheres_are_drawn_from_their_rank():
    # S^0 with both points grey; S^1 and S^2 as the outline alone.
    text = render_sphere_svg(1, [])
    assert text.count('<circle class="out"') == 2 and 'class="pt' not in text
    for k in (2, 3):
        text = render_sphere_svg(k, [])
        assert text.count("<circle") == 1 and '<circle class="outline"' in text and text.endswith("</svg>\n")


def test_unsupported_dimension():
    for points in ([SpherePoint((1, 0, 0, 0))], []):
        with pytest.raises(UnsupportedDimension, match="^can draw S\\^0, S\\^1, S\\^2 only, not k = 4$"):
            render_sphere_svg(4, points)
