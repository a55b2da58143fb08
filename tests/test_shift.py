"""Shift calculus: shift reports, and verify's iterates and translates of
them, audits."""

import collections
import math
import re
from fractions import Fraction as F

import pytest

from cat0sigma import spaces as sp
from cat0sigma.actions import (
    ControlConfiguration,
    EuclideanIsometry,
    GroupAction,
    angle_estimate_audit,
    local_busemann_audit,
    shift_report,
)
from cat0sigma.errors import EmptyConfiguration, NotClosed, WrongSpace
from cat0sigma.spaces import EDirection, EuclideanSpace, H2_INFINITY, HyperbolicPlane
from cat0sigma.trees import CayleyTree, HnnTree, HnnUp, TreeModel, TreePoint, make_word_end
from cat0sigma.verify import _iterate_gsh, _random_ends, _translated_gsh
from conftest import stream_points

E2 = EuclideanSpace(2)


def test_identity_map_has_zero_shift():
    cfg = ControlConfiguration(E2, {"x": (0.0, 0.0), "y": (2.0, 1.0)})
    rep = shift_report(cfg, {"x": "x", "y": "y"}, EDirection((1, 0)))
    assert rep.gsh == 0.0 and rep.norm == 0.0
    assert not rep.is_contraction


def test_unit_translation_shifts_by_one():
    cfg = ControlConfiguration(E2, {"x": (0.0, 0.0), "y": (1.0, 2.0)})
    images = {"x": (1.0, 0.0), "y": (2.0, 2.0)}
    rep = shift_report(cfg, images, EDirection((1, 0)))
    assert rep.shifts == {"x": 1.0, "y": 1.0}
    assert rep.gsh == 1.0 and rep.is_contraction


def test_tree_step_toward_end_shifts_exactly_one():
    T = CayleyTree(2)
    end = make_word_end((), (1,))
    cfg = ControlConfiguration(
        T, {"r": TreePoint(()), "s": TreePoint((2,)), "t": TreePoint((1, 1))}
    )
    images = {"r": TreePoint((1,)), "s": TreePoint(()), "t": TreePoint((1, 1, 1))}
    rep = shift_report(cfg, images, end)
    assert rep.gsh == 1 and rep.norm == 1
    assert all(v == 1 for v in rep.shifts.values())
    assert rep.is_contraction


def test_shift_bound_holds_in_type(space):
    base = space.origin()
    pts = stream_points(space, base, 5, radius=3.0, seed=91)
    cfg = ControlConfiguration(space, {i: p for i, p in enumerate(pts)})
    end = _random_ends(space, 1, 92)[0]
    rep = shift_report(cfg, {i: (i + 1) % 5 for i in range(5)}, end)
    slack = 0 if space.exact else 1e-12
    for label, sh in rep.shifts.items():
        assert abs(sh) <= rep.displacements[label] + slack
        assert rep.gsh <= sh


def test_shift_errors():
    cfg = ControlConfiguration(E2, {"x": (0.0, 0.0)})
    with pytest.raises(EmptyConfiguration):
        ControlConfiguration(E2, {})
    with pytest.raises(EmptyConfiguration):
        shift_report(cfg, {}, EDirection((1, 0)))
    with pytest.raises(NotClosed):
        shift_report(cfg, {"zz": (1.0, 0.0)}, EDirection((1, 0)))


def test_iterate_examples():
    cfg = ControlConfiguration(E2, {i: (float(i), 0.0) for i in range(9)})
    e = EDirection((1, 0))
    identity = {i: i for i in range(9)}
    assert _iterate_gsh(cfg, identity, e, 4) == 0

    forward = {i: min(i + 1, 8) for i in range(9)}
    assert _iterate_gsh(cfg, forward, e, 3) >= 3 * shift_report(cfg, forward, e).gsh

    # Mixed shifts 1 and 2: the iterate clears the bound with slack.
    cfg2 = ControlConfiguration(E2, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (3.0, 0.0), 3: (6.0, 0.0)})
    hop = {0: 1, 1: 2, 2: 3, 3: 3}
    rep1 = shift_report(cfg2, hop, e)
    assert rep1.gsh == 0.0  # the top label is fixed
    assert _iterate_gsh(cfg2, hop, e, 2) >= 2 * rep1.gsh


def test_strict_contraction_iterate():
    # A genuinely contracting closed map: everything hops one step toward
    # the end along a ray configuration, top absorbs.
    T = CayleyTree(2)
    end = make_word_end((), (1,))
    chain = {i: TreePoint((1,) * i) for i in range(6)}
    cfg = ControlConfiguration(T, chain)
    hop = {i: min(i + 1, 5) for i in range(6)}
    rep = shift_report(cfg, hop, end)
    assert rep.gsh == 0  # 5 is fixed
    moving = {i: i + 1 for i in range(5)}
    rep2 = shift_report(cfg, moving, end)
    assert rep2.gsh == 1 and rep2.is_contraction
    assert _iterate_gsh(cfg, hop, end, 3) >= 3 * rep.gsh


def test_equivariance_examples():
    e = EDirection((1, 0))
    cfg = ControlConfiguration(E2, {"x": (0.0, 0.0), "y": (1.0, 1.0), "x1": (1.0, 0.0), "y1": (2.0, 1.0)})
    fmap = {"x": "x1", "y": "y1"}
    gsh = shift_report(cfg, fmap, e).gsh
    ident = GroupAction.euclidean_translations(2, {"a": (0, 0)})
    assert _translated_gsh(ident, cfg, fmap, "a", e) == gsh

    quarter = GroupAction(
        E2, {"r": EuclideanIsometry(((0.0, -1.0), (1.0, 0.0)), (0.0, 0.0))}
    )
    assert abs(_translated_gsh(quarter, cfg, fmap, "r", e) - gsh) <= 1e-9

    free = GroupAction.free_group(2)
    T = free.space
    cfgT = ControlConfiguration(T, {"x": TreePoint(()), "y": TreePoint((2,)), "x1": TreePoint((1,))})
    fT = {"x": "x1", "y": "x"}
    end = make_word_end((), (1,))
    assert _translated_gsh(free, cfgT, fT, "ab", end) == shift_report(cfgT, fT, end).gsh


def test_shift_checks_check_each_argument_once(monkeypatch):
    # The configuration's points are checked when it is built; a shift
    # report, of a map or of its iterate, checks the end once and no point
    # that it reads by its label.
    free = GroupAction.free_group(2)
    cfg = ControlConfiguration(free.space, {i: TreePoint(w) for i, w in enumerate([(), (1,), (2,), (1, 1), (-2,)])})
    fmap = {i: (i + 1) % 5 for i in range(5)}
    end = make_word_end((2,), (1,))
    counts = collections.Counter()
    for cls, method in ((CayleyTree, "check_point"), (CayleyTree, "check_boundary")):
        original = getattr(cls, method)
        monkeypatch.setattr(cls, method, lambda *args, m=method, f=original: counts.update([m]) or f(*args))
    shift_report(cfg, fmap, end)
    assert dict(counts) == {"check_boundary": 1}
    counts.clear()
    _iterate_gsh(cfg, fmap, end, 3)
    assert dict(counts) == {"check_boundary": 1}


def test_local_busemann_audit_spec_examples():
    # Same endpoint: the left side vanishes, the bound is trivially strict.
    rep = local_busemann_audit(E2, (0.0, 0.0), 1.0, 0.1, EDirection((1, 0)), EDirection((1, 0)), samples=20, seed=0)
    assert rep.passed
    close = EDirection((math.cos(0.01), math.sin(0.01)))
    rep = local_busemann_audit(E2, (0.0, 0.0), 1.0, 0.1, EDirection((1, 0)), close, samples=50, seed=0)
    assert rep.passed and rep.worst_slack > 0
    H2 = HyperbolicPlane()
    rep = local_busemann_audit(H2, 1j, 1.0, 0.1, H2_INFINITY, F(1000), samples=50, seed=0)
    assert rep.passed
    T = HnnTree(2)
    rep = local_busemann_audit(T, T.origin(), F(2), F(1, 3), HnnUp(), make_end_down(), samples=20, seed=0)
    assert rep.passed and rep.worst_slack > 0


@pytest.mark.parametrize("samples", [0, 1, 20])
def test_local_busemann_audit_stops_at_the_points_it_keeps(samples, monkeypatch):
    # Its points are the first `samples` within r of the seeded stream,
    # among the first 2 `samples` drawn; it draws and measures no more.  At
    # r = 1/2 on the HNN tree, 32 of the first 40 points lie within r.
    T = HnnTree(2)
    c, r = T.origin(), F(1, 2)
    ends = (HnnUp(), make_end_down())
    points = stream_points(T, c, 2 * samples, radius=float(r), seed=5)
    kept = [i for i, p in enumerate(points) if T.distance(c, p) <= r][:samples]
    drawn = []
    sample_point = TreeModel.sample_point
    monkeypatch.setattr(TreeModel, "sample_point", lambda self, *args: drawn.append(1) or sample_point(self, *args))
    rep = local_busemann_audit(T, c, r, F(1, 3), *ends, samples=samples, seed=5)
    assert len(drawn) == (kept[-1] + 1 if samples and len(kept) == samples else 2 * samples)
    assert rep.samples == len(kept) == samples
    rays = [sp.ray_from(T, c, e) for e in ends]
    slacks = [rep.details["rhs"] - abs(rays[0].busemann(points[i]) - rays[1].busemann(points[i])) for i in kept]
    assert rep.worst_slack == min(slacks, default=None)


def test_local_busemann_audit_rejects_a_negative_sample_count():
    with pytest.raises(ValueError, match="samples must be nonnegative, got -1"):
        local_busemann_audit(E2, (0.0, 0.0), 1.0, 0.1, EDirection((1, 0)), EDirection((0, 1)), samples=-1, seed=0)


def make_end_down():
    from cat0sigma.trees import HnnDown

    return HnnDown(F(1))


def test_angle_estimate_audit_examples():
    rep = angle_estimate_audit(E2, (0.0, 0.0), EDirection((1, 0)), EDirection((0, 1)), [1, 2, 5, 10])
    assert rep.passed
    assert abs(rep.worst_slack) < 1e-9  # flat case: equality

    H2 = HyperbolicPlane()
    rep = angle_estimate_audit(H2, 1j, F(0), F(1), [1.0, 2.0, 5.0, 10.0])
    assert rep.passed and rep.worst_slack > 0.3  # strict for non-opposite rays

    T = CayleyTree(2)
    rep = angle_estimate_audit(T, TreePoint(()), make_word_end((), (1,)), make_word_end((), (2,)), [F(1), F(2), F(3)])
    assert rep.passed
    # A point passed as an end has no chord bound.
    with pytest.raises(WrongSpace, match=f"^{re.escape('boundary of H2 is R plus infinity, got 2j')}$"):
        angle_estimate_audit(H2, 1j, F(0), 2j, [1])
    with pytest.raises(ValueError, match="^ends of a cayley tree are word ends$"):
        angle_estimate_audit(T, TreePoint(()), make_word_end((), (1,)), TreePoint((1,)), [F(1)])
    hnn = HnnTree(2)
    with pytest.raises(ValueError, match="^HNN tree ends are HnnUp or HnnDown$"):
        angle_estimate_audit(hnn, hnn.origin(), HnnUp(), hnn.origin(), [F(1)])
