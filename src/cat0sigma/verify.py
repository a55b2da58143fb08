"""Seeded property suites: every desk-checkable claim, run in bulk.

Each suite draws its instances from a seeded generator, so a (suite, seed)
pair is fully reproducible, and returns a report with one line per checked
property.  The command line exposes these through ``verify --suite``.
Case counts and the tolerance GLOBAL_TOL are fixed, so the acceptance
tests run exactly what ``verify`` runs.  The suites draw their points from
the unchecked seeded stream and compute with the space methods and the
rays' Busemann values, since every point, end and ray they use is built by
the library itself.  What only the suites ask for lives here: their draws
of ends, sphere points, MFPR instances and length records, and their check
helpers (the Busemann cocycle, iterates and translates of shift maps, the
fixed axis ends of a Cayley word, the cusps of the modular group).

``run_suite`` spreads the suites of SPLIT_UNITS over the usable CPUs.
The units of six of them (the spaces of busemann, horoball, tits, shift
and audits, the actions of character and of the shift equivariance loop,
and the HNN indices of character) seed their own draws from the seed and
their index or name.  sphere and treesigma draw their cases from one
generator, so every process draws the whole case list in one order and
keeps its own cases.  Each of up to one process per CPU (at most one per
unit of the suite's largest loop and at most MAX_PROCESSES) runs every
n-th unit of each loop, the suite's ``part=(rank, n)``, and the parent
adds the children's counts to its own, so the report is the one a single
process makes.  sl2z, raag and cocompact take a few milliseconds and run
in one process; so does every suite when one CPU is usable, fork is
missing, a trace or profile hook is set or another thread is alive.
Calling a suite function directly runs it whole, in the calling process.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import actions as ac
from . import spaces as sp
from . import treesigma as ts
from .exactlp import strictly_representable_fm
from .raag import IN, OUT, SimpleGraph, flag_verdict
from .sphere import Character, SpherePoint, m_value, normalize_ray
from .trees import CayleyTree, HnnTree, TreePoint, make_word_end
from .words import cyclic_reduce, invert_word

GLOBAL_TOL = sp.GLOBAL_TOL


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    worst: Optional[float] = None

    def record(self, ok: bool, err: Optional[float] = None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
        if err is not None:
            err = float(err)
            if self.worst is None or err > self.worst:
                self.worst = err

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "worst_error": self.worst,
            "note": "",
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list = field(default_factory=list)
    processes: int = 1  # the processes that ran it, set by run_suite; to_json leaves it out

    def check(self, name: str) -> CheckResult:
        c = CheckResult(name)
        self.checks.append(c)
        return c

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


def _suite_spaces():
    return [
        sp.EuclideanSpace(2),
        sp.EuclideanSpace(3),
        sp.HyperbolicPlane(),
        CayleyTree(2),
        HnnTree(2),
        HnnTree(3),
    ]


def _share(units, part: tuple[int, int]):
    """The units of one loop (a list or tuple) that part = (rank, n) runs:
    every n-th, from the rank-th on."""
    rank, n = part
    return units[rank::n]


def _random_ends(M, count: int, seed: int) -> list:
    """The first count ends of the seeded stream of boundary points of M."""
    rng = random.Random(str((seed, M.name, "ends")))
    return [M.sample_end(rng) for _ in range(count)]


def _random_ray(M, seed: int):
    base = next(sp.unchecked_point_stream(M, M.origin(), 2.0, seed))
    end = _random_ends(M, 1, seed)[0]
    return M.ray_from(base, end)


def _rays_differ_by_a_constant(M, ray1, ray2, seed: int) -> bool:
    """Whether beta_ray1 - beta_ray2 stays within GLOBAL_TOL of its value at
    ray2's base on ten seeded points around ray1's base, as it does for two
    rays to one end."""
    c = ray1.busemann(ray2.base) - ray2.busemann(ray2.base)
    worst = 0.0
    for p in itertools.islice(sp.unchecked_point_stream(M, ray1.base, 3.0, seed), 10):
        dev = abs((ray1.busemann(p) - ray2.busemann(p)) - c)
        worst = max(worst, float(dev))
    return worst <= GLOBAL_TOL


def euclidean_limit_estimate(M, ray, b) -> float:
    """Extrapolated defining limit of the Busemann function on E^k.

    The gap t - d(b, ray(t)) approaches the limit like c/t, far too slowly
    to hit 1e-9 directly in binary64, so two Richardson steps on the metric
    values at t, 2t, 4t remove the 1/t and 1/t^2 terms.  Uses distances
    only, never the closed form.
    """
    t = 5e3 * (1.0 + M.distance(ray.base, b))
    v1 = t - M.distance(b, ray.point_at(t))
    v2 = 2 * t - M.distance(b, ray.point_at(2 * t))
    v3 = 4 * t - M.distance(b, ray.point_at(4 * t))
    return (8.0 * v3 - 6.0 * v2 + v1) / 3.0


# ---------------------------------------------------------------------------
# Busemann suite


def suite_busemann(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("busemann", seed)
    agree = report.check("closed form agrees with the defining limit")
    monotone = report.check("limit sequence is nondecreasing and bounded")
    bound = report.check("busemann(b) <= d(base, b), equality on the ray")
    lipschitz = report.check("busemann is 1-Lipschitz")
    offset = report.check("asymptotic rays differ by a constant")
    degenerate = report.check("degenerate rays: constant after mu, ball horoballs")

    for M in _share(_suite_spaces(), part):
        exact = M.exact
        for i in range(100):
            ray = _random_ray(M, seed * 1000 + i)
            b = next(sp.unchecked_point_stream(M, M.origin(), 3.0, seed * 7 + i))
            closed = ray.busemann(b)
            top = M.distance(ray.base, b)

            if exact:
                horizon = int(top) + 4
                audit = ray.limit_audit(b, list(range(horizon + 1)))
                gap = abs(audit[-1][1] - closed)
                agree.record(gap == 0, float(gap))
            elif not M.flat:
                audit = ray.limit_audit(b, [1, 2, 5, 10, 20, 40])
                gap = abs(audit[-1][1] - closed)
                agree.record(gap <= GLOBAL_TOL, gap)
            else:
                audit = ray.limit_audit(b, [1, 2, 5, 10, 50, 200])
                est = euclidean_limit_estimate(M, ray, b)
                gap = abs(est - closed)
                agree.record(gap <= GLOBAL_TOL, gap)

            values = [v for _, v in audit]
            slack = M.slack(1e-12)
            mono_ok = all(values[j] <= values[j + 1] + slack for j in range(len(values) - 1))
            monotone.record(mono_ok and all(v <= top + slack for v in values))

            bound.record(closed <= top + M.slack(GLOBAL_TOL))
            on_ray = ray.point_at(Fraction(3) if exact else 3.0)
            d_on = M.distance(ray.base, on_ray)
            beta_on = ray.busemann(on_ray)
            bound.record(abs(beta_on - d_on) <= M.slack(GLOBAL_TOL), abs(float(beta_on - d_on)))
            if exact:
                # Equality characterizes ray points exactly on trees.
                hits_ray = ray.point_at(top) == b
                bound.record((closed == top) == hits_ray)

            b2 = next(sp.unchecked_point_stream(M, M.origin(), 3.0, seed * 13 + i))
            lhs = abs(closed - ray.busemann(b2))
            rhs = M.distance(b, b2)
            lipschitz.record(lhs <= rhs + M.slack(GLOBAL_TOL), float(lhs - rhs))

            base2 = next(sp.unchecked_point_stream(M, M.origin(), 2.0, seed * 17 + i))
            ray2 = M.ray_from(base2, ray.end)
            offset.record(_rays_differ_by_a_constant(M, ray, ray2, seed))

            # Degenerate ray toward an interior point.
            tip = next(sp.unchecked_point_stream(M, M.origin(), 2.0, seed * 19 + i))
            dray = M.ray_from(b2, tip)
            mu = dray.mu
            horizon = [mu, mu + 1, mu + 3]
            vals = [v for _, v in dray.limit_audit(b, horizon)]
            const_ok = max(vals) - min(vals) <= M.slack(1e-12)
            beta_deg = dray.busemann(b)
            ball_ok = abs(beta_deg - (mu - M.distance(b, tip))) <= M.slack(GLOBAL_TOL)
            degenerate.record(const_ok and ball_ok)
    return report


def suite_horoball(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("horoball", seed)
    nesting = report.check("horoballs nest as the level grows")
    balls = report.check("horoball contains the balls along its ray")
    # The closed horoball of a ray at level s is where its Busemann value is >= s.
    for M in _share(_suite_spaces(), part):
        exact = M.exact
        for i in range(40):
            rng = random.Random(str((seed, "horoball", M.name, i)))
            ray = _random_ray(M, seed * 31 + i)
            s1 = Fraction(rng.randrange(0, 3)) if exact else rng.uniform(0.0, 2.0)
            s2 = s1 + (Fraction(1) if exact else rng.uniform(0.1, 1.5))
            for p in itertools.islice(sp.unchecked_point_stream(M, ray.point_at(s2 + 1), 2.5, seed + i), 5):
                beta = ray.busemann(p)
                if beta >= s2:
                    nesting.record(beta >= s1)
            t = s1 + (Fraction(2) if exact else 2.0)
            center = ray.point_at(t)
            radius = float(t - s1)
            for p in itertools.islice(sp.unchecked_point_stream(M, center, radius * 0.9, seed + i), 5):
                if M.distance(center, p) <= (t - s1) - M.slack(1e-9):
                    balls.record(ray.busemann(p) >= s1)
    return report


# ---------------------------------------------------------------------------
# Characters and the cocycle


def _character_actions():
    """(action, fixed end, label) triples where every generator fixes the end."""
    out = []
    out.append((ac.GroupAction.euclidean_translations(2, {"a": (1, 0), "b": (Fraction(1, 2), 2)}), sp.EDirection((0.6, 0.8)), "E2-translations"))
    out.append((ac.GroupAction.moebius({"p": [[1, 1], [0, 1]], "h": [[2, 0], [0, Fraction(1, 2)]]}), sp.H2_INFINITY, "H2-upper-triangular"))
    out.append((ac.GroupAction.ascending_hnn(2), ac.HnnUp(), "hnn-2"))
    out.append((ac.GroupAction.ascending_hnn(3), ac.HnnUp(), "hnn-3"))
    out.append((ac.GroupAction.cyclic_on_cayley_tree(2, (1, 2)), make_word_end((), (1, 2)), "cayley-axis"))
    return out


def _random_word(rng: random.Random, names: list, length: int) -> str:
    return "".join(rng.choice(names + [n.upper() for n in names]) for _ in range(length))


def _psi(action, e, word: str, a):
    """The Busemann cocycle psi_e(g, a) = beta(ga) - beta(a) along the ray
    from a to e, for every word g, whether or not it fixes e."""
    ray = action.space.ray_from(a, e)
    return ray.busemann(action.apply(word, a)) - ray.busemann(a)


def suite_character(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("character", seed)
    additive = report.check("endpoint character is additive on words")
    basefree = report.check("endpoint character ignores the base point")
    cocycle = report.check("Busemann cocycle identity")
    action_law = report.check("boundary action is a left action on words")
    hnn_exact = report.check("ascending HNN: base generators 0, stable letter -1")

    for action, end, label in _share(_character_actions(), part):
        M = action.space
        names = sorted(action.generators)
        rng = random.Random(str((seed, label)))
        base = M.origin()
        for i in range(100):
            g = _random_word(rng, names, rng.randrange(1, 4))
            h = _random_word(rng, names, rng.randrange(1, 4))
            chi = ac.character_at_end(action, end, base, [g, h, g + h])
            err = abs(chi[g + h] - (chi[g] + chi[h]))
            additive.record(err <= M.slack(GLOBAL_TOL), float(err))

            base2 = next(sp.unchecked_point_stream(M, base, 2.0, seed * 3 + i))
            err = abs(chi[g] - ac.character_at_end(action, end, base2, [g])[g])
            basefree.record(err <= M.slack(GLOBAL_TOL), float(err))

    cocycle_actions = [
        (ac.GroupAction.euclidean_translations(2, {"a": (1, 0), "b": (0, 1)}), "E2"),
        (
            ac.GroupAction.moebius({"s": [[0, -1], [1, 0]], "p": [[1, 1], [0, 1]]}),
            "H2-modular",
        ),
        (ac.GroupAction.free_group(2), "F2"),
        (ac.GroupAction.ascending_hnn(2), "hnn"),
    ]
    for action, label in _share(cocycle_actions, part):
        M = action.space
        names = sorted(action.generators)
        rng = random.Random(str((seed, "cocycle", label)))
        for i in range(100):
            e = _random_ends(M, 1, seed * 11 + i)[0]
            a = next(sp.unchecked_point_stream(M, M.origin(), 2.0, seed * 5 + i))
            g = _random_word(rng, names, rng.randrange(1, 3))
            h = _random_word(rng, names, rng.randrange(1, 3))
            ha = action.apply(h, a)
            lhs = _psi(action, e, g + h, a)
            rhs = _psi(action, e, g, ha) + _psi(action, e, h, a)
            err = abs(lhs - rhs)
            cocycle.record(err <= M.slack(GLOBAL_TOL), float(err))

            e_gh = action.boundary_apply(g + h, e)
            e_then = action.boundary_apply(g, action.boundary_apply(h, e))
            action_law.record(M.boundary_equal(e_gh, e_then))

    for index in _share((2, 3, 5), part):
        action = ac.GroupAction.ascending_hnn(index)
        base = action.space.origin()
        up = ac.HnnUp()
        expected = {"a": 0, "t": -1, "T": 1, "ata": -1}
        chi = ac.character_at_end(action, up, base, list(expected))
        for word, value in expected.items():
            hnn_exact.record(chi[word] == value)
    return report


# ---------------------------------------------------------------------------
# Shift calculus


def _random_configuration(M, size: int, seed: int):
    pts = itertools.islice(sp.unchecked_point_stream(M, M.origin(), 3.0, seed), size)
    return ac.ControlConfiguration(M, {f"x{i}": p for i, p in enumerate(pts)})


def _iterate_gsh(cfg, fmap: dict, e, m: int):
    """gsh toward e of the m-th iterate of a map of labels to labels of its
    own domain."""
    power = {x: x for x in fmap}
    for _ in range(m):
        power = {x: fmap[y] for x, y in power.items()}
    return ac.shift_report(cfg, power, e).gsh


def _translated_gsh(action, cfg, fmap: dict, word: str, e):
    """gsh toward g e of a map of labels to labels on the configuration
    moved by the word g: each label's point and image are moved."""
    moved = ac.ControlConfiguration(cfg.space, {x: action.apply(word, p) for x, p in cfg.points.items()})
    return ac.shift_report(moved, fmap, action.boundary_apply(word, e)).gsh


def suite_shift(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("shift", seed)
    in_type = report.check("|shift| <= displacement holds in-type")
    iterate = report.check("gsh of the m-th iterate >= m gsh")
    equivariant = report.check("gsh is equivariant under translation by g")

    for M in _share(_suite_spaces(), part):
        for i in range(50):
            rng = random.Random(str((seed, "shift", M.name, i)))
            size = rng.randrange(2, 6)
            cfg = _random_configuration(M, size, seed * 23 + i)
            e = _random_ends(M, 1, seed * 29 + i)[0]
            labels = cfg.labels()
            closed_map = {x: rng.choice(labels) for x in labels}
            try:
                rep = ac.shift_report(cfg, closed_map, e)
                in_type.record(all(abs(rep.shifts[x]) <= rep.displacements[x] + M.slack(1e-12) for x in labels))
            except AssertionError:
                in_type.record(False)
                continue
            m = rng.randrange(1, 6)
            gsh_m, bound = _iterate_gsh(cfg, closed_map, e, m), m * rep.gsh
            iterate.record(gsh_m >= bound - M.slack(GLOBAL_TOL), float(bound - gsh_m) if gsh_m < bound else 0.0)

    equivariance_actions = [
        (ac.GroupAction.euclidean_translations(2, {"a": (1, 0), "b": (0, 1)}), "E2"),
        (
            ac.GroupAction(
                sp.EuclideanSpace(2),
                {"r": ac.EuclideanIsometry(((0.0, -1.0), (1.0, 0.0)), (0.5, 0.25))},
            ),
            "E2-rot",
        ),
        (ac.GroupAction.free_group(2), "F2"),
        (ac.GroupAction.ascending_hnn(2), "hnn"),
        (ac.GroupAction.moebius({"p": [[1, 1], [0, 1]]}), "H2"),
    ]
    for action, label in _share(equivariance_actions, part):
        M = action.space
        names = sorted(action.generators)
        for i in range(25):
            rng = random.Random(str((seed, "equi", label, i)))
            cfg = _random_configuration(M, rng.randrange(2, 5), seed * 37 + i)
            e = _random_ends(M, 1, seed * 41 + i)[0]
            labels = cfg.labels()
            fmap = {x: rng.choice(labels) for x in labels}
            word = _random_word(rng, names, rng.randrange(1, 3))
            err = abs(ac.shift_report(cfg, fmap, e).gsh - _translated_gsh(action, cfg, fmap, word, e))
            equivariant.record(err <= M.slack(GLOBAL_TOL), float(err))
    return report


# ---------------------------------------------------------------------------
# Audits (local Busemann comparison and chord-angle estimate)


def suite_audits(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("audits", seed)
    local = report.check("local Busemann comparison bound, strict")
    chord = report.check("chord length <= 2 t sin(angle/2)")

    # The two costliest spaces, H2 and Cayley(2), fall to different ranks of two.
    for M in _share((sp.EuclideanSpace(2), CayleyTree(2), sp.HyperbolicPlane()), part):
        exact = M.exact
        for i in range(100):
            rng = random.Random(str((seed, "audit", M.name, i)))
            c = next(sp.unchecked_point_stream(M, M.origin(), 1.5, seed * 43 + i))
            ends = _random_ends(M, 2, seed * 47 + i)
            if exact:
                r = Fraction(rng.randrange(1, 4))
                eps = Fraction(rng.randrange(1, 5), 4)
            else:
                r = rng.uniform(0.5, 2.0)
                eps = rng.uniform(0.05, 0.5)
            rep = ac.local_busemann_audit(M, c, r, eps, ends[0], ends[1], samples=10, seed=seed + i)
            local.record(rep.passed, float(rep.worst_slack) if rep.worst_slack is not None else None)

            schedule = [1, 2, 5, 10] if not exact else [Fraction(1), Fraction(2), Fraction(5)]
            rep2 = ac.angle_estimate_audit(M, c, ends[0], ends[1], schedule)
            chord.record(rep2.passed, float(rep2.worst_slack) if rep2.worst_slack is not None else None)
    return report


# ---------------------------------------------------------------------------
# Tits distance facts


def suite_tits(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("tits", seed)
    euclid = report.check("Tits distance equals angular distance on E^k")
    discrete = report.check("distinct ends on H2 and trees: Tits distance infinite")
    dominates = report.check("Tits distance >= angular distance everywhere")

    for M in _share(_suite_spaces(), part):
        for i in range(100):
            es = _random_ends(M, 2, seed * 53 + i)
            td = M.tits_distance(es[0], es[1])
            ang = M.angular_distance(es[0], es[1])
            if M.flat:
                euclid.record(abs(td - ang) <= GLOBAL_TOL, abs(td - ang))
            else:
                same = M.boundary_equal(es[0], es[1])
                discrete.record(td == (0.0 if same else math.inf))
            dominates.record(td >= ang - GLOBAL_TOL)
            dominates.record(M.tits_distance(es[0], es[0]) <= GLOBAL_TOL)
    return report


# ---------------------------------------------------------------------------
# m-values: the simplex and the positive-circuit search against the elimination oracle


def enumeration_ray_count(A, chi: Character) -> int | float:
    """Reference for ``sphere.minimal_ray_count``: every subset of
    A - {[chi]}, smallest first, with no LP and no bound on the size, each
    decided by Fourier-Motzkin elimination on the integer vectors, with chi
    scaled once to its primitive vector."""
    pts = sorted(set(A), key=lambda s: s.primitive)
    if chi.is_zero:
        target = (0,) * len(chi.coords)
    else:
        ray = normalize_ray(chi)
        pts = [p for p in pts if p != ray]
        target = ray.primitive
    for size in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            if strictly_representable_fm([s.primitive for s in subset], target):
                return size
    return math.inf


def enumeration_m_value(A, chi: Character) -> int | float:
    """The m-value from ``enumeration_ray_count``: one less, or infinity."""
    return enumeration_ray_count(A, chi) - 1


def _random_sphere_points(rng: random.Random, k: int, count: int, forbid_antipodal: bool = True) -> list[SpherePoint]:
    """Up to count distinct primitive vectors with entries drawn from -3..3,
    in at most 400 draws; repeats (and antipodes, when forbidden) are
    rejected on the integer tuples before any SpherePoint is built.

    count is capped at the size of the pool, so the draws stop once it is
    used up.  By Moebius inversion over the gcd the pool holds
    7^k - 2 * 3^k + 1 primitive vectors (2, 32, 290 and 2240 for k = 1..4),
    and half as many classes when antipodes are forbidden."""
    pool = 7**k - 2 * 3**k + 1
    count = min(count, pool // 2 if forbid_antipodal else pool)
    vectors: list[tuple[int, ...]] = []
    attempts = 0
    while len(vectors) < count and attempts < 400:
        attempts += 1
        vec = tuple(rng.randrange(-3, 4) for _ in range(k))
        g = math.gcd(*vec)
        if g == 0:
            continue
        vec = tuple(c // g for c in vec)
        if vec in vectors or (forbid_antipodal and tuple(-c for c in vec) in vectors):
            continue
        vectors.append(vec)
    return [SpherePoint(v) for v in vectors]


def _random_sphere_case(rng: random.Random) -> tuple[list[SpherePoint], Character, list[SpherePoint]]:
    """A sphere case: ray set, character and one extra ray, drawn in this order."""
    k = rng.randrange(1, 4)
    size = rng.randrange(0, 7)
    pts = _random_sphere_points(rng, k, size, forbid_antipodal=False)
    if rng.random() < 0.3 or not pts:
        chi = Character.zero(k)
    elif rng.random() < 0.5:
        chi = Character(tuple(rng.randrange(-3, 4) for _ in range(k)))
        if chi.is_zero:
            chi = Character(tuple(1 for _ in range(k)))
    else:
        chi = rng.choice(pts).character().scaled(rng.choice([1, 2, Fraction(1, 2)]))
    return pts, chi, _random_sphere_points(rng, k, 1, forbid_antipodal=False)


def suite_sphere(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("sphere", seed)
    # The production path decides finiteness by a simplex, and the oracle
    # enumerates subsets by elimination, as the label says.
    oracle = report.check("m-value by simplex equals m-value by elimination")
    mono = report.check("enlarging the ray set never increases the m-value")
    # One generator draws every case, so each process draws them all and checks its share.
    rng = random.Random(str((seed, "sphere")))
    cases = [_random_sphere_case(rng) for _ in range(200)]
    for pts, chi, extra in _share(cases, part):
        value = m_value(pts, chi)
        via_fm = enumeration_m_value(pts, chi)
        oracle.record(value == via_fm, None if value == via_fm else 1.0)

        bigger = list(dict.fromkeys(list(pts) + extra))
        via_big = m_value(bigger, chi)
        mono.record(via_big <= value)
    return report


# ---------------------------------------------------------------------------
# Piecewise formulas for tree invariants


def _random_mfpr_data(rng: random.Random) -> ts.MFPRData:
    """Random MFPR instance of rank 1-3 with 1-6 complement points: a
    rational complement without antipodal pairs and a splitting character
    whose negative ray lies in the complement (as Brown's theorem requires
    of a genuine splitting).  No claim is made about which length gaps
    actual groups realize."""
    k = rng.randrange(1, 4)
    size = rng.randrange(1, 7)
    points = _random_sphere_points(rng, k, size)
    target = rng.choice(points)
    scale = rng.choice([1, 1, 2, Fraction(1, 2), Fraction(3, 2)])
    chi = Character(tuple(-scale * c for c in target.primitive))
    return ts.MFPRData(k, points, chi)


def _random_summary(rng: random.Random) -> ts.GraphOfGroupsSummary:
    """Random finite lengths up to 6, with a fixed end half of the time."""
    fl_group = rng.choice(range(7))
    fl_stab = rng.choice(range(fl_group + 1))
    if rng.random() < 0.5:
        return ts.GraphOfGroupsSummary(fl_group, fl_stab, False)
    return ts.GraphOfGroupsSummary(fl_group, fl_stab, True, rng.randrange(fl_stab, fl_group + 1))


def mfpr_sigma_oracle(data: ts.MFPRData) -> list:
    """The dynamical subset of an MFPR splitting in degrees 0..min(m(0), 8),
    by the paper's rule read off three m-values and no treesigma
    formula code: the whole boundary while n <= min(m(chi), m(-chi), m(0)),
    the fixed end alone while n <= min(m(chi), m(0)), empty up to m(0)."""
    chi = data.splitting_character
    m_zero = m_value(data.complement, Character.zero(data.k))
    m_chi = m_value(data.complement, chi)
    m_neg = m_value(data.complement, -chi)
    whole, fixed_end = min(m_chi, m_neg, m_zero), min(m_chi, m_zero)
    top = 8 if m_zero == math.inf else min(int(m_zero), 8)
    return [ts.WHOLE_BOUNDARY if n <= whole else ts.SINGLETON if n <= fixed_end else ts.EMPTY for n in range(top + 1)]


def suite_treesigma(seed: int = 0, part: tuple[int, int] = (0, 1)) -> SuiteReport:
    report = SuiteReport("treesigma", seed)
    consistent = report.check("MFPR formula factors through the three lengths")
    partition = report.check("fixed-end ranges partition 0..fl(G)")
    convention = report.check("no antipodal pair forces m(0) >= 2")
    rng = random.Random(str((seed, "treesigma")))
    cases = [(_random_mfpr_data(rng), _random_summary(rng)) for _ in range(100)]
    for data, summary2 in _share(cases, part):
        summary = ts.mfpr_lengths(data)
        expected = mfpr_sigma_oracle(data)
        consistent.record([ts.dynamical_sigma(summary, n) for n in range(len(expected))] == expected)
        if not data.has_antipodal_pair():
            convention.record(summary.fl_group >= 2)

        values = [v for _, v in ts.sigma_table(summary2)]
        expected_whole = int(summary2.fl_stabilizers) + 1
        whole = sum(1 for v in values if v == ts.WHOLE_BOUNDARY)
        empty = sum(1 for v in values if v == ts.EMPTY)
        single = sum(1 for v in values if v == ts.SINGLETON)
        ok = whole == expected_whole and whole + empty + single == len(values)
        if summary2.has_fixed_end:
            ok = ok and single == int(summary2.cl_character) - int(summary2.fl_stabilizers)
        else:
            ok = ok and single == 0
        partition.record(ok)
    return report


# ---------------------------------------------------------------------------
# Fixed examples: the modular group, graph groups, cocompactness


def _sl2z_cusp(e) -> bool:
    """Whether a boundary point of H2 is in the orbit of infinity under
    SL2(Z), the complement of the degree-zero invariant of its action: the
    point is H2_INFINITY, a Fraction, or the triple (a, b, d) for
    a + b sqrt(d) with d > 0, which is rational exactly when b = 0 or d is
    a square."""
    if isinstance(e, tuple):
        _, b, d = e
        return b == 0 or math.isqrt(d) ** 2 == d
    return e == sp.H2_INFINITY or isinstance(e, Fraction)


def suite_sl2z(seed: int = 0) -> SuiteReport:
    report = SuiteReport("sl2z", seed)
    rational = report.check("rationals and infinity are in the complement")
    irrational = report.check("quadratic irrationals are not")
    rng = random.Random(str((seed, "sl2z")))
    rational.record(_sl2z_cusp(sp.H2_INFINITY))
    nonsquares = [2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 31]
    for i in range(20):
        q = Fraction(rng.randrange(-120, 121), rng.randrange(1, 40))
        rational.record(_sl2z_cusp(q))
        d = nonsquares[i % len(nonsquares)]
        a = Fraction(rng.randrange(-10, 11), rng.randrange(1, 7))
        b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 5))
        irrational.record(not _sl2z_cusp((a, b, d)))
    return report


def suite_raag(seed: int = 0) -> SuiteReport:
    report = SuiteReport("raag", seed)
    complete = report.check("complete graphs: diagonal in every degree")
    cycle = report.check("4-cycle: in at 1, out at 2")
    octa = report.check("octahedron: in at 2, out at 3")
    for m in range(1, 7):
        graph = SimpleGraph.complete(m)
        for n in range(0, 6):
            complete.record(flag_verdict(graph, n).membership == IN)
    c4 = SimpleGraph.cycle(4)
    cycle.record(flag_verdict(c4, 1).membership == IN)
    cycle.record(flag_verdict(c4, 2).membership == OUT)
    graph = SimpleGraph.octahedron()
    octa.record(flag_verdict(graph, 2).membership == IN)
    octa.record(flag_verdict(graph, 3).membership == OUT)
    return report


def _fixed_axis_ends(action, word) -> list:
    """The ends of the axis of a nontrivial reduced word on the Cayley tree
    of a free group that every generator of the action fixes: the word is
    c . core . c^-1 with core cyclically reduced, and its axis runs from
    c . core^-inf to c . core^inf."""
    prefix, core = cyclic_reduce(word)
    ends = (make_word_end(prefix, core), make_word_end(prefix, invert_word(core)))
    return [e for e in ends if all(iso.boundary(action.space, e) == e for iso in action.generators.values())]


def suite_cocompact(seed: int = 0) -> SuiteReport:
    report = SuiteReport("cocompact", seed)
    lattice = report.check("integer lattice on the plane is a net at 0.75")
    horoball = report.check("cyclic subgroup of F2 leaves an empty horoball")
    axis = report.check("cyclic subgroup fixes exactly its two axis ends")
    act = ac.GroupAction.euclidean_translations(2, {"a": (1, 0), "b": (0, 1)})
    verdict = ac.cocompactness_witness(act, (0.0, 0.0), 0.75, depth=6, seed=seed)
    lattice.record(isinstance(verdict, ac.NetCertificate))

    sub = ac.GroupAction.cyclic_on_cayley_tree(2, (1,))
    verdict2 = ac.cocompactness_witness(sub, TreePoint(()), 1, depth=6, seed=seed)
    expected_end = make_word_end((), (2,))
    horoball.record(
        isinstance(verdict2, ac.EmptyHoroballWitness) and verdict2.end == expected_end
    )

    axis.record(set(_fixed_axis_ends(sub, (1,))) == {make_word_end((), (1,)), make_word_end((), (-1,))})
    return report


SUITES: dict[str, Callable] = {
    "busemann": suite_busemann,
    "horoball": suite_horoball,
    "character": suite_character,
    "shift": suite_shift,
    "audits": suite_audits,
    "tits": suite_tits,
    "sphere": suite_sphere,
    "treesigma": suite_treesigma,
    "sl2z": suite_sl2z,
    "raag": suite_raag,
    "cocompact": suite_cocompact,
}


# The suites that split, each with the number of units of its largest loop.
SPLIT_UNITS = {
    "busemann": 6, "horoball": 6, "character": 5, "shift": 6, "audits": 3, "tits": 6, "sphere": 200, "treesigma": 100
}
# On a 2-vCPU Xeon a fork and reap cost about 2.6 ms and the costliest
# suite, sphere, 85-100 ms whole, so more processes would gain little: a
# suite runs in at most this many.
MAX_PROCESSES = 6


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def processes(name: str) -> int:
    """How many processes run_suite runs a suite in: one per usable CPU, at
    most one per unit of its largest loop and at most MAX_PROCESSES, but one
    alone when the suite does not split, fork is missing, a trace or profile
    hook would see only the parent's share, or another thread is alive
    (forking would copy it stopped)."""
    hooked = sys.gettrace() is not None or sys.getprofile() is not None
    if name not in SPLIT_UNITS or not hasattr(os, "fork") or hooked or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), SPLIT_UNITS[name], MAX_PROCESSES)


def _fork_share(suite: Callable, seed: int, part: tuple[int, int]) -> tuple[int, int]:
    """Fork a child that runs its part of the suite and writes to a pipe the
    pickled (passed, failed, worst) of each check, or the exception it
    raised; returns the child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        try:
            report = suite(seed=seed, part=part)
            share = [(c.passed, c.failed, c.worst) for c in report.checks]
        except Exception as exc:
            share = exc
        try:
            data = pickle.dumps(share)
            pickle.loads(data)
        except Exception:  # an exception that does not survive the pipe
            data = pickle.dumps(RuntimeError(f"{type(share).__name__}: {share}"))
        with open(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)  # never return into the parent's stack


def _reap(pid: int, r: int) -> bytes:
    """What a child wrote to its pipe, once it has exited."""
    with open(r, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return data


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one suite.  A suite of SPLIT_UNITS runs in processes(name)
    processes: the parent forks one child per extra process, runs its own
    share and adds each child's counts to its own, check by check, so the
    report is the one a single process makes, with the number of processes
    in its ``processes``."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    n = processes(name)
    if n == 1:
        return suite(seed=seed)
    children = []
    try:
        for rank in range(1, n):
            children.append(_fork_share(suite, seed, (rank, n)))
        report = suite(seed=seed, part=(0, n))
    finally:
        sent = [_reap(pid, r) for pid, r in children]
    for data in sent:
        if not data:
            raise RuntimeError(f"a process running part of suite {name!r} ended without a result")
        share = pickle.loads(data)
        if isinstance(share, Exception):
            raise share
        for check, (passed, failed, worst) in zip(report.checks, share, strict=True):
            check.passed += passed
            check.failed += failed
            if worst is not None and (check.worst is None or worst > check.worst):
                check.worst = worst
    report.processes = n
    return report
