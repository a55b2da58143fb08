"""Piecewise descriptions of the dynamical invariant for cocompact tree
actions, and the length calculus for metabelian groups of finite Prufer
rank (MFPR groups).

For a cocompact action on a locally finite tree the dynamical subset of
the degree-n invariant is determined by three lengths: the finiteness
length of the group, the finiteness length of the vertex/edge stabilizer
system, and (when the tree has a fixed end) the connectivity length of the
character measuring the shift toward that end.  The subset is the whole
boundary for small n, collapses to the fixed end in a middle range, and is
empty up to the finiteness length of the group.

For a finitely presented MFPR group all three lengths reduce to the
m-function on the finite rational complement A of the first invariant:
fl(G) = m(0), cl(chi) = min(m(chi), m(0)), and the stabilizer length of an
ascending HNN base is min(m(chi), m(-chi), m(0)).  Infinity is a
first-class value with saturating minimum throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DegreeOutOfRange, InvalidChain
from .jsonio import parse_fraction, parse_int, read_field
from .sphere import (
    Character,
    SpherePoint,
    m_value,
    normalize_ray,
)

INF = math.inf

WHOLE_BOUNDARY = "whole_boundary"
SINGLETON = "singleton"
EMPTY = "empty"


@dataclass(frozen=True)
class GraphOfGroupsSummary:
    """The three lengths steering the piecewise formulas.

    fl_group and fl_stabilizers are finiteness lengths (stabilizers never
    exceed the group); cl_character is the connectivity length of the
    character toward the fixed end and is required exactly when the tree
    has one, squeezed between the other two lengths.
    """

    fl_group: object
    fl_stabilizers: object
    has_fixed_end: bool
    cl_character: Optional[object] = None

    def __post_init__(self):
        if self.fl_stabilizers > self.fl_group:
            raise InvalidChain(
                f"stabilizer length {self.fl_stabilizers} exceeds group length {self.fl_group}"
            )
        if self.has_fixed_end:
            if self.cl_character is None:
                raise InvalidChain("a fixed end requires a connectivity length")
            if not (self.fl_stabilizers <= self.cl_character <= self.fl_group):
                raise InvalidChain(
                    f"chain violated: {self.fl_stabilizers} <= {self.cl_character} "
                    f"<= {self.fl_group} fails"
                )


def dynamical_sigma_no_fixed_end(summary: GraphOfGroupsSummary, n: int) -> str:
    """Dynamical subset in degree n for a tree action without fixed end:
    the whole boundary while n is at most the stabilizer length, empty
    beyond it (up to the group's finiteness length)."""
    if summary.has_fixed_end:
        raise InvalidChain("summary declares a fixed end; use the fixed-end formula")
    if n < 0 or n > summary.fl_group:
        raise DegreeOutOfRange(f"degree {n} outside [0, {summary.fl_group}]")
    return WHOLE_BOUNDARY if n <= summary.fl_stabilizers else EMPTY


def dynamical_sigma_fixed_end(summary: GraphOfGroupsSummary, n: int) -> str:
    """Dynamical subset in degree n for a tree action with exactly one
    fixed end: whole boundary up to the stabilizer length, the fixed end
    alone up to the connectivity length of its character, empty beyond."""
    if not summary.has_fixed_end:
        raise InvalidChain("summary declares no fixed end; use the no-fixed-end formula")
    if n < 0 or n > summary.fl_group:
        raise DegreeOutOfRange(f"degree {n} outside [0, {summary.fl_group}]")
    if n <= summary.fl_stabilizers:
        return WHOLE_BOUNDARY
    if n <= summary.cl_character:
        return SINGLETON
    return EMPTY


def sigma_table(summary: GraphOfGroupsSummary, n_max: Optional[int] = None) -> list[tuple[int, str]]:
    """Rows (n, value) for n = 0..n_max (default: the group length when
    finite)."""
    if n_max is None:
        if summary.fl_group == INF:
            raise DegreeOutOfRange("unbounded table: pass n_max for infinite fl")
        n_max = int(summary.fl_group)
    fn = dynamical_sigma_fixed_end if summary.has_fixed_end else dynamical_sigma_no_fixed_end
    return [(n, fn(summary, n)) for n in range(0, n_max + 1)]


# ---------------------------------------------------------------------------
# MFPR groups


@dataclass(frozen=True)
class MFPRData:
    """A finitely generated MFPR group presented by what the formulas need:
    the rank k of its character sphere, the finite rational complement A of
    the first invariant, and the splitting character of a rooted tree
    decomposition (zero on the base subgroup, -1 on the stable letter)."""

    k: int
    complement: tuple
    splitting_character: Character

    def __init__(self, k: int, complement: Iterable[SpherePoint], splitting_character: Character):
        if k < 1:
            raise ValueError(f"the character sphere has rank k >= 1, got {k}")
        comp = tuple(sorted(set(complement), key=lambda p: p.primitive))
        for p in comp:
            if p.k != k:
                raise ValueError(f"complement point rank {p.k} != {k}")
        if splitting_character.k != k:
            raise ValueError("splitting character has wrong rank")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "complement", comp)
        object.__setattr__(self, "splitting_character", splitting_character)

    def has_antipodal_pair(self) -> bool:
        """The finite-presentability convention forbids diametrically
        opposite points in the complement; True when the convention fails."""
        points = set(self.complement)
        return any(p.antipode() in points for p in points)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "complement": [list(p.primitive) for p in self.complement],
            "splitting_character": [str(c) for c in self.splitting_character.coords],
        }

    @staticmethod
    def from_json(data) -> "MFPRData":
        complement = read_field(data, "complement", list)
        for v in complement:
            if not isinstance(v, list):
                raise ValueError(f"a complement point is a list of integers, got {v!r}")
        pts = [SpherePoint(tuple(parse_int(c) for c in v)) for v in complement]
        chi = Character(parse_fraction(c) for c in read_field(data, "splitting_character", list))
        return MFPRData(parse_int(read_field(data, "k")), pts, chi)


@dataclass(frozen=True)
class MFPRLengths:
    fl_group: object
    cl_character: object
    fl_base: object


def mfpr_lengths(data: MFPRData) -> MFPRLengths:
    """The three lengths of an MFPR splitting, through the m-function:
    fl(G) = m(0), cl(chi) = min(m(chi), m(0)), and the base group's length
    min(m(chi), m(-chi), m(0))."""
    chi = data.splitting_character
    m_zero = m_value(data.complement, Character.zero(data.k)).value
    m_chi = m_value(data.complement, chi).value
    m_neg = m_value(data.complement, -chi).value
    return MFPRLengths(
        fl_group=m_zero,
        cl_character=min(m_chi, m_zero),
        fl_base=min(m_chi, m_neg, m_zero),
    )


def mfpr_summary(lengths: MFPRLengths) -> GraphOfGroupsSummary:
    return GraphOfGroupsSummary(
        fl_group=lengths.fl_group,
        fl_stabilizers=lengths.fl_base,
        has_fixed_end=True,
        cl_character=lengths.cl_character,
    )


def dynamical_sigma_mfpr(lengths: MFPRLengths, n: int) -> str:
    """Dynamical subset in degree n for the rooted tree of an MFPR
    splitting with these lengths (from ``mfpr_lengths``): whole boundary
    while n is at most min(m(chi), m(-chi), m(0)), the fixed end alone
    while n is at most min(m(chi), m(0)), empty up to m(0).  Coincides with
    the fixed-end formula applied to ``mfpr_summary(lengths)``."""
    if n < 0 or n > lengths.fl_group:
        raise DegreeOutOfRange(f"degree {n} outside [0, {lengths.fl_group}]")
    if n <= lengths.fl_base:
        return WHOLE_BOUNDARY
    if n <= lengths.cl_character:
        return SINGLETON
    return EMPTY


# ---------------------------------------------------------------------------
# Brown's theorem as a consistency check


@dataclass(frozen=True)
class BrownReport:
    consistent: bool
    missing: tuple
    uncovered: tuple


def brown_consistency(A: Iterable[SpherePoint], tree_characters: Sequence[Character]) -> BrownReport:
    """Check that the negatives of the tree characters land in A (Brown's
    theorem: the complement of the first invariant consists of exactly
    these rays), and report points of A not covered by any of them."""
    points = set(A)
    hit = set()
    missing = []
    for chi in tree_characters:
        ray = normalize_ray(-chi)
        if ray in points:
            hit.add(ray)
        else:
            missing.append(ray)
    uncovered = tuple(sorted(points - hit, key=lambda p: p.primitive))
    return BrownReport(not missing, tuple(missing), uncovered)


# ---------------------------------------------------------------------------
# Seeded instance generation (for property suites; no claim is made about
# which length gaps are realized by actual groups)


def generate_sphere_points(rng: random.Random, k: int, count: int, forbid_antipodal: bool = True) -> list[SpherePoint]:
    points: list[SpherePoint] = []
    attempts = 0
    while len(points) < count and attempts < 400:
        attempts += 1
        vec = tuple(rng.randrange(-3, 4) for _ in range(k))
        if all(c == 0 for c in vec):
            continue
        p = normalize_ray(Character(vec))
        if p in points:
            continue
        if forbid_antipodal and p.antipode() in points:
            continue
        points.append(p)
    return points


def generate_mfpr_data(rng: random.Random, k_max: int = 3, size_max: int = 6) -> MFPRData:
    """Random MFPR instance: rational complement without antipodal pairs
    and a splitting character whose negative ray lies in the complement
    (as Brown's theorem requires of a genuine splitting)."""
    k = rng.randrange(1, k_max + 1)
    size = rng.randrange(1, size_max + 1)
    points = generate_sphere_points(rng, k, size)
    if not points:
        points = [SpherePoint(tuple(1 if i == 0 else 0 for i in range(k)))]
    target = rng.choice(points)
    scale = rng.choice([1, 1, 2, Fraction(1, 2), Fraction(3, 2)])
    chi = Character(tuple(-scale * c for c in target.primitive))
    return MFPRData(k, points, chi)


def generate_summary(rng: random.Random, allow_infinite: bool = False) -> GraphOfGroupsSummary:
    values = list(range(0, 7)) + ([INF] if allow_infinite else [])
    fl_group = rng.choice(values)
    finite_cap = 6 if fl_group == INF else fl_group
    fl_stab = rng.choice([v for v in range(0, int(finite_cap) + 1)])
    if rng.random() < 0.5:
        return GraphOfGroupsSummary(fl_group, fl_stab, False)
    if fl_group == INF:
        cl = rng.choice([v for v in range(fl_stab, 7)] + [INF])
    else:
        cl = rng.randrange(fl_stab, int(fl_group) + 1)
    return GraphOfGroupsSummary(fl_group, fl_stab, True, cl)
