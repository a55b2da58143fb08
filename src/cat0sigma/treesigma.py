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
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DegreeOutOfRange, InvalidChain
from .jsonio import parse_fraction, parse_int, read_field
from .sphere import Character, SpherePoint, _ray_count, m_value, normalize_ray

INF = math.inf

WHOLE_BOUNDARY = "whole_boundary"
SINGLETON = "singleton"
EMPTY = "empty"

# Rows of one degree table (tree-sigma and mfpr with --table).
TABLE_BUDGET = 10_000


def _length(value):
    """A length from JSON: an integer >= 0 or "inf"."""
    if value in ("inf", INF):
        return INF
    n = parse_int(value)
    if n < 0:
        raise ValueError(f"a length is an integer >= 0 or \"inf\", got {value!r}")
    return n


@dataclass(frozen=True)
class GraphOfGroupsSummary:
    """The three lengths steering the piecewise formula.

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

    @staticmethod
    def from_json(data) -> "GraphOfGroupsSummary":
        cl = read_field(data, "cl_character", default=None)
        return GraphOfGroupsSummary(
            fl_group=_length(read_field(data, "fl_group")),
            fl_stabilizers=_length(read_field(data, "fl_stabilizers")),
            has_fixed_end=read_field(data, "has_fixed_end", bool),
            cl_character=None if cl is None else _length(cl),
        )


def dynamical_sigma(summary: GraphOfGroupsSummary, n: int) -> str:
    """Dynamical subset in degree n: the whole boundary while n is at most
    the stabilizer length, then the fixed end alone (when the tree has one)
    while n is at most the connectivity length of its character, empty
    beyond, up to the group's finiteness length."""
    if n < 0 or n > summary.fl_group:
        raise DegreeOutOfRange(f"degree {n} outside [0, {summary.fl_group}]")
    if n <= summary.fl_stabilizers:
        return WHOLE_BOUNDARY
    if summary.has_fixed_end and n <= summary.cl_character:
        return SINGLETON
    return EMPTY


def sigma_table(summary: GraphOfGroupsSummary, n_max: Optional[int] = None) -> list[tuple[int, str]]:
    """Rows (n, value) for n = 0..n_max, by default the group length or 8
    when it is infinite; DegreeOutOfRange, first, beyond TABLE_BUDGET rows."""
    if n_max is None:
        n_max = 8 if summary.fl_group == INF else int(summary.fl_group)
    if n_max >= TABLE_BUDGET:
        raise DegreeOutOfRange(f"a table to degree {n_max} exceeds the table budget of {TABLE_BUDGET} rows")
    return [(n, dynamical_sigma(summary, n)) for n in range(0, n_max + 1)]


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
        vectors = {p.primitive for p in self.complement}
        return any(tuple(-c for c in v) in vectors for v in vectors)

    @staticmethod
    def from_json(data) -> "MFPRData":
        complement = read_field(data, "complement", list)
        for v in complement:
            if not isinstance(v, list):
                raise ValueError(f"a complement point is a list of integers, got {v!r}")
        pts = [SpherePoint(tuple(map(parse_int, v))) for v in complement]
        chi = Character(parse_fraction(c) for c in read_field(data, "splitting_character", list))
        return MFPRData(parse_int(read_field(data, "k")), pts, chi)


def mfpr_lengths(data: MFPRData) -> GraphOfGroupsSummary:
    """The lengths of an MFPR splitting, through the m-function: fl(G) =
    m(0), cl(chi) = min(m(chi), m(0)), and the base group's length
    min(m(chi), m(-chi), m(0)) as the stabilizer length.  The rooted tree
    of the splitting has a fixed end.  A zero chi is its own negative, so
    its m-values are m(0), which the checking entry m_value gives.

    For a nonzero chi, chi is normalised once to its primitive vector p,
    and the integer core of the m-function runs for 0, p and -p on the
    complement's vectors, which MFPRData holds sorted, distinct and of
    rank k, so nothing sorts or checks them again."""
    chi = data.splitting_character
    if chi.is_zero:
        m_zero = m_chi = m_neg = m_value(data.complement, chi)
    else:
        rays = [a.primitive for a in data.complement]
        p = normalize_ray(chi).primitive
        m_zero, m_chi, m_neg = (_ray_count(rays, q) - 1 for q in (None, p, tuple(-c for c in p)))
    return GraphOfGroupsSummary(
        fl_group=m_zero,
        fl_stabilizers=min(m_chi, m_neg, m_zero),
        has_fixed_end=True,
        cl_character=min(m_chi, m_zero),
    )
