"""Invariance relations for the m-function: the same MFPR question asked in
other coordinates gets the same answer.

Each relation maps an MFPR input (rank k, complement rays, splitting
character chi) to another one whose lengths and degree table must be
identical:

- a unimodular integer matrix applied to the rays and to chi, a change of
  basis of Hom(G, R) that keeps integer rays primitive;
- a positive rational multiple of chi, which names the same sphere point;
- a shuffled ray order.

One more relation changes the answer in a known way: chi -> -chi swaps
m(chi) and m(-chi), so the group and stabilizer lengths stay and the
smaller of the two connectivity lengths is the stabilizer length.

The transforms are written here and share no code with the library, so
they check the m-function without a second implementation of it.  They run
in ranks 1-8; in ranks 5-8 no other oracle checks an m-value.
"""

import io
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from cat0sigma import cli
from cat0sigma.sphere import Character, SpherePoint
from cat0sigma.treesigma import MFPRData, mfpr_lengths, sigma_table

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _unimodular(k, rng):
    """A k x k integer matrix of determinant +-1: the identity after a few
    random row additions, swaps and sign changes."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        move = rng.choice(["add", "swap", "negate"]) if k > 1 else "negate"
        if move == "add":
            factor = rng.choice([-2, -1, 1, 2])
            m[i] = [a + factor * b for a, b in zip(m[i], m[j])]
        elif move == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def _times(matrix, vector):
    return [sum(a * b for a, b in zip(row, vector)) for row in matrix]


def _change_basis(rays, chi, rng):
    u = _unimodular(len(chi), rng)
    return [_times(u, a) for a in rays], _times(u, chi)


def _scale(rays, chi, rng):
    factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return rays, [factor * c for c in chi]


def _shuffle(rays, chi, rng):
    rays = list(rays)
    rng.shuffle(rays)
    return rays, chi


RELATIONS = {"basis": _change_basis, "scale": _scale, "shuffle": _shuffle}


def _primitive(vector):
    g = math.gcd(*vector)
    return tuple(c // g for c in vector)


def _instance(k, rng):
    """Distinct primitive rays (at most 8, or 10 from rank 5 on), often
    closed into a positive circuit by the negative of a sum of some of them,
    and a chi that is zero, random, a multiple of a ray, or a positive
    combination of rays."""
    size = rng.randint(0, 7 if k < 5 else 9)
    rays = {_primitive(v) for v in ([rng.randint(-2, 2) for _ in range(k)] for _ in range(size)) if any(v)}
    rays = sorted(rays)
    if rays and rng.random() < 0.7:
        closing = [-sum(c) for c in zip(*rng.sample(rays, rng.randint(1, min(k, len(rays)))))]
        if any(closing):
            rays = sorted(set(rays) | {_primitive(closing)})
    kind = rng.choice(["zero", "random", "ray", "cone"]) if rays else "zero"
    if kind == "zero":
        chi = [Fraction(0)] * k
    elif kind == "random":
        chi = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
    elif kind == "ray":
        chi = [Fraction(rng.choice([-2, -1, 1, 3]), 2) * c for c in rng.choice(rays)]
    else:
        terms = rng.sample(rays, rng.randint(1, min(k, len(rays))))
        chi = [sum(Fraction(rng.randint(1, 3)) * a[j] for a in terms) for j in range(k)]
    return rays, chi


def _answer(k, rays, chi):
    summary = mfpr_lengths(MFPRData(k, [SpherePoint(tuple(a)) for a in rays], Character(chi)))
    return summary, sigma_table(summary)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("k", range(1, 9))
def test_mfpr_lengths_and_table_are_invariant(k, relation):
    rng = random.Random(f"invariance {relation} {k}")
    for _ in range(40 if k < 5 else 24):
        rays, chi = _instance(k, rng)
        moved_rays, moved_chi = RELATIONS[relation](rays, chi, rng)
        assert _answer(k, moved_rays, moved_chi) == _answer(k, rays, chi), (rays, chi)


@pytest.mark.parametrize("k", range(1, 9))
def test_negating_chi_keeps_both_finiteness_lengths(k):
    # chi -> -chi swaps m(chi) and m(-chi): fl_group = m(0) and fl_stabilizers
    # = min(m(chi), m(-chi), m(0)) stay, and the smaller of the two
    # connectivity lengths, min(m(chi), m(0)) and min(m(-chi), m(0)), is the
    # stabilizer length.
    rng = random.Random(f"invariance negate {k}")
    for _ in range(40 if k < 5 else 24):
        rays, chi = _instance(k, rng)
        summary, _ = _answer(k, rays, chi)
        negated, _ = _answer(k, rays, [-c for c in chi])
        assert (negated.fl_group, negated.fl_stabilizers) == (summary.fl_group, summary.fl_stabilizers), (rays, chi)
        assert min(summary.cl_character, negated.cl_character) == summary.fl_stabilizers, (rays, chi)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue()


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_mfpr_goldens_are_invariant_through_the_command_line(relation, tmp_path):
    # Every committed mfpr golden, its input transformed: the same bytes.
    cases = json.loads((GOLDEN / "mfpr_stdout.json").read_text(encoding="utf-8"))
    for case in cases:
        data = json.loads((GOLDEN / case["input"]).read_text(encoding="utf-8"))
        chi = [Fraction(c) for c in data["splitting_character"]]
        rng = random.Random(f"golden {relation} {case['input']} {case['args']}")
        rays, chi = RELATIONS[relation](data["complement"], chi, rng)
        path = tmp_path / case["input"]
        moved = {"k": data["k"], "complement": rays, "splitting_character": [str(c) for c in chi]}
        path.write_text(json.dumps(moved), encoding="utf-8")
        assert _run(["mfpr", "--data", str(path)] + case["args"]) == (case["code"], case["stdout"]), case["input"]
