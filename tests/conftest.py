import itertools
import os
import random

import pytest

from cat0sigma import spaces as sp
from cat0sigma.trees import CayleyTree, HnnTree, RegularTree


def all_spaces():
    return [
        sp.EuclideanSpace(2),
        sp.EuclideanSpace(3),
        sp.HyperbolicPlane(),
        CayleyTree(2),
        RegularTree(3),
        HnnTree(2),
        HnnTree(3),
    ]


def stream_points(M, center, count, radius=3.0, seed=0):
    """The first count points of the seeded stream around a valid center."""
    return list(itertools.islice(sp.unchecked_point_stream(M, center, radius, seed), count))


def space_id(m):
    data = m.to_json()
    if data["space"] != "tree":
        return data["space"]
    desc = data["descriptor"]
    detail = desc.get("degree") or desc.get("rank") or desc.get("index")
    return f"tree-{desc['type']}{detail}"


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture(params=all_spaces(), ids=space_id)
def space(request):
    return request.param


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind")
