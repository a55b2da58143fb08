"""value.Value gives each value class what a frozen dataclass gives it:
equality and hashing over the tuple of its fields in slot order, a repr
that names them, and an AttributeError on assignment."""

from fractions import Fraction

import pytest

from cat0sigma.spaces import EDirection
from cat0sigma.trees import HnnDown, HnnUp, TreePoint, WordEnd


@pytest.mark.parametrize(
    "value, fields",
    [
        (HnnUp(), ()),
        (HnnDown(Fraction(1, 2)), (Fraction(1, 2),)),
        (WordEnd((1,), (2, -1)), ((1,), (2, -1))),
        (TreePoint((1, 2), Fraction(1, 3)), ((1, 2), Fraction(1, 3))),
    ],
)
def test_a_value_is_its_field_tuple(value, fields):
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields) and value != fields
    assert value.__eq__(fields) is NotImplemented
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.up = 0


def test_repr_names_the_fields_in_slot_order():
    assert repr(HnnUp()) == "HnnUp()"
    assert repr(WordEnd((), (2,))) == "WordEnd(prefix=(), period=(2,))"
    assert repr(EDirection((1, 0))) == "EDirection(vector=(1.0, 0.0))"
