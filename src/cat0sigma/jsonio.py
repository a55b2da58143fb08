"""JSON parsing and serialization for points, boundary points, rays and
reports.  The schemas are documented in docs/formats.md.  Each model space
parses its own points and ends with the readers here, which turn a
malformed shape into a ValueError (exit 2 on the command line).  They only
parse: the library function that receives a value checks it."""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

_REQUIRED = object()


def read_field(data, key: str, kind=object, default=_REQUIRED):
    """data[key], checked to be an instance of kind.  A missing or null field
    gives the default, or a KeyError when there is none."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with the field {key!r}, got {data!r}")
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    if not isinstance(value, kind):
        raise ValueError(f"field {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def parse_fraction(value) -> Fraction:
    """An exact rational: an int, an integral float, or a string like "3/7"."""
    if isinstance(value, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{value} is not exact; pass a string like '1/3'")
        return Fraction(int(value))
    if not isinstance(value, (int, str)):
        raise ValueError(f"cannot read {value!r} as an exact rational")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot read {value!r} as an exact rational") from exc


def parse_int(value) -> int:
    if type(value) is int:  # not bool, which parse_fraction rejects
        return value
    x = parse_fraction(value)
    if x.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return int(x)


def parse_real(value) -> float:
    """A finite float: a JSON number or a string like "0.25" or "1/10"."""
    try:
        x = float(value if isinstance(value, float) else parse_fraction(value))
    except OverflowError as exc:
        raise ValueError(f"{value!r} is too large") from exc
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def parse_end_or_point(space, data):
    """Ray targets: {"boundary": B} or {"point": P}."""
    if isinstance(data, dict) and "boundary" in data:
        return space.parse_boundary(data["boundary"])
    if isinstance(data, dict) and "point" in data:
        return space.parse_point(data["point"])
    raise ValueError('ray target must be {"boundary": ...} or {"point": ...}')


def parse_ray(space, data):
    """The (base, target) pair of a ray, as read; spaces.ray_from checks both."""
    return space.parse_point(read_field(data, "base")), parse_end_or_point(space, read_field(data, "end"))


# ---------------------------------------------------------------------------
# Serialization


def jsonable(value):
    """Recursively convert package values to JSON-safe structures.

    Exact rationals become "p/q" strings, infinities the string "inf",
    and geometry objects small tagged dicts (their ``to_json``).  Any other
    value raises TypeError.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    to_json = getattr(value, "to_json", None)
    if to_json is not None:
        return jsonable(to_json())
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"no JSON form for a value of type {type(value).__name__}")


def rational(value):
    """An exact value as a report prints it: an int becomes the string "n"
    that jsonable gives a Fraction with denominator 1, since the trees hold
    integral values as ints; any other value is returned as it is."""
    return str(value) if type(value) is int else value


def dumps(value) -> str:
    """The report text ``json.dumps(jsonable(value), sort_keys=True, indent=2) + "\\n"``,
    written in one pass; jsonable converts each value not of an exact JSON type."""
    out = []
    _write(value, out, "\n")
    return "".join(out) + "\n"


def _write(value, out, newline) -> None:
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int or (kind is float and math.isfinite(value)):
        out.append(repr(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind in (dict, list, tuple) and not value:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:  # keys become str(k), as in jsonable: of keys that collide the last one wins
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted({str(k): v for k, v in value.items()}.items()):
            out.append(f"{sep}{_quote(k)}: ")
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        converted = jsonable(value)
        if converted is not value:
            _write(converted, out, newline)
        else:  # a subclass of str, int or float, which jsonable keeps as it is
            base = str if isinstance(value, str) else float if isinstance(value, float) else int
            out.append(_quote(value) if base is str else base.__repr__(value))
