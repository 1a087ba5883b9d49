"""Strict JSON for every file the package writes and reads.

orjson writes each float in the shortest form that round-trips in its own
precision, and parses no ``NaN``, ``Infinity`` or number beyond double range,
so every number a reader gets is finite. A JSON number is an ``int`` or a
``float``: a quoted number is a ``str`` and ``true`` a ``bool``.
"""

from __future__ import annotations

import reprlib
from pathlib import Path

import orjson

from .errors import FileFormatError, InvalidInputError

_NUMBER_TYPES = frozenset((int, float))


def dumps(obj) -> bytes:
    """Compact JSON of ``obj``: numpy values as the numbers they hold,
    dataclasses as objects of their fields in order."""
    try:
        return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY)
    except TypeError as exc:
        raise InvalidInputError(f"cannot encode as JSON: {exc}") from exc


def read_file(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def read(data: bytes, where) -> object:
    """The document in ``data``; anything but strict JSON is a
    :class:`FileFormatError` at ``where``."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def number(value, what: str = "value"):
    if type(value) not in _NUMBER_TYPES:
        raise InvalidInputError(f"{what} must be a JSON number, got {reprlib.repr(value)}")
    return value


def numbers(values, length: int | None = None, what: str = "values") -> list:
    """``values`` if it is a list of JSON numbers, ``length`` of them when given."""
    if type(values) is list and _NUMBER_TYPES.issuperset(map(type, values)) and length in (None, len(values)):
        return values
    count = "a list of" if length is None else length
    raise InvalidInputError(f"{what} must be {count} JSON numbers, got {reprlib.repr(values)}")


def integer(value, what: str = "value") -> int:
    """``value`` if it is an integer in [0, 2**64), the range of every seed
    and count; orjson writes no wider integer."""
    if type(value) is not int or not 0 <= value < 2**64:
        raise InvalidInputError(f"{what} must be an integer in [0, 2**64), got {reprlib.repr(value)}")
    return value
