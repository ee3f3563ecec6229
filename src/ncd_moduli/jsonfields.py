"""Readers of typed JSON fields, for the file loaders.

Each reader returns the value when it has the expected JSON type and raises
``ValueError`` naming the field otherwise.  This module imports only the
standard library, so a loader that reads no exact value (``divisor``, and
with it ``strata`` and ``building``) does not load ``exactnum``.
"""

from __future__ import annotations

import re
import reprlib
from typing import Mapping

# A JSON integer object key has at most this many digits; exactnum's JSON
# rationals share the bound.
_RATIONAL_DIGITS = 1000


def _json_int(value, field: str) -> int:
    """A JSON integer that is not a bool; anything else raises ``ValueError`` naming ``field``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{field} = {reprlib.repr(value)} is not an integer")


def _json_str(value, field: str) -> str:
    """A JSON string; anything else raises ``ValueError`` naming ``field``."""
    if isinstance(value, str):
        return value
    raise ValueError(f"{field} must be a string, not {type(value).__name__}")


def _json_bool(value, field: str) -> bool:
    """A JSON true or false; anything else raises ``ValueError`` naming ``field``."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"{field} = {reprlib.repr(value)} is not a boolean")


# An integer object key is written as str() writes an int, so that no two
# keys of one object name the same integer.
_INT_KEY = re.compile(rf"0|-?[1-9][0-9]{{0,{_RATIONAL_DIGITS - 1}}}")


def _json_int_key(key: str, field: str) -> int:
    """An object key that is ``str(n)`` for an int n of at most
    _RATIONAL_DIGITS digits; anything else (a sign '+', a leading zero,
    spaces, underscores) raises ``ValueError`` naming ``field`` and the key."""
    if _INT_KEY.fullmatch(key):
        return int(key)
    raise ValueError(f"{field} {reprlib.repr(key)} is not a canonical integer of at most {_RATIONAL_DIGITS} digits")


def _json_object(value, field: str) -> Mapping:
    """A JSON object; anything else raises ``ValueError`` naming ``field``."""
    if isinstance(value, dict):
        return value
    raise ValueError(f"{field} = {reprlib.repr(value)} is not an object")


def _json_list(value, field: str) -> list:
    """A JSON list; anything else raises ``ValueError`` naming ``field``."""
    if isinstance(value, list):
        return value
    raise ValueError(f"{field} = {reprlib.repr(value)} is not a list")
