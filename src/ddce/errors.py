"""Exception types raised by the library, and the number kinds every
public call checks its numeric arguments with.

All of them subclass ValueError so callers that just want "bad input" can
catch one thing, while the CLI and tests can tell the categories apart.
"""

import math
import numbers
from functools import partial

import numpy as np


class ContractViolationError(ValueError):
    """An operation was called with arguments that break its preconditions."""


class ProfileError(ValueError):
    """A power-delay profile is unusable on the configured grid."""


class SupportError(ValueError):
    """Path delays or Dopplers fall outside the alias-free support region."""


class ConfigError(ValueError):
    """A config file failed to parse or validate.  Message lists every violation."""


_NOUNS = {int: ("an integer", numbers.Integral), float: ("a real number", numbers.Real),
          complex: ("a number", numbers.Complex)}


def as_number(key: str, value, ok=None, rule="", kind=float):
    """A number, as a Python `kind`: from an int or numpy int (int), any real number (float)
    or any number (complex), never a bool; within the float64 range and passing `ok`, or one
    ConfigError."""
    noun, types = _NOUNS[kind]
    if type(value) is not kind and (isinstance(value, (bool, np.bool_)) or not isinstance(value, types)):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    try:
        complex(out := kind(value))
    except OverflowError:  # only an int can lie past the float range
        size = f"an integer of {abs(int(value)).bit_length()} bits"
        raise ConfigError(f"{key} must lie within the float64 range, got {size}") from None
    if ok is not None and not ok(out):  # each rule is written so that nan fails it
        raise ConfigError(f"{key} must be {rule}, got {out}")
    return out


positive_float = partial(as_number, ok=lambda x: 0 < x < math.inf, rule="positive and finite")
non_negative_float = partial(as_number, ok=lambda x: 0 <= x < math.inf, rule="non-negative and finite")
positive_int = partial(as_number, ok=lambda n: n >= 1, rule=">= 1", kind=int)
non_negative_int = partial(as_number, ok=lambda n: n >= 0, rule=">= 0", kind=int)


def as_tuple(key: str, value, kind=None) -> tuple:
    """Any iterable but a string, as a tuple; each entry, given `kind`, of that kind."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        return tuple(value) if kind is None else tuple(kind(key, v) for v in value)
    except TypeError:
        raise ConfigError(f"{key} must be a list, not {type(value).__name__}") from None


def argument(kind, key: str, value):
    """`kind(key, value)` for a library call's argument: its ConfigError
    re-raised as a ContractViolationError, with the same message."""
    try:
        return kind(key, value)
    except ConfigError as exc:
        raise ContractViolationError(str(exc)) from None
