"""Exception types raised by the library, and the number kinds every
public call checks its numeric arguments with.

All of them subclass ValueError so callers that just want "bad input" can
catch one thing, while the CLI and tests can tell the categories apart.
"""

import math
import numbers

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


def number(ok=None, rule="", kind=float):
    """The check(key, value) of a number kind: a Python `kind` from an int or numpy int (int),
    any real number (float) or any number (complex), never a bool; within the float64 range
    and passing `ok`, or one ContractViolationError naming `key` (a config lists its message
    in a ConfigError, a profile raises it as a ProfileError)."""
    noun, types = _NOUNS[kind]

    def check(key: str, value):
        if type(value) is not kind and (isinstance(value, (bool, np.bool_)) or not isinstance(value, types)):
            raise ContractViolationError(f"{key} must be {noun}, got {value!r}")
        try:
            complex(out := kind(value))
        except OverflowError:  # only an int can lie past the float range
            size = f"an integer of {abs(int(value)).bit_length()} bits"
            raise ContractViolationError(f"{key} must lie within the float64 range, got {size}") from None
        if ok is not None and not ok(out):  # each rule is written so that nan fails it
            raise ContractViolationError(f"{key} must be {rule}, got {out}")
        return out

    return check


positive_float = number(lambda x: 0 < x < math.inf, "positive and finite")
non_negative_float = number(lambda x: 0 <= x < math.inf, "non-negative and finite")
integer = number(kind=int)
positive_int = number(lambda n: n >= 1, ">= 1", int)
non_negative_int = number(lambda n: n >= 0, ">= 0", int)


# each array kind's numpy type codes: any int, and the floats and complexes that float64 and
# complex128 hold, so no entry's cast to them overflows (a long double could)
_INTS = np.typecodes["AllInteger"]
_ARRAY_NOUNS = {int: ("integers", _INTS), float: ("real numbers", _INTS + "efd"),
                complex: ("numbers", _INTS + "efdFD")}


def finite_array(ok=None, rule="", kind=float):
    """The check(key, value) of an array kind: any array-like of integers (int), of integers
    or floats (float) or of any numbers (complex), never bools or long doubles, whose entries
    are all finite, checked by one vectorised pass, and pass the elementwise `ok` if given
    (`rule` says what it asks), handed back as numpy reads it; or one ContractViolationError
    naming `key`.  An empty list, which numpy reads as float64, is of every kind."""
    noun, codes = _ARRAY_NOUNS[kind]

    def check(key: str, value) -> np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged nesting
            raise ContractViolationError(f"{key} must be an array of {noun}") from None
        if arr.dtype.char not in codes and (arr.size or arr.dtype != np.float64):
            raise ContractViolationError(f"{key} must hold {noun}, got dtype {arr.dtype}")
        finite = np.isfinite(arr)
        if not finite.all():
            raise ContractViolationError(f"{key} must be finite, got {arr[~finite][0]}")
        if ok is not None and not (good := ok(arr)).all():
            raise ContractViolationError(f"{key} must be {rule}, got {arr[~good][0]}")
        return arr

    return check


finite_integers = finite_array(kind=int)
finite_reals = finite_array()
non_negative_reals = finite_array(lambda a: a >= 0, ">= 0")
finite_complexes = finite_array(kind=complex)


def one_length(**arrays) -> tuple:
    """The arrays, each 1-D and all of one length, or one ContractViolationError naming the
    first that is not 1-D, or all of them."""
    for key, arr in arrays.items():
        if arr.ndim != 1:
            raise ContractViolationError(f"{key} must be a 1-D array, got shape {arr.shape}")
    if len({arr.size for arr in arrays.values()}) > 1:
        *keys, last = arrays
        sizes = [str(arr.size) for arr in arrays.values()]
        raise ContractViolationError(f"{', '.join(keys)} and {last} must have one length, "
                                     f"got {', '.join(sizes[:-1])} and {sizes[-1]}")
    return tuple(arrays.values())


def tuple_of(kind):
    """The check(key, value) of a list kind: any iterable but a string, as a tuple of `kind`."""

    def check(key: str, value) -> tuple:
        try:
            if isinstance(value, (str, bytes)):
                raise TypeError
            return tuple(kind(key, v) for v in value)
        except TypeError:
            raise ContractViolationError(f"{key} must be a list, not {type(value).__name__}") from None

    return check
