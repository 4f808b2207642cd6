"""The three maas errors, one per way the CLI handles an error: a `DataError`
exits 3, a `BackendError` exits 4 and any other `MaasError` exits 1. And the
one type rule for values from outside the program, `check_fields`."""

import functools
import math
import typing


class MaasError(Exception):
    """The base of the other two, raised itself for a broken contract inside
    the library, such as a dimension, a shape or a stale architecture; exit 1."""


class DataError(MaasError):
    """Bad input from outside the program: a dataset, a profile file, a
    checkpoint or a mutator's patch; exit 3."""


class BackendError(MaasError):
    """A chat-completions endpoint that is missing, fails or answers with a
    malformed payload; exit 4."""


# the classes that a field of each annotated type accepts (never a bool),
# and the name of that type
_ACCEPTS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
}


@functools.cache
def _field_rules(cls):
    """(name, type, classes accepted, type name, whether None is allowed) of
    each field of the dataclass `cls`, its annotations resolved once."""
    rules = []
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)  # (X, NoneType) for `X | None`
        kind = args[0] if args else hint
        rules.append((name, kind, *_ACCEPTS[kind], bool(args)))
    return rules


def check_fields(obj):
    """`DataError` unless each field of the dataclass `obj` holds its
    annotated type: a str; an int that is not a bool; for a float, a finite
    int or float that is not a bool, stored back as a float; None only
    where the annotation is `X | None`. Each class that holds values from
    outside the program calls it in its `__post_init__`."""
    for name, kind, accepts, described, optional in _field_rules(type(obj)):
        value = getattr(obj, name)
        # a value of exactly its field's type needs no type test
        if type(value) is not kind:
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, accepts):
                raise DataError(f"{name} {value!r} is not {described}")
        if kind is float:
            try:
                number = float(value)
            except OverflowError:  # an int past the float range, from JSON
                number = math.inf
            if not math.isfinite(number):
                raise DataError(f"{name} {value!r} is not finite")
            object.__setattr__(obj, name, number)  # the classes may be frozen
