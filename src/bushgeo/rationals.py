"""Exact rational scalars and coordinate vectors.

Vectors are plain tuples whose entries are ints or fractions.Fraction;
all helpers keep results exact. Rational strings ("3/2", "-1", "0.25")
are the wire format used by every file the package reads or writes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .errors import InputError

Scalar = Union[int, Fraction]
Vec = tuple  # tuple[Scalar, ...]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def to_fraction(x) -> Fraction:
    """``x`` itself when it is a ``Fraction``, else ``Fraction(x)``: the
    evaluation path wraps only what is not one already."""
    return x if type(x) is Fraction else Fraction(x)


def format_rational(value: Scalar) -> str:
    # an int or a Fraction prints as its Fraction would
    return str(value if type(value) in (int, Fraction) else Fraction(value))


def parse_vector(items: Sequence[str]) -> Vec:
    return tuple(parse_rational(t) for t in items)


def format_vector(vec: Vec) -> list[str]:
    return [format_rational(x) for x in vec]
