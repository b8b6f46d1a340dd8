"""Finite-dimensional normed spaces and norming functionals.

Two norm kinds are supported, both polyhedral and exact on rational input:

* ``wl1``  -- weighted l1, ||v|| = sum_i w_i |v_i| with positive rational
  weights (the discretized integral norm);
* ``linf`` -- max_i |v_i|.

These are the spaces the paper's thick families live in.  A strictly
convex norm, such as the Euclidean one, has the Radon-Nikodym property and
holds no thick family: distinct unit children never average to a unit
parent.

A ``Functional`` is a coordinate functional v -> sum_i f_i v_i.  Its
operator norm with respect to each norm kind has a closed dual formula
(wl1 -> max |f_i|/w_i, linf -> sum |f_i|), used to check that a supplied
norming functional really has norm one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatch, InputError
from .rationals import Vec, to_fraction, vdot

NORM_KINDS = ("wl1", "linf")


@dataclass(frozen=True)
class NormedSpace:
    """A finite-dimensional space with one of the supported norms."""

    dimension: int
    kind: str
    weights: Optional[tuple] = None  # required for wl1, ignored otherwise

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")
        if self.kind not in NORM_KINDS:
            raise InputError(f"unknown norm kind {self.kind!r}, expected one of {NORM_KINDS}")
        if self.kind == "wl1":
            if self.weights is None or len(self.weights) != self.dimension:
                raise InputError("wl1 norm needs one positive weight per coordinate")
            if any(w <= 0 for w in self.weights):
                raise InputError("wl1 weights must be positive")
            object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))

    def check_vector(self, v: Vec, what: str = "vector") -> None:
        if len(v) != self.dimension:
            raise DimensionMismatch(self.dimension, len(v), what)

    def norm(self, v: Vec) -> Fraction:
        """Norm of ``v``, an exact Fraction."""
        self.check_vector(v)
        if self.kind == "wl1":
            return sum((w * abs(x) for w, x in zip(self.weights, v)), Fraction(0))
        return max((abs(Fraction(x)) for x in v), default=Fraction(0))

    def dist(self, u: Vec, v: Vec) -> Fraction:
        return self.norm(tuple(a - b for a, b in zip(u, v)))

    def dual_norm(self, coefficients: Vec) -> Fraction:
        """Operator norm of the coordinate functional with these coefficients."""
        self.check_vector(coefficients, "functional")
        fs = list(map(to_fraction, coefficients))
        if self.kind == "wl1":
            # the largest |f_i| / w_i, compared by cross-multiplying: one division
            num, den = 0, 1
            for f, w in zip(fs, self.weights):
                n, d = abs(f.numerator) * w.denominator, f.denominator * w.numerator
                if n * den > num * d:
                    num, den = n, d
            return Fraction(num, den)
        den = math.lcm(*(f.denominator for f in fs))
        return Fraction(sum(abs(f.numerator) * (den // f.denominator) for f in fs), den)


@dataclass(frozen=True)
class Functional:
    """Coordinate functional v -> sum_i coefficients_i * v_i."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(Fraction(c) for c in self.coefficients))

    def __call__(self, v: Vec) -> Fraction:
        if len(v) != len(self.coefficients):
            raise DimensionMismatch(len(self.coefficients), len(v))
        return vdot(self.coefficients, v)
