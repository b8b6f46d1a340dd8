"""Finite-dimensional normed spaces and norming functionals.

Three norm kinds are supported:

* ``wl1``  -- weighted l1, ||v|| = sum_i w_i |v_i| with positive rational
  weights (the discretized integral norm); exact on rational input.
* ``linf`` -- max_i |v_i|; exact on rational input.
* ``l2``   -- Euclidean; evaluated in floating point.

A ``Functional`` is a coordinate functional v -> sum_i f_i v_i.  Its
operator norm with respect to each norm kind has a closed dual formula
(wl1 -> max |f_i|/w_i, linf -> sum |f_i|, l2 -> l2), used to check that a
supplied norming functional really has norm one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatch, InputError
from .rationals import Scalar, Vec, to_fraction, vdot

NORM_KINDS = ("wl1", "linf", "l2")


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

    def norm(self, v: Vec) -> Scalar:
        """Norm of ``v``; exact Fraction for wl1/linf, float for l2."""
        self.check_vector(v)
        if self.kind == "wl1":
            return sum((w * abs(x) for w, x in zip(self.weights, v)), Fraction(0))
        if self.kind == "linf":
            return max((abs(Fraction(x)) for x in v), default=Fraction(0))
        return math.sqrt(float(sum(Fraction(x) * Fraction(x) for x in v)))

    def dist(self, u: Vec, v: Vec) -> Scalar:
        return self.norm(tuple(a - b for a, b in zip(u, v)))

    def dual_norm(self, coefficients: Vec) -> Scalar:
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
        if self.kind == "linf":
            den = math.lcm(*(f.denominator for f in fs))
            return Fraction(sum(abs(f.numerator) * (den // f.denominator) for f in fs), den)
        return math.sqrt(float(sum(f * f for f in fs)))


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
