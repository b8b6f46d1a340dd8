"""Minkowski gauge of conv(unit ball ∪ {±generators}).

The gauge is the infimal convolution of the base norm with the l1 norm of
generator coefficients:

    gauge(v) = min { ||u|| + sum_j |c_j| : v = u + sum_j c_j b_j }.

Both base norms (wl1, linf) are polyhedral, so the minimum is a small
linear program solved exactly over rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .rationals import Vec
from .simplex import solve_lp
from .spaces import NormedSpace

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class GaugeDecomposition:
    """Optimal decomposition v = remainder + sum_j coeffs[j] * generators[j]."""

    value: Fraction
    remainder: Vec
    coeffs: tuple


def _check_generators(space: NormedSpace, generators: Sequence[Vec]):
    if not generators:
        raise InputError("need at least one generator vector")
    for b in generators:
        space.check_vector(b, "generator")
        if all(x == 0 for x in b):
            raise InputError("zero vector is not a valid gauge generator")


def _wl1_lp(space: NormedSpace, generators, v):
    # variables: u+_i, u-_i (i < d), c+_j, c-_j (j < J)
    d = space.dimension
    J = len(generators)
    n = 2 * d + 2 * J
    cost = list(space.weights) * 2 + [ONE] * (2 * J)
    rows = []
    for i in range(d):
        row = [ZERO] * n
        row[i] = ONE
        row[d + i] = -ONE
        for j, b in enumerate(generators):
            row[2 * d + j] = Fraction(b[i])
            row[2 * d + J + j] = -Fraction(b[i])
        rows.append(row)
    sol = solve_lp(cost, rows, [Fraction(x) for x in v])
    u = tuple(sol.x[i] - sol.x[d + i] for i in range(d))
    c = tuple(sol.x[2 * d + j] - sol.x[2 * d + J + j] for j in range(J))
    return GaugeDecomposition(sol.value, u, c)


def _linf_lp(space: NormedSpace, generators, v):
    # variables: t, c+_j, c-_j, slacks s1_i, s2_i; residual r = v - sum c_j b_j,
    # constraints r_i <= t and r_i >= -t
    d = space.dimension
    J = len(generators)
    n = 1 + 2 * J + 2 * d
    cost = [ONE] * (1 + 2 * J) + [ZERO] * (2 * d)
    rows = []
    rhs = []
    for i in range(d):
        row = [ZERO] * n
        row[0] = ONE
        for j, b in enumerate(generators):
            row[1 + j] = Fraction(b[i])
            row[1 + J + j] = -Fraction(b[i])
        row[1 + 2 * J + i] = -ONE
        rows.append(row)
        rhs.append(Fraction(v[i]))
    for i in range(d):
        row = [ZERO] * n
        row[0] = -ONE
        for j, b in enumerate(generators):
            row[1 + j] = Fraction(b[i])
            row[1 + J + j] = -Fraction(b[i])
        row[1 + 2 * J + d + i] = ONE
        rows.append(row)
        rhs.append(Fraction(v[i]))
    sol = solve_lp(cost, rows, rhs)
    c = tuple(sol.x[1 + j] - sol.x[1 + J + j] for j in range(J))
    u = tuple(Fraction(v[i]) - sum((cj * Fraction(b[i]) for cj, b in zip(c, generators)), ZERO) for i in range(d))
    return GaugeDecomposition(sol.value, u, c)


def gauge_decompose(space: NormedSpace, generators: Sequence[Vec], v: Vec) -> GaugeDecomposition:
    """Gauge value together with an optimal decomposition (for certification)."""
    space.check_vector(v)
    _check_generators(space, generators)
    if all(x == 0 for x in v):
        return GaugeDecomposition(ZERO, tuple(ZERO for _ in v), (ZERO,) * len(generators))
    if space.kind == "wl1":
        return _wl1_lp(space, generators, v)
    return _linf_lp(space, generators, v)


def gauge_renorm(space: NormedSpace, generators: Sequence[Vec], v: Vec) -> Fraction:
    """Gauge of v w.r.t. conv(unit ball ∪ {±b : b in generators}), an exact
    Fraction.  Always <= space.norm(v); equals 1 on every generator that has
    base norm >= 1 and value 1 under a norm-one functional valued 1 on all
    generators.
    """
    return gauge_decompose(space, generators, v).value
