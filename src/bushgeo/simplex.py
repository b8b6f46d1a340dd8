"""Exact fraction-free simplex for small linear programs.

Solves  min c.x  s.t.  A x = b, x >= 0  with the two-phase method and
Bland's anti-cycling rule, in integers: the constraints are scaled by one
common denominator, and the tableau is held as integer rows over one shared
denominator D, updated by exact divisions (Edmonds, J. Res. Nat. Bur.
Standards 71B, 1967; Bareiss, Math. Comp. 22, 1968).  Ratios are compared by
cross-multiplying, and only the returned x and value are ``Fraction``s.
Deterministic and exact, and identical to the ``Fraction`` tableau pivot for
pivot; meant for desk-scale problems (tens of variables), not sparse LP work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericalError

ZERO = Fraction(0)

# Bland's rule cannot cycle, so this only guards against bugs.
MAX_PIVOTS = 100_000


class LPInfeasible(NumericalError):
    pass


class LPUnbounded(NumericalError):
    pass


@dataclass
class LPSolution:
    value: Fraction
    x: list  # list[Fraction], one entry per variable
    pivots: int


def _pivot(tab, basis, row, col, den) -> int:
    """Pivot on ``tab[row][col]`` of the tableau ``tab / den``; returns the
    new denominator.  Every row, the reduced-cost row too, is ``den`` times
    its true value, so each division below is exact."""
    prow = tab[row]
    p = prow[col]
    if p < 0:  # keep the denominator positive
        prow = tab[row] = [-a for a in prow]
        p = -p
    for r, other in enumerate(tab):
        if r == row:
            continue
        f = other[col]
        if f:
            tab[r] = [(a * p - f * q) // den for a, q in zip(other, prow)]
        elif p != den:
            tab[r] = [a * p // den for a in other]
    basis[row] = col
    return p


def _run(tab, basis, m, n, den, width):
    """Bland iterations on a tableau whose last row is the reduced-cost row;
    the first ``n`` columns may enter.  ``width`` counts the variables of the
    phase, artificials included, for the error.  Returns ``(pivots, den)``."""
    pivots = 0
    while True:
        zrow = tab[m]
        col = next((j for j in range(n) if zrow[j] < 0), None)
        if col is None:
            return pivots, den
        # ratio test by cross-multiplying; ties -> smallest basic variable
        best_row = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                if best_row is None:
                    best_row, best_b, best_a = r, tab[r][-1], a
                    continue
                lhs, rhs = tab[r][-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                    best_row, best_b, best_a = r, tab[r][-1], a
        if best_row is None:
            raise LPUnbounded("objective unbounded below")
        den = _pivot(tab, basis, best_row, col, den)
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalError(
                f"simplex exceeded {MAX_PIVOTS} pivots (m={m}, n={width})"
            )


def solve_lp(cost, rows, rhs) -> LPSolution:
    """Minimize ``cost . x`` subject to ``rows x = rhs``, ``x >= 0``."""
    m = len(rows)
    n = len(cost)
    if not m:
        return LPSolution(ZERO, [ZERO] * n, 0)
    system = []
    for row, b in zip(rows, rhs):
        row = [Fraction(a) for a in row] + [Fraction(b)]
        system.append(row if row[-1] >= 0 else [-a for a in row])
    # one scale for every row keeps the phase-1 objective, hence Bland's path
    scale = math.lcm(*(a.denominator for row in system for a in row))
    tab = [[a.numerator * (scale // a.denominator) for a in row] for row in system]
    cost = [Fraction(c) for c in cost]
    cost_scale = math.lcm(*(c.denominator for c in cost))
    cost = [c.numerator * (cost_scale // c.denominator) for c in cost]

    # phase 1: one artificial per row, basic at the start (den = 1).  No
    # artificial column can enter or be read later, so none is stored.
    basis = [n + r for r in range(m)]
    tab.append([-sum(col) for col in zip(*tab)])
    pivots, den = _run(tab, basis, m, n, 1, n + m)
    if tab[m][-1] < 0:
        raise LPInfeasible(f"phase-1 optimum {Fraction(-tab[m][-1], den * scale)} > 0")

    # drive leftover artificials out of the basis; drop redundant rows
    drop = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is None:
                drop.append(r)
            else:
                den = _pivot(tab, basis, r, col, den)
    tab = [row for r, row in enumerate(tab[:m]) if r not in drop]
    basis = [b for r, b in enumerate(basis) if r not in drop]
    m -= len(drop)

    # phase 2: price out the cost at the current basis, den times its value
    z = [c * den for c in cost] + [0]
    for row, bcol in zip(tab, basis):
        cb = cost[bcol]
        if cb:
            z = [a - cb * t for a, t in zip(z, row)]
    tab.append(z)
    more, den = _run(tab, basis, m, n, den, n)

    x = [ZERO] * n
    for row, bcol in zip(tab, basis):
        x[bcol] = Fraction(row[-1], den)
    return LPSolution(Fraction(-tab[m][-1], den * cost_scale), x, pivots + more)
