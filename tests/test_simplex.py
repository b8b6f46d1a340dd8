import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from bushgeo import gauge, simplex
from bushgeo.errors import NumericalError
from bushgeo.simplex import LPInfeasible, LPSolution, LPUnbounded, solve_lp
from bushgeo.spaces import NormedSpace

F = Fraction


def test_one_constraint():
    # min x + y on x + 2y = 4: objective = 4 - y, minimized at y = 2
    sol = solve_lp([1, 1], [[1, 2]], [4])
    assert sol.value == 2
    assert sol.x == [F(0), F(2)]


def test_negative_cost():
    sol = solve_lp([-1, 0], [[1, 1]], [1])
    assert sol.value == -1
    assert sol.x[0] == 1


def test_degenerate_redundant_rows():
    sol = solve_lp([1, 1], [[1, 2], [1, 2]], [4, 4])
    assert sol.value == 2


def test_negative_rhs_normalized():
    # -x - 2y = -4 is the same line as x + 2y = 4
    sol = solve_lp([1, 1], [[-1, -2]], [-4])
    assert sol.value == 2


def test_infeasible():
    with pytest.raises(LPInfeasible):
        solve_lp([1, 1], [[1, 1], [1, 1]], [1, 2])


def test_unbounded():
    with pytest.raises(LPUnbounded):
        solve_lp([-1, 0], [[1, -1]], [0])


def test_zero_rows():
    sol = solve_lp([1, 1], [], [])
    assert sol.value == 0


def test_exact_rationals():
    sol = solve_lp([F(1, 3), F(1, 7)], [[F(2, 5), F(1, 5)]], [F(1)])
    # cheapest unit of constraint per cost: x: (1/3)/(2/5) = 5/6, y: (1/7)/(1/5) = 5/7
    assert sol.value == F(5, 7)
    assert sol.x == [F(0), F(5)]


def test_against_scipy_on_random_instances():
    rng = random.Random(42)
    for trial in range(25):
        m, n = rng.randint(1, 4), rng.randint(2, 7)
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        rhs = [sum(r * x for r, x in zip(row, x0)) for row in rows]  # feasible by design
        cost = [F(rng.randint(1, 5)) for _ in range(n)]  # positive -> bounded
        sol = solve_lp(cost, rows, rhs)
        res = linprog(
            [float(c) for c in cost],
            A_eq=np.array([[float(a) for a in row] for row in rows]),
            b_eq=np.array([float(b) for b in rhs]),
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0, trial
        assert float(sol.value) == pytest.approx(res.fun, abs=1e-7)
        # the exact solution really satisfies the constraints
        for row, b in zip(rows, rhs):
            assert sum(r * x for r, x in zip(row, sol.x)) == b
        assert all(x >= 0 for x in sol.x)


# ------------------------------------------------- reference Fraction tableau


def _ref_pivot(tab, basis, row, col):
    inv = F(1) / tab[row][col]
    tab[row] = [a * inv for a in tab[row]]
    prow = tab[row]
    for r in range(len(tab)):
        factor = tab[r][col]
        if r != row and factor:
            tab[r] = [a - factor * p for a, p in zip(tab[r], prow)]
    basis[row] = col


def _ref_price_out(tab, basis, cost, ncols):
    z = [F(0)] * ncols
    for c, val in enumerate(cost):
        z[c] = F(val)
    for r, bcol in enumerate(basis):
        cb = F(cost[bcol]) if bcol < len(cost) else F(0)
        if cb:
            z = [a - cb * t for a, t in zip(z, tab[r])]
    return z


def _ref_run(tab, basis, allowed, m):
    pivots = 0
    while True:
        zrow = tab[m]
        col = next((j for j in allowed if zrow[j] < 0), None)
        if col is None:
            return pivots
        best_ratio = best_row = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_row]
                ):
                    best_ratio, best_row = ratio, r
        if best_row is None:
            raise LPUnbounded("objective unbounded below")
        _ref_pivot(tab, basis, best_row, col)
        pivots += 1
        if pivots > simplex.MAX_PIVOTS:
            raise NumericalError(
                f"simplex exceeded {simplex.MAX_PIVOTS} pivots (m={m}, n={len(tab[0]) - 1})"
            )


def reference_lp(cost, rows, rhs) -> LPSolution:
    """The two-phase Bland simplex on a ``Fraction`` tableau, artificial
    columns included: the reference for `solve_lp`, pivot for pivot."""
    m, n = len(rows), len(cost)
    cost = [F(c) for c in cost]
    tab = []
    for row, b in zip(rows, rhs):
        row, b = [F(a) for a in row], F(b)
        if b < 0:
            row, b = [-a for a in row], -b
        tab.append(row + [b])
    if not m:
        return LPSolution(F(0), [F(0)] * n, 0)
    for r in range(m):
        tab[r] = tab[r][:n] + [F(int(r == k)) for k in range(m)] + tab[r][n:]
    basis = [n + r for r in range(m)]
    tab.append(_ref_price_out(tab, basis, [F(0)] * n + [F(1)] * m, n + m + 1))
    pivots = _ref_run(tab, basis, range(n), m)
    if tab[m][-1] < 0:
        raise LPInfeasible(f"phase-1 optimum {-tab[m][-1]} > 0")
    drop = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is None:
                drop.append(r)
            else:
                _ref_pivot(tab, basis, r, col)
    tab = [row for r, row in enumerate(tab) if r not in drop]
    basis = [b for r, b in enumerate(basis) if r not in drop]
    m -= len(drop)
    tab = [row[:n] + [row[-1]] for row in tab[:m]]
    tab.append(_ref_price_out(tab, basis, cost, n + 1))
    pivots += _ref_run(tab, basis, range(n), m)
    x = [F(0)] * n
    for r, bcol in enumerate(basis):
        x[bcol] = tab[r][-1]
    return LPSolution(-tab[m][-1], x, pivots)


def _outcome(solve, lp):
    """``(value, x, pivots)`` with exact types, or the error and its message."""
    try:
        sol = solve(*lp)
    except NumericalError as exc:
        return type(exc), str(exc)
    assert type(sol.value) is F and all(type(v) is F for v in sol.x)
    return sol.value, sol.x, sol.pivots


def _random_lp(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 8)
    entry = lambda: F(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 5)))  # noqa: E731
    rows = [[entry() if rng.random() < 0.8 else F(0) for _ in range(n)] for _ in range(m)]
    kind = rng.choice(("feasible", "degenerate", "redundant", "free"))
    if kind == "free":  # often infeasible
        rhs = [entry() for _ in rows]
    else:
        x0 = [F(rng.randint(0, 3)) if rng.random() < 0.6 else F(0) for _ in range(n)]
        if kind == "degenerate":
            zeros = rng.random() < 0.3  # x0 = 0, else mostly zero
            x0 = [F(0)] * n if zeros else [x if rng.random() < 0.3 else F(0) for x in x0]
        if kind == "redundant":
            k = rng.randrange(m)
            factor = entry() or F(1)
            rows.append([factor * a for a in rows[k]])
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    cost = [entry() for _ in range(n)]  # mixed signs: some LPs are unbounded
    return cost, rows, rhs


def test_matches_reference_tableau_on_random_lps():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(400):
        lp = _random_lp(rng)
        expected = _outcome(reference_lp, lp)
        assert _outcome(solve_lp, lp) == expected, lp
        kinds.add(expected[0] if isinstance(expected[0], type) else "solved")
    assert kinds == {"solved", LPInfeasible, LPUnbounded}


def test_matches_reference_on_negative_rhs_and_redundant_rows():
    lps = [
        ([1, 1], [[-1, -2]], [-4]),
        ([1, 1], [[1, 2], [1, 2]], [4, 4]),
        ([1, 1], [[1, 2], [-1, -2]], [4, -4]),
        ([0, 0, 1], [[1, 1, 0], [0, 0, 0], [2, 2, 0]], [1, 0, 2]),
        ([F(1, 3), F(-1, 7)], [[F(2, 5), F(1, 5)]], [F(1)]),
    ]
    for lp in lps:
        assert _outcome(solve_lp, lp) == _outcome(reference_lp, lp), lp


def test_pivot_limit_error_matches_reference(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
    lp = ([1, 1, 0], [[1, 2, 1], [3, 1, 0]], [4, 5])
    got = _outcome(solve_lp, lp)
    assert got == _outcome(reference_lp, lp)
    assert got[0] is NumericalError


@pytest.mark.parametrize("kind", ["wl1", "linf"])
def test_matches_reference_on_gauge_lps(monkeypatch, dyadic, kind):
    bush = dyadic(3)
    generators = [vec for lev in bush.levels for vec in lev]
    space = bush.space if kind == "wl1" else NormedSpace(bush.space.dimension, "linf")
    seen = []

    def both(*lp):
        expected = _outcome(reference_lp, lp)
        assert _outcome(solve_lp, lp) == expected
        seen.append(expected[2])
        return solve_lp(*lp)

    monkeypatch.setattr(gauge, "solve_lp", both)
    rng = random.Random(7)
    vectors = generators + [
        tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in generators[0]) for _ in range(15)
    ]
    for v in vectors:
        gauge.gauge_decompose(space, generators, v)
    assert len(seen) == len(vectors) and max(seen) > 0
