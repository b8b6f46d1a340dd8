import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from bushgeo import InputError, NormedSpace, dyadic_bush, gauge_decompose, gauge_renorm

F = Fraction


def _bush_generators(bush):
    return [vec for lev in bush.levels for vec in lev]


def test_depth1_examples():
    bush = dyadic_bush(1)
    gens = _bush_generators(bush)
    assert gauge_renorm(bush.space, gens, (1, 1)) == 1  # the root vector
    assert gauge_renorm(bush.space, gens, (0, 0)) == 0
    # (1,0) = x[1][0]/2: squeezed between x*(v) = 1/2 and base norm 1/2
    assert gauge_renorm(bush.space, gens, (1, 0)) == F(1, 2)


def test_all_bush_vectors_unit_gauge():
    for n in (1, 2):
        bush = dyadic_bush(n)
        gens = _bush_generators(bush)
        for lev in bush.levels:
            for vec in lev:
                assert gauge_renorm(bush.space, gens, vec) == 1


def test_decomposition_certificate():
    rng = random.Random(3)
    bush = dyadic_bush(2)
    gens = _bush_generators(bush)
    for _ in range(15):
        v = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
        dec = gauge_decompose(bush.space, gens, v)
        recombined = list(dec.remainder)
        for c, b in zip(dec.coeffs, gens):
            recombined = [r + c * x for r, x in zip(recombined, b)]
        assert tuple(recombined) == tuple(F(x) for x in v)
        assert bush.space.norm(dec.remainder) + sum(abs(c) for c in dec.coeffs) == dec.value


def _scipy_gauge_wl1(weights, gens, v):
    # independent float LP: min w.|u+| + w.|u-| + sum(c+ + c-) s.t. u + B c = v
    d = len(v)
    J = len(gens)
    c = [float(w) for w in weights] * 2 + [1.0] * (2 * J)
    A = np.zeros((d, 2 * d + 2 * J))
    for i in range(d):
        A[i, i] = 1.0
        A[i, d + i] = -1.0
        for j, b in enumerate(gens):
            A[i, 2 * d + j] = float(b[i])
            A[i, 2 * d + J + j] = -float(b[i])
    res = linprog(c, A_eq=A, b_eq=[float(x) for x in v], bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_wl1_gauge_against_scipy():
    rng = random.Random(17)
    bush = dyadic_bush(2)
    gens = _bush_generators(bush)
    for _ in range(12):
        v = tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(4))
        exact = gauge_renorm(bush.space, gens, v)
        assert float(exact) == pytest.approx(
            _scipy_gauge_wl1(bush.space.weights, gens, v), abs=1e-7
        )


def test_linf_gauge():
    space = NormedSpace(2, "linf")
    gens = [(2, 0)]
    # (2,0) is a generator: one unit of it
    assert gauge_renorm(space, gens, (2, 0)) == 1
    # (1,1): c = 1/2 kills the first coordinate, leaving (0,1) of sup-norm 1;
    # c = 0 costs 1; the optimum trades off to 1 (any c > 0 still leaves |1| = 1)
    assert gauge_renorm(space, gens, (1, 1)) == 1
    assert gauge_renorm(space, gens, (1, 0)) == F(1, 2)
    assert gauge_renorm(space, gens, (0, 0)) == 0


def _scipy_gauge_linf(gens, v):
    # min t + sum(c+ + c-) s.t. -t <= v - B c <= t, via two inequality blocks
    d = len(v)
    J = len(gens)
    cost = [1.0] + [1.0] * (2 * J)
    B = np.array([[float(b[i]) for b in gens] for i in range(d)])
    # v - Bc <= t  ->  -t - B c+ + B c- <= -v ;  v - Bc >= -t -> -t + Bc+ - Bc- <= v
    A_ub = np.block([[-np.ones((d, 1)), -B, B], [-np.ones((d, 1)), B, -B]])
    b_ub = np.concatenate([-np.array([float(x) for x in v]), np.array([float(x) for x in v])])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_linf_gauge_against_scipy():
    rng = random.Random(29)
    space = NormedSpace(3, "linf")
    gens = [(2, 0, 1), (0, 2, -1), (1, 1, 1)]
    for _ in range(12):
        v = tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(3))
        exact = gauge_renorm(space, gens, v)
        assert float(exact) == pytest.approx(_scipy_gauge_linf(gens, v), abs=1e-7)


def test_gauge_properties_sampled():
    rng = random.Random(23)
    bush = dyadic_bush(2)
    gens = _bush_generators(bush)
    xs = bush.functional
    for _ in range(12):
        u = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
        v = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
        gu = gauge_renorm(bush.space, gens, u)
        gv = gauge_renorm(bush.space, gens, v)
        assert gu <= bush.space.norm(u)
        assert gu >= abs(xs(u))
        c = F(rng.randint(1, 6), rng.randint(1, 3))
        assert gauge_renorm(bush.space, gens, tuple(c * x for x in u)) == c * gu
        assert gauge_renorm(bush.space, gens, tuple(-x for x in u)) == gu
        assert gauge_renorm(bush.space, gens, tuple(a + b for a, b in zip(u, v))) <= gu + gv


def test_gauge_input_errors():
    bush = dyadic_bush(1)
    with pytest.raises(InputError):
        gauge_renorm(bush.space, [], (1, 1))
    with pytest.raises(InputError):
        gauge_renorm(bush.space, [(0, 0)], (1, 1))
    with pytest.raises(InputError):
        gauge_renorm(bush.space, [(1, 0, 0)], (1, 1))
