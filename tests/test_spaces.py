import random
from fractions import Fraction

import pytest

from bushgeo import DimensionMismatch, Functional, InputError, NormedSpace

F = Fraction


def wl1_oracle(weights, v):
    # direct evaluation of the weighted-l1 sum, independent of NormedSpace
    total = F(0)
    for w, x in zip(weights, v):
        total += F(w) * abs(F(x))
    return total


def test_wl1_examples():
    space = NormedSpace(2, "wl1", (F(1, 2), F(1, 2)))
    assert space.norm((1, 1)) == 1  # constant-one step function integrates to 1
    assert space.norm((0, 0)) == 0
    assert space.norm((2, 0)) == wl1_oracle(space.weights, (2, 0)) == 1


def test_functional_examples():
    f = Functional((F(1, 2), F(1, 2)))
    assert f((1, 1)) == 1
    assert f((0, 0)) == 0
    assert f((2, 0)) == 1


def test_dimension_mismatch():
    space = NormedSpace(2, "wl1", (F(1, 2), F(1, 2)))
    with pytest.raises(DimensionMismatch):
        space.norm((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        Functional((1, 2))((1, 2, 3))


def test_bad_space_descriptors():
    with pytest.raises(InputError):
        NormedSpace(0, "wl1", (F(1),))
    with pytest.raises(InputError):
        NormedSpace(2, "l3")
    # Euclidean norms hold no thick family; only the exact kinds are accepted
    with pytest.raises(InputError, match="'wl1', 'linf'"):
        NormedSpace(2, "l2")
    with pytest.raises(InputError):
        NormedSpace(2, "wl1", (F(1),))  # wrong weight count
    with pytest.raises(InputError):
        NormedSpace(2, "wl1", (F(1), F(-1)))


def _random_vec(rng, dim):
    return tuple(F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(dim))


@pytest.mark.parametrize("kind", ["wl1", "linf"])
def test_norm_axioms_sampled(kind):
    rng = random.Random(1234)
    dim = 5
    weights = tuple(F(rng.randint(1, 9), 4) for _ in range(dim)) if kind == "wl1" else None
    space = NormedSpace(dim, kind, weights)
    assert space.norm((0,) * dim) == 0
    for _ in range(60):
        u, v = _random_vec(rng, dim), _random_vec(rng, dim)
        c = F(rng.randint(-12, 12), rng.randint(1, 4))
        nu, nv = space.norm(u), space.norm(v)
        if any(u):
            assert nu > 0
        assert space.norm(tuple(c * x for x in u)) == abs(c) * nu
        assert space.norm(tuple(a + b for a, b in zip(u, v))) <= nu + nv


def test_wl1_matches_oracle_sampled():
    rng = random.Random(99)
    weights = tuple(F(rng.randint(1, 7), 3) for _ in range(6))
    space = NormedSpace(6, "wl1", weights)
    for _ in range(40):
        v = _random_vec(rng, 6)
        assert space.norm(v) == wl1_oracle(weights, v)


def test_linf_values():
    linf = NormedSpace(3, "linf")
    assert linf.norm((F(1, 2), -2, F(3, 2))) == 2


@pytest.mark.parametrize(
    "kind,weights,f,expected",
    [
        ("wl1", (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), F(1)),
        ("wl1", (F(1, 4), F(3, 4)), (F(1, 2), F(3, 4)), F(2)),
        ("linf", None, (F(1, 3), F(1, 3)), F(2, 3)),
    ],
)
def test_dual_norm_formulas(kind, weights, f, expected):
    space = NormedSpace(2, kind, weights)
    assert space.dual_norm(f) == expected


@pytest.mark.parametrize("kind", ["wl1", "linf"])
def test_functional_bound_by_dual_norm(kind):
    # |f(v)| <= ||f||_* ||v|| on samples certifies the dual formulas
    rng = random.Random(5)
    dim = 4
    weights = tuple(F(rng.randint(1, 5), 2) for _ in range(dim)) if kind == "wl1" else None
    space = NormedSpace(dim, kind, weights)
    f = Functional(_random_vec(rng, dim))
    dual = space.dual_norm(f.coefficients)
    for _ in range(50):
        v = _random_vec(rng, dim)
        assert abs(f(v)) <= dual * space.norm(v)
