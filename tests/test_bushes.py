import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bushgeo import (
    Bush,
    BudgetError,
    Functional,
    InputError,
    NormedSpace,
    StructuralError,
    challenge_respond,
    dyadic_bush,
    lambda_max,
    random_bush,
    random_challenge,
    shift_bush,
    validate_bush,
    validate_witness,
)
from bushgeo import errors
from bushgeo.cli import main
from bushgeo.formats import bush_from_dict, load_json
from bushgeo.lines import MidpointRef

F = Fraction


def _midpoint(bush, ref):
    """Dense coordinates of a parent-child midpoint, read from the runs of
    the bush index (over positions; ``order[p]`` is the coordinate)."""
    index = bush._index
    vec = [F(0)] * bush.space.dimension
    for start, stop, v in index.supports[ref]:
        for p in range(start, stop):
            vec[index.order[p]] = F(v, index.scale)
    return tuple(vec)


def test_dyadic_depth1_vectors():
    bush = dyadic_bush(1)
    assert bush.levels[0][0] == (1, 1)
    assert bush.levels[1] == ((2, 0), (0, 2))
    assert bush.epsilon == 1
    space = bush.space
    assert space.dist(bush.levels[1][0], bush.levels[0][0]) == 1
    assert space.dist(bush.levels[1][1], bush.levels[0][0]) == 1
    assert bush.functional(bush.levels[1][0]) == 1  # (1/2)*2 + (1/2)*0


def test_dyadic_depth2_convexity_example():
    bush = dyadic_bush(2)
    assert bush.levels[1][0] == (2, 2, 0, 0)
    assert bush.levels[2][0] == (4, 0, 0, 0)
    half = F(1, 2)
    combo = tuple(
        half * a + half * b for a, b in zip(bush.levels[2][0], bush.levels[2][1])
    )
    assert combo == tuple(F(x) for x in bush.levels[1][0])


@pytest.mark.parametrize("n", range(1, 11))
def test_dyadic_validates_exactly(n):
    report = validate_bush(dyadic_bush(n), normalized=True)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert not report.warnings


def test_dyadic_lambda_max():
    assert lambda_max(dyadic_bush(3)) == F(1, 2)
    # equality in the lambda_max <= 1 - epsilon/2 bound
    bush = dyadic_bush(3)
    assert lambda_max(bush) == 1 - bush.epsilon / 2


def _ternary_bush():
    # one block of three children with equal weights; vectors are scaled
    # indicators, the canonical density picture
    space = NormedSpace(3, "wl1", (F(1, 3),) * 3)
    return Bush(
        space=space,
        levels=(((1, 1, 1),), ((3, 0, 0), (0, 3, 0), (0, 0, 3))),
        partitions=(((0, 1, 2),),),
        weights=((F(1, 3),) * 3,),
        epsilon=F(4, 3),
        functional=Functional((F(1, 3),) * 3),
    )


def test_ternary_lambda_max():
    bush = _ternary_bush()
    assert validate_bush(bush).passed
    assert lambda_max(bush) == F(1, 3)
    assert lambda_max(bush) == 1 - bush.epsilon / 2  # 1/3 = 1 - 2/3


def _two_atom_bush(epsilon):
    # weights 3/4, 1/4; separations are 1/2 and 3/2
    space = NormedSpace(2, "wl1", (F(3, 4), F(1, 4)))
    return Bush(
        space=space,
        levels=(((1, 1),), ((F(4, 3), 0), (0, 4))),
        partitions=(((0, 1),),),
        weights=((F(3, 4), F(1, 4)),),
        epsilon=epsilon,
        functional=Functional((F(3, 4), F(1, 4))),
    )


def test_lambda_max_bound_tight_iff_epsilon_small():
    ok = _two_atom_bush(F(1, 2))
    report = validate_bush(ok)
    assert lambda_max(ok) == F(3, 4)
    assert report.passed
    bad = _two_atom_bush(F(3, 5))
    report = validate_bush(bad)
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["weight_bound_lambda_max"]  # 3/4 > 1 - 3/10
    assert not report.passed


def test_raw_mode_warns_instead_of_failing_weight_bound():
    bad = _two_atom_bush(F(3, 5))
    report = validate_bush(bad, normalized=False)
    by_name = {c.name: c.passed for c in report.checks}
    assert "weight_bound_lambda_max" not in by_name
    assert any("lambda_max" in w for w in report.warnings)
    # raw mode still fails on separation here (1/2 < 3/5)
    assert not by_name["children_separated_from_parent"]


def test_singleton_block_fails():
    space = NormedSpace(2, "wl1", (F(1, 2), F(1, 2)))
    bush = Bush(
        space=space,
        levels=(((1, 1),), ((1, 1),)),
        partitions=(((0,),),),
        weights=((F(1),),),
        epsilon=F(1),
        functional=Functional((F(1, 2), F(1, 2))),
    )
    report = validate_bush(bush)
    by_name = {c.name: c.passed for c in report.checks}
    assert not by_name["blocks_have_two_or_more_children"]
    assert not by_name["children_separated_from_parent"]  # child == parent
    assert by_name["children_average_to_parent"]


def test_perturbed_weights_break_convexity():
    bush = dyadic_bush(2)
    weights = [list(lev) for lev in bush.weights]
    weights[0][0], weights[0][1] = F(3, 5), F(2, 5)
    perturbed = replace(bush, weights=tuple(tuple(lev) for lev in weights))
    report = validate_bush(perturbed)
    by_name = {c.name: c.passed for c in report.checks}
    assert by_name["block_weights_sum_to_one"]
    assert not by_name["children_average_to_parent"]


def test_partition_overlap_and_gap_are_structural():
    bush = dyadic_bush(1)
    overlap = replace(bush, partitions=(((0, 0),),))
    with pytest.raises(StructuralError) as err:
        validate_bush(overlap)
    assert "duplicated" in str(err.value)
    gap = replace(bush, partitions=(((0,),),))
    with pytest.raises(StructuralError) as err:
        validate_bush(gap)
    assert "uncovered" in str(err.value)
    outside = replace(bush, partitions=(((0, 5),),))
    with pytest.raises(StructuralError):
        validate_bush(outside)


def test_shift_bush():
    bush = dyadic_bush(1)
    assert shift_bush(bush, (0, 0)).levels == bush.levels
    shifted = shift_bush(bush, (1, 1))
    assert shifted.levels[0][0] == (2, 2)
    assert shifted.space.dist(shifted.levels[1][0], shifted.levels[0][0]) == 1
    back = shift_bush(shifted, (-1, -1))
    assert back.levels == bush.levels
    # raw axioms survive the shift, normalization does not
    assert validate_bush(shifted, normalized=False).passed
    assert not validate_bush(shifted, normalized=True).passed


def test_midpoint_examples():
    bush = dyadic_bush(1)
    mid = _midpoint(bush, MidpointRef(1, 0, 0))
    assert mid == (F(3, 2), F(1, 2))
    assert bush.space.norm(mid) == 1
    assert bush.space.dist(mid, bush.levels[0][0]) == F(1, 2)
    bush2 = dyadic_bush(2)
    mid2 = _midpoint(bush2, MidpointRef(2, 0, 1))
    assert mid2 == (1, 3, 0, 0)
    assert bush2.space.norm(mid2) == 1


def test_midpoint_equidistance_property():
    for bush in (dyadic_bush(3), random_bush(11, depth=2, extra_atoms=3)):
        half = F(1, 2)
        for level in range(bush.depth):
            for k, block in enumerate(bush.partitions[level]):
                for j in block:
                    mid = _midpoint(bush, MidpointRef(level + 1, k, j))
                    xp, xc = bush.levels[level][k], bush.levels[level + 1][j]
                    d_parent = bush.space.dist(mid, xp)
                    d_child = bush.space.dist(mid, xc)
                    assert d_parent == d_child == half * bush.space.dist(xp, xc)
                    assert d_parent >= bush.epsilon / 2


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_bush_validates(seed):
    bush = random_bush(seed, depth=3, extra_atoms=5, tight_epsilon=seed % 2 == 0)
    report = validate_bush(bush, normalized=True)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert lambda_max(bush) <= 1 - bush.epsilon / 2


def test_depth_budget(monkeypatch):
    # the constructors are refused by their dense size, (2**(N+1) - 1)
    # vectors of 2**N coordinates for the dyadic bush; 12 is the deepest
    with pytest.raises(BudgetError) as refused:
        dyadic_bush(13)
    assert refused.value.required == 134_209_536 > errors.BUDGET >= 33_550_336
    with pytest.raises(BudgetError) as refused:
        random_bush(0, depth=13)
    assert refused.value.required == (2**14 - 1) * 2**13
    # a level-n group holds >= 2**(12-n) of the 4,097 atoms
    with pytest.raises(BudgetError) as refused:
        random_bush(0, depth=12, extra_atoms=1)
    assert refused.value.required == 4097 * (4097 + sum(2**n for n in range(12)))
    monkeypatch.setattr(errors, "BUDGET", 9 * (9 + 4 + 2 + 1) - 1)
    random_bush(0, depth=3)
    with pytest.raises(BudgetError) as refused:
        random_bush(0, depth=3, extra_atoms=1)
    assert refused.value.required == 9 * (9 + 4 + 2 + 1)
    monkeypatch.setattr(errors, "BUDGET", 28)  # dyadic_bush(2) exactly
    dyadic_bush(2)
    with pytest.raises(BudgetError) as refused:
        dyadic_bush(3)
    assert refused.value.required == 15 * 8


def test_dyadic_levels_are_a_dense_view_built_on_first_read():
    # dyadic_bush hands over one run per vector; validating it and counting
    # line terms read the level sizes only, and the dense view built on the
    # first read of `levels` holds the ints the definition gives
    from bushgeo.lines import _term_count

    bush = dyadic_bush(4)
    assert validate_bush(bush).passed
    assert _term_count(bush, 3, True) == 4**3 * 2
    assert "levels" not in vars(bush)
    dim = 16
    expected = tuple(
        tuple(tuple(2**n if j * dim >> n <= i < (j + 1) * dim >> n else 0 for i in range(dim))
              for j in range(2**n))
        for n in range(5)
    )
    assert bush.levels == expected
    assert {type(x) for lev in bush.levels for vec in lev for x in vec} == {int}
    assert bush.levels is bush.levels
    assert shift_bush(bush, (0,) * dim).levels == expected


def test_dense_view_is_refused_by_its_size(monkeypatch):
    bush = dyadic_bush(4)
    monkeypatch.setattr(errors, "BUDGET", 31 * 16 - 1)
    with pytest.raises(BudgetError) as refused:
        bush.levels
    assert refused.value.required == 31 * 16  # (vectors) x (dimension)
    assert "levels" not in vars(bush)


def _old_random_levels(seed, depth, extra_atoms):
    """``random_bush``'s group vectors, drawn as dense ``Fraction`` tuples
    the way it drew them before it built runs."""
    rng = random.Random(seed)
    n_atoms = 2**depth + rng.randrange(extra_atoms + 1) if extra_atoms else 2**depth
    masses = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n_atoms)]
    atoms = list(range(n_atoms))
    rng.shuffle(atoms)
    groups = [[tuple(atoms)]]
    for level in range(depth):
        min_size = 2 ** (depth - level - 1)
        next_groups = []
        for block in groups[-1]:
            if len(block) >= 3 * min_size and rng.random() < 0.4:
                a = rng.randint(min_size, len(block) - 2 * min_size)
                b = rng.randint(a + min_size, len(block) - min_size)
                next_groups += [block[:a], block[a:b], block[b:]]
            else:
                split_at = rng.randint(min_size, len(block) - min_size)
                next_groups += [block[:split_at], block[split_at:]]
        groups.append(next_groups)
    levels = []
    for lev in groups:
        row = []
        for block in lev:
            vec = [F(0)] * n_atoms
            value = 1 / sum(masses[i] for i in block)
            for i in block:
                vec[i] = value
            row.append(tuple(vec))
        levels.append(tuple(row))
    return tuple(levels)


@pytest.mark.parametrize("seed", range(6))
def test_random_bush_levels_are_its_dense_group_vectors(seed):
    bush = random_bush(seed, depth=3, extra_atoms=5)
    assert bush.levels == _old_random_levels(seed, 3, 5)
    # one run per group vector, over the shuffled atoms
    assert all(len(vec) == 1 for lev in bush.runs for vec in lev)


def test_a_game_never_builds_the_dense_levels(tmp_path):
    path = str(tmp_path / "bush.json")
    assert main(["bush-gen", "--dyadic", "4", "-o", path]) == 0
    for bush in (bush_from_dict(load_json(path)), random_bush(3, depth=3, extra_atoms=3)):
        assert validate_bush(bush).passed
        g, ts = random_challenge(bush, random.Random(1))
        response = challenge_respond(bush, g, ts)
        witness = (response.challenge, response.geodesic, ts, response.witness)
        assert validate_witness(*witness, bush.epsilon / 4).passed
        assert "levels" not in vars(bush)


def test_structural_errors_on_construction():
    space = NormedSpace(2, "wl1", (F(1, 2), F(1, 2)))
    with pytest.raises(StructuralError):
        Bush(space, (), (), (), F(1), Functional((F(1, 2), F(1, 2))))
    with pytest.raises(StructuralError):
        Bush(space, (((1, 1),),), (((0, 1),),), (), F(1), Functional((F(1, 2), F(1, 2))))
    with pytest.raises(InputError):
        Bush(space, (((1, 1),),), (), (), F(0), Functional((F(1, 2), F(1, 2))))
