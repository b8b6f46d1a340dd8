"""validate_bush reports compared against a recorded golden file.

The golden file holds ``validate_bush(bush, normalized=...).as_dict()``
for every case below, recorded from the dense-Fraction implementation of
the checks.  Any change to check names, order, flags, detail strings or
warnings shows up here.  Regenerate (only when a report change is
intended) with

    PYTHONPATH=src python tests/test_validate_golden.py
"""

import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from bushgeo import Functional, NormedSpace, dyadic_bush, random_bush, shift_bush, validate_bush

GOLDEN = Path(__file__).parent / "data" / "validate_golden.json"

MODES = (True, False)  # normalized, raw


def _shifted_random():
    bush = random_bush(5, depth=2, extra_atoms=3)
    return shift_bush(bush, (F(-2, 9),) * 4 + (0,) * (bush.space.dimension - 4))


def _perturbed_coordinate():
    bush = dyadic_bush(3)
    levels = [list(map(list, lev)) for lev in bush.levels]
    levels[3][5][5] += F(1, 7)
    return replace(bush, levels=levels)


def _negative_weight():
    bush = dyadic_bush(2)
    weights = [list(lev) for lev in bush.weights]
    weights[1][0], weights[1][1] = F(3, 2), F(-1, 2)
    return replace(bush, weights=weights)


def _empty_block():
    bush = dyadic_bush(2)
    return replace(bush, partitions=(bush.partitions[0], ((0, 1, 2, 3), ())))


def _in_space(bush, kind):
    return replace(bush, space=NormedSpace(bush.space.dimension, kind))


def _linf_bush():
    return replace(
        dyadic_bush(1),
        space=NormedSpace(2, "linf"),
        levels=(((1, F(1, 3)),), ((1, 1), (1, F(-1, 3)))),
        weights=((F(1, 3), F(2, 3)),),
        epsilon=F(2, 3),
        functional=Functional((1, 0)),
    )


def cases():
    """(name, bush factory, modes) for every recorded case."""
    out = [(f"dyadic_{n}", lambda n=n: dyadic_bush(n), MODES) for n in range(1, 8)]
    for seed in range(10):
        for depth in (2, 3, 4):
            for extra in (0, 3):
                for tight in (True, False):
                    name = f"random_{seed}_d{depth}_x{extra}_{'tight' if tight else 'loose'}"
                    factory = lambda s=seed, d=depth, x=extra, t=tight: random_bush(
                        s, depth=d, extra_atoms=x, tight_epsilon=t
                    )
                    # one mode per random bush, cycling so each mode is covered
                    out.append((name, factory, (MODES[len(out) % len(MODES)],)))
    out += [
        ("shift_dyadic_2", lambda: shift_bush(dyadic_bush(2), (1, 1, 1, 1)), MODES),
        ("shift_dyadic_3", lambda: shift_bush(dyadic_bush(3), (F(1, 3),) + (0,) * 7), MODES),
        ("shift_random_5", _shifted_random, MODES),
        ("perturbed_coordinate", _perturbed_coordinate, MODES),
        ("negative_weight", _negative_weight, MODES),
        ("empty_block", _empty_block, MODES),
        ("dyadic_3_linf", lambda: _in_space(dyadic_bush(3), "linf"), MODES),
        ("linf_unit", _linf_bush, MODES),
    ]
    return out


def _key(name, normalized):
    return f"{name}|{'normalized' if normalized else 'raw'}"


def reports():
    out = {}
    for name, factory, modes in cases():
        bush = factory()
        for normalized in modes:
            out[_key(name, normalized)] = validate_bush(bush, normalized=normalized).as_dict()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,factory,modes", cases(), ids=[c[0] for c in cases()])
def test_validate_matches_golden(golden, name, factory, modes):
    bush = factory()
    for normalized in modes:
        key = _key(name, normalized)
        assert validate_bush(bush, normalized=normalized).as_dict() == golden[key], key


def test_golden_covers_every_case(golden):
    keys = {_key(name, normalized) for name, _, modes in cases() for normalized in modes}
    assert keys == set(golden)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reports().items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
