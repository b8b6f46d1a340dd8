"""Thickness-game outputs compared against a recorded golden file.

For 40 ``random_challenge`` seeds on each bush below, the golden file holds
the challenge, ``formats.response_to_dict`` of the response, the
``validate_witness`` report at epsilon/4 and the challenge geodesic
evaluated at 0, 1 and every challenge point, all as exact rationals; a seed
that raises records its error after what it produced so far.  Any change to
a response, a report, an evaluation or an error message shows up here.
Regenerate (only when such a change is intended) with

    PYTHONPATH=src python tests/test_game_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from bushgeo import challenge_respond, dyadic_bush, random_bush, random_challenge, validate_witness
from bushgeo import formats
from bushgeo.errors import BushgeoError
from bushgeo.rationals import format_vector

GOLDEN = Path(__file__).parent / "data" / "game_golden.json"

SEEDS = range(40)

BUSHES = {
    "dyadic_4": lambda: dyadic_bush(4),
    "dyadic_6": lambda: dyadic_bush(6),
    "random_3_d4_x3": lambda: random_bush(3, depth=4, extra_atoms=3),
    "random_5_d3": lambda: random_bush(5, depth=3),
}


def play(bush, seed) -> dict:
    """One seeded game on ``bush``, as plain JSON data."""
    out = {}
    try:
        geo, ts = random_challenge(bush, random.Random(seed))
        out["challenge"] = formats.challenge_to_dict(geo, ts)
        resp = challenge_respond(bush, geo, ts)
        out["response"] = formats.response_to_dict(
            resp.geodesic, resp.witness, deepened=resp.deepened, challenge=resp.challenge
        )
        report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4)
        out["report"] = report.as_dict()
        out["values"] = [format_vector(point) for point in geo.eval_batch([0, 1, *ts])]
    except BushgeoError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def games(name) -> dict:
    bush = BUSHES[name]()
    return {f"{name}|seed={seed}": play(bush, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(BUSHES))
def test_game_matches_golden(golden, name):
    for key, out in games(name).items():
        assert out == golden[key], key


def test_golden_covers_every_game(golden):
    assert {f"{name}|seed={seed}" for name in BUSHES for seed in SEEDS} == set(golden)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {key: out for name in sorted(BUSHES) for key, out in games(name).items()}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in recorded.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
