"""The brute-force thickness oracle against a recorded golden file and a
reference search.

The golden file holds ``brute_force_alpha(...).as_dict()`` on:

- the 32-member extended-Hamming gap-switch family of ``dyadic_bush(2)`` in
  5 seeded orders, at ``n_max`` 0-3, on the 17 arclengths of the line (0, 0);
- the sibling pairs of ``dyadic_bush(1)`` and ``dyadic_bush(2)``;
- the branch pairs of ``random_bush(2, depth=2)``;
- the four branches plus two gap-switch pastings of the sup-norm bush of
  ``test_families._sup_norm_bush`` (linf).

The oracle refuses a bush whose children miss the unit sphere by a hair
(`test_oracle_refuses_a_nearly_flat_bush`), and on a depth-0 bush, where
every geodesic is the segment to the root, it gives 0
(`test_oracle_on_a_depth_0_bush`).

It was recorded with the ``Fraction``/``frozenset`` search that
`reference_alpha` keeps below, and a ``hypothesis`` property compares the
integer oracle with that search on random sub-families, orders and grids of
the Hamming family.  Regenerate (only when a change of result is intended) with

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bushgeo import (BranchSpec, Bush, Functional, InputError, NormedSpace, PastedGeodesic,
                     branch_geodesic, brute_force_alpha, dyadic_bush, gap_switch_pasting,
                     line_for_label, random_bush)

GOLDEN = Path(__file__).parent / "data" / "oracle_golden.json"

ORDER_SEEDS = range(5)


def _extended_hamming_words():
    # the 16 affine forms a0 + a1 x1 + a2 x2 + a3 x3 evaluated on F_2^3
    return [
        tuple(
            (a & 1) ^ ((a >> 1) & i & 1) ^ ((a >> 2) & (i >> 1) & 1) ^ ((a >> 3) & (i >> 2) & 1)
            for i in range(8)
        )
        for a in range(16)
    ]


def _hamming_family():
    bush = dyadic_bush(2)
    family = [
        gap_switch_pasting(bush, (prefix,), word)
        for prefix in (0, 1)
        for word in _extended_hamming_words()
    ]
    return bush, family, line_for_label(bush, (0, 0)).arclengths


def _sup_norm_family():
    from test_families import _sup_norm_bush

    bush = _sup_norm_bush()
    family = [branch_geodesic(bush, bits) for bits in itertools.product((0, 1), repeat=2)]
    family += [gap_switch_pasting(bush, (0,), (0, 1) * 4),
               gap_switch_pasting(bush, (1,), (1, 0, 0, 1) * 2)]
    return bush, family, line_for_label(bush, (0, 1)).arclengths


def _nearly_flat_bush():
    # the children's norms exceed 1 by delta = 2e-5
    delta = Fraction(2, 10**5)
    return Bush(
        space=NormedSpace(2, "wl1", (1, 1)),
        levels=(((1, 0),), ((1, delta), (1, -delta))),
        partitions=(((0, 1),),),
        weights=((Fraction(1, 2), Fraction(1, 2)),),
        epsilon=Fraction(1, 10**5),
        functional=Functional((1, 0)),
    )


def cases():
    """Every golden case as ``key -> (bush, family, n_max, grid)``."""
    out = {}
    bush, family, grid = _hamming_family()
    for seed in ORDER_SEEDS:
        order = random.Random(seed).sample(range(len(family)), len(family))
        for n_max in range(4):
            out[f"hamming|order={seed}|n_max={n_max}"] = (
                bush, [family[i] for i in order], n_max, grid
            )
    for depth in (1, 2):
        bush = dyadic_bush(depth)
        for prefix in itertools.product((0, 1), repeat=depth - 1):
            family = [branch_geodesic(bush, prefix + (bit,)) for bit in (0, 1)]
            grid = line_for_label(bush, prefix + (0,)).arclengths
            for n_max in range(3):
                out[f"dyadic_{depth}|siblings={list(prefix)}|n_max={n_max}"] = (
                    bush, family, n_max, grid
                )
    bush = random_bush(2, depth=2)
    for prefix in ((), (0,), (1,)):
        family = [branch_geodesic(bush, prefix + (bit,)) for bit in (0, 1)]
        grid = line_for_label(bush, prefix + (0,)).arclengths
        for n_max in range(3):
            out[f"random_2_d2|branches={list(prefix)}|n_max={n_max}"] = (bush, family, n_max, grid)
    bush, family, grid = _sup_norm_family()
    for n_max in range(4):
        out[f"sup_norm|n_max={n_max}"] = (bush, family, n_max, grid)
    return out


def reference_alpha(bush, family, n_max, grid) -> dict:
    """The oracle's search in ``Fraction``s and ``frozenset``s, on the
    members' dense ``eval_batch`` points and ``NormedSpace.dist``: every
    pair's distances, common grid points and optimal witness, then every
    challenge set against every candidate.  Returns the report's
    ``as_dict()``."""
    grid = sorted(set(Fraction(x) for x in grid))
    K = len(grid)
    values = [geo.eval_batch(grid) for geo in family]
    n = len(family)
    commons = [[None] * n for _ in range(n)]
    dev = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(bush.space.dist(u, v)) for u, v in zip(values[i], values[j])]
            com = frozenset(k for k, (u, v) in enumerate(zip(values[i], values[j])) if u == v)
            commons[i][j] = commons[j][i] = com
            ends = [0, *sorted(com), K - 1]
            dev[i][j] = dev[j][i] = sum(
                (max(row[a : b + 1]) for a, b in zip(ends, ends[1:])), Fraction(0)
            )
    bound = None
    worst = None
    n_challenges = 0
    for gi in range(n):
        for size in range(min(n_max, K) + 1):
            for subset in itertools.combinations(range(K), size):
                n_challenges += 1
                sset = set(subset)
                best = Fraction(0)
                for gj in range(n):
                    if gj != gi and sset <= commons[gi][gj] and dev[gi][gj] > best:
                        best = dev[gi][gj]
                if bound is None or best < bound:
                    bound = best
                    worst = {
                        "geodesic_index": gi,
                        "challenge_points": [str(grid[k]) for k in subset],
                        "best_deviation": str(best),
                    }
    return {
        "alpha_bound": str(bound if bound is not None else Fraction(0)),
        "n_geodesics": n,
        "n_challenges": n_challenges,
        "grid_size": K,
        "worst_case": worst,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_oracle_matches_golden(golden):
    got = {key: brute_force_alpha(*case).as_dict() for key, case in cases().items()}
    assert set(got) == set(golden)
    for key, report in got.items():
        assert report == golden[key], key


def test_oracle_refuses_a_nearly_flat_bush():
    # its members, built unchecked, are refused when the oracle evaluates them
    bush = _nearly_flat_bush()
    family = [PastedGeodesic(bush, (0, 1), (BranchSpec((bit,), 1),)) for bit in (0, 1)]
    with pytest.raises(InputError, match="vectors_have_unit_norm"):
        brute_force_alpha(bush, family, 1, [0, Fraction(1, 4), Fraction(1, 2), 1])


def test_oracle_on_a_depth_0_bush():
    # all its geodesics are the segment to the root, so every distance and
    # the bound are 0
    root = (Fraction(3, 5), Fraction(2, 5))
    bush = Bush(space=NormedSpace(2, "wl1", (1, 1)), levels=((root,),), partitions=(),
                weights=(), epsilon=Fraction(1, 2), functional=Functional((1, 1)))
    family = [branch_geodesic(bush, ()) for _ in range(2)]
    for n_max, n_challenges in enumerate((2, 10, 22)):
        report = brute_force_alpha(bush, family, n_max, [0, Fraction(1, 4), Fraction(1, 2), 1])
        assert report.as_dict() == {
            "alpha_bound": "0", "n_geodesics": 2, "n_challenges": n_challenges, "grid_size": 4,
            "worst_case": {"geodesic_index": 0, "challenge_points": [], "best_deviation": "0"},
        }


_HAMMING = _hamming_family()


@settings(max_examples=40, deadline=None)
@given(
    members=st.lists(st.integers(0, 31), min_size=1, max_size=12),
    grid=st.lists(st.integers(0, 16), min_size=1, max_size=17),
    n_max=st.integers(0, 3),
)
def test_oracle_matches_reference_search(members, grid, n_max):
    bush, family, arclengths = _HAMMING
    family = [family[i] for i in members]
    grid = [arclengths[k] for k in grid]
    expected = reference_alpha(bush, family, n_max, grid)
    assert brute_force_alpha(bush, family, n_max, grid).as_dict() == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {key: brute_force_alpha(*case).as_dict() for key, case in cases().items()}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in recorded.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
