"""The integer point path agrees with the dense Fraction reference.

Every exact check of the game subtracts two points given as integer
coordinates over one denominator and takes `BushIndex.norm` of the
cross-multiplied difference; `NormedSpace.dist` on the same points as
``Fraction`` tuples is the reference it must match, in value and in type.
The witness verdicts built on them are exact, with no tolerance.
"""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bushgeo import (
    BudgetError,
    NormedSpace,
    challenge_respond,
    dyadic_bush,
    random_bush,
    random_challenge,
    validate_witness,
)
from bushgeo.families import _distance
from bushgeo.lines import _difference, _fractions

F = Fraction
DIM = 4  # dyadic_bush(2)

exact = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from(("wl1", "linf", "l2")))
    weights = None
    if kind == "wl1":
        weight = st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12)
        weights = tuple(draw(st.lists(weight, min_size=DIM, max_size=DIM)))
    return NormedSpace(DIM, kind, weights)


points = st.tuples(
    st.lists(st.integers(-10**12, 10**12), min_size=DIM, max_size=DIM),
    st.integers(1, 10**9),
)


@exact
@given(space=spaces(), p=points, q=points)
def test_integer_distance_matches_dense_dist(space, p, q):
    # a raw bush (norms not checked) carries the space into its index
    index = replace(dyadic_bush(2), space=space)._index
    got = _distance(index, _difference(p, q))
    want = space.dist(_fractions(p), _fractions(q))
    assert got == want
    assert type(got) is type(want)


@exact
@given(seed=st.integers(0, 10**6), which=st.sampled_from(("dyadic", "random")))
def test_achieved_deviation_is_the_dense_sum(seed, which):
    bush = dyadic_bush(4) if which == "dyadic" else random_bush(5, depth=3)
    g, ts = random_challenge(bush, random.Random(seed))
    try:
        resp = challenge_respond(bush, g, ts)
    except BudgetError:  # a depth-3 bush is too shallow to cover some challenges
        reject()
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4)
    s = resp.witness.s
    pairs = zip(resp.challenge.eval_batch(s), resp.geodesic.eval_batch(s))
    assert report.achieved_deviation == sum(bush.space.dist(u, v) for u, v in pairs)


@exact
@given(
    seed=st.integers(0, 10**6),
    which=st.sampled_from(("dyadic", "random")),
    k=st.integers(0, 15),
)
def test_witness_verdict_is_exact_at_the_achieved_deviation(seed, which, k):
    # alpha equal to the achieved deviation passes; alpha above it by any
    # 1/10**k fails the deviation sum, and only it
    bush = dyadic_bush(4) if which == "dyadic" else random_bush(5, depth=3)
    g, ts = random_challenge(bush, random.Random(seed))
    try:
        resp = challenge_respond(bush, g, ts)
    except BudgetError:  # a depth-3 bush is too shallow to cover some challenges
        reject()
    args = (resp.challenge, resp.geodesic, ts, resp.witness)
    achieved = resp.witness.deviation_total
    assert validate_witness(*args, achieved).passed
    report = validate_witness(*args, achieved + F(1, 10**k))
    assert report.achieved_deviation == achieved
    assert [name for name, ok, _ in report.checks if not ok] == ["deviation_sum"]
