"""The run-form point path agrees with the dense Fraction reference.

A point of a geodesic is a difference array: integer jumps over the
positions of the bush index's coordinate order, over one denominator.  Every
exact check of the game merges two such points and takes `BushIndex.norm` of
the difference in one sorted sweep; `NormedSpace.dist` on the same points as
dense ``Fraction`` tuples is the reference it must match, in value and in
type.  The witness verdicts built on them are exact, with no tolerance.
"""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from bushgeo import (
    BudgetError,
    NormedSpace,
    branch_geodesic,
    challenge_respond,
    dyadic_bush,
    intermediate_for_label,
    line_for_label,
    random_bush,
    random_challenge,
    validate_witness,
)
from bushgeo.families import _distance
from bushgeo.lines import MidpointRef, _canonical, _difference, _fractions, ensure_normalized

F = Fraction

exact = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# identity coordinate order (a bush built from runs) and a shuffled one
BASES = {"dyadic": lambda: dyadic_bush(3), "shuffled": lambda: random_bush(3, depth=3, extra_atoms=3)}


@st.composite
def raw_bushes(draw):
    """A base bush carrying a drawn space (a raw bush: norms not checked)."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]()
    dim = base.space.dimension
    kind = draw(st.sampled_from(("wl1", "linf")))
    weights = None
    if kind == "wl1":
        weight = st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12)
        weights = tuple(draw(st.lists(weight, min_size=dim, max_size=dim)))
    return replace(base, space=NormedSpace(dim, kind, weights))


def _run_form(index, coords, total):
    """The point with dense integer coordinates ``coords / total`` as
    jumps over the index's positions."""
    values = [coords[i] for i in index.order]
    jumps = {p: b - a for p, (a, b) in enumerate(zip([0, *values], values))}
    jumps[len(values)] = -values[-1]
    return jumps, total


@exact
@given(bush=raw_bushes(), data=st.data())
def test_integer_distance_matches_dense_dist(bush, data):
    # the coordinates are mostly zero, so the supports are not intervals
    index = bush._index
    dim = bush.space.dimension
    cell = st.one_of(st.just(0), st.integers(-10**12, 10**12))
    coords = st.lists(cell, min_size=dim, max_size=dim)
    (u, tu), (v, tv) = (data.draw(st.tuples(coords, st.integers(1, 10**9))) for _ in range(2))
    p, q = _run_form(index, u, tu), _run_form(index, v, tv)
    dense_p, dense_q = _fractions(index, p), _fractions(index, q)
    assert dense_p == tuple(F(x, tu) for x in u)
    got = _distance(index, _difference(p, q))
    want = bush.space.dist(dense_p, dense_q)
    assert got == want
    assert type(got) is type(want)
    assert (_canonical(p) == _canonical(q)) == (dense_p == dense_q)


def _dense_point(bush, line, s):
    """The point at arclength s of a line, from its terms and the dense
    ``bush.levels``, in ``Fraction``s."""
    def vector(ref):
        if isinstance(ref, MidpointRef):
            pairs = zip(bush.levels[ref.level - 1][ref.parent], bush.levels[ref.level][ref.child])
            return [(F(x) + F(y)) / 2 for x, y in pairs]
        return [F(x) for x in bush.levels[ref.level][ref.index]]

    point, arc = [F(0)] * bush.space.dimension, F(0)
    for coeff, ref in line.terms:
        step = min(coeff, s - arc)
        if step <= 0:
            break
        point = [x + step * y for x, y in zip(point, vector(ref))]
        arc += coeff
    return tuple(point)


arclengths = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=50),
    st.integers(0, 2**6).map(lambda k: F(k, 2**6)),
)


@exact
@given(
    seed=st.integers(0, 10**6),
    bits=st.lists(st.integers(0, 1), max_size=3),
    intermediate=st.booleans(),
    points=st.lists(arclengths, min_size=1, max_size=6),
)
def test_eval_batch_on_shuffled_atoms_matches_dense_reference(seed, bits, intermediate, points):
    # random_bush shuffles its atoms, so the index's tree order permutes
    # the coordinates and _fractions has to put them back
    bush = random_bush(seed, depth=3, extra_atoms=3)
    assume(bush._index.inverse is not None)
    label = tuple(bits)
    if intermediate and len(label) == bush.depth:
        label = label[:-1]
    line = (intermediate_for_label if intermediate else line_for_label)(bush, label)
    assert line.eval_batch(points) == [_dense_point(bush, line, s) for s in points]
    full = line_for_label(bush, label + (0,) * (bush.depth - len(label)))
    assert branch_geodesic(bush, label).eval_batch(points) == [
        _dense_point(bush, full, s) for s in points
    ]


def test_deep_line_op_never_builds_levels():
    # dyadic_bush hands over one run per vector; nothing on the set-up or
    # op path of the deep-line benchmark reads the dense levels
    bush = dyadic_bush(9)
    ensure_normalized(bush)
    rng = random.Random(1)
    bits = tuple(rng.randint(0, 1) for _ in range(7))
    points = sorted({F(rng.randint(0, d), d) for d in (3, 5, 7, 9, 64, 1000)})
    values = branch_geodesic(bush, bits, depth=7).eval_batch(points)
    assert "levels" not in vars(bush)
    weights = bush.space.weights
    for s, t, u, v in zip(points, points[1:], values, values[1:]):
        assert sum(w * abs(x - y) for w, x, y in zip(weights, u, v)) == t - s


@exact
@given(seed=st.integers(0, 10**6), which=st.sampled_from(("dyadic", "random")), data=st.data())
def test_achieved_deviation_is_the_dense_sum(seed, which, data):
    # shallow piece depths get deepened, and a depth limit caps the
    # covering search; both reach the witness builder here
    bush = dyadic_bush(4) if which == "dyadic" else random_bush(5, depth=3)
    depths = st.one_of(st.none(), st.integers(1, bush.depth))
    depth, depth_limit = data.draw(depths), data.draw(depths)
    g, ts = random_challenge(bush, random.Random(seed), depth=depth)
    try:
        resp = challenge_respond(bush, g, ts, depth_limit=depth_limit)
    except BudgetError:  # a shallow bush or limit cannot cover some challenges
        reject()
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    q, s = resp.witness.q, resp.witness.s
    assert all(a < b for a, b in zip(q, q[1:]))
    # the gap records are the s_i strictly inside their slots, in order
    inside = [y for x, y, z in zip(q, s[1:], q[1:]) if x < y < z]
    assert inside == [r.arclength for r in resp.witness.gap_records]
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
