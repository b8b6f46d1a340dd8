"""Acceptance suite: one test per quantitative criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import random
import time
from fractions import Fraction

from bushgeo import (
    branch_geodesic,
    brute_force_alpha,
    challenge_respond,
    dyadic_bush,
    gap_switch_pasting,
    gauge_decompose,
    lambda_max,
    make_branch,
    paste,
    random_bush,
    random_challenge,
    sibling_deviation,
    validate_bush,
    validate_witness,
)
from bushgeo.families import BranchSpec, PastedGeodesic, ThicknessWitness
from bushgeo.lines import line_for_label as line

F = Fraction


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def _all_labels(max_len):
    for p in range(max_len + 1):
        for bits in range(2**p):
            yield tuple((bits >> i) & 1 for i in range(p))


def _rand_rational(rng):
    if rng.random() < 0.5:
        r = rng.randint(1, 8)
        return F(rng.randint(0, 2**r), 2**r)
    den = rng.choice((3, 5, 7, 11, 13))
    return F(rng.randint(0, den), den)


def test_criterion_1_sibling_deviation_bound():
    t0 = time.monotonic()
    bush = dyadic_bush(5)
    half = F(1, 2)
    assert bush.epsilon / 2 == half
    n_labels = 0
    for label in _all_labels(4):
        report = sibling_deviation(bush, label)
        assert report.total >= half, label
        n_labels += 1
    assert n_labels == 31
    bush1 = dyadic_bush(1)
    assert sibling_deviation(bush1, ()).total == half
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, f"31 labels of length <= 4 at N=5, all deviations >= 1/2 exactly; "
               f"empty label at N=1 equals 1/2; {elapsed:.2f}s < 10s")


def test_criterion_2_thickness_game_randomized():
    t0 = time.monotonic()
    bush = dyadic_bush(6)
    alpha = bush.epsilon / 4
    assert alpha == F(1, 4)
    rng = random.Random(20260810)
    worst = None
    for i in range(50):
        g, ts = random_challenge(bush, rng, max_pieces=3, max_points=4)
        resp = challenge_respond(bush, g, ts)
        report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, alpha)
        assert report.passed, (i, report.as_dict())
        # the validator's recomputed sum matches the responder's claim exactly
        assert report.achieved_deviation == resp.witness.deviation_total
        dev = report.achieved_deviation
        worst = dev if worst is None or dev < worst else worst
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(2, f"50 randomized challenges at N=6 all pass validate_witness at "
               f"alpha=1/4, exactly; worst deviation {worst}; {elapsed:.1f}s < 60s")


def test_criterion_3_geodesic_property_exact():
    bush = dyadic_bush(5)
    rng = random.Random(77)
    n_curves = 0
    for label in _all_labels(5):
        ln = line(bush, label)
        points = [_rand_rational(rng) for _ in range(40)]
        values = ln.eval_batch(points)
        for _ in range(100):
            i, j = rng.randrange(len(points)), rng.randrange(len(points))
            assert bush.space.dist(values[i], values[j]) == abs(points[i] - points[j])
        n_curves += 1
    pastings = [
        paste(bush, (0, F(1, 2), 1), (make_branch(bush, (0,)), make_branch(bush, (1,)))),
        paste(
            bush,
            (0, F(1, 4), F(5, 8), 1),
            (make_branch(bush, (0, 0)), make_branch(bush, (0, 1)), make_branch(bush, (0,))),
        ),
        gap_switch_pasting(bush, (0,), tuple(rng.randint(0, 1) for _ in range(8))),
    ]
    for geo in pastings:
        points = [_rand_rational(rng) for _ in range(40)]
        values = geo.eval_batch(points)
        for _ in range(100):
            i, j = rng.randrange(len(points)), rng.randrange(len(points))
            assert bush.space.dist(values[i], values[j]) == abs(points[i] - points[j])
        n_curves += 1
    _report(3, f"{n_curves} curves (63 lines up to depth 5 + {len(pastings)} pastings), "
               f"100 sampled pairs each, |dist - |s-t|| = 0 exactly")


def test_criterion_4_lambda_max_bound():
    bush = dyadic_bush(4)
    report = validate_bush(bush)
    assert report.passed
    lam = lambda_max(bush)
    assert lam == F(1, 2) == 1 - bush.epsilon / 2  # tight
    for seed in range(20):
        rb = random_bush(
            seed, depth=2 + seed % 2, extra_atoms=seed % 5, tight_epsilon=seed % 2 == 0
        )
        rep = validate_bush(rb)
        assert rep.passed, (seed, [c.name for c in rep.checks if not c.passed])
        assert lambda_max(rb) <= 1 - rb.epsilon / 2, seed
    _report(4, "dyadic bush tight at lambda_max = 1/2 = 1 - eps/2; 20 randomized "
               "normalized bushes validate with lambda_max <= 1 - eps/2 exactly")


def test_criterion_5_gap_decay():
    bush = dyadic_bush(6)
    lam = lambda_max(bush)
    for t in range(1, 7):
        for label in ((0,) * t, (1, 0, 1, 0, 1, 0)[:t]):
            assert line(bush, label).max_gap() <= lam**t, label
    rng = random.Random(55)
    points = [_rand_rational(rng) for _ in range(100)]
    bits = (1, 0, 1)
    deep = line(bush, BranchSpec(bits, 6).extended_label()).eval_batch(points)
    for depth in range(3, 6):
        shallow = line(bush, BranchSpec(bits, depth).extended_label()).eval_batch(points)
        for u, v in zip(shallow, deep):
            assert bush.space.dist(u, v) <= lam**depth
    _report(5, "max vertex gap <= (1/2)^t for t <= 6; depth-D vs depth-6 branch "
               "renderings within (1/2)^D at 100 sampled arclengths, exactly")


def test_criterion_6_gauge_renorming():
    t0 = time.monotonic()
    unit_checked = 0
    for n in (1, 2, 3):
        bush = dyadic_bush(n)
        gens = [vec for lev in bush.levels for vec in lev]
        for lev in bush.levels:
            for vec in lev:
                value = gauge_decompose(bush.space, gens, vec).value
                assert value == 1, (n, vec)
                unit_checked += 1
    rng = random.Random(606)
    pairs_checked = 0
    for n in (2, 3):
        bush = dyadic_bush(n)
        gens = [vec for lev in bush.levels for vec in lev]
        dim = bush.space.dimension
        cache = {}

        def gauge(v, _bush=bush, _gens=gens, _cache=cache):
            if v not in _cache:
                _cache[v] = gauge_decompose(_bush.space, _gens, v).value
            return _cache[v]

        for _ in range(100):
            u = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim))
            v = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim))
            gu, gv = gauge(u), gauge(v)
            c = F(rng.randint(1, 9), rng.randint(1, 4))
            assert gauge(tuple(c * x for x in u)) == c * gu
            assert gauge(tuple(a + b for a, b in zip(u, v))) <= gu + gv
            assert gu <= bush.space.norm(u)
            assert gu >= abs(bush.functional(u))
            pairs_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, f"{unit_checked} bush vectors (N<=3) at gauge exactly 1; "
               f"homogeneity/triangle/sandwich on {pairs_checked} pairs, exactly; "
               f"{elapsed:.1f}s < 30s")


def _extended_hamming_words():
    # the 16 evaluations of affine forms a0 + a1 x1 + a2 x2 + a3 x3 on F_2^3:
    # weights {0, 4, 8}; any two pinned slots leave a weight-4 flip available
    words = []
    for a in range(16):
        a0, a1, a2, a3 = a & 1, (a >> 1) & 1, (a >> 2) & 1, (a >> 3) & 1
        words.append(
            tuple(
                a0 ^ (a1 & (i & 1)) ^ (a2 & ((i >> 1) & 1)) ^ (a3 & ((i >> 2) & 1))
                for i in range(8)
            )
        )
    return words


def test_criterion_7_oracle_equivalence():
    bush = dyadic_bush(2)
    family = [
        gap_switch_pasting(bush, (prefix,), word)
        for prefix in (0, 1)
        for word in _extended_hamming_words()
    ]
    assert len(family) == 32
    # the all-0 and all-1 words are codewords, so all four depth-2 branch
    # lines are members
    grid = line(bush, (0, 0)).arclengths
    report = brute_force_alpha(bush, family, 2, grid)
    assert report.alpha_bound >= F(1, 4), report.as_dict()

    bush1 = dyadic_bush(1)
    pair = [branch_geodesic(bush1, (0,)), branch_geodesic(bush1, (1,))]
    pair_report = brute_force_alpha(bush1, pair, 0, line(bush1, (0,)).arclengths)
    assert pair_report.alpha_bound == F(1, 2)
    _report(7, f"depth-2 truncated family (32 sibling pastings) at N=2: grid bound "
               f"{report.alpha_bound} >= 1/4 over {report.n_challenges} challenges; "
               f"N=1 sibling pair bound exactly 1/2")


def test_criterion_8_witness_validator_soundness():
    bush = dyadic_bush(3)
    g = branch_geodesic(bush, (0, 1))
    ts = [F(1, 3), F(3, 4)]
    resp = challenge_respond(bush, g, ts)
    alpha = bush.epsilon / 4
    baseline = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, alpha)
    assert baseline.passed

    # (a) drop a q-point that carries a challenge point
    w = resp.witness
    q = tuple(x for x in w.q if x != ts[0])
    mutated = ThicknessWitness(q=q, s=w.s[: len(q) + 1], deviation_total=w.deviation_total)
    rep_a = validate_witness(resp.challenge, resp.geodesic, ts, mutated, alpha)
    assert not rep_a.passed
    assert not dict((n, ok) for n, ok, _ in rep_a.checks)["q_contains_challenge_points"]

    # (b) break the s/q interleaving
    s = list(w.s)
    s[1] = F(1)
    mutated = ThicknessWitness(q=w.q, s=tuple(s), deviation_total=w.deviation_total)
    rep_b = validate_witness(resp.challenge, resp.geodesic, ts, mutated, alpha)
    assert not rep_b.passed
    assert not dict((n, ok) for n, ok, _ in rep_b.checks)["interleaving"]

    # (c) perturb g-tilde at a claimed common point
    pieces = list(resp.geodesic.pieces)
    covered = {c for rec in resp.witness.piece_records for c in rec.covers}
    idx = next(
        i
        for i in range(len(pieces))
        if (resp.geodesic.breakpoints[i], resp.geodesic.breakpoints[i + 1]) in covered
    )
    flipped = (1 - pieces[idx].bits[0],) + pieces[idx].bits[1:]
    pieces[idx] = BranchSpec(flipped, pieces[idx].depth)
    bad_geo = PastedGeodesic(bush, resp.geodesic.breakpoints, tuple(pieces))
    rep_c = validate_witness(resp.challenge, bad_geo, ts, resp.witness, alpha)
    assert not rep_c.passed
    assert not dict((n, ok) for n, ok, _ in rep_c.checks)["common_at_q"]
    _report(8, "dropping a challenge q-point, breaking the interleaving, and "
               "perturbing g~ at a common point each flip the validator to fail")
