import random
from fractions import Fraction

import pytest

from bushgeo import (
    BranchSpec,
    BudgetError,
    InputError,
    PastedGeodesic,
    PastingError,
    ThicknessWitness,
    branch_eval,
    branch_geodesic,
    brute_force_alpha,
    challenge_respond,
    dyadic_bush,
    gap_switch_pasting,
    lambda_max,
    line_for_label,
    make_branch,
    paste,
    random_bush,
    random_challenge,
    shift_bush,
    sibling_deviation,
    validate_bush,
    validate_witness,
)
from bushgeo.bushes import DEPTH_BUDGET_ENV

F = Fraction


# ------------------------------------------------------------ branch eval


def test_branch_eval_examples(dyadic):
    bush = dyadic(1)
    spec = BranchSpec((0,), 1)
    result = branch_eval(bush, spec, F(1, 4))
    assert result.value == (F(1, 4), F(1, 4))
    assert result.error_bound == F(1, 2)
    assert branch_eval(bush, spec, 0).value == (0, 0)


def test_branch_eval_shared_prefix_vertex(dyadic):
    bush = dyadic(2)
    a = branch_eval(bush, BranchSpec((0, 0), 2), F(1, 4)).value
    b = branch_eval(bush, BranchSpec((0, 1), 2), F(1, 4)).value
    # 1/4 is a vertex arclength of the shared prefix line (0)
    assert a == b == line_for_label(bush, (0,)).eval_at(F(1, 4))


def test_branch_eval_depth_refinement_bound(dyadic):
    bush = dyadic(5)
    lam = lambda_max(bush)
    rng = random.Random(12)
    points = [F(rng.randint(0, 64), 64) for _ in range(30)]
    bits = (0, 1)
    line_deep = line_for_label(bush, BranchSpec(bits, 5).extended_label())
    vals_deep = line_deep.eval_batch(points)
    for depth in (2, 3, 4):
        line_d = line_for_label(bush, BranchSpec(bits, depth).extended_label())
        for u, v in zip(line_d.eval_batch(points), vals_deep):
            assert bush.space.dist(u, v) <= lam**depth


def test_branch_spec_validation():
    with pytest.raises(InputError):
        BranchSpec((0, 2), 3)
    with pytest.raises(InputError):
        BranchSpec((0, 1), 1)
    spec = BranchSpec((1, 0), 4)
    assert spec.extended_label() == (1, 0, 0, 0)
    assert spec.extended_label(1) == (1,)
    assert spec.bit_at(0) == 1 and spec.bit_at(7) == 0


def test_make_branch_budget(dyadic):
    bush = dyadic(2)
    assert make_branch(bush, (0,)).depth == 2  # defaults to min(bush depth, budget)
    with pytest.raises(BudgetError):
        make_branch(bush, (0,), depth=3)


# ----------------------------------------------------------------- paste


def test_paste_single_piece(dyadic):
    bush = dyadic(2)
    geo = branch_geodesic(bush, (0,))
    assert geo.n_pieces == 1
    assert geo.eval_at(F(1, 4)) == line_for_label(bush, (0, 0)).eval_at(F(1, 4))


def test_paste_at_shared_vertex(dyadic):
    bush = dyadic(2)
    geo = paste(
        bush,
        (0, F(1, 2), 1),
        (make_branch(bush, (0,)), make_branch(bush, (1,))),
    )
    # the two depth-1 children share the intermediate-line vertex at 1/2
    assert geo.eval_at(F(1, 2)) == line_for_label(bush, (0,)).eval_at(F(1, 2))


def test_paste_rejects_non_vertex_breakpoint(dyadic):
    bush = dyadic(1)
    with pytest.raises(PastingError) as err:
        paste(bush, (0, F(1, 3), 1), (make_branch(bush, (0,)), make_branch(bush, (0,))))
    assert "1/3" in str(err.value)


def test_paste_rejects_value_mismatch(dyadic):
    bush = dyadic(2)
    # 1/4 is a vertex arclength of both depth-2 lines, but the children (0*)
    # and (1*) sit at different points there
    with pytest.raises(PastingError) as err:
        paste(bush, (0, F(1, 4), 1), (make_branch(bush, (0,)), make_branch(bush, (1,))))
    assert "disagree" in str(err.value)


def test_paste_input_checks(dyadic):
    bush = dyadic(1)
    piece = make_branch(bush, (0,))
    with pytest.raises(PastingError):
        paste(bush, (0, 1), ())
    with pytest.raises(PastingError):
        paste(bush, (0, F(1, 2)), (piece,))
    with pytest.raises(PastingError):
        paste(bush, (0, F(1, 2), F(1, 2), 1), (piece, piece, piece))


@pytest.mark.parametrize(
    "make_bush", [lambda: dyadic_bush(3), lambda: random_bush(5, depth=5, extra_atoms=4)]
)
def test_paste_accepts_exactly_the_shared_vertices(make_bush):
    # a breakpoint is accepted iff it is a vertex arclength of both pieces'
    # built lines with the same point there; the error says which check failed
    bush = make_bush()
    labels = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    vertices = {label: dict(line_for_label(bush, label).vertices()) for label in labels}
    for a in labels:
        arcs = sorted(vertices[a])
        mids = [(x + y) / 2 for x, y in zip(arcs, arcs[1:])]
        for b in labels:
            pieces = (BranchSpec(a, len(a)), BranchSpec(b, len(b)))
            for h in sorted((set(arcs) | set(vertices[b]) | set(mids)) - {0, 1}):
                shared = h in vertices[a] and h in vertices[b]
                if shared and vertices[a][h] == vertices[b][h]:
                    assert paste(bush, (0, h, 1), pieces).breakpoints == (0, h, 1)
                    continue
                with pytest.raises(PastingError) as err:
                    paste(bush, (0, h, 1), pieces)
                assert ("disagree" if shared else "not a vertex") in str(err.value), (a, b, h)


def test_paste_refuses_pieces_as_building_their_lines_would(monkeypatch):
    piece = (BranchSpec((0,), 2),)
    with pytest.raises(InputError):
        paste(shift_bush(dyadic_bush(2), (1, 0, 0, 0)), (0, 1), piece)
    bush = dyadic_bush(3)
    monkeypatch.setenv(DEPTH_BUDGET_ENV, "2")
    with pytest.raises(BudgetError, match="label length 3 exceeds depth budget 2"):
        paste(bush, (0, 1), (BranchSpec((0,), 3),))


def test_pasted_geodesic_is_distance_preserving(dyadic):
    bush = dyadic(3)
    # junctions at vertices of the shared-prefix line (0), so all pieces agree
    geo = paste(
        bush,
        (0, F(1, 2), F(3, 4), 1),
        (make_branch(bush, (0,)), make_branch(bush, (0, 1)), make_branch(bush, (0, 0))),
    )
    rng = random.Random(3)
    points = sorted(F(rng.randint(0, 336), 336) for _ in range(60))
    values = geo.eval_batch(points)
    for _ in range(100):
        i, j = rng.randrange(60), rng.randrange(60)
        assert bush.space.dist(values[i], values[j]) == abs(points[i] - points[j])


def test_gap_switch_pasting(dyadic):
    bush = dyadic(2)
    all_zero = gap_switch_pasting(bush, (0,), (0,) * 8)
    line = line_for_label(bush, (0, 0))
    for s in (F(1, 16), F(5, 16), F(11, 16)):
        assert all_zero.eval_at(s) == line.eval_at(s)
    mixed = gap_switch_pasting(bush, (0,), (0, 1, 0, 1, 0, 1, 0, 1))
    assert mixed.n_pieces == 8
    with pytest.raises(InputError):
        gap_switch_pasting(bush, (0,), (0, 1))


# -------------------------------------------------------- challenge game


def test_challenge_no_points_switches_at_root(dyadic):
    bush = dyadic(2)
    g = branch_geodesic(bush, (0, 0))
    resp = challenge_respond(bush, g, [])
    assert resp.witness.piece_records[0].refine_depth == 0
    assert resp.witness.deviation_total == bush.epsilon / 2 == F(1, 2)
    assert not resp.deepened
    report = validate_witness(resp.challenge, resp.geodesic, [], resp.witness, F(1, 2))
    assert report.passed


def test_challenge_with_depth1_vertex_points(dyadic):
    bush = dyadic(3)
    g = branch_geodesic(bush, (0,))
    ts = [F(k, 4) for k in range(5)]
    resp = challenge_respond(bush, g, ts)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4))
    assert report.passed
    assert resp.witness.deviation_total >= F(1, 4)


def test_challenge_rejects_bad_points(dyadic):
    bush = dyadic(2)
    g = branch_geodesic(bush, (0,))
    with pytest.raises(InputError):
        challenge_respond(bush, g, [F(3, 2)])


def test_challenge_covers_are_half_length(dyadic):
    bush = dyadic(4)
    g = branch_geodesic(bush, (1,))
    ts = [F(1, 3), F(2, 3), F(1, 5)]
    resp = challenge_respond(bush, g, ts)
    for rec in resp.witness.piece_records:
        total = sum((b - a for a, b in rec.covers), F(0))
        assert total <= (rec.end - rec.start) / 2
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4))
    assert report.passed


def test_challenge_points_exactly_shared(dyadic):
    bush = dyadic(4)
    g = paste(
        bush, (0, F(1, 2), 1), (make_branch(bush, (0, 1)), make_branch(bush, (0, 0)))
    )
    ts = [F(1, 7), F(3, 7), F(9, 16), F(5, 6)]
    resp = challenge_respond(bush, g, ts)
    for t, u, v in zip(ts, resp.challenge.eval_batch(ts), resp.geodesic.eval_batch(ts)):
        assert u == v, t
    # q contains the challenge points and the witness passes
    assert set(ts) <= set(resp.witness.q)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4))
    assert report.passed


def test_challenge_deepens_shallow_pieces(dyadic):
    bush = dyadic(4)
    g = paste(bush, (0, 1), (make_branch(bush, (0,), depth=1),))
    ts = [F(1, 3), F(5, 7), F(2, 7), F(9, 11)]  # forces L >= 2, beyond the stamp
    resp = challenge_respond(bush, g, ts)
    assert resp.deepened
    assert resp.challenge.pieces[0].depth >= resp.witness.piece_records[0].refine_depth + 1
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4))
    assert report.passed


def test_challenge_budget_error(dyadic):
    bush = dyadic(2)
    g = branch_geodesic(bush, (0,))
    ts = [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]  # four non-vertex points, one per gap
    with pytest.raises(BudgetError):
        challenge_respond(bush, g, ts)


def test_challenge_respects_depth_limit(dyadic):
    bush = dyadic(4)
    g = branch_geodesic(bush, ())
    ts = [F(1, 3), F(2, 3), F(1, 5), F(4, 5)]
    with pytest.raises(BudgetError):
        challenge_respond(bush, g, ts, depth_limit=1)


def test_randomized_challenges_small(dyadic):
    bush = dyadic(4)
    rng = random.Random(505)
    for _ in range(8):
        g, ts = random_challenge(bush, rng, max_prefix=2, junction_depth=1)
        resp = challenge_respond(bush, g, ts)
        report = validate_witness(
            resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4
        )
        assert report.passed, report.as_dict()


@pytest.mark.parametrize(
    "make_bush",
    [lambda: dyadic_bush(1), lambda: dyadic_bush(2), lambda: random_bush(0, depth=2)],
)
def test_random_challenge_on_shallow_bushes(make_bush):
    # prefixes and junction lines are clamped to the pieces' depth
    bush = make_bush()
    for seed in range(200):
        geo, ts = random_challenge(bush, random.Random(seed))
        assert paste(bush, geo.breakpoints, geo.pieces).pieces == geo.pieces
        assert all(0 <= t <= 1 for t in ts)


def test_challenge_rejects_depth_limit_below_one(dyadic):
    bush = dyadic(2)
    g = branch_geodesic(bush, ())
    for limit in (0, -2):
        with pytest.raises(InputError, match=f"depth limit must be >= 1, got {limit}"):
            challenge_respond(bush, g, [F(1, 3)], depth_limit=limit)


def test_random_challenge_deterministic(dyadic):
    bush = dyadic(3)
    g1, t1 = random_challenge(bush, random.Random(9))
    g2, t2 = random_challenge(bush, random.Random(9))
    assert t1 == t2
    assert g1.breakpoints == g2.breakpoints
    assert g1.pieces == g2.pieces


# ------------------------------------------------------ witness validator


def _passing_setup(bush):
    g = branch_geodesic(bush, (0, 1))
    ts = [F(1, 3), F(3, 4)]
    resp = challenge_respond(bush, g, ts)
    return g, ts, resp


def test_validator_passes_genuine_witness(dyadic):
    bush = dyadic(3)
    g, ts, resp = _passing_setup(bush)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4))
    assert report.passed
    assert report.achieved_deviation == resp.witness.deviation_total


def test_validator_fails_identical_geodesics(dyadic):
    bush = dyadic(3)
    g, ts, resp = _passing_setup(bush)
    report = validate_witness(resp.challenge, resp.challenge, ts, resp.witness, F(1, 4))
    by_name = dict((n, ok) for n, ok, _ in report.checks)
    assert not report.passed
    assert not by_name["deviation_sum"]


def test_validator_fails_on_missing_q(dyadic):
    bush = dyadic(3)
    g, ts, resp = _passing_setup(bush)
    w = resp.witness
    q = tuple(x for x in w.q if x != ts[0])
    bad = ThicknessWitness(q=q, s=w.s[: len(q) + 1], deviation_total=w.deviation_total)
    report = validate_witness(resp.challenge, resp.geodesic, ts, bad, F(1, 4))
    by_name = dict((n, ok) for n, ok, _ in report.checks)
    assert not by_name["q_contains_challenge_points"]
    assert not report.passed


def test_validator_fails_on_broken_interleaving(dyadic):
    bush = dyadic(3)
    g, ts, resp = _passing_setup(bush)
    w = resp.witness
    s = list(w.s)
    s[1] = F(1)  # s_2 = 1 > q_1
    bad = ThicknessWitness(q=w.q, s=tuple(s), deviation_total=w.deviation_total)
    report = validate_witness(resp.challenge, resp.geodesic, ts, bad, F(1, 4))
    by_name = dict((n, ok) for n, ok, _ in report.checks)
    assert not by_name["interleaving"]
    assert not report.passed


def test_validator_fails_on_perturbed_common_point(dyadic):
    bush = dyadic(3)
    g, ts, resp = _passing_setup(bush)
    # replace a cover piece (which copies g) with the sibling branch, so the
    # claimed common points inside that cover no longer match
    pieces = list(resp.geodesic.pieces)
    covered = {p for rec in resp.witness.piece_records for p in rec.covers}
    idx = next(
        i
        for i in range(len(pieces))
        if (resp.geodesic.breakpoints[i], resp.geodesic.breakpoints[i + 1]) in covered
    )
    flipped = tuple(1 - b for b in pieces[idx].bits[:1]) + pieces[idx].bits[1:]
    pieces[idx] = BranchSpec(flipped, pieces[idx].depth)
    bad_geo = PastedGeodesic(bush, resp.geodesic.breakpoints, tuple(pieces))
    report = validate_witness(resp.challenge, bad_geo, ts, resp.witness, F(1, 4))
    by_name = dict((n, ok) for n, ok, _ in report.checks)
    assert not by_name["common_at_q"]
    assert not report.passed
    # the same assembly is also rejected as a pasting
    with pytest.raises(PastingError):
        paste(bush, resp.geodesic.breakpoints, tuple(pieces))


def test_validator_rejects_nonpositive_alpha(dyadic):
    bush = dyadic(2)
    g, ts, resp = _passing_setup(bush)
    with pytest.raises(InputError):
        validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, 0)


# ------------------------------------------------------------ brute force


def test_brute_force_sibling_pair(dyadic):
    bush = dyadic(1)
    family = [branch_geodesic(bush, (0,)), branch_geodesic(bush, (1,))]
    grid = line_for_label(bush, (0,)).arclengths
    report = brute_force_alpha(bush, family, 0, grid)
    assert report.alpha_bound == F(1, 2)


def test_brute_force_single_geodesic(dyadic):
    bush = dyadic(1)
    report = brute_force_alpha(
        bush, [branch_geodesic(bush, (0,))], 1, line_for_label(bush, (0,)).arclengths
    )
    assert report.alpha_bound == 0


def test_brute_force_budgets(dyadic):
    bush = dyadic(1)
    g = branch_geodesic(bush, (0,))
    with pytest.raises(BudgetError):
        brute_force_alpha(bush, [g] * 65, 1, [F(0), F(1)])
    with pytest.raises(BudgetError):
        brute_force_alpha(bush, [g], 4, [F(0), F(1)])
    with pytest.raises(InputError):
        brute_force_alpha(bush, [], 1, [F(0)])
    with pytest.raises(InputError):
        brute_force_alpha(bush, [g], 1, [F(2)])


def test_brute_force_consistent_with_exhaustive_deviation(dyadic):
    # with no challenge points and two members, the bound equals the optimal
    # witness deviation between them, which sibling pairs realize as 1/2
    bush = dyadic(2)
    family = [branch_geodesic(bush, (0, 0)), branch_geodesic(bush, (0, 1))]
    grid = line_for_label(bush, (0, 0)).arclengths
    report = brute_force_alpha(bush, family, 0, grid)
    assert report.alpha_bound == F(1, 2)


def test_brute_force_on_random_bush():
    bush = random_bush(2, depth=2)
    family = [branch_geodesic(bush, (0,)), branch_geodesic(bush, (1,))]
    grid = line_for_label(bush, (0,)).arclengths
    report = brute_force_alpha(bush, family, 0, grid)
    assert report.alpha_bound >= bush.epsilon / 2


@pytest.mark.parametrize("seed", [2, 9])
def test_challenge_game_on_random_bush(seed):
    bush = random_bush(seed, depth=4, extra_atoms=3)
    ts = [F(1, 3), F(2, 3)]
    resp = challenge_respond(bush, branch_geodesic(bush, (0, 1)), ts)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4)
    assert report.passed
    rng = random.Random(seed)
    g, ts = random_challenge(bush, rng, max_pieces=2, max_prefix=2, junction_depth=1, max_points=2)
    resp = challenge_respond(bush, g, ts)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4)
    assert report.passed, report.as_dict()


def test_mixed_stamp_pasting(dyadic):
    # pieces rendered at different depths still paste and stay isometric
    bush = dyadic(5)
    geo = paste(
        bush,
        (0, F(1, 2), 1),
        (make_branch(bush, (0,), depth=3), make_branch(bush, (0, 1), depth=5)),
    )
    rng = random.Random(4)
    pts = sorted(F(rng.randint(0, 120), 120) for _ in range(30))
    vals = geo.eval_batch(pts)
    for i in range(30):
        for j in range(i):
            assert bush.space.dist(vals[i], vals[j]) == pts[i] - pts[j]
    ts = [F(1, 3), F(7, 9)]
    resp = challenge_respond(bush, geo, ts)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4), tol=0)
    assert report.passed


def test_challenge_on_gap_switch_pasting(dyadic):
    # a many-piece family member is as challengeable as a plain branch
    bush = dyadic(4)
    rng = random.Random(2)
    mids = 8
    for _ in range(6):
        pattern = tuple(rng.randint(0, 1) for _ in range(mids))
        g = gap_switch_pasting(bush, (rng.randint(0, 1),), pattern)
        ts = sorted({F(rng.randint(0, 48), 48), F(rng.randint(0, 13), 13)})
        resp = challenge_respond(bush, g, ts)
        report = validate_witness(
            resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4, tol=0
        )
        assert report.passed
        assert report.achieved_deviation == resp.witness.deviation_total


def test_per_piece_deviation_bound(dyadic):
    # within each piece [h0, h1] the witness deviation localizes to at least
    # (epsilon/2) * (complement length) >= (epsilon/4) * (h1 - h0)
    bush = dyadic(4)
    g = paste(
        bush, (0, F(1, 4), F(3, 4), 1),
        (make_branch(bush, (0, 0)), make_branch(bush, (0, 1)), make_branch(bush, (0,))),
    )
    ts = [F(1, 5), F(2, 5), F(4, 5)]
    resp = challenge_respond(bush, g, ts)
    for rec in resp.witness.piece_records:
        piece_dev = sum(
            (r.deviation for r in resp.witness.gap_records if rec.start <= r.arclength <= rec.end),
            F(0),
        )
        complement_len = sum((b - a for a, b in rec.complements), F(0))
        assert piece_dev >= (bush.epsilon / 2) * complement_len
        assert piece_dev >= (bush.epsilon / 4) * (rec.end - rec.start)
    report = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, F(1, 4))
    assert report.passed


def _sup_norm_bush():
    # a normalized bush in the sup norm: x* = e_1, every vector has first
    # coordinate 1, children differ from the parent in later coordinates
    from bushgeo import Bush, Functional, NormedSpace

    space = NormedSpace(3, "linf")
    return Bush(
        space=space,
        levels=(
            ((1, 0, 0),),
            ((1, 1, 0), (1, -1, 0)),
            ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)),
        ),
        partitions=(((0, 1),), ((0, 1), (2, 3))),
        weights=((F(1, 2), F(1, 2)), (F(1, 2),) * 4),
        epsilon=F(1),
        functional=Functional((1, 0, 0)),
    )


def test_sup_norm_bush_end_to_end():
    bush = _sup_norm_bush()
    report = validate_bush(bush, tol=0)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert lambda_max(bush) == F(1, 2) == 1 - bush.epsilon / 2
    # deviation and the full game work over the sup norm too
    dev = sibling_deviation(bush, ())
    assert dev.total >= bush.epsilon / 2
    g = branch_geodesic(bush, (0,))
    ts = [F(1, 3)]
    resp = challenge_respond(bush, g, ts)
    rep = validate_witness(resp.challenge, resp.geodesic, ts, resp.witness, bush.epsilon / 4)
    assert rep.passed
    line = line_for_label(bush, (1, 0))
    rng = random.Random(31)
    pts = [F(rng.randint(0, 48), 48) for _ in range(20)]
    vals = line.eval_batch(pts)
    for i in range(19):
        assert bush.space.dist(vals[i], vals[i + 1]) == abs(pts[i] - pts[i + 1])
