import random
from fractions import Fraction

import pytest

from bushgeo import (
    BudgetError,
    BushVectorRef,
    InputError,
    MidpointRef,
    Term,
    child_line,
    intermediate_for_label,
    intermediate_line,
    lambda_max,
    line_for_label,
    random_bush,
    root_line,
    shift_bush,
    sibling_deviation,
)
from bushgeo.bushes import DEPTH_BUDGET_ENV
from bushgeo.lines import format_label, parse_label

F = Fraction


def _rand_arclength(rng):
    if rng.random() < 0.5:
        r = rng.randint(1, 8)
        return F(rng.randint(0, 2**r), 2**r)
    den = rng.choice((3, 5, 7, 11))
    return F(rng.randint(0, den), den)


def test_root_line(dyadic):
    bush = dyadic(1)
    line = root_line(bush)
    assert line.terms == (Term(F(1), BushVectorRef(0, 0)),)
    assert line.vertices() == [(F(0), (F(0), F(0))), (F(1), (F(1), F(1)))]
    assert sum(t.coeff for t in line.terms) == 1
    assert line.eval_at(F(1, 2)) == (F(1, 2), F(1, 2))


def test_root_line_rejects_unnormalized_bush(dyadic):
    shifted = shift_bush(dyadic(1), (1, 1))
    with pytest.raises(InputError):
        root_line(shifted)


def test_intermediate_of_root(dyadic):
    bush = dyadic(1)
    mid = intermediate_line(bush, root_line(bush))
    assert mid.intermediate
    assert mid.terms == (
        Term(F(1, 2), MidpointRef(1, 0, 0)),
        Term(F(1, 2), MidpointRef(1, 0, 1)),
    )
    assert mid.total_length == 1


def test_child_lines_depth1(dyadic):
    bush = dyadic(1)
    root = root_line(bush)
    zero = child_line(bush, root, 0)
    one = child_line(bush, root, 1)
    quarter = F(1, 4)
    assert zero.terms == (
        Term(quarter, BushVectorRef(0, 0)),
        Term(quarter, BushVectorRef(1, 0)),
        Term(quarter, BushVectorRef(0, 0)),
        Term(quarter, BushVectorRef(1, 1)),
    )
    # bit 1 swaps each (parent, child) pair
    assert one.terms == (
        Term(quarter, BushVectorRef(1, 0)),
        Term(quarter, BushVectorRef(0, 0)),
        Term(quarter, BushVectorRef(1, 1)),
        Term(quarter, BushVectorRef(0, 0)),
    )
    assert zero.label == (0,) and one.label == (1,)


def test_child_vertices_depth1(dyadic):
    zero = line_for_label(dyadic(1), (0,))
    assert zero.vertices() == [
        (F(0), (F(0), F(0))),
        (F(1, 4), (F(1, 4), F(1, 4))),
        (F(1, 2), (F(3, 4), F(1, 4))),
        (F(3, 4), (F(1), F(1, 2))),
        (F(1), (F(1), F(1))),
    ]
    assert zero.max_gap() == F(1, 4) <= lambda_max(dyadic(1))


def test_eval_examples(dyadic):
    bush = dyadic(1)
    zero = line_for_label(bush, (0,))
    one = line_for_label(bush, (1,))
    assert zero.eval_at(F(1, 4)) == (F(1, 4), F(1, 4))
    assert zero.eval_at(0) == (0, 0)
    # both children pass through the intermediate line's vertex at 1/2
    assert zero.eval_at(F(1, 2)) == one.eval_at(F(1, 2)) == (F(3, 4), F(1, 4))


def test_eval_out_of_range(dyadic):
    with pytest.raises(InputError):
        line_for_label(dyadic(1), (0,)).eval_at(F(3, 2))


def test_exact_conservation_all_labels(dyadic):
    bush = dyadic(4)
    root_vec = tuple(F(x) for x in bush.levels[0][0])
    for p in range(4):
        for bits in range(2**p):
            label = tuple((bits >> i) & 1 for i in range(p))
            line = line_for_label(bush, label)
            assert sum(t.coeff for t in line.terms) == 1
            total = line.vertices()[-1][1]
            assert total == root_vec
            # a non-intermediate line of label length p only references
            # generators of level <= p
            assert all(t.ref.level <= p for t in line.terms)


def test_term_count_quadruples(dyadic):
    bush = dyadic(4)
    for p in range(4):
        label = (0, 1, 0, 1)[:p]
        assert len(line_for_label(bush, label).terms) == 4**p


def test_vertex_heredity(dyadic):
    bush = dyadic(3)
    for label in [(), (0,), (1,), (0, 1)]:
        line = line_for_label(bush, label)
        parent_vertices = dict(line.vertices())
        mid = intermediate_for_label(bush, label)
        mid_vertices = dict(mid.vertices())
        for arc, point in parent_vertices.items():
            assert mid_vertices[arc] == point
        for bit in (0, 1):
            child = line_for_label(bush, label + (bit,))
            child_vertices = dict(child.vertices())
            for arc, point in mid_vertices.items():
                assert child_vertices[arc] == point


def test_distance_preservation_exact(dyadic):
    bush = dyadic(3)
    rng = random.Random(6)
    for label in [(), (0,), (1, 0), (0, 1, 1)]:
        line = line_for_label(bush, label)
        points = [_rand_arclength(rng) for _ in range(40)]
        values = line.eval_batch(points)
        for _ in range(40):
            i, j = rng.randrange(len(points)), rng.randrange(len(points))
            d = bush.space.dist(values[i], values[j])
            assert d == abs(points[i] - points[j])


def test_functional_certificate(dyadic):
    bush = dyadic(3)
    rng = random.Random(7)
    line = line_for_label(bush, (1, 0))
    points = [_rand_arclength(rng) for _ in range(30)]
    for s, val in zip(points, line.eval_batch(points)):
        assert bush.functional(val) == s


def test_gap_decay(dyadic):
    bush = dyadic(5)
    lam = lambda_max(bush)
    for p in range(1, 6):
        line = line_for_label(bush, (0, 1, 0, 1, 0)[:p])
        assert line.max_gap() <= lam**p


def test_distance_preservation_random_bush():
    bush = random_bush(4, depth=2, extra_atoms=2)
    rng = random.Random(8)
    line = line_for_label(bush, (0, 1))
    points = [_rand_arclength(rng) for _ in range(25)]
    values = line.eval_batch(points)
    for _ in range(25):
        i, j = rng.randrange(len(points)), rng.randrange(len(points))
        assert bush.space.dist(values[i], values[j]) == abs(points[i] - points[j])


def test_depth_errors(dyadic, monkeypatch):
    bush = dyadic(2)
    deepest = line_for_label(bush, (0, 1))
    with pytest.raises(BudgetError):
        child_line(bush, deepest, 0)  # bush depth exhausted
    monkeypatch.setenv(DEPTH_BUDGET_ENV, "1")
    with pytest.raises(BudgetError):
        child_line(bush, line_for_label(bush, (0,)), 1)  # label budget exhausted


def test_intermediate_input_checks(dyadic):
    bush = dyadic(2)
    mid = intermediate_for_label(bush, (0,))
    with pytest.raises(InputError):
        intermediate_line(bush, mid)  # already intermediate
    with pytest.raises(InputError):
        child_line(bush, line_for_label(bush, (0,)), 2)


def test_memoization(dyadic):
    bush = dyadic(2)
    a = line_for_label(bush, (0, 1))
    b = line_for_label(bush, (0, 1))
    assert a is b


def test_sibling_deviation_depth1(dyadic):
    bush = dyadic(1)
    report = sibling_deviation(bush, ())
    assert report.total == F(1, 2) == bush.epsilon / 2
    assert [g.deviation for g in report.gaps] == [F(1, 4), F(1, 4)]
    first_only = sibling_deviation(bush, (), selection=[0])
    assert first_only.total == F(1, 4) == (bush.epsilon / 2) * F(1, 2)
    empty = sibling_deviation(bush, (), selection=[])
    assert empty.total == 0 and empty.warning


def test_sibling_deviation_matches_actual_children(dyadic):
    # the closed form (gap/2)*||x_parent - x_child|| must equal the measured
    # distance between the two children at each mid-gap arclength
    bush = dyadic(3)
    for label in [(), (0,), (1, 1)]:
        report = sibling_deviation(bush, label)
        mids = [g.midpoint_arclength for g in report.gaps]
        zero = line_for_label(bush, label + (0,)).eval_batch(mids)
        one = line_for_label(bush, label + (1,)).eval_batch(mids)
        for gap, u, v in zip(report.gaps, zero, one):
            assert bush.space.dist(u, v) == gap.deviation
        assert report.total >= bush.epsilon / 2


def test_sibling_deviation_selected_length_bound():
    bush = random_bush(9, depth=3, extra_atoms=4)
    report = sibling_deviation(bush, (0,), selection=[0, 2])
    assert report.total >= (bush.epsilon / 2) * report.selected_length
    full = sibling_deviation(bush, (0,))
    assert full.total >= bush.epsilon / 2


def test_sibling_deviation_bad_selection(dyadic):
    with pytest.raises(InputError):
        sibling_deviation(dyadic(1), (), selection=[5])


def test_zero_weight_children_are_skipped():
    # weights may legitimately be 0; zero-length terms never appear
    from bushgeo import Bush, Functional, NormedSpace, validate_bush

    space = NormedSpace(3, "wl1", (F(1, 3),) * 3)
    bush = Bush(
        space=space,
        levels=(((1, 1, 1),), ((F(3, 2), F(3, 2), 0), (0, 0, 3), (3, 0, 0))),
        partitions=(((0, 1, 2),),),
        weights=((F(2, 3), F(1, 3), F(0)),),
        epsilon=F(2, 3),
        functional=Functional((F(1, 3),) * 3),
    )
    assert validate_bush(bush, tol=0).passed
    line = line_for_label(bush, (0,))
    assert all(t.coeff > 0 for t in line.terms)
    assert sum(t.coeff for t in line.terms) == 1
    assert line.vertices()[-1][1] == (1, 1, 1)


def test_parallel_label_builds_are_deterministic(dyadic):
    # distinct labels may build concurrently; the memo tolerates races
    # because equal keys always map to equal values
    from concurrent.futures import ThreadPoolExecutor

    bush = dyadic(4)
    labels = [tuple((n >> i) & 1 for i in range(4)) for n in range(16)]
    serial = {lbl: line_for_label(bush, lbl).terms for lbl in labels}
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda lbl: line_for_label(bush, lbl).terms, labels * 3))
    for lbl, terms in zip(labels * 3, parallel):
        assert terms == serial[lbl]


def test_label_parsing():
    assert parse_label("010") == (0, 1, 0)
    assert parse_label("") == ()
    assert format_label((0, 1, 1)) == "011"
    with pytest.raises(InputError):
        parse_label("012")


def test_bush_and_its_lines_are_freed_together():
    import gc
    import weakref

    from bushgeo import dyadic_bush, validate_bush

    bush = dyadic_bush(4)
    line = line_for_label(bush, (0, 1))
    line.eval_batch([F(1, 3), F(5, 8)])
    intermediate_for_label(bush, (1,))
    sibling_deviation(bush, (0,))
    validate_bush(bush, tol=0)
    ref = weakref.ref(bush)
    del bush, line
    gc.collect()
    assert ref() is None
