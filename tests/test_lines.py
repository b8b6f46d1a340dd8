import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bushgeo import (
    BudgetError,
    Bush,
    BushVectorRef,
    Functional,
    InputError,
    MidpointRef,
    NormedSpace,
    Term,
    dyadic_bush,
    intermediate_for_label,
    lambda_max,
    line_for_label,
    random_bush,
    shift_bush,
    sibling_deviation,
)
from bushgeo import errors, lines as lines_module
from bushgeo.lines import (_canonical, _descend, _point, _run, _term_count, _walk,
                           ensure_normalized, format_label, parse_label)

F = Fraction


def _rand_arclength(rng):
    if rng.random() < 0.5:
        r = rng.randint(1, 8)
        return F(rng.randint(0, 2**r), 2**r)
    den = rng.choice((3, 5, 7, 11))
    return F(rng.randint(0, den), den)


def test_root_line(dyadic):
    bush = dyadic(1)
    line = line_for_label(bush, ())
    assert line.terms == (Term(F(1), BushVectorRef(0, 0)),)
    assert list(line.vertices()) == [(F(0), (F(0), F(0))), (F(1), (F(1), F(1)))]
    assert sum(t.coeff for t in line.terms) == 1
    assert line.eval_batch([F(1, 2)])[0] == (F(1, 2), F(1, 2))


def test_root_line_rejects_unnormalized_bush(dyadic):
    shifted = shift_bush(dyadic(1), (1, 1))
    with pytest.raises(InputError):
        line_for_label(shifted, ())


def test_intermediate_of_root(dyadic):
    bush = dyadic(1)
    mid = intermediate_for_label(bush, ())
    assert mid.intermediate
    assert mid.terms == (
        Term(F(1, 2), MidpointRef(1, 0, 0)),
        Term(F(1, 2), MidpointRef(1, 0, 1)),
    )
    assert mid.total_length == 1


def test_child_lines_depth1(dyadic):
    bush = dyadic(1)
    zero = line_for_label(bush, (0,))
    one = line_for_label(bush, (1,))
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
    assert list(zero.vertices()) == [
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
    assert zero.eval_batch([F(1, 4)])[0] == (F(1, 4), F(1, 4))
    assert zero.eval_batch([0])[0] == (0, 0)
    # both children pass through the intermediate line's vertex at 1/2
    assert zero.eval_batch([F(1, 2)])[0] == one.eval_batch([F(1, 2)])[0] == (F(3, 4), F(1, 4))


def test_eval_out_of_range(dyadic):
    with pytest.raises(InputError):
        line_for_label(dyadic(1), (0,)).eval_batch([F(3, 2)])


def test_exact_conservation_all_labels(dyadic):
    bush = dyadic(4)
    root_vec = tuple(F(x) for x in bush.levels[0][0])
    for p in range(4):
        for bits in range(2**p):
            label = tuple((bits >> i) & 1 for i in range(p))
            line = line_for_label(bush, label)
            assert sum(t.coeff for t in line.terms) == 1
            total = list(line.vertices())[-1][1]
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


def test_depth_errors(dyadic):
    bush = dyadic(2)
    line_for_label(bush, (0, 1))
    with pytest.raises(BudgetError):
        line_for_label(bush, (0, 1, 0))  # bush depth exhausted


def test_building_a_line_is_refused_by_its_term_count(dyadic, monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked a line the budget refuses")

    bush = dyadic(2)
    line = line_for_label(bush, (0, 1))  # 16 terms
    point = line.eval_batch([F(1, 3)])
    monkeypatch.setattr(errors, "BUDGET", 15)
    monkeypatch.setattr(lines_module, "_walk", no_walk)
    with pytest.raises(BudgetError) as refused:
        line.terms
    assert refused.value.required == 16
    # the descent builds no line, so the budget does not limit it
    assert line.eval_batch([F(1, 3)]) == point
    monkeypatch.setattr(errors, "BUDGET", 7)  # the intermediate line of (0,) has 8 gaps
    with pytest.raises(BudgetError) as refused:
        sibling_deviation(bush, (0,))
    assert refused.value.required == 8


def test_intermediate_input_checks(dyadic):
    bush = dyadic(2)
    with pytest.raises(InputError):
        intermediate_for_label(bush, (0, 2))  # not a bit
    with pytest.raises(InputError):
        line_for_label(bush, (0, 2))


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
    assert validate_bush(bush).passed
    line = line_for_label(bush, (0,))
    assert all(t.coeff > 0 for t in line.terms)
    assert sum(t.coeff for t in line.terms) == 1
    assert list(line.vertices())[-1][1] == (1, 1, 1)


def test_parallel_label_builds_are_deterministic(dyadic):
    # distinct labels may build concurrently; builds share no state
    from concurrent.futures import ThreadPoolExecutor

    bush = dyadic(4)
    labels = [tuple((n >> i) & 1 for i in range(4)) for n in range(16)]
    serial = {lbl: line_for_label(bush, lbl).terms for lbl in labels}
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda lbl: line_for_label(bush, lbl).terms, labels * 3))
    for lbl, terms in zip(labels * 3, parallel):
        assert terms == serial[lbl]


def _nearly_normalized_wl1_bush():
    # every norm is exact: the children have norm 1 + 10**-10, not 1
    t = F(1, 10**10)
    half = (F(1, 2), F(1, 2))
    return Bush(
        space=NormedSpace(2, "wl1", half),
        levels=(((1, 1),), ((2 + t, -t), (-t, 2 + t))),
        partitions=(((0, 1),),),
        weights=(half,),
        epsilon=F(1, 2),
        functional=Functional(half),
    )


def test_ensure_normalized_is_exact():
    with pytest.raises(InputError, match="vectors_have_unit_norm"):
        ensure_normalized(_nearly_normalized_wl1_bush())


@pytest.mark.parametrize(
    "make",
    [_nearly_normalized_wl1_bush, lambda: shift_bush(dyadic_bush(2), (1, 1, 1, 1))],
    ids=["nearly_normalized_wl1", "shifted_dyadic_2"],
)
def test_a_refused_bush_names_its_failing_checks_every_time(make):
    bush = make()
    messages = []
    for _ in range(2):  # the second refusal reads the cached verdict
        with pytest.raises(InputError, match="vectors_have_unit_norm") as refused:
            line_for_label(bush, (0,))
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


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
    validate_bush(bush)
    ref = weakref.ref(bush)
    del bush, line
    gc.collect()
    assert ref() is None


def _scaled(points, den):
    """Points of Fractions as integer tuples over ``den``, which must be a
    common denominator.  Each object converts once: ``points`` keeps it
    alive, so its id is unique, and the lines share one object per equal
    coordinate."""
    memo, out = {}, []
    for point in points:
        row = []
        for x in point:
            v = memo.get(id(x))
            if v is None:
                n, d = x.as_integer_ratio()
                q, r = divmod(den, d)
                assert not r, (x, den)
                v = memo[id(x)] = n * q
            row.append(v)
        out.append(tuple(row))
    return out


def _reference_terms(bush, label, intermediate=False):
    """The terms of a line, built from the module docstring's definition in
    integers over ``bush.partitions`` and ``bush.weights``: ``(den, terms)``
    with one ``(n, ref)`` per term ``(n / den) * ref``."""
    wden = math.lcm(*(w.denominator for lev in bush.weights for w in lev))
    iw = [[int(w * wden) for w in lev] for lev in bush.weights]
    den, terms = 1, [(1, BushVectorRef(0, 0))]
    for bit in (*label, None) if intermediate else label:
        den *= 2 * wden  # a midpoint term has coefficient c * w, a half c * w / 2
        refined = []
        for c, (level, k) in terms:
            for j in bush.partitions[level][k]:
                n = c * iw[level][j]
                if bit is None:
                    refined.append((2 * n, MidpointRef(level + 1, k, j)))
                else:
                    halves = [(n, BushVectorRef(level, k)), (n, BushVectorRef(level + 1, j))]
                    refined += halves[::-1] if bit else halves
        terms = [t for t in refined if t[0]]
    return den, terms


def _reference_vertices(bush, den, terms):
    """Every vertex of a line from its `_reference_terms`, in integers:
    ``(total, rows)`` with one ``(arc, point)`` per vertex, at arclength
    ``arc / den`` with coordinates ``point / total``."""
    def support(ref):
        if isinstance(ref, MidpointRef):
            pairs = zip(bush.levels[ref.level - 1][ref.parent], bush.levels[ref.level][ref.child])
            vec = [(F(x) + F(y)) / 2 for x, y in pairs]
        else:
            vec = map(F, bush.levels[ref.level][ref.index])
        return [(i, x) for i, x in enumerate(vec) if x]

    exact = {ref: support(ref) for ref in {ref for _, ref in terms}}
    scale = math.lcm(*(x.denominator for sup in exact.values() for _, x in sup))
    supports = {ref: [(i, int(x * scale)) for i, x in sup] for ref, sup in exact.items()}
    arc, point = 0, [0] * bush.space.dimension
    rows = [(arc, tuple(point))]
    for c, ref in terms:
        arc += c
        for i, x in supports[ref]:
            point[i] += c * x
        rows.append((arc, tuple(point)))
    return den * scale, rows


def _interpolate(den, total, rows, s):
    """The point at arclength ``s`` on the polyline through the integer
    ``rows`` of `_reference_vertices`: ``(point, over)``, integer
    coordinates over ``over``."""
    sn, sd = s.numerator, s.denominator
    i = bisect_right([arc for arc, _ in rows], s * den) - 1
    a, u = rows[i]
    if a * sd == sn * den:
        return u, total
    b, v = rows[i + 1]
    step, offset = (b - a) * sd, sn * den - a * sd
    return tuple(x * step + offset * (y - x) for x, y in zip(u, v)), total * step


DESCENT_BUSHES = {
    "dyadic_5": lambda: dyadic_bush(5),
    "random_1_d5": lambda: random_bush(1, depth=5),
    "random_5_d5_x4": lambda: random_bush(5, depth=5, extra_atoms=4),  # two 3-child blocks
}


@pytest.mark.parametrize("name", sorted(DESCENT_BUSHES))
def test_descent_matches_materialised_lines(name):
    # the reference builds every line from the definition, in integers; the
    # walk-built line (terms and vertices) must equal it, and eval_batch,
    # which descends the substitution tree, must give the same exact point
    # at every vertex, every gap midpoint and some non-dyadic arclengths, on
    # plain and intermediate lines
    bush = DESCENT_BUSHES[name]()
    others = [F(k, d) for d in (3, 7, 9) for k in range(1, d)]
    for p in range(6):
        for n in range(2**p):
            label = tuple((n >> i) & 1 for i in range(p))
            lines = [line_for_label(bush, label)]
            if p < bush.depth:
                lines.append(intermediate_for_label(bush, label))
            for line in lines:
                where = (label, line.intermediate)
                den, terms = _reference_terms(bush, label, line.intermediate)
                coeffs = _scaled([[t.coeff for t in line.terms]], den)[0]
                assert list(zip(coeffs, (t.ref for t in line.terms))) == terms, where
                total, rows = _reference_vertices(bush, den, terms)
                vertices = list(line.vertices())
                at = _scaled([[arc for arc, _ in vertices]], den)[0]
                assert list(zip(at, _scaled([x for _, x in vertices], total))) == rows, where
                arcs = [F(arc, den) for arc, _ in rows]
                mids = [F(a + b, 2 * den) for (a, _), (b, _) in zip(rows, rows[1:])]
                got = line.eval_batch(arcs + mids + others)
                # over 2 * total a vertex doubles and a gap midpoint is the sum of its ends
                k = len(arcs)
                at_vertices = [tuple(2 * x for x in point) for _, point in rows]
                at_mids = [tuple(x + y for x, y in zip(u, v)) for (_, u), (_, v) in zip(rows, rows[1:])]
                assert _scaled(got[:k], 2 * total) == at_vertices, where
                assert _scaled(got[k : 2 * k - 1], 2 * total) == at_mids, where
                for s, x in zip(others, got[2 * k - 1 :]):
                    point, over = _interpolate(den, total, rows, s)
                    assert _scaled([x], over) == [point], (where, s)


def _reference_descend(bush, label, s, intermediate=False):
    """The full-depth descent: `lines._descend` without its stop at the
    first vertex level, one entry per line down to the line of ``label``."""
    index = bush._index
    step = 2 * index.weight_scale
    sn, sd = s.numerator, s.denominator
    start, length, den, ref = 0, 1, 1, index.vector_refs[0][0]
    path = [(start, length, den, ref, ())]
    for bit in (*label, None) if intermediate else label:
        start, den, before = start * step, den * step, []
        for n, r in _run(bush, ref, bit):
            piece = length * n
            if (start + piece) * sd >= sn * den:
                break
            before.append((piece, r))
            start += piece
        length, ref = piece, r
        path.append((start, length, den, ref, before))
    return path


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(DESCENT_BUSHES) + ["random"]),
    seed=st.integers(0, 10**6),
    bits=st.lists(st.integers(0, 1), max_size=4),
    intermediate=st.booleans(),
    others=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=8),
)
def test_descent_stops_at_the_first_vertex_level(name, seed, bits, intermediate, others):
    # a vertex that first appears on line i of the descent (label[:i], then
    # the intermediate line) ends its path after i + 1 entries; any other
    # arclength goes down to the last line; either way the point is the
    # full-depth descent's point
    if name == "random":
        bush = random_bush(seed, depth=4, extra_atoms=3)
    else:
        bush = DESCENT_BUSHES[name]()
    label = tuple(bits)
    mid = intermediate and len(label) < bush.depth
    steps = [line_for_label(bush, label[:i]) for i in range(len(label) + 1)]
    if mid:
        steps.append(intermediate_for_label(bush, label))
    first = {}  # vertex arclength -> the first line it is a vertex of
    for i, line in enumerate(steps):
        for a in line.arclengths:
            first.setdefault(a, i)
    for s in [*first, *others]:
        path = _descend(bush, label, s, mid)
        assert len(path) == first.get(s, len(steps) - 1) + 1, (label, mid, s)
        want = _point(bush, _reference_descend(bush, label, s, mid), s)
        assert _canonical(_point(bush, path, s)) == _canonical(want), (label, mid, s)


def _window(bush, label, intermediate, a, b):
    den, walk = _walk(bush, label, intermediate, a, b)
    return [(F(start, den), F(start + length, den), ref) for start, length, ref in walk]


@pytest.mark.parametrize("name", sorted(DESCENT_BUSHES))
def test_term_count_is_the_number_of_terms(name):
    bush = DESCENT_BUSHES[name]()
    for p in range(6):
        for intermediate in (False, True)[: 1 + (p < bush.depth)]:
            count = _term_count(bush, p, intermediate)
            for n in range(2**p):
                label = tuple((n >> i) & 1 for i in range(p))
                make = intermediate_for_label if intermediate else line_for_label
                assert len(make(bush, label).terms) == count, (label, intermediate)


@pytest.mark.parametrize("name", ["dyadic_5", "random_5_d5_x4"])
def test_walk_lists_the_terms_of_a_window(name):
    # a vertex-aligned window gives exactly the reference terms inside it;
    # any other window gives the terms meeting its interior
    bush = DESCENT_BUSHES[name]()
    rng = random.Random(12)
    for _ in range(80):
        label = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        intermediate = rng.random() < 0.5
        den, terms = _reference_terms(bush, label, intermediate)
        arcs = [F(0)]
        for c, _ in terms:
            arcs.append(arcs[-1] + F(c, den))
        spans = [(s, e, ref) for s, e, (_, ref) in zip(arcs, arcs[1:], terms)]
        i, j = sorted(rng.sample(range(len(arcs)), 2))
        assert _window(bush, label, intermediate, arcs[i], arcs[j]) == spans[i:j]
        a, b = sorted((_rand_arclength(rng), _rand_arclength(rng)))
        if a < b:
            meeting = [span for span in spans if span[1] > a and span[0] < b]
            assert _window(bush, label, intermediate, a, b) == meeting, (label, a, b)


def test_vertices_stream_row_by_row():
    import itertools
    import tracemalloc

    line = line_for_label(dyadic_bush(6), (0, 1, 1, 0, 1, 0))  # 4,097 rows of 64 coordinates
    tracemalloc.start()
    try:
        first = list(itertools.islice(line.vertices(), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [arc for arc, _ in first] == [0, *itertools.accumulate(t.coeff for t in line.terms[:2])]
    assert peak < 2**20
