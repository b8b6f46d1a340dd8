"""Recursive broken-line geodesics over a normalized bush.

Every line is an ordered list of terms ``coeff * generator`` whose vector
sum is the root vector and whose coefficients sum to 1, so the polyline
from 0 through the partial sums is a unit-speed geodesic parameterized by
arclength on [0, 1].  Lines are labelled by bit strings:

* the empty label is the straight segment to the root vector;
* an *intermediate* line replaces every generator x[l][k] by the weighted
  midpoints (x[l][k] + x[l+1][j]) / 2 over the block below k;
* appending bit 0 (resp. 1) splits every midpoint term of the intermediate
  line into the halves (parent, child) (resp. (child, parent)).

Each step (`_run`) replaces a term by a run of terms with the same sum, so
a line is a substitution tree with two readers, both in integers: one
descent (`_descend`, `_point`) finds the point at an arclength, and one
window walk (`_walk`) lists the terms meeting an arclength window, in
order.  A vertex of a line is a vertex of every deeper line, at the same
point, so a descent stops at the first line on which its arclength is a
vertex: its path may be shorter than the label.  Bush vectors are step
functions over the coordinate order of the bush's index, stored as runs,
so a point is a difference array: integer jumps ``{breakpoint: jump}``
over one denominator, built in time linear in the number of its terms,
not in the dimension.  Exact checks subtract
points by merging them (`_difference`) or compare their `_canonical`
forms; only `_fractions` (`eval_batch`) turns one into a dense ``Fraction``
tuple, in the caller's coordinate order.  `line_for_label` and
`intermediate_for_label` return checked, lazy `BrokenLine` views over the
walk; nothing is memoised.

Both children of a label pass through every vertex of the intermediate
line; between two consecutive intermediate vertices they acquire new
vertices sitting exactly (gap/2) * ||x_parent - x_child|| apart.
`_gap_deviations` lists them gap by gap; `sibling_deviation` totals them
and the game's witness reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .bushes import Bush, BushVectorRef, GeneratorRef, MidpointRef, validate_bush
from .errors import BudgetError, InputError, check_budget
from .rationals import Vec, format_rational, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Term(NamedTuple):
    coeff: Fraction
    ref: GeneratorRef


class BrokenLine:
    """One labelled line, immutable: a (bush, label, intermediate) view from
    the builders, which check the label.  Its terms are built when read."""

    __slots__ = ("bush", "label", "intermediate", "_terms", "_arcs", "__weakref__")

    def __init__(self, bush: Bush, label: tuple, intermediate: bool):
        self.bush = bush
        self.label = tuple(label)
        self.intermediate = bool(intermediate)
        self._terms = None
        self._arcs = None

    def __repr__(self):
        tag = "~" if self.intermediate else ""
        return f"BrokenLine({tag}{format_label(self.label) or '()'})"  # builds nothing

    @property
    def terms(self) -> tuple:
        """Every term, from one walk; equal terms and lengths share objects.
        The term count is checked against the size budget first."""
        if self._terms is None:
            check_budget(repr(self), _term_count(self.bush, len(self.label), self.intermediate))
            den, leaves = self.window()
            coeffs, shared, terms = {}, {}, []
            for _, length, ref in leaves:
                term = shared.get((length, ref))
                if term is None:
                    coeff = coeffs.get(length) or coeffs.setdefault(length, Fraction(length, den))
                    term = shared[length, ref] = Term(coeff, ref)
                terms.append(term)
            self._terms = tuple(terms)
        return self._terms

    def window(self, a=ZERO, b=ONE):
        """`_walk` over the open arclength window (a, b); builds nothing."""
        return _walk(self.bush, self.label, self.intermediate, a, b)

    @property
    def arclengths(self) -> tuple:
        """Cumulative arclengths of the vertices (length = #terms + 1)."""
        if self._arcs is None:
            self._arcs = (ZERO, *accumulate(t.coeff for t in self.terms))
        return self._arcs

    @property
    def total_length(self) -> Fraction:
        return self.arclengths[-1]

    def max_gap(self) -> Fraction:
        """Largest distance between consecutive vertices (= largest coeff)."""
        return max(t.coeff for t in self.terms)

    def eval_batch(self, points: Sequence[Fraction]) -> list:
        """Exact points at many arclengths, one tree descent each."""
        bush, label, mid = self.bush, self.label, self.intermediate
        _check_label(bush, len(label), mid)
        index = bush._index
        return [_fractions(index, _point(bush, _descend(bush, label, s, mid), s))
                for s in map(to_fraction, points)]

    def vertices(self):
        """Yield every (arclength, point) pair in order, one row at a time
        (a length-p line has ~4^p of them).  A row keeps the coordinate
        objects of the row before where they did not change, and equal new
        coordinates share one object."""
        index = self.bush._index
        dim = self.bush.space.dimension
        P = math.lcm(*(t.coeff.denominator for t in self.terms))
        PS = P * index.scale
        arc, acc, point = 0, [0] * dim, [ZERO] * dim  # by position in the index's order
        inverse = index.inverse

        def row():  # the point in the caller's coordinate order
            return tuple(point) if inverse is None else tuple(map(point.__getitem__, inverse))

        yield ZERO, row()
        for coeff, ref in self.terms:
            m = coeff.numerator * (P // coeff.denominator)
            arc += m
            fresh = {}
            for start, stop, v in index.supports[ref]:
                for p in range(start, stop):
                    a = acc[p] = acc[p] + m * v
                    if a not in fresh:
                        fresh[a] = Fraction(a, PS)
                    point[p] = fresh[a]
            yield Fraction(arc, P), row()


def ensure_normalized(bush: Bush):
    """Refuse a bush failing `validate_bush`, naming the failing checks
    every time (cached per bush)."""
    index = bush._index
    failed = index.failed_checks
    if failed is None:
        report = validate_bush(bush, normalized=True)
        failed = index.failed_checks = [c.name for c in report.checks if not c.passed]
    if failed:
        raise InputError(f"bush is not a normalized bush; failing checks: {failed}")
    return bush


def _check_label(bush: Bush, length: int, intermediate: bool = False):
    """Refuse the line of a length-``length`` label (or its intermediate
    line) as building it would: unnormalized bush, or a refinement step past
    the bush depth.  This is the one label-versus-depth check; the size of a
    whole line is checked only where one is built (`_term_count`)."""
    ensure_normalized(bush)
    if bush.depth < length + intermediate:
        raise BudgetError(
            f"refining a length-{bush.depth} label needs bush depth >= {bush.depth + 1}, "
            f"bush has {bush.depth}",
            required=bush.depth + 1,
        )


def _run(bush: Bush, ref: BushVectorRef, bit: Optional[int]) -> tuple:
    """The refinement rule: the terms that replace a term ``c * x[l][k]``.

    Per child j of the block below k (zero weights skipped): the midpoint
    term for ``bit=None`` (the intermediate step), else the halves (parent,
    child), swapped for bit 1.  Entries are ``(n, ref)`` for the coefficient
    ``c * n / (2 * weight_scale)``.  Each run is built once per bush and
    kept in its index.
    """
    index = bush._index
    run = index.runs.get((bit, ref))
    if run is not None:
        return run
    level, k = ref
    run = []
    for j in bush.partitions[level][k]:
        iw = index.int_weights[level][j]
        if iw and bit is None:
            run.append((2 * iw, index.midpoint_refs[level][j]))
        elif iw:
            child = index.vector_refs[level + 1][j]
            run += ((iw, child), (iw, ref)) if bit else ((iw, ref), (iw, child))
    run = index.runs[bit, ref] = tuple(run)
    return run


def _term_count(bush: Bush, length: int, intermediate: bool = False) -> int:
    """The number of terms of the line of a length-``length`` label (or of
    its intermediate line), counted bottom-up over the `_run` sizes without
    building any.  The bits only reorder each run, so every label of one
    length has the same count.  The caller checks the label."""
    index = bush._index
    live = [[[j for j in block if weights[j]] for block in lev]
            for lev, weights in zip(bush.partitions[: length + intermediate], index.int_weights)]
    # counts[l][k]: the terms one term x[l][k] becomes in the steps still to come
    counts = [[len(b) for b in live[l]] if intermediate else [1] * bush.level_sizes[l]
              for l in range(length + 1)]
    for _ in range(length):
        counts = [[len(b) * c + sum(below[j] for j in b) for b, c in zip(live[l], row)]
                  for l, (row, below) in enumerate(zip(counts, counts[1:]))]
    return counts[0][0]


def _descend(bush: Bush, label: tuple, s: Fraction, intermediate: bool = False) -> list:
    """Follow arclength ``s`` down the `_run` steps to the line of ``label``,
    stopping at the first line on which s is a vertex.

    Entry i is ``(start, length, den, ref, before)`` for line ``label[:i]``
    (then the intermediate line): its first term ending at or after s spans
    [start/den, (start + length)/den], and ``before`` holds the ``(length,
    ref)`` terms before it in the run that replaced entry i - 1's term.
    Each step replaces a term by a run with the same sum, so a vertex of
    one line is a vertex of every deeper line, at the same point: the path
    ends at the root when s is 0 or 1, and at the first entry whose term
    ends at s, and every line from there down has s as a vertex.
    Compares integers only; the caller checks the label (`_check_label`).
    """
    sn, sd = s.numerator, s.denominator
    if not 0 <= sn <= sd:
        raise InputError(f"arclength {s} outside [0, 1]")
    index = bush._index
    step = 2 * index.weight_scale
    start, length, den, ref = 0, 1, 1, index.vector_refs[0][0]
    path = [(start, length, den, ref, ())]
    if sn in (0, sd):
        return path
    for bit in (*label, None) if intermediate else label:
        start, den, before = start * step, den * step, []
        at = sn * den
        for n, r in _run(bush, ref, bit):
            piece = length * n
            end = (start + piece) * sd
            if end >= at:
                break
            before.append((piece, r))
            start += piece
        length, ref = piece, r
        path.append((start, length, den, ref, before))
        if end == at:
            break
    return path


def _point(bush: Bush, path: list, s: Fraction) -> tuple:
    """The point at arclength ``s`` from its `_descend` path, exactly, as
    ``(jumps, total)``: the step function over the index's positions that
    jumps by ``jumps[b] / total`` at position b (zero before the first
    breakpoint), summed from the runs of its terms.  A path that ends early
    gives the same value over a smaller ``total``."""
    index = bush._index
    supports = index.supports
    start, _, den, ref, _ = path[-1]
    sn, sd = s.numerator, s.denominator
    counts = {ref: sn * den - start * sd}  # coefficients over den * sd
    for _, _, d, _, before in path:
        for piece, r in before:
            counts[r] = counts.get(r, 0) + piece * (den // d) * sd
    jumps = {}
    for r, c in counts.items():
        for a, b, v in supports[r]:
            cv = c * v
            jumps[a] = jumps.get(a, 0) + cv
            jumps[b] = jumps.get(b, 0) - cv
    return jumps, den * sd * index.scale


def _fractions(index, point: tuple) -> Vec:
    """Dense ``Fraction`` coordinates of a `_point`, in the caller's
    coordinate order; the only place a point becomes dense."""
    jumps, total = point
    dense, value, last, shared = [], 0, 0, {0: ZERO}  # coordinates repeat often
    for b, j in sorted(jumps.items()):
        if b > last:
            x = shared.get(value)
            if x is None:
                x = shared[value] = Fraction(value, total)
            dense += (x,) * (b - last)
            last = b
        value += j
    dense += (ZERO,) * (len(index.order) - last)
    if index.inverse is None:
        return tuple(dense)
    return tuple(map(dense.__getitem__, index.inverse))


def _difference(p: tuple, q: tuple) -> tuple:
    """``p - q`` of two `_point`s: one merge of their jumps, cross-multiplied,
    over the product of their denominators."""
    (a, ta), (b, tb) = p, q
    jumps = {x: j * tb for x, j in a.items()}
    for x, j in b.items():
        jumps[x] = jumps.get(x, 0) - j * ta
    return jumps, ta * tb


def _canonical(point: tuple) -> tuple:
    """The one form of a `_point`'s value: its nonzero jumps in breakpoint
    order and its denominator, divided by their gcd.  Two points are equal
    exactly when their canonical forms are."""
    jumps, total = point
    g = math.gcd(total, *jumps.values())
    return tuple(sorted((b, j // g) for b, j in jumps.items() if j)), total // g


def _on_vertex(entry: tuple, s: Fraction) -> bool:
    """Whether ``s`` is a vertex arclength of a `_descend` entry's line."""
    start, length, den, sd = *entry[:3], s.denominator
    return s.numerator * den in (start * sd, (start + length) * sd)


def _walk(bush: Bush, label: tuple, intermediate: bool = False, a=ZERO, b=ONE):
    """The terms of the line of ``label`` (or of its intermediate line) that
    meet the open arclength window (a, b), in order.

    Returns ``(den, terms)``; ``terms`` yields ``(start, length, ref)`` for
    a term spanning [start/den, (start + length)/den].  When a and b are
    vertices these are exactly the terms inside [a, b].  One depth-first
    pass over the `_run` tree skips every subtree outside the window.
    The caller checks the label (`_check_label`).
    """
    index = bush._index
    step = 2 * index.weight_scale
    bits = (*label, None) if intermediate else label
    den = step ** len(bits)
    # a term [start, end] meets (a, b) iff start < hi and end > lo
    lo, hi = math.floor(a * den), math.ceil(b * den)

    def terms():
        last = len(bits) - 1
        stack = [(0, den, index.vector_refs[0][0], 0)]
        while stack:
            start, length, ref, i = stack.pop()
            if i > last:  # the empty label's line is its root term
                yield start, length, ref
                continue
            kids = []
            for n, r in _run(bush, ref, bits[i]):
                piece = length * n // step
                if start < hi and start + piece > lo:
                    if i == last:
                        yield start, piece, r
                    else:
                        kids.append((start, piece, r, i + 1))
                start += piece
            stack += reversed(kids)

    return den, terms()


def _gap_deviations(bush: Bush, label: tuple, a=ZERO, b=ONE):
    """The gaps of the intermediate line of ``label`` inside the vertex
    window [a, b], in order, as ``(start, end, midpoint, deviation, ref)``:
    the children of ``label`` place new vertices at the gap's midpoint,
    ``deviation = (end - start) / 2 * ||x_parent - x_child||`` apart.  The
    caller checks the label (`_check_label`)."""
    distances = bush._index.pair_distances
    den, terms = _walk(bush, label, True, a, b)
    for start, length, ref in terms:
        d = distances[ref]
        yield (Fraction(start, den), Fraction(start + length, den),
               Fraction(2 * start + length, 2 * den),
               Fraction(length * d.numerator, 2 * den * d.denominator), ref)


def line_for_label(bush: Bush, label: Sequence[int]) -> BrokenLine:
    """The line of a bit-string label; the empty label is the straight
    segment from 0 to the root vector."""
    label = tuple(int(b) for b in label)
    if any(b not in (0, 1) for b in label):
        raise InputError(f"label must consist of bits, got {label}")
    _check_label(bush, len(label))
    return BrokenLine(bush, label, False)


def intermediate_for_label(bush: Bush, label: Sequence[int]) -> BrokenLine:
    """The intermediate line of ``label``: every term ``c * x[l][k]`` of its
    line replaced by the weighted midpoints of the block below k."""
    line = line_for_label(bush, label)
    if len(line.label) == bush.depth:  # the midpoint step needs one level more
        _check_label(bush, bush.depth, True)  # raises
    return BrokenLine(bush, line.label, True)


def parse_label(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-", "()"):
        return ()
    if any(ch not in "01" for ch in text):
        raise InputError(f"label must be a string of 0s and 1s, got {text!r}")
    return tuple(int(ch) for ch in text)


def format_label(label: Sequence[int]) -> str:
    return "".join(str(b) for b in label)


@dataclass(frozen=True)
class GapDeviation:
    """Sibling deviation across one gap of an intermediate line."""

    index: int
    start: Fraction
    end: Fraction
    length: Fraction
    midpoint_arclength: Fraction
    deviation: Fraction
    ref: MidpointRef


@dataclass
class DeviationReport:
    label: tuple
    total: Fraction
    gaps: tuple
    selected_length: Fraction
    warning: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "label": format_label(self.label),
            "total": format_rational(self.total),
            "selected_length": format_rational(self.selected_length),
            "warning": self.warning,
            "gaps": [
                {
                    "index": g.index,
                    "start": format_rational(g.start),
                    "end": format_rational(g.end),
                    "midpoint": format_rational(g.midpoint_arclength),
                    "deviation": format_rational(g.deviation),
                    "pair": [g.ref.level - 1, g.ref.parent, g.ref.level, g.ref.child],
                }
                for g in self.gaps
            ],
        }


def sibling_deviation(
    bush: Bush, label: Sequence[int], selection: Optional[Sequence[int]] = None
) -> DeviationReport:
    """Total distance between the two children's new mid-gap vertices.

    For each gap of the intermediate line of ``label`` (or each selected
    gap), the children (label+0) and (label+1) place new vertices u, v at
    the gap's arclength midpoint with ||u - v|| = (gap length / 2) *
    ||x_parent - x_child||, which is >= (gap length) * epsilon / 2.  The
    full selection therefore totals at least epsilon / 2.  The gap count is
    checked against the size budget before the gaps are listed.
    """
    mid = intermediate_for_label(bush, label)
    check_budget(repr(mid), _term_count(bush, len(mid.label), True))
    rows = list(_gap_deviations(bush, mid.label))
    n = len(rows)
    if selection is None:
        chosen = range(n)
    else:
        chosen = sorted(set(int(i) for i in selection))
        if chosen and (chosen[0] < 0 or chosen[-1] >= n):
            raise InputError(f"gap indices must lie in [0, {n - 1}]")
    gaps = []
    total = ZERO
    selected_length = ZERO
    for i in chosen:
        start, end, midpoint, dev, ref = rows[i]
        length = end - start
        gaps.append(GapDeviation(i, start, end, length, midpoint, dev, ref))
        total += dev
        selected_length += length
    warning = "empty selection: deviation sum is vacuously 0" if not gaps else None
    return DeviationReport(mid.label, total, tuple(gaps), selected_length, warning)
