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
a line is a substitution tree: points are found by one integer descent
(`_descend`, `_point`) without building the line.  Only `vertices()` and
the memoised builders materialise terms.

Both children of a label pass through every vertex of the intermediate
line; between two consecutive intermediate vertices they acquire new
vertices sitting exactly (gap/2) * ||x_parent - x_child|| apart, which is
what `sibling_deviation` totals up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .bushes import Bush, BushVectorRef, GeneratorRef, MidpointRef, depth_budget, validate_bush
from .errors import BudgetError, BushIndexError, InputError
from .rationals import Vec

HALF = Fraction(1, 2)
ZERO = Fraction(0)
ONE = Fraction(1)

_MEMO_MAX_LINES = 128


class Term(NamedTuple):
    coeff: Fraction
    ref: GeneratorRef


def generator_vector(bush: Bush, ref: GeneratorRef) -> Vec:
    """Dense coordinates of a bush vector or of a parent-child midpoint
    (BushIndexError unless the midpoint's child is in its parent's block)."""
    if isinstance(ref, BushVectorRef):
        return bush.vector(ref.level, ref.index)
    if ref not in bush._index.supports:  # holds exactly the in-block midpoints
        raise BushIndexError(
            f"index {ref.child} is not in the block below parent {ref.parent} "
            f"at level {ref.level - 1}"
        )
    xp = bush.vector(ref.level - 1, ref.parent)
    xc = bush.vector(ref.level, ref.child)
    return tuple(HALF * (a + b) for a, b in zip(xp, xc))


class BrokenLine:
    """One labelled broken line; immutable after construction."""

    __slots__ = ("bush", "label", "intermediate", "terms", "_arcs", "__weakref__")

    def __init__(self, bush: Bush, label: tuple, intermediate: bool, terms: tuple):
        self.bush = bush
        self.label = tuple(label)
        self.intermediate = bool(intermediate)
        self.terms = tuple(terms)
        self._arcs = None

    def __repr__(self):
        tag = "~" if self.intermediate else ""
        lbl = "".join(str(b) for b in self.label) or "()"
        return f"BrokenLine({tag}{lbl}, {len(self.terms)} terms)"

    @property
    def arclengths(self) -> tuple:
        """Cumulative arclengths of the vertices (length = #terms + 1)."""
        if self._arcs is None:
            arcs = [ZERO]
            acc = ZERO
            for t in self.terms:
                acc += t.coeff
                arcs.append(acc)
            self._arcs = tuple(arcs)
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
        return [_point(bush, _descend(bush, label, s, mid), s) for s in map(Fraction, points)]

    def eval_at(self, s) -> Vec:
        """Point at arclength s in [0, 1] (exact for rational s)."""
        return self.eval_batch([s])[0]

    def vertices(self) -> list:
        """All (arclength, point) pairs; size grows ~4^p with label length."""
        bush = self.bush
        dim = bush.space.dimension
        arcs = self.arclengths
        index = bush._index
        scale = index.scale
        P = math.lcm(*(t.coeff.denominator for t in self.terms))
        PS = P * scale
        acc = [0] * dim
        result = [(ZERO, (ZERO,) * dim)]
        for (coeff, ref), arc in zip(self.terms, arcs[1:]):
            m = coeff.numerator * (P // coeff.denominator)
            ii, vv = index.supports[ref]
            for i, v in zip(ii, vv):
                acc[i] += m * v
            result.append((arc, tuple(Fraction(a, PS) for a in acc)))
        return result


def ensure_normalized(bush: Bush, tol: float = 1e-9):
    """Reject bushes that fail normalized validation (cached per bush)."""
    index = bush._index
    ok = index.normalized
    if ok is None:
        report = validate_bush(bush, tol=Fraction(tol), normalized=True)
        ok = index.normalized = report.passed
        if not ok:
            failed = [c.name for c in report.checks if not c.passed]
            raise InputError(f"bush is not a normalized bush; failing checks: {failed}")
    elif not ok:
        raise InputError("bush is not a normalized bush")
    return bush


def _check_label(bush: Bush, length: int, intermediate: bool = False):
    """Refuse the line of a length-``length`` label (or its intermediate
    line) as building it would: unnormalized bush, or the first refinement
    step past the depth budget or past the bush depth."""
    ensure_normalized(bush)
    budget = depth_budget()
    if budget < length and budget <= bush.depth:
        raise BudgetError(
            f"label length {budget + 1} exceeds depth budget {budget}", required=budget + 1
        )
    if bush.depth < length + intermediate:
        raise BudgetError(
            f"refining a length-{bush.depth} label needs bush depth >= {bush.depth + 1}, "
            f"bush has {bush.depth}",
            required=bush.depth + 1,
        )


def _run(bush: Bush, ref: BushVectorRef, bit: Optional[int]) -> list:
    """The refinement rule: the terms that replace a term ``c * x[l][k]``.

    Per child j of the block below k (zero weights skipped): the midpoint
    term for ``bit=None`` (the intermediate step), else the halves (parent,
    child), swapped for bit 1.  Entries are ``(n, ref)`` for the coefficient
    ``c * n / (2 * weight_scale)``.
    """
    index = bush._index
    level, k = ref
    run = []
    for j in bush.partitions[level][k]:
        iw = index.int_weights[level][j]
        if iw and bit is None:
            run.append((2 * iw, index.midpoint_refs[level][j]))
        elif iw:
            child = index.vector_refs[level + 1][j]
            run += ((iw, child), (iw, ref)) if bit else ((iw, ref), (iw, child))
    return run


def _refine(bush: Bush, line: BrokenLine, bit: Optional[int]) -> tuple:
    """The terms of ``line`` after one `_run` step.  Runs of one shared
    coefficient object are common, so their products are shared."""
    if line.bush is not bush:
        raise InputError("line belongs to a different bush")
    if line.intermediate:
        raise InputError("line is already intermediate")
    _check_label(bush, len(line.label) + (bit is not None), intermediate=bit is None)
    den = 2 * bush._index.weight_scale
    runs, out, prev = {}, [], None
    for coeff, ref in line.terms:
        run = runs.get(ref) or runs.setdefault(ref, _run(bush, ref, bit))
        if coeff is not prev:
            prev, products = coeff, {}
        for n, r in run:
            c = products.get(n)
            if c is None:
                c = products[n] = coeff * Fraction(n, den)
            out.append(Term(c, r))
    return tuple(out)


def _descend(bush: Bush, label: tuple, s: Fraction, intermediate: bool = False) -> list:
    """Follow arclength ``s`` down the `_run` steps to the line of ``label``.

    Entry i is ``(start, length, den, ref, before)`` for line ``label[:i]``
    (then the intermediate line): its first term ending at or after s spans
    [start/den, (start + length)/den], and ``before`` holds the ``(length,
    ref)`` terms before it in the run that replaced entry i - 1's term.
    Compares integers only; raises what building the line would raise.
    """
    if not 0 <= s <= 1:
        raise InputError(f"arclength {s} outside [0, 1]")
    _check_label(bush, len(label), intermediate)
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


def _point(bush: Bush, path: list, s: Fraction) -> Vec:
    """The point at arclength ``s`` from its `_descend` path, exactly."""
    index = bush._index
    start, _, den, ref, _ = path[-1]
    sn, sd = s.numerator, s.denominator
    counts = {ref: sn * den - start * sd}  # coefficients over den * sd
    for _, _, d, _, before in path:
        for piece, r in before:
            counts[r] = counts.get(r, 0) + piece * (den // d) * sd
    acc = [0] * bush.space.dimension
    for r, c in counts.items():
        ii, vv = index.supports[r]
        for i, v in zip(ii, vv):
            acc[i] += c * v
    total = den * sd * index.scale
    shared = {a: Fraction(a, total) for a in set(acc)}  # coordinates repeat often
    return tuple(map(shared.__getitem__, acc))


def _on_vertex(entry: tuple, s: Fraction) -> bool:
    """Whether ``s`` is a vertex arclength of a `_descend` entry's line."""
    start, length, den, sd = *entry[:3], s.denominator
    return s.numerator * den in (start * sd, (start + length) * sd)


def root_line(bush: Bush) -> BrokenLine:
    """The empty-label line: the straight segment from 0 to the root vector."""
    ensure_normalized(bush)
    return BrokenLine(bush, (), False, (Term(ONE, bush._index.vector_refs[0][0]),))


def intermediate_line(bush: Bush, line: BrokenLine) -> BrokenLine:
    """Replace each bush-vector term by its weighted-midpoint block.

    Preserves the vector sum and the arclength sum exactly; the result
    carries the same label flagged as intermediate.
    """
    return BrokenLine(bush, line.label, True, _refine(bush, line, None))


def child_line(bush: Bush, line: BrokenLine, bit: int) -> BrokenLine:
    """Label extension: each term becomes the split halves of its midpoints,
    (parent, child) for bit 0 and (child, parent) for bit 1; the
    intermediate line in between is not built."""
    if bit not in (0, 1):
        raise InputError(f"bit must be 0 or 1, got {bit!r}")
    return BrokenLine(bush, line.label + (bit,), False, _refine(bush, line, bit))


def _memo_put(memo, key, line: BrokenLine):
    memo[key] = line
    memo.move_to_end(key)
    while len(memo) > _MEMO_MAX_LINES:
        memo.popitem(last=False)


def line_for_label(bush: Bush, label: Sequence[int]) -> BrokenLine:
    """Memoized line for a bit-string label (built through its prefixes)."""
    label = tuple(int(b) for b in label)
    if any(b not in (0, 1) for b in label):
        raise InputError(f"label must consist of bits, got {label}")
    memo = bush._index.lines
    k = len(label)
    while k > 0 and label[:k] not in memo:  # the deepest cached prefix
        k -= 1
    line = memo.get(label[:k]) or root_line(bush)
    _memo_put(memo, line.label, line)
    for bit in label[k:]:
        line = child_line(bush, line, bit)
        _memo_put(memo, line.label, line)
    return line


def intermediate_for_label(bush: Bush, label: Sequence[int]) -> BrokenLine:
    """Memoized intermediate refinement of the line for ``label``."""
    key = (tuple(int(b) for b in label), "mid")
    memo = bush._index.lines
    line = memo.get(key) or intermediate_line(bush, line_for_label(bush, key[0]))
    _memo_put(memo, key, line)
    return line


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
        from .rationals import format_rational

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
    full selection therefore totals at least epsilon / 2.
    """
    label = tuple(int(b) for b in label)
    mid = intermediate_for_label(bush, label)
    arcs = mid.arclengths
    n = len(mid.terms)
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
        coeff, ref = mid.terms[i]
        dev = coeff * HALF * bush._index.pair_distances[ref]
        gaps.append(
            GapDeviation(
                index=i,
                start=arcs[i],
                end=arcs[i + 1],
                length=coeff,
                midpoint_arclength=arcs[i] + coeff * HALF,
                deviation=dev,
                ref=ref,
            )
        )
        total += dev
        selected_length += coeff
    warning = "empty selection: deviation sum is vacuously 0" if not gaps else None
    return DeviationReport(label, total, tuple(gaps), selected_length, warning)
