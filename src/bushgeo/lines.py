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

Both children of a label pass through every vertex of the intermediate
line; between two consecutive intermediate vertices they acquire new
vertices sitting exactly (gap/2) * ||x_parent - x_child|| apart, which is
what `sibling_deviation` totals up.
"""

from __future__ import annotations

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

    __slots__ = ("bush", "label", "intermediate", "terms", "_arcs", "_denom", "__weakref__")

    def __init__(self, bush: Bush, label: tuple, intermediate: bool, terms: tuple):
        self.bush = bush
        self.label = tuple(label)
        self.intermediate = bool(intermediate)
        self.terms = tuple(terms)
        self._arcs = None
        self._denom = None

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

    def is_vertex_arclength(self, s: Fraction) -> bool:
        from bisect import bisect_left

        arcs = self.arclengths
        i = bisect_left(arcs, s)
        return i < len(arcs) and arcs[i] == s

    @property
    def _coeff_denom(self) -> int:
        """lcm of the term-coefficient denominators (for int accumulation)."""
        if self._denom is None:
            import math

            self._denom = math.lcm(*(t.coeff.denominator for t in self.terms))
        return self._denom

    def eval_batch(self, points: Sequence[Fraction]) -> list:
        """Evaluate at many arclengths with one pass over the terms.

        Whole terms accumulate as integers over a fixed denominator; only
        the query snapshots (and the partial segment of each query) touch
        Fraction arithmetic, so batches over long lines stay fast and exact.
        """
        bush = self.bush
        dim = bush.space.dimension
        arcs = self.arclengths
        total = arcs[-1]
        qs = [Fraction(p) for p in points]
        for s in qs:
            if s < 0 or s > total:
                raise InputError(f"arclength {s} outside [0, {total}]")
        order = sorted(range(len(qs)), key=qs.__getitem__)
        index = bush._index
        scale = index.scale
        supports = index.supports
        P = self._coeff_denom
        PS = P * scale
        acc = [0] * dim
        out = [None] * len(qs)
        idx = 0
        nterms = len(self.terms)
        for qi in order:
            s = qs[qi]
            while idx < nterms and arcs[idx + 1] < s:
                coeff, ref = self.terms[idx]
                m = coeff.numerator * (P // coeff.denominator)
                ii, vv = supports[ref]
                for i, v in zip(ii, vv):
                    acc[i] += m * v
                idx += 1
            base = [Fraction(a, PS) for a in acc]
            if idx < nterms and s > arcs[idx]:
                rem = s - arcs[idx]
                ii, vv = supports[self.terms[idx].ref]
                for i, v in zip(ii, vv):
                    base[i] += rem * Fraction(v, scale)
            out[qi] = tuple(base)
        return out

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
        P = self._coeff_denom
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


def root_line(bush: Bush) -> BrokenLine:
    """The empty-label line: the straight segment from 0 to the root vector."""
    ensure_normalized(bush)
    return BrokenLine(bush, (), False, (Term(ONE, bush._index.vector_refs[0][0]),))


def intermediate_line(bush: Bush, line: BrokenLine) -> BrokenLine:
    """Replace each bush-vector term by its weighted-midpoint block.

    Preserves the vector sum and the arclength sum exactly; the result
    carries the same label flagged as intermediate.  Terms reuse the bush's
    canonical refs and one coefficient object per distinct value.
    """
    if line.bush is not bush:
        raise InputError("line belongs to a different bush")
    if line.intermediate:
        raise InputError("line is already intermediate")
    need = len(line.label) + 1
    if need > bush.depth:
        raise BudgetError(
            f"refining a length-{len(line.label)} label needs bush depth >= {need}, "
            f"bush has {bush.depth}",
            required=need,
        )
    mid_refs = bush._index.midpoint_refs
    shared = {}
    prev = None
    out = []
    for coeff, (level, k) in line.terms:
        if coeff is not prev:  # runs of one shared coefficient object are common
            prev, products = coeff, {}
        weights = bush.weights[level]
        for j in bush.partitions[level][k]:
            w = weights[j]
            if w == 0:
                continue  # zero-weight children add nothing to the polyline
            c = products.get(w)
            if c is None:
                c = coeff * w
                c = products[w] = shared.setdefault(c, c)
            out.append(Term(c, mid_refs[level][j]))
    return BrokenLine(bush, line.label, True, tuple(out))


def child_line(bush: Bush, line: BrokenLine, bit: int) -> BrokenLine:
    """Label extension: intermediate pass, then split each midpoint term.

    Bit 0 orders each split as (parent half, child half), bit 1 swaps the
    order.  Term count doubles relative to the intermediate line.
    """
    if bit not in (0, 1):
        raise InputError(f"bit must be 0 or 1, got {bit!r}")
    budget = depth_budget()
    if len(line.label) + 1 > budget:
        raise BudgetError(
            f"label length {len(line.label) + 1} exceeds depth budget {budget}",
            required=len(line.label) + 1,
        )
    mid = intermediate_line(bush, line)
    vector_refs = bush._index.vector_refs
    shared = {}
    prev = None
    out = []
    for coeff, (level, parent, child) in mid.terms:
        if coeff is not prev:  # runs of one shared coefficient object are common
            prev = coeff
            c = coeff * HALF
            c = shared.setdefault(c, c)
        parent_term = Term(c, vector_refs[level - 1][parent])
        child_term = Term(c, vector_refs[level][child])
        if bit == 0:
            out.append(parent_term)
            out.append(child_term)
        else:
            out.append(child_term)
            out.append(parent_term)
    return BrokenLine(bush, line.label + (bit,), False, tuple(out))


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
    line = memo.get(label)
    if line is not None:
        memo.move_to_end(label)
        return line
    # walk back to the deepest cached prefix, then extend
    k = len(label)
    while k > 0 and label[:k] not in memo:
        k -= 1
    line = memo.get(label[:k]) if k > 0 else root_line(bush)
    if k == 0:
        _memo_put(memo, (), line)
    for bit in label[k:]:
        line = child_line(bush, line, bit)
        _memo_put(memo, line.label, line)
    return line


def intermediate_for_label(bush: Bush, label: Sequence[int]) -> BrokenLine:
    """Memoized intermediate refinement of the line for ``label``."""
    label = tuple(int(b) for b in label)
    memo = bush._index.lines
    key = (label, "mid")
    line = memo.get(key)
    if line is None:
        line = intermediate_line(bush, line_for_label(bush, label))
        _memo_put(memo, key, line)
    else:
        memo.move_to_end(key)
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
