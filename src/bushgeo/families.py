"""Truncated geodesic families and the verifiable thickness game.

A branch of the infinite bit tree is represented by a ``BranchSpec``: a
finite bit prefix (tail filled with zeros) plus an evaluation depth D.
Rendering the branch at depth D is exact at every vertex of the depth-D
line and within lambda_max**D of the limit geodesic everywhere else.

``PastedGeodesic`` glues branch pieces at shared vertices; ``paste``
accepts exactly the checkable sufficient condition (each breakpoint is a
vertex arclength of both adjacent rendered lines, with equal points).
Evaluation, pasting and coverings descend the lines' trees, building none.

``challenge_respond`` plays the thickness game: given a pasted geodesic g
and challenge arclengths t_i, it covers the t_i by vertex-aligned
subintervals of total length at most half of each piece, switches to the
sibling branch on the complement, and emits a witness whose deviation
total is at least epsilon/4.  ``validate_witness`` re-checks every claim
against the two geodesics; ``brute_force_alpha`` is the independent
exhaustive oracle for tiny families on a fixed arclength grid.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .bushes import Bush, depth_budget, lambda_max
from .errors import BudgetError, InputError, PastingError
from .lines import (
    _check_label,
    _descend,
    _on_vertex,
    _point,
    format_label,
    intermediate_for_label,
    line_for_label,
)
from .rationals import Vec

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BranchSpec:
    """Bit-prefix of an infinite branch plus its evaluation depth."""

    bits: tuple
    depth: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise InputError(f"branch bits must be 0/1, got {self.bits}")
        object.__setattr__(self, "bits", bits)
        if self.depth < len(bits):
            raise InputError(
                f"evaluation depth {self.depth} is shallower than the {len(bits)}-bit prefix"
            )

    def extended_label(self, depth: Optional[int] = None) -> tuple:
        """The prefix zero-filled to the requested depth (default: own depth)."""
        depth = self.depth if depth is None else depth
        if depth < len(self.bits):
            return self.bits[:depth]
        return self.bits + (0,) * (depth - len(self.bits))

    def bit_at(self, position: int) -> int:
        """Bit of the underlying infinite branch at 0-based ``position``."""
        return self.bits[position] if position < len(self.bits) else 0

    def deepened(self, depth: int) -> "BranchSpec":
        return self if depth <= self.depth else BranchSpec(self.bits, depth)


def default_depth(bush: Bush) -> int:
    return min(bush.depth, depth_budget())


def make_branch(bush: Bush, bits: Sequence[int], depth: Optional[int] = None) -> BranchSpec:
    depth = default_depth(bush) if depth is None else depth
    if depth > bush.depth:
        raise BudgetError(
            f"evaluation depth {depth} exceeds bush depth {bush.depth}", required=depth
        )
    if depth > depth_budget():
        raise BudgetError(
            f"evaluation depth {depth} exceeds depth budget {depth_budget()}", required=depth
        )
    return BranchSpec(tuple(bits), depth)


@dataclass(frozen=True)
class BranchValue:
    value: Vec
    error_bound: Fraction


def branch_eval(bush: Bush, spec: BranchSpec, s) -> BranchValue:
    """Depth-D rendering of the branch at arclength s.

    The value differs from the limit geodesic by at most lambda_max**D
    (exact at every vertex of the depth-D line).
    """
    s = Fraction(s)
    if spec.depth > bush.depth:
        raise BudgetError(
            f"evaluation depth {spec.depth} exceeds bush depth {bush.depth}",
            required=spec.depth,
        )
    value = _point(bush, _descend(bush, spec.extended_label(), s), s)
    return BranchValue(value, lambda_max(bush) ** spec.depth)


@dataclass(frozen=True, eq=False)
class PastedGeodesic:
    """Breakpoints 0 = h_0 < ... < h_w = 1 with one branch piece per interval."""

    bush: Bush
    breakpoints: tuple
    pieces: tuple

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    def piece_index(self, s: Fraction) -> int:
        i = bisect_right(self.breakpoints, s) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def eval_batch(self, points: Sequence) -> list:
        """Exact points at many arclengths, one tree descent each."""
        labels = [p.extended_label() for p in self.pieces]
        bush = self.bush
        return [_point(bush, _descend(bush, labels[self.piece_index(s)], s), s)
                for s in map(Fraction, points)]

    def eval_at(self, s) -> Vec:
        return self.eval_batch([s])[0]

    def deepened(self, depth: int) -> "PastedGeodesic":
        return PastedGeodesic(
            self.bush, self.breakpoints, tuple(p.deepened(depth) for p in self.pieces)
        )


def paste(bush: Bush, breakpoints: Sequence, pieces: Sequence[BranchSpec]) -> PastedGeodesic:
    """Validate and build a pasted geodesic.

    Every interior breakpoint must be a vertex arclength of both adjacent
    pieces' rendered lines and the two lines must agree there exactly;
    anything else raises PastingError.  No line is built, but pieces are
    refused as building their lines would refuse them.
    """
    breakpoints = tuple(Fraction(h) for h in breakpoints)
    pieces = tuple(pieces)
    if not pieces:
        raise PastingError("need at least one piece")
    if len(breakpoints) != len(pieces) + 1:
        raise PastingError(
            f"{len(pieces)} pieces need {len(pieces) + 1} breakpoints, got {len(breakpoints)}"
        )
    if breakpoints[0] != 0 or breakpoints[-1] != 1:
        raise PastingError("breakpoints must start at 0 and end at 1")
    for a, b in zip(breakpoints, breakpoints[1:]):
        if not a < b:
            raise PastingError(f"breakpoints must increase strictly, got {a} >= {b}")
    for piece in pieces:
        if piece.depth > bush.depth:
            raise BudgetError(
                f"piece depth {piece.depth} exceeds bush depth {bush.depth}",
                required=piece.depth,
            )
    for piece in pieces:
        _check_label(bush, piece.depth)
    junctions = []  # (h, left path, right path); all vertex checks come first
    for h, *sides in zip(breakpoints[1:-1], pieces, pieces[1:]):
        paths = [_descend(bush, p.extended_label(), h) for p in sides]
        for side, p, path in zip(("left", "right"), sides, paths):
            if not _on_vertex(path[-1], h):
                raise PastingError(
                    f"breakpoint {h} is not a vertex arclength of the {side} piece "
                    f"(label {format_label(p.extended_label())})"
                )
        junctions.append((h, *paths))
    for h, left, right in junctions:
        if _point(bush, left, h) != _point(bush, right, h):
            raise PastingError(f"pieces disagree at breakpoint {h}")
    return PastedGeodesic(bush, breakpoints, pieces)


def branch_geodesic(bush: Bush, bits: Sequence[int], depth: Optional[int] = None) -> PastedGeodesic:
    """The single-piece geodesic of one branch."""
    return paste(bush, (ZERO, ONE), (make_branch(bush, bits, depth),))


def gap_switch_pasting(
    bush: Bush, prefix: Sequence[int], pattern: Sequence[int], depth: Optional[int] = None
) -> PastedGeodesic:
    """Pasting that follows child (prefix + pattern[i]) across gap i.

    The gaps are those of the intermediate line of ``prefix``; both
    children share every gap boundary, so any 0/1 pattern over the gaps is
    a valid pasting.  Adjacent equal bits are merged into one piece.
    """
    prefix = tuple(int(b) for b in prefix)
    mid = intermediate_for_label(bush, prefix)
    arcs = mid.arclengths
    pattern = [int(b) for b in pattern]
    if len(pattern) != len(mid.terms):
        raise InputError(
            f"pattern length {len(pattern)} != {len(mid.terms)} gaps of the "
            f"intermediate line of {format_label(prefix) or '()'}"
        )
    breakpoints = [ZERO]
    pieces = []
    for i, bit in enumerate(pattern):
        if pieces and pattern[i - 1] == bit:
            breakpoints[-1] = arcs[i + 1]
            continue
        pieces.append(make_branch(bush, prefix + (bit,), depth))
        breakpoints.append(arcs[i + 1])
    return paste(bush, breakpoints, pieces)


@dataclass(frozen=True)
class DeviationPoint:
    arclength: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class PieceRecord:
    start: Fraction
    end: Fraction
    refine_depth: int  # the L chosen for this piece
    flip_position: int  # 0-based branch position whereupon g-tilde differs
    covers: tuple  # vertex-aligned intervals where g-tilde copies g
    complements: tuple


@dataclass(frozen=True)
class ThicknessWitness:
    q: tuple
    s: tuple
    deviation_total: Fraction
    gap_records: tuple = ()  # DeviationPoint at each deviating s-point
    piece_records: tuple = ()


@dataclass(frozen=True)
class ChallengeResponse:
    geodesic: PastedGeodesic  # g-tilde
    witness: ThicknessWitness
    challenge: PastedGeodesic  # g, deepened if its stamps were too shallow
    deepened: bool


def _merge_intervals(intervals):
    """Merge overlapping or touching closed intervals (sorted output)."""
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _covering_for_piece(bush, piece, h0, h1, ts, cap):
    """Smallest L with h0, h1 vertex-aligned and the ts coverable by
    depth-L vertex gaps of total length <= (h1 - h0) / 2; one descent per
    point gives its gap at every L (lines past the budget are refused)."""
    levels = min(cap, depth_budget() + 1)
    label = piece.extended_label(max(levels - 1, 0))
    ends = [_descend(bush, label, h) for h in (h0, h1)]
    paths = [(t, _descend(bush, label, t)) for t in ts]
    for level in range(levels):
        if not (_on_vertex(ends[0][level], h0) and _on_vertex(ends[1][level], h1)):
            continue
        covers = []
        for t, path in paths:
            step = path[level]
            if _on_vertex(step, t):
                continue  # already a vertex: g-tilde passes through it for free
            start, length, den = step[:3]
            covers.append((Fraction(start, den), Fraction(start + length, den)))
        covers = _merge_intervals(covers)
        total = sum((b - a for a, b in covers), ZERO)
        if total <= (h1 - h0) * HALF:
            return level, covers
    if levels < cap:
        _check_label(bush, levels)
    raise BudgetError(
        f"no depth L < {cap} admits a half-length covering of "
        f"{len(ts)} challenge points in piece [{h0}, {h1}]; "
        f"raise the depth budget or the bush depth",
        required=cap,
    )


def challenge_respond(
    bush: Bush,
    g: PastedGeodesic,
    t_points: Sequence,
    depth_limit: Optional[int] = None,
) -> ChallengeResponse:
    """Produce a sibling-switch geodesic through g(t_i) plus its witness.

    Per piece [h_{d-1}, h_d]: find the smallest refinement depth L whose
    vertex gaps cover the interior challenge points with total length at
    most half the piece, copy g on the covering intervals, and follow the
    branch with bit L+1 flipped elsewhere.  The witness's s-points sit at
    the midpoints of the intermediate-line gaps inside the complement,
    where the two geodesics are (gap/2)*||x_parent - x_child|| apart; the
    deviation total is at least epsilon/4.
    """
    if depth_limit is not None and depth_limit < 1:
        raise InputError(f"depth limit must be >= 1, got {depth_limit}")
    cap = min(bush.depth, depth_limit if depth_limit is not None else depth_budget())
    ts_all = sorted(set(Fraction(t) for t in t_points))
    if ts_all and (ts_all[0] < 0 or ts_all[-1] > 1):
        raise InputError("challenge points must lie in [0, 1]")

    q_points = set(ts_all)
    gap_records = []
    piece_records = []
    new_breaks = [ZERO]
    new_pieces = []
    challenge_pieces = []
    deepened = False
    deviation_total = ZERO

    for d, piece in enumerate(g.pieces):
        h0, h1 = g.breakpoints[d], g.breakpoints[d + 1]
        q_points.update((h0, h1))
        ts = [t for t in ts_all if h0 < t < h1]
        level, covers = _covering_for_piece(bush, piece, h0, h1, ts, cap)

        eff_depth = max(piece.depth, level + 1)
        if eff_depth > piece.depth:
            deepened = True
        eff_piece = piece.deepened(eff_depth)
        challenge_pieces.append(eff_piece)

        flip_position = level  # 0-based: branch bit index level is flipped
        flip_bits = piece.extended_label(level) + (1 - piece.bit_at(level),)
        flip_spec = BranchSpec(flip_bits, eff_depth)

        # alternate cover segments (copy g) and complement segments (flip)
        segments = []
        cursor = h0
        for a, b in covers:
            if cursor < a:
                segments.append((cursor, a, flip_spec))
            segments.append((a, b, eff_piece))
            cursor = b
        if cursor < h1:
            segments.append((cursor, h1, flip_spec))
        complements = tuple((a, b) for a, b, spec in segments if spec is flip_spec)

        for a, b, spec in segments:
            new_pieces.append(spec)
            new_breaks.append(b)
        for a, b in covers:
            q_points.update((a, b))

        # witness deviation: one s-point per intermediate-line gap in the
        # complement; both geodesics pass through every gap boundary
        mid = intermediate_for_label(bush, piece.extended_label(level))
        oarcs = mid.arclengths
        for a, b in complements:
            lo = bisect_left(oarcs, a)
            while lo + 1 < len(oarcs) and oarcs[lo + 1] <= b:
                coeff, ref = mid.terms[lo]
                dev = coeff * HALF * bush._index.pair_distances[ref]
                s_point = oarcs[lo] + coeff * HALF
                gap_records.append(DeviationPoint(s_point, dev))
                deviation_total += dev
                q_points.update((oarcs[lo], oarcs[lo + 1]))
                lo += 1

        piece_records.append(
            PieceRecord(h0, h1, level, flip_position, tuple(covers), complements)
        )

    challenge = (
        g if not deepened else PastedGeodesic(bush, g.breakpoints, tuple(challenge_pieces))
    )
    g_tilde = paste(bush, tuple(new_breaks), tuple(new_pieces))

    q_sorted = sorted(q_points)
    dev_by_slot = {}
    for rec in gap_records:
        i = bisect_left(q_sorted, rec.arclength)
        # rec sits strictly between q_sorted[i-1] and q_sorted[i]
        dev_by_slot[i] = rec
    s_list = []
    for i in range(len(q_sorted) + 1):
        rec = dev_by_slot.get(i)
        if rec is not None:
            s_list.append(rec.arclength)
        elif i == 0:
            s_list.append(q_sorted[0])
        else:
            s_list.append(q_sorted[i - 1])

    witness = ThicknessWitness(
        q=tuple(q_sorted),
        s=tuple(s_list),
        deviation_total=deviation_total,
        gap_records=tuple(gap_records),
        piece_records=tuple(piece_records),
    )
    return ChallengeResponse(g_tilde, witness, challenge, deepened)


@dataclass
class WitnessReport:
    checks: list = field(default_factory=list)
    achieved_deviation: Fraction = ZERO

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "achieved_deviation": str(self.achieved_deviation),
            "checks": [
                {"name": n, "passed": ok, "detail": detail} for n, ok, detail in self.checks
            ],
        }


def validate_witness(
    g: PastedGeodesic,
    g_tilde: PastedGeodesic,
    t_points: Sequence,
    witness: ThicknessWitness,
    alpha,
    tol: float = 1e-9,
) -> WitnessReport:
    """Check the four thickness-witness conditions, each reported separately.

    1. q contains every challenge arclength; 2. the interleaving
    0 <= s_1 <= q_1 <= s_2 <= ... <= q_m <= s_{m+1} <= 1;
    3. g and g-tilde agree at every q_i (within tol); 4. the deviation sum
    over the s_i is at least alpha (within tol).  Also checks that both
    geodesics pass through the challenge points themselves.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    report = WitnessReport()
    q = [Fraction(x) for x in witness.q]
    s = [Fraction(x) for x in witness.s]
    ts = [Fraction(t) for t in t_points]

    missing = sorted(set(ts) - set(q))
    report.add(
        "q_contains_challenge_points",
        not missing,
        f"missing challenge arclengths: {[str(x) for x in missing]}" if missing else "",
    )

    ok_shape = len(s) == len(q) + 1
    ok_order = (
        ok_shape
        and all(a <= b for a, b in zip(q, q[1:]))
        and all(a <= b for a, b in zip(s, s[1:]))
        and (not q or (ZERO <= s[0] <= q[0] and q[-1] <= s[-1] <= ONE))
        and all(s[i] <= q[i] <= s[i + 1] for i in range(len(q)))
        and (not s or (ZERO <= s[0] and s[-1] <= ONE))
    )
    report.add(
        "interleaving",
        ok_order,
        "" if ok_order else f"|s| = {len(s)}, |q| = {len(q)}; sequences must interleave",
    )

    g_q = g.eval_batch(q)
    gt_q = g_tilde.eval_batch(q)
    space = g.bush.space
    worst_q = max((space.dist(u, v) for u, v in zip(g_q, gt_q)), default=ZERO)
    report.add(
        "common_at_q",
        worst_q <= tol,
        f"max ||g(q_i) - g~(q_i)|| = {float(worst_q)}",
    )

    g_s = g.eval_batch(s)
    gt_s = g_tilde.eval_batch(s)
    total = sum((Fraction(space.dist(u, v)) for u, v in zip(g_s, gt_s)), ZERO)
    report.achieved_deviation = total
    report.add(
        "deviation_sum",
        total >= alpha - Fraction(tol),
        f"sum = {float(total)}, alpha = {float(alpha)}",
    )

    g_t = g.eval_batch(ts)
    gt_t = g_tilde.eval_batch(ts)
    worst_t = max((space.dist(u, v) for u, v in zip(g_t, gt_t)), default=ZERO)
    report.add(
        "images_agree_at_challenge_points",
        worst_t <= tol,
        f"max ||g(t_i) - g~(t_i)|| = {float(worst_t)}",
    )
    return report


@dataclass
class BruteForceReport:
    alpha_bound: Fraction
    n_geodesics: int
    n_challenges: int
    grid: tuple
    worst_case: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "alpha_bound": str(self.alpha_bound),
            "n_geodesics": self.n_geodesics,
            "n_challenges": self.n_challenges,
            "grid_size": len(self.grid),
            "worst_case": self.worst_case,
        }


MAX_FAMILY = 64
MAX_POINTS = 3


def brute_force_alpha(
    bush: Bush, family: Sequence[PastedGeodesic], n_max: int, grid: Sequence
) -> BruteForceReport:
    """Exhaustive grid-restricted thickness bound for a tiny family.

    For every g and every challenge set S of at most n_max grid points,
    searches the family for the best g-tilde passing through g at S and
    scores the optimal grid witness (q = all common grid points, one
    maximizing s per slot); returns the min over challenges of the max
    over candidates.  Deviations at grid points are exact rationals.
    """
    family = list(family)
    if len(family) > MAX_FAMILY:
        raise BudgetError(
            f"family of {len(family)} exceeds the brute-force budget {MAX_FAMILY}",
            required=len(family),
        )
    if n_max > MAX_POINTS:
        raise BudgetError(f"n_max = {n_max} exceeds the brute-force budget {MAX_POINTS}")
    if not family:
        raise InputError("family must be nonempty")
    grid = sorted(set(Fraction(x) for x in grid))
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise InputError("grid must be a nonempty subset of [0, 1]")
    space = bush.space
    K = len(grid)

    values = [geo.eval_batch(grid) for geo in family]
    n = len(family)
    dist = [[None] * n for _ in range(n)]
    commons = [[None] * n for _ in range(n)]
    dev = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(space.dist(u, v)) for u, v in zip(values[i], values[j])]
            dist[i][j] = dist[j][i] = row
            com = frozenset(k for k, d in enumerate(row) if d == 0)
            commons[i][j] = commons[j][i] = com
            # optimal witness: q at every common point, one max-deviation
            # s inside each closed slot between consecutive q's
            qs = sorted(com)
            slots = []
            prev = 0
            for qk in qs:
                slots.append((prev, qk))
                prev = qk
            slots.append((prev, K - 1))
            total = ZERO
            for a, b in slots:
                if a <= b:
                    total += max(row[a : b + 1])
            dev[i][j] = dev[j][i] = total

    bound = None
    worst = None
    n_challenges = 0
    for gi in range(n):
        for size in range(min(n_max, K) + 1):
            for subset in itertools.combinations(range(K), size):
                n_challenges += 1
                sset = set(subset)
                best = ZERO
                for gj in range(n):
                    if gj == gi:
                        continue
                    if sset <= commons[gi][gj] and dev[gi][gj] > best:
                        best = dev[gi][gj]
                if bound is None or best < bound:
                    bound = best
                    worst = {
                        "geodesic_index": gi,
                        "challenge_points": [str(grid[k]) for k in subset],
                        "best_deviation": str(best),
                    }
    return BruteForceReport(
        alpha_bound=bound if bound is not None else ZERO,
        n_geodesics=n,
        n_challenges=n_challenges,
        grid=tuple(grid),
        worst_case=worst,
    )


def random_challenge(
    bush: Bush,
    rng: random.Random,
    max_pieces: int = 3,
    max_points: int = 4,
    max_prefix: int = 3,
    junction_depth: int = 2,
    depth: Optional[int] = None,
):
    """Random valid pasted geodesic plus random challenge arclengths.

    Junctions are vertex arclengths of a shared-prefix line (so the pasting
    is always valid); prefixes and junction lines are no deeper than the
    pieces, and challenge points mix dyadic and non-dyadic rationals.
    """
    piece_depth = default_depth(bush) if depth is None else depth
    max_prefix = min(max_prefix, piece_depth)
    junction_depth = min(junction_depth, piece_depth)
    n_pieces = rng.randint(1, max_pieces)
    bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_prefix)))
    breakpoints = [ZERO]
    specs = [make_branch(bush, bits, depth)]
    last = ZERO
    for _ in range(n_pieces - 1):
        m = rng.randint(1, junction_depth)
        shared = specs[-1].extended_label(m)
        arcs = line_for_label(bush, shared).arclengths
        candidates = [a for a in arcs if last < a < 1]
        if not candidates:
            break
        h = rng.choice(candidates)
        suffix = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max(0, max_prefix - m))))
        breakpoints.append(h)
        specs.append(make_branch(bush, shared + suffix, depth))
        last = h
    breakpoints.append(ONE)
    geo = paste(bush, tuple(breakpoints), tuple(specs))
    t_points = []
    for _ in range(rng.randint(0, max_points)):
        if rng.random() < 0.5:
            r = rng.randint(1, 6)
            t_points.append(Fraction(rng.randint(0, 2**r), 2**r))
        else:
            den = rng.choice((3, 5, 7, 9))
            t_points.append(Fraction(rng.randint(0, den), den))
    return geo, sorted(set(t_points))
