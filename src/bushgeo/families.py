"""Truncated geodesic families and the verifiable thickness game.

A branch of the infinite bit tree is represented by a ``BranchSpec``: a
finite bit prefix (tail filled with zeros) plus an evaluation depth D.
Rendering the branch at depth D is exact at every vertex of the depth-D
line and within lambda_max**D of the limit geodesic everywhere else.

``PastedGeodesic`` glues branch pieces at shared vertices; ``paste``
accepts exactly the checkable sufficient condition (each breakpoint is a
vertex arclength of both adjacent rendered lines, with equal points).
Evaluation, pasting and coverings descend the lines' trees; witness gaps,
gap-switch pastings and random junctions read windows.  None builds a line.
Every exact check takes points from `lines._point` in run form: integer
jumps over one denominator, in the coordinate order of the bush's index.
Pasting agreement and the witness's distances merge two points
(`lines._difference`); a distance is `BushIndex.norm` of the difference, in
one sorted sweep (`_distance`), equal in value and type to
``NormedSpace.dist`` on the ``Fraction`` points.  The oracle interns
canonical forms (`lines._canonical`) and works on integer numerators
throughout.

``challenge_respond`` plays the thickness game: given a pasted geodesic g
and challenge arclengths t_i, it covers the t_i by vertex-aligned
subintervals of total length at most half of each piece, switches to the
sibling branch on the complement, and emits a witness whose deviation
total is at least epsilon/4.  It builds q and s in one pass in arclength
order, reading each complement's gaps and their deviations from
`lines._gap_deviations`, the one reader of that formula.
``validate_witness`` re-checks every claim against the two geodesics;
``brute_force_alpha`` is the independent exhaustive oracle for tiny
families on a fixed arclength grid.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .bushes import Bush, _Checks, _sweep
from .errors import BudgetError, InputError, PastingError, check_budget
from .lines import (_canonical, _check_label, _descend, _difference, _fractions, _gap_deviations,
                    _on_vertex, _point, _term_count, format_label, intermediate_for_label,
                    line_for_label)
from .rationals import to_fraction

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


def make_branch(bush: Bush, bits: Sequence[int], depth: Optional[int] = None) -> BranchSpec:
    """The branch of ``bits`` evaluated at ``depth``, by default the bush
    depth; a depth past the bush depth is refused."""
    depth = bush.depth if depth is None else depth
    if depth > bush.depth:
        raise BudgetError(
            f"evaluation depth {depth} exceeds bush depth {bush.depth}", required=depth
        )
    return BranchSpec(tuple(bits), depth)


@dataclass(frozen=True, eq=False)
class PastedGeodesic:
    """Breakpoints 0 = h_0 < ... < h_w = 1 with one branch piece per interval."""

    bush: Bush
    breakpoints: tuple
    pieces: tuple

    @cached_property
    def _scaled_breakpoints(self) -> tuple:
        """The breakpoints as integers over their least common denominator."""
        den = math.lcm(*(h.denominator for h in self.breakpoints))
        return den, [h.numerator * (den // h.denominator) for h in self.breakpoints]

    def piece_index(self, s: Fraction) -> int:
        # an integer breakpoint b * den is <= s * den exactly when it is <= its floor
        den, scaled = self._scaled_breakpoints
        i = bisect_right(scaled, s.numerator * den // s.denominator) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def eval_batch(self, points: Sequence) -> list:
        """Exact points at many arclengths, one tree descent each."""
        index = self.bush._index
        return [_fractions(index, point) for point in self._points(points)]

    def deepens(self, given: "PastedGeodesic") -> bool:
        """Whether this is ``given`` rendered more finely: the same
        breakpoints and, piece by piece, the same branch (its bits,
        zero-filled) at a depth at least the given one."""
        return self.breakpoints == given.breakpoints and all(
            b.depth >= a.depth and b.extended_label() == a.extended_label(b.depth)
            for a, b in zip(given.pieces, self.pieces)
        )

    def _points(self, points: Sequence):
        """`eval_batch` as run-form points (`lines._point`), yielded one at a
        time so that a caller pairing two geodesics holds two points, not two
        lists of them."""
        bush = self.bush
        points = list(map(to_fraction, points))
        for label, s in zip(self._labels(points), points):
            yield _point(bush, _descend(bush, label, s), s)

    def _labels(self, points: Sequence) -> list:
        """The rendered label of the piece at each arclength, once every
        piece is checked as building its line would check it."""
        labels = [p.extended_label() for p in self.pieces]
        _check_label(self.bush, max(p.depth for p in self.pieces))
        if len(labels) == 1:
            return labels * len(points)
        return [labels[self.piece_index(s)] for s in points]


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
    _check_label(bush, max(p.depth for p in pieces))  # refuses what any piece would
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
        if any(_difference(_point(bush, left, h), _point(bush, right, h))[0].values()):
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
    mid = intermediate_for_label(bush, prefix)
    pattern = [int(b) for b in pattern]
    den, gaps = mid.window()
    # one gap more than the pattern needs shows a length mismatch
    ends = [Fraction(start + length, den)
            for start, length, _ in itertools.islice(gaps, len(pattern) + 1)]
    if len(pattern) != len(ends):
        raise InputError(
            f"pattern length {len(pattern)} != "
            f"{_term_count(bush, len(mid.label), True)} gaps of the "
            f"intermediate line of {format_label(mid.label) or '()'}"
        )
    breakpoints = [ZERO]
    pieces = []
    branches = {}  # one spec per child
    for i, bit in enumerate(pattern):
        if pieces and pattern[i - 1] == bit:
            breakpoints[-1] = ends[i]
            continue
        if bit not in branches:
            branches[bit] = make_branch(bush, mid.label + (bit,), depth)
        pieces.append(branches[bit])
        breakpoints.append(ends[i])
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


def _vertex_at(path: list, level: int, s: Fraction) -> bool:
    """Whether ``s`` is a vertex arclength of the line at entry ``level`` of
    its `_descend` path.  A path that stops early stops on a vertex, which
    every deeper line keeps, so every level past its last entry is one."""
    return level >= len(path) or _on_vertex(path[level], s)


def _covering_for_piece(bush, piece, h0, h1, ts, cap):
    """Smallest L < cap with h0, h1 vertex-aligned and the ts coverable by
    depth-L vertex gaps of total length <= (h1 - h0) / 2; one descent per
    point gives its gap at every L until it is a vertex (`_vertex_at`).
    ``cap`` is at most the bush depth, so
    the flipped branch at L + 1 <= cap always exists."""
    label = piece.extended_label(max(cap - 1, 0))
    _check_label(bush, len(label))
    ends = [_descend(bush, label, h) for h in (h0, h1)]
    paths = [(t, _descend(bush, label, t)) for t in ts]
    for level in range(cap):
        if not (_vertex_at(ends[0], level, h0) and _vertex_at(ends[1], level, h1)):
            continue
        covers = []
        for t, path in paths:
            if _vertex_at(path, level, t):
                continue  # already a vertex: g-tilde passes through it for free
            start, length, den = path[level][:3]
            covers.append((Fraction(start, den), Fraction(start + length, den)))
        covers = _merge_intervals(covers)
        total = sum((b - a for a, b in covers), ZERO)
        if total <= (h1 - h0) * HALF:
            return level, covers
    raise BudgetError(
        f"no depth L < {cap} admits a half-length covering of "
        f"{len(ts)} challenge points in piece [{h0}, {h1}]; "
        f"raise the bush depth",
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
    branch with bit L+1 flipped elsewhere.  The witness is built in one
    ordered pass over these segments: a cover adds the challenge points
    inside it and its end to q, each new slot's s on its left q; a
    complement adds the end of each gap of the level-L intermediate line
    to q and the gap's midpoint to s, where the two geodesics are
    (gap/2)*||x_parent - x_child|| apart.  A challenge point outside every
    cover is a level-L vertex, so a gap end: consecutive q's inside a
    complement are one gap's ends.  The deviation total is at least
    epsilon/4.
    """
    if depth_limit is not None and depth_limit < 1:
        raise InputError(f"depth limit must be >= 1, got {depth_limit}")
    cap = bush.depth if depth_limit is None else min(bush.depth, depth_limit)
    ts_all = sorted(set(map(to_fraction, t_points)))
    if ts_all and (ts_all[0] < 0 or ts_all[-1] > 1):
        raise InputError("challenge points must lie in [0, 1]")

    # segments tile [0, 1] in order, so each starts at q[-1]
    q, s = [ZERO], [ZERO]
    gap_records = []
    piece_records = []
    new_breaks = [ZERO]
    new_pieces = []
    challenge_pieces = []

    for d, piece in enumerate(g.pieces):
        h0, h1 = g.breakpoints[d], g.breakpoints[d + 1]
        ts = [t for t in ts_all if h0 < t < h1]
        level, covers = _covering_for_piece(bush, piece, h0, h1, ts, cap)

        eff_depth = max(piece.depth, level + 1)
        eff_piece = piece.deepened(eff_depth)
        challenge_pieces.append(eff_piece)
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

        mid = intermediate_for_label(bush, piece.extended_label(level))
        for a, b, spec in segments:
            new_pieces.append(spec)
            new_breaks.append(b)
            if spec is eff_piece:
                for x in [*(t for t in ts if a < t < b), b]:
                    s.append(q[-1])
                    q.append(x)
                continue
            for _, end, midpoint, dev, _ in _gap_deviations(bush, mid.label, a, b):
                s.append(midpoint)
                q.append(end)
                gap_records.append(DeviationPoint(midpoint, dev))

        complements = tuple((a, b) for a, b, spec in segments if spec is flip_spec)
        # the flipped bit is branch position `level`
        piece_records.append(PieceRecord(h0, h1, level, level, tuple(covers), complements))
    s.append(q[-1])

    deepened = challenge_pieces != list(g.pieces)
    challenge = PastedGeodesic(bush, g.breakpoints, tuple(challenge_pieces)) if deepened else g
    witness = ThicknessWitness(
        q=tuple(q),
        s=tuple(s),
        deviation_total=sum((r.deviation for r in gap_records), ZERO),
        gap_records=tuple(gap_records),
        piece_records=tuple(piece_records),
    )
    return ChallengeResponse(paste(bush, tuple(new_breaks), tuple(new_pieces)), witness,
                             challenge, deepened)


def _distance(index, difference: tuple):
    """Norm of a `lines._difference`, one sorted sweep of its jumps (same
    value and type as the ``NormedSpace.dist`` of the two points as
    ``Fraction`` tuples)."""
    jumps, den = difference
    return index.norm(_sweep(jumps), den)


@dataclass
class WitnessReport(_Checks):
    achieved_deviation: Fraction = ZERO

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "achieved_deviation": str(self.achieved_deviation),
            "checks": [c._asdict() for c in self.checks],
        }


def validate_witness(
    g: PastedGeodesic,
    g_tilde: PastedGeodesic,
    t_points: Sequence,
    witness: ThicknessWitness,
    alpha,
) -> WitnessReport:
    """Check the four thickness-witness conditions, each reported separately
    and exactly.

    1. q contains every challenge arclength; 2. the interleaving
    0 <= s_1 <= q_1 <= s_2 <= ... <= q_m <= s_{m+1} <= 1;
    3. g and g-tilde agree at every q_i (distance 0); 4. the deviation sum
    over the s_i is at least alpha.  Also checks that both geodesics pass
    through the challenge points themselves.  Each distinct arclength of q,
    s and the challenge is evaluated once per geodesic.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    report = WitnessReport()
    q = list(map(to_fraction, witness.q))
    s = list(map(to_fraction, witness.s))
    ts = list(map(to_fraction, t_points))

    missing = sorted(set(ts) - set(q))
    report.add(
        "q_contains_challenge_points",
        not missing,
        f"missing challenge arclengths: {[str(x) for x in missing]}" if missing else "",
    )

    ok_shape = len(s) == len(q) + 1
    # with |s| = |q| + 1, s_i <= q_i <= s_{i+1} for every i also orders q and s
    ok_order = (
        ok_shape
        and ZERO <= s[0]
        and s[-1] <= ONE
        and all(a <= x <= b for a, x, b in zip(s, q, s[1:]))
    )
    report.add(
        "interleaving",
        ok_order,
        "" if ok_order else f"|s| = {len(s)}, |q| = {len(q)}; sequences must interleave",
    )

    # one distance per distinct arclength; at[i] is the slot of the i-th of q, s, t
    index = g.bush._index
    slots = {}
    at = [slots.setdefault(x, len(slots)) for x in itertools.chain(q, s, ts)]
    arcs = list(slots)
    dist = []
    for u, v in zip(g._points(arcs), g_tilde._points(arcs)):
        difference = _difference(u, v)
        # a common point leaves no nonzero jump: distance 0, with no sweep
        dist.append(_distance(index, difference) if any(difference[0].values()) else ZERO)
    nq, ns = len(q), len(s)

    worst_q = max((dist[i] for i in at[:nq]), default=ZERO)
    report.add("common_at_q", worst_q == 0, f"max ||g(q_i) - g~(q_i)|| = {float(worst_q)}")

    total = sum((to_fraction(dist[i]) for i in at[nq : nq + ns]), ZERO)
    report.achieved_deviation = total
    report.add("deviation_sum", total >= alpha, f"sum = {float(total)}, alpha = {float(alpha)}")

    worst_t = max((dist[i] for i in at[nq + ns :]), default=ZERO)
    report.add("images_agree_at_challenge_points", worst_t == 0,
               f"max ||g(t_i) - g~(t_i)|| = {float(worst_t)}")
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


def brute_force_alpha(
    bush: Bush, family: Sequence[PastedGeodesic], n_max: int, grid: Sequence
) -> BruteForceReport:
    """Exhaustive grid-restricted thickness bound for a tiny family.

    For every g and every challenge set S of at most n_max grid points,
    searches the family for the best g-tilde passing through g at S and
    scores the optimal grid witness (q = all common grid points, one
    maximizing s per slot); returns the min over challenges of the max
    over candidates.  Works in integers: the points at each grid index are
    interned by canonical form (`lines._canonical`), so two members share a
    point when their ids are equal (members with a common piece label
    descend once per grid point), and every distance
    (`BushIndex.norm_numerator`) and deviation is an integer numerator over
    one denominator.  The members refuse unnormalized bushes.  A pair's
    common points form an int bitmask; per g the candidates are tried by
    decreasing deviation, and the first whose mask contains S is the best.
    Only the result becomes a ``Fraction``.  Before any member is
    evaluated, the predicted work is checked against the size budget:
    n(n - 1)/2 * K pair entries plus n * sum_{s <= n_max} C(K, s) challenge
    scans, for n members and K grid points.
    """
    family = list(family)
    if n_max < 0:
        raise InputError(f"n_max must be >= 0, got {n_max}")
    if not family:
        raise InputError("family must be nonempty")
    foreign = [i for i, geo in enumerate(family) if geo.bush is not bush]
    if foreign:
        raise InputError(f"family members {foreign[:5]} are geodesics of another bush")
    grid = sorted(set(Fraction(x) for x in grid))
    if not grid or grid[0] < 0 or grid[-1] > 1:
        raise InputError("grid must be a nonempty subset of [0, 1]")
    index = bush._index
    K = len(grid)
    n = len(family)
    sizes = range(min(n_max, K) + 1)
    check_budget(
        f"brute_force_alpha over {n} members, {K} grid points and n_max = {n_max}",
        n * (n - 1) // 2 * K + n * sum(math.comb(K, size) for size in sizes),
    )

    # ids[i][k]: member i's point at grid index k, interned per index; members
    # that share a piece share its descent at each grid point
    points = [{} for _ in grid]
    known = {}  # (label, k) -> id
    ids = []
    for geo in family:
        ids.append(row := [])
        for k, (label, s) in enumerate(zip(geo._labels(grid), grid)):
            if (label, k) not in known:
                point = _canonical(_point(bush, _descend(bush, label, s), s))
                known[label, k] = points[k].setdefault(point, len(points[k]))
            row.append(known[label, k])
    # distance numerators over one denominator (`BushIndex.norm_numerator`)
    total = math.lcm(*(t for seen in points for _, t in seen))
    den = index.norm_denominator * total
    dist = []  # dist[k][a][b]: numerator of the distance of points a and b at index k
    for seen in points:
        pts = [({b: j * (total // t) for b, j in jumps}, 1) for jumps, t in seen]
        dist.append([[index.norm_numerator(_sweep(_difference(p, q)[0])) for q in pts]
                     for p in pts])

    # per pair: the common points as a bitmask, and the optimal witness: q at
    # every common point, one max-deviation s inside each closed slot between
    # consecutive q's
    candidates = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            row = [dk[a][b] for dk, a, b in zip(dist, ids[i], ids[j])]
            common = [k for k, (a, b) in enumerate(zip(ids[i], ids[j])) if a == b]
            ends = [0, *common, K - 1]
            dev = sum(max(row[a : b + 1]) for a, b in zip(ends, ends[1:]))
            if dev:  # a candidate of deviation 0 never beats the default best
                mask = sum(1 << k for k in common)
                candidates[i].append((dev, mask))
                candidates[j].append((dev, mask))

    challenges = [
        (subset, sum(1 << k for k in subset))
        for size in sizes
        for subset in itertools.combinations(range(K), size)
    ]
    bound = None
    worst = None
    for gi, cands in enumerate(candidates):
        kept = []  # by decreasing deviation; a mask inside a kept one never wins
        for dev, mask in sorted(cands, key=lambda c: -c[0]):
            if all(mask & m != mask for _, m in kept):
                kept.append((dev, mask))
        for subset, smask in challenges:
            best = next((dev for dev, mask in kept if mask & smask == smask), 0)
            if bound is None or best < bound:
                bound = best
                worst = (gi, subset)
    gi, subset = worst
    bound = Fraction(bound, den)
    return BruteForceReport(
        alpha_bound=bound,
        n_geodesics=n,
        n_challenges=n * len(challenges),
        grid=tuple(grid),
        worst_case={
            "geodesic_index": gi,
            "challenge_points": [str(grid[k]) for k in subset],
            "best_deviation": str(bound),
        },
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
    piece_depth = bush.depth if depth is None else depth
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
        den, walk = line_for_label(bush, shared).window(last, ONE)
        candidates = [Fraction(start + length, den) for start, length, _ in walk
                      if start + length < den]
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
