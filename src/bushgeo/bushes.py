"""Leveled bushes of unit vectors: data model, validation, constructors.

A bush of depth N holds vectors x[n][j] (0 <= n <= N), a partition of each
level n >= 1 into blocks of siblings below a level-(n-1) parent, and
nonnegative rational weights turning every parent into an exact convex
combination of its block:

    x[n-1][k] = sum_{j in block(n-1, k)} weight(n, j) * x[n][j],

with every child at distance >= epsilon from its parent.  A *normalized*
bush additionally has all vectors of norm one and value one under the
supplied norming functional; only normalized bushes feed the broken-line
construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from typing import NamedTuple, Sequence, Union

from .errors import DimensionMismatch, InputError, StructuralError, check_budget
from .rationals import Vec
from .spaces import Functional, NormedSpace


class _DenseView(cached_property):
    """A `cached_property` that class access does not see: the dataclass
    field of the same name then keeps no default."""

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.attrname)
        return super().__get__(instance, owner)


@dataclass(frozen=True, eq=False, repr=False)  # a repr would build the dense view
class Bush:
    """Finite-depth bush; immutable, hashed by identity.

    ``partitions[l][k]`` lists the level-(l+1) children of parent ``k`` at
    level ``l``; ``weights[l][j]`` is the convex weight of child ``j`` at
    level ``l+1``.  Both have length ``depth``.  The vectors are stored
    only as runs over one coordinate order: ``order[p]`` is the coordinate
    at position p (a ``range`` for the identity), and ``runs[n][j]`` lists
    the ``(start, stop, value)`` stretches of positions, in increasing
    order, on which x[n][j] is a nonzero constant; it is zero elsewhere.
    Pass dense ``levels``, which `_tree_runs` orders and turns into runs,
    or ``levels=None`` with ``runs`` over ``order`` (default the identity),
    which are checked and kept.  Afterwards ``levels`` is a dense view
    built on first read; `dataclasses.replace` passes it, and so rebuilds
    the runs from it.
    """

    space: NormedSpace
    levels: tuple  # dense input, or None; afterwards the view below
    partitions: tuple
    weights: tuple
    epsilon: Fraction
    functional: Functional
    runs: tuple = field(default=None, kw_only=True)
    order: Sequence = field(default=None, kw_only=True)

    def __post_init__(self):
        dim = self.space.dimension
        levels = vars(self).pop("levels")  # from here on ``levels`` is the view
        if levels is not None:
            order, runs = _tree_runs(levels, dim)
        else:
            order, runs = _checked_runs(self.runs, self.order, dim)
        vars(self).update(
            order=order, runs=runs, level_sizes=tuple(map(len, runs)),
            epsilon=Fraction(self.epsilon),
            # blocks are kept in ascending child order: any order represents the
            # same bush, and a fixed one makes every construction deterministic
            partitions=tuple(tuple(tuple(sorted(b)) for b in lev) for lev in self.partitions),
            weights=tuple(tuple(map(Fraction, lev)) for lev in self.weights),
        )
        sizes = self.level_sizes
        if not sizes or not sizes[0]:
            raise StructuralError("bush needs a root level")
        if self.epsilon <= 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        depth = len(sizes) - 1
        if len(self.partitions) != depth or len(self.weights) != depth:
            raise StructuralError(
                f"depth {depth} bush needs {depth} partition/weight levels, "
                f"got {len(self.partitions)}/{len(self.weights)}"
            )
        for l in range(depth):
            if len(self.partitions[l]) != sizes[l]:
                raise StructuralError(
                    f"level {l} has {sizes[l]} parents but {len(self.partitions[l])} blocks"
                )
            if len(self.weights[l]) != sizes[l + 1]:
                raise StructuralError(
                    f"level {l + 1} has {sizes[l + 1]} vectors but {len(self.weights[l])} weights"
                )
        if len(self.functional.coefficients) != dim:
            raise DimensionMismatch(dim, len(self.functional.coefficients), "functional")

    @_DenseView
    def levels(self) -> tuple:
        """The dense vectors, ``levels[n][j]`` in the caller's coordinate
        order with ``0`` for a zero entry, built on first read; the size
        budget is checked on their (vectors x dimension) cells first."""
        dim = self.space.dimension
        check_budget(f"the dense levels of a bush of dimension {dim}",
                     sum(self.level_sizes) * dim)
        return tuple(tuple(_dense(vec, self.order, dim) for vec in lev) for lev in self.runs)

    @property
    def depth(self) -> int:
        return len(self.level_sizes) - 1

    @cached_property
    def _index(self) -> "BushIndex":
        """Compiled view of this bush, built on first use and freed with it."""
        return BushIndex(self)


class BushVectorRef(NamedTuple):
    level: int
    index: int


class MidpointRef(NamedTuple):
    level: int  # the child's level
    parent: int
    child: int


GeneratorRef = Union[BushVectorRef, MidpointRef]


def _combine(*terms) -> dict:
    """The jumps ``{breakpoint: jump}`` of the sum of c * v over (c, runs of
    v) terms: each run (start, stop, value) adds c * value at start and
    takes it off at stop."""
    jumps = {}
    for c, runs in terms:
        for start, stop, value in runs:
            cv = c * value
            jumps[start] = jumps.get(start, 0) + cv
            jumps[stop] = jumps.get(stop, 0) - cv
    return jumps


def _sweep(jumps: dict) -> list:
    """The runs ``(start, stop, value)`` of the step function with these
    jumps: its nonzero stretches in order, each as long as it can be."""
    runs, value, last = [], 0, 0
    for b, j in sorted(jumps.items()):
        if j:
            if value:
                runs.append((last, b, value))
            value += j
            last = b
    return runs


def _pair_runs(parent, child) -> tuple:
    """The runs of ``(parent + child) / 2`` and of ``parent - child`` for two
    vectors given as integer runs with an even sum, each as `_sweep` gives
    it, from one sorted pass over the breakpoints of both."""
    parent_jumps, child_jumps = _combine((1, parent)), _combine((1, child))
    half, diff = [], []
    p = c = 0
    last_half = last_diff = 0
    for b in sorted(parent_jumps.keys() | child_jumps.keys()):
        jp, jc = parent_jumps.get(b, 0), child_jumps.get(b, 0)
        if jp != -jc:
            if p != -c:
                half.append((last_half, b, (p + c) // 2))
            last_half = b
        if jp != jc:
            if p != c:
                diff.append((last_diff, b, p - c))
            last_diff = b
        p += jp
        c += jc
    return tuple(half), diff


def _tree_runs(levels, dim: int):
    """The coordinate order and the runs of dense ``levels`` in it.

    Coordinates are sorted by the chain of supports that contain them,
    level by level; for a laminar family that is tree order, and every
    support becomes one run.  Any order gives the same results; this one
    only makes the runs few.  Returns ``(order, runs)``: ``order[p]`` is
    the coordinate at position p, a ``range`` for the identity.
    """
    positions = range(dim)
    chains = [[] for _ in positions]  # the vectors (n, j) containing each coordinate
    for n, lev in enumerate(levels):
        for j, vec in enumerate(lev):
            if len(vec) != dim:
                raise DimensionMismatch(dim, len(vec), f"x[{n}][{j}]")
            for i in compress(positions, vec):
                chains[i].append((n, j))
    order = sorted(positions, key=chains.__getitem__)
    where = sorted(positions, key=order.__getitem__)  # the position of each coordinate
    runs = []
    for lev in levels:
        row = []
        for vec in lev:
            vec_runs = []
            for p in sorted(map(where.__getitem__, compress(positions, vec))):
                value = vec[order[p]]
                if vec_runs and vec_runs[-1][1] == p and vec_runs[-1][2] == value:
                    vec_runs[-1] = (vec_runs[-1][0], p + 1, value)
                else:
                    vec_runs.append((p, p + 1, value))
            row.append(tuple(vec_runs))
        runs.append(tuple(row))
    return positions if order == list(positions) else tuple(order), tuple(runs)


def _checked_runs(runs, order, dim: int):
    """Runs and coordinate order (None for the identity) as tuples, the
    identity as a ``range``; refuses an order that is not a permutation and
    a run that is empty, zero, unsorted, overlapping or past the dimension."""
    positions = range(dim)
    order = positions if order is None or list(order) == list(positions) else tuple(order)
    if sorted(order) != list(positions):
        raise InputError(f"the coordinate order is not a permutation of 0..{dim - 1}")
    runs = tuple(tuple(tuple(map(tuple, vec)) for vec in lev) for lev in runs)
    for n, lev in enumerate(runs):
        for j, vec in enumerate(lev):
            for (_, last, _), (start, stop, value) in zip(((0, 0, 0),) + vec, vec):
                if not last <= start < stop <= dim or value == 0:
                    raise InputError(f"x[{n}][{j}] has the run ({start}, {stop}, {value}); runs "
                                     f"must be nonzero, sorted, disjoint and inside 0..{dim}")
    return order, runs


def _dense(runs, order, dim: int) -> tuple:
    """The coordinates of the vector with these runs over ``order``."""
    cells = [0] * dim
    for start, stop, value in runs:
        for i in order[start:stop]:
            cells[i] = value
    return tuple(cells)


class BushIndex:
    """Run-form, integer-scaled view of one bush.

    The index keeps the bush's coordinate order (``order[p]`` is the
    coordinate at position p) and ``inverse[i]``, coordinate i's position
    (None for the identity).  All bush vector and midpoint coordinates are
    integer multiples of ``1 / scale`` (2 * lcm of the nonzero coordinate
    denominators), so ``supports[ref]`` holds a generator as runs ``(start,
    stop, int)`` over positions.  ``vector_refs[n][j]`` and
    ``midpoint_refs[l][j]`` (child j at level l + 1 with its parent) are the
    one ref object per generator that every line shares;
    ``int_weights[l][j]`` is child j's weight times ``weight_scale`` (the
    lcm of the weight denominators).  Also holds the parent map, the pair
    distances, the failing normalized checks and ``runs``, each refinement
    step's run of terms (`lines._run`) once it is first read; lines are not
    memoised.
    """

    def __init__(self, bush: Bush):
        self.parents = _parent_map(bush)  # raises StructuralError on overlap/gap
        space = bush.space
        dim = space.dimension
        runs = bush.runs
        self.order = bush.order
        self.inverse = None  # the identity
        if self.order != range(dim):
            self.inverse = tuple(sorted(range(dim), key=self.order.__getitem__))
        self.scale = scale = 2 * math.lcm(
            *{v.denominator for lev in runs for vec in lev for _, _, v in vec}
        )
        self.vector_refs = tuple(
            tuple(BushVectorRef(n, j) for j in range(len(lev))) for n, lev in enumerate(runs)
        )
        self.supports = {
            ref: tuple((a, b, v.numerator * (scale // v.denominator)) for a, b, v in vec)
            for refs, lev in zip(self.vector_refs, runs)
            for ref, vec in zip(refs, lev)
        }
        self.kind = space.kind
        self.norm_denominator = 1  # wl1: lcm of the weight denominators
        if space.kind == "wl1":
            den = math.lcm(*(w.denominator for w in space.weights))
            weights = [space.weights[i] for i in self.order]
            self.weight_prefix = [0, *accumulate(w.numerator * (den // w.denominator)
                                                 for w in weights)]
            self.norm_denominator = den
        self.midpoint_refs = tuple(
            tuple(MidpointRef(l + 1, k, j) for j, k in enumerate(owner))
            for l, owner in enumerate(self.parents)
        )
        self.pair_distances = {}  # midpoint ref -> ||x_parent - x_child||
        for l, refs in enumerate(self.midpoint_refs):
            for ref in refs:
                parent = self.supports[self.vector_refs[l][ref.parent]]
                child = self.supports[self.vector_refs[l + 1][ref.child]]
                # both ends are even multiples of 1/scale, so halving is exact
                self.supports[ref], diff = _pair_runs(parent, child)
                self.pair_distances[ref] = self.norm(diff, scale)
        self.weight_scale = den = math.lcm(*(w.denominator for lev in bush.weights for w in lev))
        self.int_weights = [
            [w.numerator * (den // w.denominator) for w in lev] for lev in bush.weights
        ]
        self.failed_checks = None  # set by lines.ensure_normalized
        self.runs = {}  # (bit, ref) -> `lines._run`

    def norm_numerator(self, runs) -> int:
        """``norm_denominator`` times the wl1 or linf norm of the integer
        vector with these runs: an integer."""
        if self.kind == "wl1":
            w = self.weight_prefix
            return sum(abs(v) * (w[b] - w[a]) for a, b, v in runs)
        return max((abs(v) for _, _, v in runs), default=0)

    def norm(self, runs, den: int) -> Fraction:
        """Norm of the vector with runs ``(start, stop, v / den)`` (integers
        v), the value of ``NormedSpace.norm``: `norm_numerator` over
        ``norm_denominator * den``.  Bush vectors have ``den = scale``; the
        distance of two exact points is the norm of their
        `lines._difference`."""
        return Fraction(self.norm_numerator(runs), self.norm_denominator * den)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


@dataclass
class _Checks:
    """A report's named checks; it passes when every check does.  The bush
    validation and the witness validation both report this way."""

    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(passed), detail))


@dataclass
class BushValidation(_Checks):
    warnings: list = field(default_factory=list)
    normalized: bool = True

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "normalized_mode": self.normalized,
            "checks": [c._asdict() for c in self.checks],
            "warnings": list(self.warnings),
        }


def _parent_map(bush: Bush) -> list:
    """parents[l][j] = parent index of vector j at level l+1; raises on overlap/gap."""
    parents = []
    for l in range(bush.depth):
        size = bush.level_sizes[l + 1]
        owner = [None] * size
        bad = []
        for k, block in enumerate(bush.partitions[l]):
            for j in block:
                if not 0 <= j < size:
                    raise StructuralError(
                        f"block {k} at level {l} references index {j} outside level {l + 1}"
                    )
                if owner[j] is not None:
                    bad.append(j)
                owner[j] = k
        missing = [j for j, k in enumerate(owner) if k is None]
        if bad or missing:
            raise StructuralError(
                f"blocks below level {l} do not partition level {l + 1}: "
                f"duplicated indices {bad}, uncovered indices {missing}"
            )
        parents.append(owner)
    return parents


def validate_bush(bush: Bush, *, normalized: bool = True) -> BushValidation:
    """Check every bush axiom exactly, with no tolerance.

    ``normalized=True`` additionally requires unit norms, functional value
    one on every vector, and the derived weight bound
    lambda_max <= 1 - epsilon/2 (a warning only in raw mode, where the
    derivation's unit-norm hypothesis may fail).  Checks run on the integer
    runs of the bush's index, with prefix sums of the weights and of the
    functional, in time linear in the number of runs; they read the level
    sizes, never the dense levels.
    """
    report = BushValidation(normalized=normalized)
    index = bush._index  # raises StructuralError on overlap/gap
    supports = index.supports
    vrefs = index.vector_refs
    iw, ws = index.int_weights, index.weight_scale
    eps = bush.epsilon

    report.add("root_level_single", bush.level_sizes[0] == 1,
               f"m0 = {bush.level_sizes[0]}")

    bad_blocks = [
        (l, k)
        for l in range(bush.depth)
        for k, block in enumerate(bush.partitions[l])
        if len(block) < 2
    ]
    report.add(
        "blocks_have_two_or_more_children",
        not bad_blocks,
        "singleton blocks force child == parent, contradicting separation"
        + (f"; offenders (parent level, k): {bad_blocks[:5]}" if bad_blocks else ""),
    )

    # weights as integers over weight_scale
    neg = [(l + 1, j) for l, lev in enumerate(iw) for j, w in enumerate(lev) if w < 0]
    report.add("weights_nonnegative", not neg,
               f"negative weights at {neg[:5]}" if neg else "")

    bad_sums = []
    for l in range(bush.depth):
        for k, block in enumerate(bush.partitions[l]):
            total = sum(iw[l][j] for j in block)
            if total != ws:
                bad_sums.append((l, k, str(Fraction(total, ws))))
    report.add("block_weights_sum_to_one", not bad_sums,
               f"bad sums at {bad_sums[:5]}" if bad_sums else "")

    # ws * parent == sum_j (ws * weight_j) * child_j, all on scaled ints
    bad_convex = []
    for l in range(bush.depth):
        for k, block in enumerate(bush.partitions[l]):
            residual = _combine(
                (-ws, supports[vrefs[l][k]]),
                *((iw[l][j], supports[vrefs[l + 1][j]]) for j in block),
            )
            if not block or any(residual.values()):
                bad_convex.append((l, k))
    report.add("children_average_to_parent", not bad_convex,
               f"exact convexity fails at (parent level, k): {bad_convex[:5]}"
               if bad_convex else "")

    bad_sep = []
    for l, refs in enumerate(index.midpoint_refs):
        for j, ref in enumerate(refs):
            d = index.pair_distances[ref]
            if d < eps:
                bad_sep.append((l + 1, j, float(d)))
    report.add(
        "children_separated_from_parent",
        not bad_sep,
        f"||x_child - x_parent|| < epsilon = {eps} at {bad_sep[:5]}" if bad_sep else "",
    )

    # integer norm numerators over `unit`, the norm one
    unit = index.norm_denominator * index.scale
    norms = [[index.norm_numerator(supports[ref]) for ref in refs] for refs in vrefs]

    def value(x):
        return float(Fraction(x, unit))

    max_norm = max(x for row in norms for x in row)
    report.add("vectors_bounded", True, f"max norm {value(max_norm)}")

    lam = max((w for lev in iw for w in lev), default=None)
    if lam is not None:
        lam = Fraction(lam, ws)
        ok = lam <= 1 - eps / 2
        detail = f"lambda_max = {lam}, 1 - epsilon/2 = {1 - eps / 2}"
        if normalized:
            report.add("weight_bound_lambda_max", ok, detail)
        elif not ok:
            report.warnings.append(
                "lambda_max exceeds 1 - epsilon/2; expected only for raw bushes "
                "without unit norms (" + detail + ")"
            )

    if normalized:
        off_unit = [
            (n, j, value(x))
            for n, row in enumerate(norms)
            for j, x in enumerate(row)
            if x != unit
        ]
        report.add("vectors_have_unit_norm", not off_unit,
                   f"non-unit vectors at {off_unit[:5]}" if off_unit else "")

        # functional(x) == 1  <=>  sum_i (den * f_i) * (scale * x_i) == den * scale,
        # a sum over runs with prefix sums F of den * f in the index's order
        coefficients = bush.functional.coefficients
        den = math.lcm(*(f.denominator for f in coefficients))
        F = [0, *accumulate(coefficients[i].numerator * (den // coefficients[i].denominator)
                            for i in index.order)]
        target = den * index.scale
        off_func = [
            (n, j)
            for n, refs in enumerate(vrefs)
            for j, ref in enumerate(refs)
            if sum(v * (F[b] - F[a]) for a, b, v in supports[ref]) != target
        ]
        report.add("functional_is_one_on_vectors", not off_func,
                   f"functional != 1 at {off_func[:5]}" if off_func else "")

        dual = bush.space.dual_norm(coefficients)
        report.add("functional_has_unit_operator_norm", dual == 1, f"dual norm {float(dual)}")
    return report


def lambda_max(bush: Bush) -> Fraction:
    """Largest convex weight; <= 1 - epsilon/2 for every normalized bush."""
    if bush.depth == 0:
        raise InputError("bush has no levels below the root")
    return max(w for lev in bush.weights for w in lev)


def shift_bush(bush: Bush, x: Vec) -> Bush:
    """Translate every bush vector by x (separation and convexity survive)."""
    bush.space.check_vector(x, "shift")
    return Bush(
        space=bush.space,
        levels=tuple(tuple(tuple(a + b for a, b in zip(vec, x)) for vec in lev)
                     for lev in bush.levels),
        partitions=bush.partitions,
        weights=bush.weights,
        epsilon=bush.epsilon,
        functional=bush.functional,
    )


def dyadic_bush(n_levels: int) -> Bush:
    """The classical bush of dyadic step functions with the integral norm.

    Depth ``n_levels``, ambient dimension 2**n_levels, weights 2**-n_levels
    per coordinate.  x[n][j] equals 2**n on the j-th block of 2**(N-n)
    coordinates and 0 elsewhere, handed to the bush as that one run in the
    identity order; every block is a pair with weights 1/2 and
    epsilon = 1.  Passes validate_bush.  The size budget is checked on the
    cells of its dense view, (2**(N+1) - 1) vectors of 2**N coordinates,
    which fit up to N = 12.
    """
    if n_levels < 1:
        raise InputError(f"need n_levels >= 1, got {n_levels}")
    dim = 2 ** n_levels
    check_budget(f"dyadic_bush({n_levels})", (2 * dim - 1) * dim)
    w = Fraction(1, dim)
    space = NormedSpace(dim, "wl1", (w,) * dim)
    runs = tuple(
        tuple(((j * dim >> n, (j + 1) * dim >> n, 2 ** n),) for j in range(2 ** n))
        for n in range(n_levels + 1)
    )
    partitions = tuple(
        tuple((2 * k, 2 * k + 1) for k in range(2 ** n)) for n in range(n_levels)
    )
    half = Fraction(1, 2)
    weights = tuple((half,) * 2 ** (n + 1) for n in range(n_levels))
    return Bush(
        space=space,
        levels=None,
        partitions=partitions,
        weights=weights,
        epsilon=Fraction(1),
        functional=Functional((w,) * dim),
        runs=runs,
    )


def random_bush(
    seed: int,
    depth: int = 2,
    extra_atoms: int = 0,
    tight_epsilon: bool = True,
) -> Bush:
    """Random normalized bush built from refining partitions of weighted atoms.

    Atoms i carry random positive rational masses w_i; the vector of a group
    of atoms is its normalized indicator (value 1/mass on members), so
    parents are exact convex combinations of children with weights equal to
    mass ratios, the integral functional w has operator norm one and value
    one on every group, and the child-parent distance is exactly
    2*(1 - weight).  epsilon is set to the minimum such distance (tight) or
    to a random fraction of it.  Every group is a contiguous slice of the
    shuffled atoms, so the bush takes that shuffle as its coordinate order
    and each group vector as one run; no dense vector is built.  A level-n
    group holds at least 2**(depth-n) atoms, so the dense view holds at
    most ``atoms * sum_n atoms // 2**(depth-n)`` cells, with ``atoms =
    2**depth + extra_atoms``; that is checked against the size budget
    before any draw.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if extra_atoms < 0:
        raise InputError(f"extra_atoms must be >= 0, got {extra_atoms}")
    atoms = 2 ** depth + extra_atoms
    check_budget(
        f"random_bush(depth={depth}, extra_atoms={extra_atoms})",
        atoms * sum(atoms >> (depth - n) for n in range(depth + 1)),
    )
    rng = random.Random(seed)
    n_atoms = 2 ** depth + rng.randrange(extra_atoms + 1) if extra_atoms else 2 ** depth
    masses = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n_atoms)]
    atoms = list(range(n_atoms))
    rng.shuffle(atoms)
    # the mass of the atoms at positions [a, b) is prefix[b] - prefix[a]
    prefix = [0, *accumulate(masses[i] for i in atoms)]

    # groups[level] = (a, b) position slices of the shuffled atoms; split
    # keeps every group large enough to keep splitting down to `depth`
    groups = [[(0, n_atoms)]]
    partitions = []
    for level in range(depth):
        min_size = 2 ** (depth - level - 1)
        next_groups = []
        partition = []
        for lo, hi in groups[-1]:
            k = len(next_groups)
            if hi - lo >= 3 * min_size and rng.random() < 0.4:
                a = lo + rng.randint(min_size, hi - lo - 2 * min_size)
                b = lo + rng.randint(a - lo + min_size, hi - lo - min_size)
                pieces = [(lo, a), (a, b), (b, hi)]
            else:
                split_at = lo + rng.randint(min_size, hi - lo - min_size)
                pieces = [(lo, split_at), (split_at, hi)]
            partition.append(tuple(range(k, k + len(pieces))))
            next_groups.extend(pieces)
        groups.append(next_groups)
        partitions.append(tuple(partition))

    group_masses = [[prefix[b] - prefix[a] for a, b in lev] for lev in groups]
    runs = tuple(
        tuple(((a, b, 1 / mass),) for (a, b), mass in zip(lev, ms))
        for lev, ms in zip(groups, group_masses)
    )
    weights = tuple(
        tuple(group_masses[l + 1][j] / group_masses[l][k]
              for k, block in enumerate(partitions[l]) for j in block)
        for l in range(depth)
    )

    eps = 2 * (1 - max(w for lev in weights for w in lev))
    if not tight_epsilon:
        eps = eps * Fraction(rng.randint(1, 4), 4)
    return Bush(
        space=NormedSpace(n_atoms, "wl1", tuple(masses)),
        levels=None,
        partitions=tuple(partitions),
        weights=weights,
        epsilon=eps,
        functional=Functional(tuple(masses)),
        runs=runs,
        order=atoms,
    )
