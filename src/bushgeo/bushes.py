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
from itertools import accumulate, chain, compress
from typing import NamedTuple, Union

from .errors import DimensionMismatch, InputError, StructuralError, check_budget
from .rationals import Vec, vadd
from .spaces import Functional, NormedSpace


@dataclass(frozen=True, eq=False)
class Bush:
    """Finite-depth bush; immutable, hashed by identity.

    ``partitions[l][k]`` lists the level-(l+1) children of parent ``k`` at
    level ``l``; ``weights[l][j]`` is the convex weight of child ``j`` at
    level ``l+1``.  Both have length ``depth``.  ``levels`` holds the dense
    vectors.  A constructor may instead pass them as `_Runs`; then
    ``levels`` is a dense view built on first read, and nothing in the
    package reads it.
    """

    space: NormedSpace
    levels: tuple  # levels[n][j] -> Vec
    partitions: tuple
    weights: tuple
    epsilon: Fraction
    functional: Functional

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        runs = self.levels if isinstance(self.levels, _Runs) else None
        object.__setattr__(self, "_runs", runs)
        if runs is None:
            levels = tuple(tuple(tuple(vec) for vec in lev) for lev in self.levels)
            object.__setattr__(self, "levels", levels)
        else:
            levels = runs
            object.__delattr__(self, "levels")  # `__getattr__` builds it on first read
        object.__setattr__(self, "level_sizes", tuple(map(len, levels)))
        # blocks are kept in ascending child order: any order represents the
        # same bush, and a fixed one makes every construction deterministic
        object.__setattr__(
            self,
            "partitions",
            tuple(tuple(tuple(sorted(b)) for b in lev) for lev in self.partitions),
        )
        object.__setattr__(
            self, "weights", tuple(tuple(Fraction(w) for w in lev) for lev in self.weights)
        )
        if not levels or not levels[0]:
            raise StructuralError("bush needs a root level")
        if self.epsilon <= 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        depth = len(levels) - 1
        if len(self.partitions) != depth or len(self.weights) != depth:
            raise StructuralError(
                f"depth {depth} bush needs {depth} partition/weight levels, "
                f"got {len(self.partitions)}/{len(self.weights)}"
            )
        if runs is None:
            for n, lev in enumerate(levels):
                for j, vec in enumerate(lev):
                    if len(vec) != self.space.dimension:
                        raise DimensionMismatch(self.space.dimension, len(vec), f"x[{n}][{j}]")
        for l in range(depth):
            if len(self.partitions[l]) != len(levels[l]):
                raise StructuralError(
                    f"level {l} has {len(levels[l])} parents but "
                    f"{len(self.partitions[l])} blocks"
                )
            if len(self.weights[l]) != len(levels[l + 1]):
                raise StructuralError(
                    f"level {l + 1} has {len(levels[l + 1])} vectors but "
                    f"{len(self.weights[l])} weights"
                )
        if len(self.functional.coefficients) != self.space.dimension:
            raise DimensionMismatch(
                self.space.dimension, len(self.functional.coefficients), "functional"
            )

    def __getattr__(self, name):
        # reached only when ``levels`` of a bush built from runs is first read
        runs = self.__dict__.get("_runs")
        if name != "levels" or runs is None:
            raise AttributeError(f"'Bush' object has no attribute {name!r}")
        zeros = (0,) * self.space.dimension
        levels = []
        for lev in runs:
            dense = []
            for vec in lev:
                cells = list(zeros)
                for start, stop, value in vec:
                    cells[start:stop] = (value,) * (stop - start)
                dense.append(tuple(cells))
            levels.append(tuple(dense))
        levels = tuple(levels)
        object.__setattr__(self, "levels", levels)
        return levels

    @property
    def depth(self) -> int:
        return len(self.level_sizes) - 1

    @cached_property
    def _index(self) -> "BushIndex":
        """Compiled view of this bush, built on first use and freed with it."""
        return BushIndex(self)


class _Runs(tuple):
    """Bush vectors given as runs: ``runs[n][j]`` lists the ``(start, stop,
    value)`` stretches of coordinates, in increasing order, on which x[n][j]
    is a nonzero constant; it is zero elsewhere."""


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
    level by level; for a laminar family (``random_bush``) that is tree
    order, and every support becomes one run.  Any order gives the same
    results; this one only makes the runs few.  Returns ``(order, runs)``:
    ``order[p]`` is the coordinate at position p, a ``range`` for the
    identity.
    """
    positions = range(dim)
    chains = [[] for _ in positions]  # the vectors containing each coordinate, in level order
    for v, vec in enumerate(chain.from_iterable(levels)):
        for i in compress(positions, vec):
            chains[i].append(v)
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
                    vec_runs[-1][1] = p + 1
                else:
                    vec_runs.append([p, p + 1, value])
            row.append(vec_runs)
        runs.append(row)
    return positions if order == list(positions) else tuple(order), runs


class BushIndex:
    """Run-form, integer-scaled view of one bush.

    The index puts the coordinates in one order (``order[p]`` is the
    coordinate at position p; the identity for a bush built from runs, else
    `_tree_runs`'s) and ``inverse[i]`` is coordinate i's position (None for
    the identity).  All bush vector and midpoint coordinates are integer
    multiples of ``1 / scale`` (2 * lcm of the nonzero coordinate
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
        runs = bush._runs
        self.order = range(dim)
        if runs is None:
            self.order, runs = _tree_runs(bush.levels, dim)
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
        levels=tuple(tuple(vadd(vec, x) for vec in lev) for lev in bush.levels),
        partitions=bush.partitions,
        weights=bush.weights,
        epsilon=bush.epsilon,
        functional=bush.functional,
    )


def dyadic_bush(n_levels: int) -> Bush:
    """The classical bush of dyadic step functions with the integral norm.

    Depth ``n_levels``, ambient dimension 2**n_levels, weights 2**-n_levels
    per coordinate.  x[n][j] equals 2**n on the j-th block of 2**(N-n)
    coordinates and 0 elsewhere, handed to the bush as that one run; every
    block is a pair with weights 1/2 and epsilon = 1.  Passes validate_bush.
    Its (2**(N+1) - 1) vectors would fill the size budget densely up to
    N = 12, and the budget is checked on that dense size.
    """
    if n_levels < 1:
        raise InputError(f"need n_levels >= 1, got {n_levels}")
    dim = 2 ** n_levels
    check_budget(f"dyadic_bush({n_levels})", (2 * dim - 1) * dim)
    w = Fraction(1, dim)
    space = NormedSpace(dim, "wl1", (w,) * dim)
    levels = _Runs(
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
        levels=levels,
        partitions=partitions,
        weights=weights,
        epsilon=Fraction(1),
        functional=Functional((w,) * dim),
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
    to a random fraction of it.  A level-n group holds at least 2**(depth-n)
    atoms, so the dense vectors hold at most ``atoms * sum_n atoms //
    2**(depth-n)`` cells, with ``atoms = 2**depth + extra_atoms``; that is
    checked against the size budget before any draw.
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

    def group_vector(members):
        mass = sum((masses[i] for i in members), Fraction(0))
        vec = [Fraction(0)] * n_atoms
        inv = 1 / mass
        for i in members:
            vec[i] = inv
        return tuple(vec), mass

    # groups[level] = list of atom-index tuples; split keeps every group
    # large enough to keep splitting down to `depth`
    groups = [[tuple(atoms)]]
    partitions = []
    for level in range(depth):
        min_size = 2 ** (depth - level - 1)
        next_groups = []
        partition = []
        for block in groups[-1]:
            k = len(next_groups)
            if len(block) >= 3 * min_size and rng.random() < 0.4:
                a = rng.randint(min_size, len(block) - 2 * min_size)
                b = rng.randint(a + min_size, len(block) - min_size)
                pieces = [block[:a], block[a:b], block[b:]]
            else:
                split_at = rng.randint(min_size, len(block) - min_size)
                pieces = [block[:split_at], block[split_at:]]
            partition.append(tuple(range(k, k + len(pieces))))
            next_groups.extend(pieces)
        groups.append(next_groups)
        partitions.append(tuple(partition))

    levels = []
    group_masses = []
    for lev in groups:
        vecs = []
        ms = []
        for block in lev:
            vec, mass = group_vector(block)
            vecs.append(vec)
            ms.append(mass)
        levels.append(tuple(vecs))
        group_masses.append(ms)

    weights = []
    for level in range(depth):
        lam = []
        for k, block in enumerate(partitions[level]):
            parent_mass = group_masses[level][k]
            for j in block:
                lam.append(group_masses[level + 1][j] / parent_mass)
        weights.append(tuple(lam))

    lam_max = max(w for lev in weights for w in lev)
    eps = 2 * (1 - lam_max)
    if not tight_epsilon:
        eps = eps * Fraction(rng.randint(1, 4), 4)
    space = NormedSpace(n_atoms, "wl1", tuple(masses))
    return Bush(
        space=space,
        levels=tuple(levels),
        partitions=tuple(partitions),
        weights=tuple(weights),
        epsilon=eps,
        functional=Functional(tuple(masses)),
    )
