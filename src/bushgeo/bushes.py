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
from itertools import compress
from typing import NamedTuple, Union

from .errors import DimensionMismatch, InputError, StructuralError, check_budget
from .rationals import Scalar, Vec, vadd
from .spaces import Functional, NormedSpace


@dataclass(frozen=True, eq=False)
class Bush:
    """Finite-depth bush; immutable, hashed by identity.

    ``partitions[l][k]`` lists the level-(l+1) children of parent ``k`` at
    level ``l``; ``weights[l][j]`` is the convex weight of child ``j`` at
    level ``l+1``.  Both have length ``depth``.
    """

    space: NormedSpace
    levels: tuple  # levels[n][j] -> Vec
    partitions: tuple
    weights: tuple
    epsilon: Fraction
    functional: Functional

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        levels = tuple(tuple(tuple(vec) for vec in lev) for lev in self.levels)
        object.__setattr__(self, "levels", levels)
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

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

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
    """Sparse sum of c * v over (c, (indices, values)) terms, zeros dropped."""
    acc = {}
    for c, (ii, vv) in terms:
        for i, v in zip(ii, vv):
            acc[i] = acc.get(i, 0) + c * v
    return {i: v for i, v in acc.items() if v}


class BushIndex:
    """Sparse, integer-scaled view of one bush.

    All bush vector and midpoint coordinates are integer multiples of
    ``1 / scale`` (2 * lcm of the nonzero coordinate denominators), so
    ``supports[ref]`` holds a generator's nonzero coordinates as
    ``(indices, ints)``.  ``vector_refs[n][j]`` and ``midpoint_refs[l][j]``
    (child j at level l + 1 with its parent) are the one ref object per
    generator that every line shares; ``int_weights[l][j]`` is child j's
    weight times ``weight_scale`` (the lcm of the weight denominators).
    Also holds the parent map, the pair distances and the failing
    normalized checks; lines are not memoised.
    """

    def __init__(self, bush: Bush):
        self.parents = _parent_map(bush)  # raises StructuralError on overlap/gap
        space = bush.space
        positions = range(space.dimension)
        dense = [
            [(tuple(compress(positions, vec)), vec) for vec in lev] for lev in bush.levels
        ]
        self.scale = scale = 2 * math.lcm(
            *{vec[i].denominator for lev in dense for ii, vec in lev for i in ii}
        )
        self.vector_refs = tuple(
            tuple(BushVectorRef(n, j) for j in range(len(lev))) for n, lev in enumerate(dense)
        )
        self.supports = {
            ref: (ii, tuple(vec[i].numerator * (scale // vec[i].denominator) for i in ii))
            for refs, lev in zip(self.vector_refs, dense)
            for ref, (ii, vec) in zip(refs, lev)
        }
        self.kind = space.kind
        self.norm_denominator = 1  # wl1: lcm of the weight denominators
        if space.kind == "wl1":
            den = math.lcm(*(w.denominator for w in space.weights))
            self.norm_weights = [w.numerator * (den // w.denominator) for w in space.weights]
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
                both = _combine((1, parent), (1, child))
                ii = tuple(sorted(both))
                # both ends are even multiples of 1/scale, so halving is exact
                self.supports[ref] = (ii, tuple(both[i] // 2 for i in ii))
                diff = _combine((1, parent), (-1, child))
                self.pair_distances[ref] = self.norm(diff.keys(), diff.values(), scale)
        self.weight_scale = den = math.lcm(*(w.denominator for lev in bush.weights for w in lev))
        self.int_weights = [
            [w.numerator * (den // w.denominator) for w in lev] for lev in bush.weights
        ]
        self.failed_checks = None  # set by lines.ensure_normalized

    def norm_numerator(self, ii, vv) -> int:
        """``norm_denominator`` times the wl1 or linf norm of the integer
        vector with entries vv at positions ii: an integer."""
        if self.kind == "wl1":
            w = self.norm_weights
            return sum(w[i] * abs(v) for i, v in zip(ii, vv))
        return max(map(abs, vv), default=0)

    def norm(self, ii, vv, den: int) -> Scalar:
        """Norm of the vector with coordinates ``v / den`` (integers v in vv)
        at positions ii, with the value and type of ``NormedSpace.norm``:
        `norm_numerator` over ``norm_denominator * den`` on wl1 and linf, a
        float on l2.  Bush vectors have ``den = scale``; the distance of two
        exact points is the norm of their `lines._difference`."""
        if self.kind == "l2":
            return math.sqrt(float(Fraction(sum(v * v for v in vv), den * den)))
        return Fraction(self.norm_numerator(ii, vv), self.norm_denominator * den)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class BushValidation:
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    normalized: bool = True

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "normalized_mode": self.normalized,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "warnings": list(self.warnings),
        }


def _parent_map(bush: Bush) -> list:
    """parents[l][j] = parent index of vector j at level l+1; raises on overlap/gap."""
    parents = []
    for l in range(bush.depth):
        size = len(bush.levels[l + 1])
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


def _l2_outside(vv, den: int, lo, hi=None) -> bool:
    """Whether ||vv / den||_2 < lo or > hi (>= 0; None: no bound), exactly."""
    square, den2 = sum(v * v for v in vv), den * den
    return (lo > 0 and square < lo * lo * den2) or (hi is not None and square > hi * hi * den2)


def validate_bush(bush: Bush, tol: Scalar = 0, normalized: bool = True) -> BushValidation:
    """Check every bush axiom exactly; norm inequalities within the rational
    tol (on l2 by comparing squares).

    ``normalized=True`` additionally requires unit norms, functional value
    one on every vector, and the derived weight bound
    lambda_max <= 1 - epsilon/2 (a warning only in raw mode, where the
    derivation's unit-norm hypothesis may fail).  Checks run on the sparse
    integer supports of the bush's index, in time linear in their size.
    """
    report = BushValidation(normalized=normalized)
    index = bush._index  # raises StructuralError on overlap/gap
    supports = index.supports
    vrefs = index.vector_refs
    eps = bush.epsilon

    report.add("root_level_single", len(bush.levels[0]) == 1,
               f"m0 = {len(bush.levels[0])}")

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

    neg = [
        (l + 1, j)
        for l in range(bush.depth)
        for j, w in enumerate(bush.weights[l])
        if w < 0
    ]
    report.add("weights_nonnegative", not neg,
               f"negative weights at {neg[:5]}" if neg else "")

    bad_sums = []
    for l in range(bush.depth):
        for k, block in enumerate(bush.partitions[l]):
            total = sum((bush.weights[l][j] for j in block), Fraction(0))
            if total != 1:
                bad_sums.append((l, k, str(total)))
    report.add("block_weights_sum_to_one", not bad_sums,
               f"bad sums at {bad_sums[:5]}" if bad_sums else "")

    # den * parent == sum_j (den * weight_j) * child_j, all on scaled ints
    bad_convex = []
    for l in range(bush.depth):
        for k, block in enumerate(bush.partitions[l]):
            weights = [bush.weights[l][j] for j in block]
            den = math.lcm(*(w.denominator for w in weights))
            residual = _combine(
                (-den, supports[vrefs[l][k]]),
                *((w.numerator * (den // w.denominator), supports[vrefs[l + 1][j]])
                  for w, j in zip(weights, block)),
            )
            if not block or residual:
                bad_convex.append((l, k))
    report.add("children_average_to_parent", not bad_convex,
               f"exact convexity fails at (parent level, k): {bad_convex[:5]}"
               if bad_convex else "")

    l2 = index.kind == "l2"
    bad_sep = []
    for l, refs in enumerate(index.midpoint_refs):
        for j, ref in enumerate(refs):
            d = index.pair_distances[ref]
            if l2:
                parent, child = supports[vrefs[l][ref.parent]], supports[vrefs[l + 1][j]]
                diff = _combine((1, parent), (-1, child)).values()
            if _l2_outside(diff, index.scale, eps - tol) if l2 else d < eps - tol:
                bad_sep.append((l + 1, j, float(d)))
    report.add(
        "children_separated_from_parent",
        not bad_sep,
        f"||x_child - x_parent|| < epsilon = {eps} at {bad_sep[:5]}" if bad_sep else "",
    )

    norms = [[index.norm(*supports[ref], index.scale) for ref in refs] for refs in vrefs]
    max_norm = max(x for row in norms for x in row)
    report.add("vectors_bounded", True, f"max norm {float(max_norm)}")

    lam = max((w for lev in bush.weights for w in lev), default=None)
    if lam is not None:
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
            (n, j, float(x))
            for n, row in enumerate(norms)
            for j, x in enumerate(row)
            if (_l2_outside(supports[vrefs[n][j]][1], index.scale, 1 - tol, 1 + tol) if l2
                else abs(Fraction(x) - 1) > tol)
        ]
        report.add("vectors_have_unit_norm", not off_unit,
                   f"non-unit vectors at {off_unit[:5]}" if off_unit else "")

        # functional(x) == 1  <=>  sum_i (den * f_i) * (scale * x_i) == den * scale
        coefficients = bush.functional.coefficients
        den = math.lcm(*(f.denominator for f in coefficients))
        f = [c.numerator * (den // c.denominator) for c in coefficients]
        target = den * index.scale
        off_func = [
            (n, j)
            for n, refs in enumerate(vrefs)
            for j, ref in enumerate(refs)
            if sum(f[i] * v for i, v in zip(*supports[ref])) != target
        ]
        report.add("functional_is_one_on_vectors", not off_func,
                   f"functional != 1 at {off_func[:5]}" if off_func else "")

        dual = bush.space.dual_norm(coefficients)
        report.add(
            "functional_has_unit_operator_norm",
            not _l2_outside(coefficients, 1, 1 - tol, 1 + tol) if l2
            else abs(Fraction(dual) - 1) <= tol,
            f"dual norm {float(dual)}",
        )
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
    coordinates and 0 elsewhere; every block is a pair with weights 1/2 and
    epsilon = 1.  Passes validate_bush with tol = 0.  Its (2**(N+1) - 1)
    dense vectors fit the size budget up to N = 12.
    """
    if n_levels < 1:
        raise InputError(f"need n_levels >= 1, got {n_levels}")
    dim = 2 ** n_levels
    check_budget(f"dyadic_bush({n_levels})", (2 * dim - 1) * dim)
    w = Fraction(1, dim)
    space = NormedSpace(dim, "wl1", (w,) * dim)
    levels = []
    for n in range(n_levels + 1):
        block = 2 ** (n_levels - n)
        value = 2 ** n
        lev = []
        for j in range(2 ** n):
            vec = [0] * dim
            vec[j * block : (j + 1) * block] = [value] * block
            lev.append(tuple(vec))
        levels.append(tuple(lev))
    partitions = tuple(
        tuple((2 * k, 2 * k + 1) for k in range(2 ** n)) for n in range(n_levels)
    )
    half = Fraction(1, 2)
    weights = tuple((half,) * 2 ** (n + 1) for n in range(n_levels))
    return Bush(
        space=space,
        levels=tuple(levels),
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
