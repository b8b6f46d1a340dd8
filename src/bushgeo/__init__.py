"""Bushes, broken-line geodesics, and verifiable thick families.

From a finite-depth bush in a finite-dimensional normed space this package
builds the labelled broken-line geodesics joining 0 to the root vector,
truncated branch/pasted families, and a thickness game consisting of a
challenge responder and a witness validator, with all quantitative bounds
(epsilon/2 sibling deviation, epsilon/4 game deviation, lambda_max and gap
decay, unit gauge of bush vectors) checkable in exact rational arithmetic.
"""

from .bushes import (
    Bush,
    dyadic_bush,
    lambda_max,
    random_bush,
    shift_bush,
    validate_bush,
)
from .errors import (
    BudgetError,
    BushgeoError,
    DimensionMismatch,
    InputError,
    NumericalError,
    PastingError,
    StructuralError,
)
from .families import (
    BranchSpec,
    ChallengeResponse,
    PastedGeodesic,
    ThicknessWitness,
    branch_geodesic,
    brute_force_alpha,
    challenge_respond,
    gap_switch_pasting,
    make_branch,
    paste,
    random_challenge,
    validate_witness,
)
from .gauge import gauge_decompose
from .lines import (
    BrokenLine,
    BushVectorRef,
    MidpointRef,
    Term,
    intermediate_for_label,
    line_for_label,
    sibling_deviation,
)
from .spaces import Functional, NormedSpace

__version__ = "0.1.0"
