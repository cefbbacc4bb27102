"""Exact lattice-point counting, finite-field geometry probes, and
two-level differencing diagnostics, with exact rational exponent
bookkeeping for the asymptotics they feed.

The package is organised bottom-up:

    mpoly        sparse integer polynomials and difference operators
    ffield       F_{p^k} arithmetic and projective enumeration
    geometry     singular loci, dimension heuristics, admissibility checks
    counting     box counts, congruence counts, separable weights
    pipeline     the two-level variance ledger and its residual identities
    asymptotics  exponent vectors, dominance bookkeeping, prime selection
    analysis     progression-averaging and transform-decay probes
    cli          the `vdc` executable

Everything is deterministic, refuses work beyond an explicit enumeration
budget, and reports exact rationals wherever the weight allows.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    Budget,
    BudgetExceeded,
    InputError,
    PreconditionError,
    VdcError,
)
from .mpoly import IntPoly, parse_poly  # noqa: F401
