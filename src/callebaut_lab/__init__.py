"""Verification and falsification lab for Callebaut-type operator inequalities.

The package measures signed Loewner gaps of inequality chains built from
weighted operator geometric means, Hadamard and Kronecker products, and
Kantorovich constants, over deterministic band-constrained random instances
and recorded counterexample witnesses.
"""

from .inequalities import (
    IneqId,
    IneqReport,
    Variant,
    evaluate_inequality,
    list_inequalities,
)
from .matcore import (
    EigenDecomposition,
    LoewnerGap,
    SymMatrix,
    compress,
    hadamard,
    kron,
    loewner_gap,
    spectral_pow,
    sym_eigen,
)
from .oracle import diagonal_equivalence, replay_witnesses
from .sampler import (
    FamilyInstance,
    RngState,
    SpectralBand,
    derive_rng,
    haar_orthogonal,
    sample_family,
    spd_in_band,
)
from .scalarcore import (
    ExponentPair,
    ProofChainParams,
    ScalarIneqId,
    ScalarParams,
    kantorovich,
    kantorovich_min_over_interval,
    scalar_gap,
)

__version__ = "0.1.0"

__all__ = [
    "IneqId",
    "IneqReport",
    "Variant",
    "evaluate_inequality",
    "list_inequalities",
    "EigenDecomposition",
    "LoewnerGap",
    "SymMatrix",
    "compress",
    "hadamard",
    "kron",
    "loewner_gap",
    "spectral_pow",
    "sym_eigen",
    "diagonal_equivalence",
    "replay_witnesses",
    "FamilyInstance",
    "RngState",
    "SpectralBand",
    "derive_rng",
    "haar_orthogonal",
    "sample_family",
    "spd_in_band",
    "ExponentPair",
    "ProofChainParams",
    "ScalarIneqId",
    "ScalarParams",
    "kantorovich",
    "kantorovich_min_over_interval",
    "scalar_gap",
    "__version__",
]
