"""Finite paraorthogonal orthogonal polynomials on the unit circle.

Core pipeline: truncated Verblunsky data -> Szego recurrence ->
unimodular spectrum and positive weights -> CMV matrix form.  Mirror
duality and its fixed points (persymmetric systems) get their own
verifiers, and persymmetric systems can be reconstructed from their
spectrum alone.
"""

from .complex_poly import unit_points
from .cmv import (
    MirrorRelationReport,
    laurent_eigenvectors,
    persymmetric_sign_pattern,
    quasi_reflection,
    unitarity_residual,
    verify_mirror_relations,
)
from .errors import (
    DegenerateNodesError,
    NotPersymmetricError,
    PersymmetryViolationError,
    PopucError,
    ShapeError,
    SpectralValidityError,
    SpectrumInconsistencyError,
    SzegoClassError,
    WeightError,
)
from .families import (
    FamilyInstance,
    free_family,
    krawtchouk_family,
    single_moment,
    single_moment_dual,
    single_moment_persymmetric,
    verify_family,
)
from .inverse_spectral import (
    ReconstructionResult,
    reconstruct_persymmetric,
)
from .mirror import (
    PersymmetryCharacterizations,
    dual_weights,
    is_persymmetric,
    make_persymmetric,
    mirror_dual,
    persymmetric_weights,
    persymmetry_defect,
    phi_n_values,
    principal_sqrt_unimodular,
    verify_persymmetry_characterizations,
)
from .opuc_core import (
    SpectralData,
    VerblunskySequence,
    cmv_matrix,
    factors,
    orthogonality_residual,
    paraorthogonality_residual,
    spectrum,
    theta_block,
    weights,
)

__all__ = [
    "DegenerateNodesError",
    "FamilyInstance",
    "MirrorRelationReport",
    "NotPersymmetricError",
    "PersymmetryCharacterizations",
    "PersymmetryViolationError",
    "PopucError",
    "ReconstructionResult",
    "ShapeError",
    "SpectralData",
    "SpectralValidityError",
    "SpectrumInconsistencyError",
    "SzegoClassError",
    "VerblunskySequence",
    "WeightError",
    "cmv_matrix",
    "dual_weights",
    "factors",
    "free_family",
    "is_persymmetric",
    "krawtchouk_family",
    "laurent_eigenvectors",
    "make_persymmetric",
    "mirror_dual",
    "orthogonality_residual",
    "paraorthogonality_residual",
    "persymmetric_sign_pattern",
    "persymmetric_weights",
    "persymmetry_defect",
    "phi_n_values",
    "principal_sqrt_unimodular",
    "quasi_reflection",
    "reconstruct_persymmetric",
    "single_moment",
    "single_moment_dual",
    "single_moment_persymmetric",
    "spectrum",
    "theta_block",
    "unit_points",
    "unitarity_residual",
    "verify_family",
    "verify_mirror_relations",
    "verify_persymmetry_characterizations",
    "weights",
]
