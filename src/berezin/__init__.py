"""Berezin covariant-symbol calculus for the Heisenberg group.

Coherent states from the Schroedinger representation in a scaled Hermite
truncation, coefficient (ambiguity) and Wigner transforms with a unitary
orbit Fourier transform, the reproducing kernel and covariant symbol with
their trace/Hilbert-Schmidt/positivity/covariance identities, and an
SVD-based injectivity certificate for the truncated symbol map.
"""
from .core import (ConfigError, GridFunction, HermiteState, ModelConfig,
                   OperatorMatrix, PhaseGrid, TruncationError, basis_state,
                   build_grid, default_L, default_config, hermite_columns,
                   hs_inner, identity_operator, inner_l2, rank_one)
from .heisenberg import (HeisenbergElement, OrbitPoint, PhasePoint, base_point,
                         coadjoint, identity_element, inverse, multiply,
                         orbit_preimage, project_to_phase)
from .io import load_config, save_config
from .schroedinger import (RepresentationContext, apply_group, coherent_state,
                           gaussian_vector, rep_matrix)
from .symbols import (analysis, build_symbol_map, covariance_residual,
                      covariant_symbol, full_symbol,
                      hs_identity_residual, injectivity_report, kernel,
                      onb_expansion_check, reconstruct,
                      trace_identity_residual)
from .transforms import (OrbitGridFunction, coefficient_map, fourier_orbit,
                         inverse_fourier_orbit, moyal_residual, orbit_inner,
                         wigner)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "TruncationError", "ModelConfig", "PhaseGrid",
    "HermiteState", "OperatorMatrix", "GridFunction", "build_grid",
    "default_L", "default_config", "basis_state", "identity_operator",
    "rank_one", "inner_l2", "hs_inner", "hermite_columns",
    "HeisenbergElement", "OrbitPoint", "PhasePoint", "multiply", "inverse",
    "coadjoint", "identity_element", "base_point", "orbit_preimage",
    "project_to_phase",
    "RepresentationContext", "rep_matrix", "apply_group", "coherent_state",
    "gaussian_vector",
    "OrbitGridFunction", "orbit_inner", "fourier_orbit",
    "inverse_fourier_orbit", "coefficient_map", "wigner", "moyal_residual",
    "kernel", "analysis", "full_symbol", "onb_expansion_check", "reconstruct",
    "covariant_symbol", "trace_identity_residual", "hs_identity_residual",
    "covariance_residual", "build_symbol_map",
    "injectivity_report",
    "run_verification", "VerificationReport", "CheckResult",
    "load_config", "save_config",
]
