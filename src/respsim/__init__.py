"""Desk-scale simulator for filter-based estimation of molecular response.

Builds second-quantized model Hamiltonians and dipoles, maps them to qubit
operators, constructs smoothed spectral-window polynomials, and simulates
the measurement protocol that localizes spectral lines and estimates
windowed transition amplitudes, from which first- and third-order
susceptibilities are assembled.  An exact sum-over-states oracle computed
from the same eigensystems backs every simulated quantity.
"""

from .errors import (InputError, ResourceError, RespsimError,
                     StatisticalFailure)
from .operators import (DenseOperator, FermionOperator, PauliOperator,
                        build_dipole, build_hamiltonian, eta_dipole_norm,
                        jordan_wigner, lcu_one_norm, validate_two_body_symmetry)
from .models import (ModelSpec, load_fcidump_like, make_hubbard_dimer,
                     make_random_model, spatial_to_spin, spin_to_spatial,
                     write_fcidump_like)
from .spectra import (SpectralData, SusceptibilityResult, alpha1, alpha3,
                      alpha3_terms, chi1_time, diagonalize,
                      nested_window_amplitude, r_pathway_fd, r_pathways,
                      window_amplitude)
from .chebfilter import (ChebyshevFilter, build_indicator, chebyshev_grid,
                         choose_k, jump_error_integral)
from .estimate import (BinSearchConfig, SearchTrace, WindowEstimate,
                       binary_search_1d, binary_search_nd, estimate_box,
                       estimate_window, inequality_test)
from .assemble import (CostInputs, ResponseTable, assemble_alpha1,
                       assemble_alpha3, cost_report, qpe_baseline_report,
                       run_pipeline)

__version__ = "0.1.0"

__all__ = [
    "InputError", "ResourceError", "RespsimError", "StatisticalFailure",
    "DenseOperator", "FermionOperator", "PauliOperator", "build_dipole",
    "build_hamiltonian", "eta_dipole_norm", "jordan_wigner", "lcu_one_norm",
    "validate_two_body_symmetry",
    "ModelSpec", "load_fcidump_like", "make_hubbard_dimer",
    "make_random_model", "spatial_to_spin", "spin_to_spatial",
    "write_fcidump_like",
    "SpectralData", "SusceptibilityResult", "alpha1", "alpha3",
    "alpha3_terms", "chi1_time", "diagonalize", "nested_window_amplitude",
    "r_pathway_fd", "r_pathways", "window_amplitude",
    "ChebyshevFilter", "build_indicator", "chebyshev_grid", "choose_k",
    "jump_error_integral",
    "BinSearchConfig", "SearchTrace", "WindowEstimate",
    "binary_search_1d", "binary_search_nd", "estimate_box", "estimate_window",
    "inequality_test",
    "CostInputs", "ResponseTable", "assemble_alpha1", "assemble_alpha3",
    "cost_report", "qpe_baseline_report", "run_pipeline",
]
