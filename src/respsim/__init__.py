"""Desk-scale simulator for filter-based estimation of molecular response.

Builds the particle-number-sector blocks of model Hamiltonians and dipoles
from their integrals, with the LCU one-norms of their Jordan-Wigner qubit
images, constructs smoothed spectral-window polynomials, and simulates
the measurement protocol that localizes spectral lines and estimates
windowed transition amplitudes, from which first- and third-order
susceptibilities are assembled.  An exact sum-over-states oracle computed
from the same eigensystems backs every simulated quantity.
"""

from .errors import (InputError, ResourceError, RespsimError,
                     StatisticalFailure)
from .operators import (FermionOperator, PauliOperator, build_dipole,
                        build_hamiltonian, eta_dipole_norm, jordan_wigner,
                        lcu_one_norm, majorana_one_norm, sector_block,
                        validate_dipole, validate_hamiltonian,
                        validate_two_body_symmetry)
from .models import (ModelSpec, load_fcidump_like, make_hubbard_dimer,
                     make_random_model, spatial_to_spin)
from .spectra import (SpectralData, SusceptibilityResult, alpha1, diagonalize,
                      nested_window_amplitude, r_pathway_fd)
from .chebfilter import (ChebyshevFilter, build_indicator, chebyshev_grid,
                         choose_k)
from .estimate import (SearchTrace, WindowEstimate, binary_search_nd,
                       estimate_box)
from .assemble import (CostInputs, ResponseTable, assemble_alpha1,
                       assemble_alpha3, cost_report, qpe_baseline_report,
                       run_pipeline)

__version__ = "0.1.0"

__all__ = [
    "InputError", "ResourceError", "RespsimError", "StatisticalFailure",
    "FermionOperator", "PauliOperator", "build_dipole", "build_hamiltonian",
    "eta_dipole_norm", "jordan_wigner", "lcu_one_norm", "majorana_one_norm",
    "sector_block", "validate_dipole", "validate_hamiltonian",
    "validate_two_body_symmetry",
    "ModelSpec", "load_fcidump_like", "make_hubbard_dimer",
    "make_random_model", "spatial_to_spin",
    "SpectralData", "SusceptibilityResult", "alpha1", "diagonalize",
    "nested_window_amplitude", "r_pathway_fd",
    "ChebyshevFilter", "build_indicator", "chebyshev_grid", "choose_k",
    "SearchTrace", "WindowEstimate",
    "binary_search_nd", "estimate_box",
    "CostInputs", "ResponseTable", "assemble_alpha1", "assemble_alpha3",
    "cost_report", "qpe_baseline_report", "run_pipeline",
]
