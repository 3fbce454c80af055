"""Desk-scale simulator for filter-based estimation of molecular response.

Builds the blocks of model Hamiltonians and dipoles on the ground state's
(N_alpha, N_beta) spin block from their spatial integrals, on alpha and
beta strings, with the LCU one-norms of their Jordan-Wigner qubit images
in closed form, constructs smoothed spectral-window polynomials, and
simulates the measurement protocol that localizes spectral lines and
estimates windowed transition amplitudes, from which first- and
third-order susceptibilities are assembled.  An exact
sum-over-states oracle computed from the same eigensystems backs every
simulated quantity.
"""

from .errors import (InputError, ResourceError, RespsimError,
                     StatisticalFailure)
from .models import (ModelSpec, load_fcidump_like, make_hubbard_dimer,
                     make_random_model, validate_two_body_symmetry)
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
    "ModelSpec", "load_fcidump_like", "make_hubbard_dimer",
    "make_random_model", "validate_two_body_symmetry",
    "SpectralData", "SusceptibilityResult", "alpha1", "diagonalize",
    "nested_window_amplitude", "r_pathway_fd",
    "ChebyshevFilter", "build_indicator", "chebyshev_grid", "choose_k",
    "SearchTrace", "WindowEstimate",
    "binary_search_nd", "estimate_box",
    "CostInputs", "ResponseTable", "assemble_alpha1", "assemble_alpha3",
    "cost_report", "qpe_baseline_report", "run_pipeline",
]
