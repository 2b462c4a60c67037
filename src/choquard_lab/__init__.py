"""Numerical laboratory for radial ground states of the nonlocal Choquard
equation: exact radial Riesz-potential quadrature, ground-state solvers,
functional-identity and decay diagnostics, linearized-operator spectra,
and parameter continuation near the Newtonian exponent pair."""

from .grid import (ChoquardParams, GridError, ParameterError, RadialField,
                   RadialGrid, differentiate, integrate_radial,
                   laplacian_sector, make_grid, sector_symmetric, solver_grid,
                   sphere_area)
from .riesz import (RieszError, riesz_apply_matrix, riesz_at_zero,
                    riesz_radial, sector_kernel)
from .solver import (ConvergenceError, DecayFit, FitError, GroundState,
                     ModelParams, SolverOptions, fit_decay, model_soliton,
                     solve_choquard, solve_model, state_from_field)
from .diagnostics import (ExponentWitness, FeasibilityReport, PohozaevReport,
                          exp_tail_integral, feasible_exponents,
                          pohozaev_report, predicted_grad_mass_ratio)
from .spectrum import (NondegeneracyReport, SectorOperator, SpectrumError,
                       apply_lplus, assemble_lplus, correlation, eig_smallest,
                       free_operator, lplus_identity_residual,
                       nondegeneracy_verdict, translation_mode)
from .continuation import (ContinuationError, SweepRecord, distances,
                           newton_continue, sweep, sweep_to_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
