"""quasiloc: a numerical laboratory for interacting fermions in a quasi-periodic chain."""

from .diophantine import (GOLDEN_MEAN, SILVER_MEAN, DiophantineFrequency,
                          RationalFrequencyError, torus_norm,
                          continued_fraction, convergents,
                          frequency_diophantine_constant,
                          phase_diophantine_constant, certified_frequency)
from .cutoffs import smooth_cutoff, smooth_step
from .single_particle import (ModelParams, onsite_energy,
                              single_particle_spectrum, lyapunov_exponent,
                              eigenstate_localization, localization_table,
                              free_density)
from .many_body import (FockSector, enumerate_sector, build_hamiltonian,
                        SpectralDecomposition, diagonalize,
                        correlation_matrix, equal_time_matrix, occupations,
                        mean_particle_number, CorrelationFunction,
                        compute_correlation)
from .multiscale import (ScaleFamily, ScaleConfigurationError,
                         QuadratureError, ZeroDivisorError, chi_h, f_h,
                         single_scale_propagator, filtered_propagator,
                         scale_decay_constants, chain_graph_value)
from .counterterm import (CountertermResult, BracketError, fix_counterterm,
                          counterterm_grid)
from .analysis import (DecayFit, PhasePoint, FitError, fit_spatial_decay,
                       phase_scan)

__version__ = "0.1.0"
