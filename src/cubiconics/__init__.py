"""Exact arithmetic over Q for heights, Cayley forms in line coordinates,
Hilbert-Samuel combinatorics, conic pencils on cubic surfaces, bounded-height
point counts and auxiliary-hypersurface searches."""

from .cayley import (LineP3, PLUCKER, PluckerForm, T4, TPAR, UV,
                     canonical_mod_G, cayley_degree_parts, cayley_hypersurface,
                     cayley_plane_curve, cayley_plane_curve_macaulay,
                     grassmann_relation, incidence_form, plucker_of_line,
                     rewrite_biform_to_plucker, top_part_check, transform_FH,
                     transform_Ta)
from .cubic_conics import (ConicPencil, CubicSurface, RationalLine,
                           absolutely_irreducible_cubic_mod_p, classify_cubic,
                           conic_census, conic_family, family_image,
                           find_lines, height_pairing_check, leading_family,
                           residual_conic)
from .detmethod import (AuxiliaryForm, EvaluationMatrix, auxiliary_form,
                        evaluation_matrix, exact_kernel, minimal_omega,
                        translation_search)
from .errors import (BudgetError, ConfigError, DegenerateReductionError,
                     DomainError, MacaulayDegenerateError, NonDivisibleError,
                     NotFrameInvariantError, PropertyViolationError)
from .exactarith import (GFContext, PrimeTable, bertrand_prime, factorize,
                         ff_factor_linear, mertens_check,
                         prime_sum_over_divisors, primes_up_to, theta_psi_phi)
from .heights import (HeightValue, ProjPoint, affine_height,
                      height_comparison_audit, normalize_primitive,
                      point_height, poly_height, product_formula_check)
from .hilbert_samuel import (ExternalConstants, LocalProfile, ReductionCensus,
                             bad_reduction_census, bound_evaluator,
                             bound_exponent, geometric_hs, geometric_hs_window,
                             local_hs, q_lower_bound_check, q_partial_sum,
                             reduction_point_census)
from .multipoly import (MultiPoly, essential_variable_count, gcd_binary_forms,
                        macaulay_resultant, sylvester_resultant)
from .pointcount import (CountResult, conic_points, enumerate_affine,
                         enumerate_projective, homogenize,
                         integral_conics_experiment,
                         points_on_conics_experiment)
from .reports import ExperimentReport, tag

__version__ = "0.1.0"
