"""Exact verification toolkit for degree-2 Hermitian Maass lifts over
imaginary quadratic fields Q(sqrt(-D))."""

from .arith import crt, divisors, factorize, is_prime, kronecker, valuation
from .charsums import (check_closed_form, gauss_sum, norm_sum, norm_sum_check,
                       salie_check)
from .criterion import verify_criterion
from .cyclotomic import CycloNum, root_of_unity
from .hecke import (BetaTable, TableRangeError, beta_Tp, coset_reps,
                    verify_beta_conditions, verify_reps_distinct)
from .ikeda import (EigenData, coeff, fQ_coeff, fstar_coeff, fstar_plus_check,
                    synthetic_eigendata, validate_eigendata)
from .lift import (AlphaSeries, HermitianCoeffKey, beta_from_alpha,
                   maass_coeff, plus_coeff_from_alpha, special_jacobi_alpha,
                   theta_decompose)
from .plusform import (QExpansion, TruncationError, build_Pm, eisenstein_star,
                       is_plus, slash_eval)
from .quadfield import AlgInt, Character, DiffClass, QuadField, a_D, classes
from .thetamat import Mat2Z, mat_mul, theta_matrix, theta_matrix_closed

__version__ = "0.1.0"
