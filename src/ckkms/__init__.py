"""Exact and certified computation of KMS states over Cuntz-Krieger
algebras: Perron-Frobenius data, state evaluation on the monomial basis,
non-symmetric tensor products, and the type-III invariant."""

from .ckwords import (Letter, Monomial, NormalForm, adjoint, is_admissible,
                      monomial_is_zero, multiply, normalize, parse_word)
from .classify import (OkaReport, PowerForm, TypeLabel, afd_tensor_rule,
                       detect_lambda, iii1_family, oka_crosscheck,
                       power_type_ck2, power_type_direct, tensor_type)
from .errors import (CkkmsError, DimensionError, DomainError,
                     InvalidScalarError, MembershipRejected,
                     NumericalFailureError, PreconditionError,
                     ResourceLimitError)
from .intervals import Interval
from .matrix01 import ZeroOneMatrix, in_class_cdm, kronecker_matrix
from .perron import (BetaSolution, FrequencyVector, ParamVector, PFData,
                     TensorFrequencyVector, canonical_point, in_lambda,
                     pf_data, solve_beta, solve_power_equation)
from .scalars import (Alg, BaseDecomposition, Enc, Flt, Product, Rat,
                      Scalar, make_algebraic, make_power, scalar_from_json,
                      scalar_to_json)
from .states import (KmsCheckResult, StateSpec, eval_monomial, eval_state,
                     gauge_factor, kms_check, quasi_free_eval, state_spec)
from .tensorops import (IndexSplit, TensorReport, check_coassociativity,
                        combined_frequencies, embed_monomial, kronecker_vector,
                        tensor_state_eval, verify_tensor_identity)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
