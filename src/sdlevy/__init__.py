"""Simulation and verification of selfdecomposable laws represented as
exponentially discounted integrals of Levy processes: stopping-time
factorizations, gamma/compound Poisson constructions, perpetuity fixed
points, and the finite-dimensional operator generalization."""

from .decomposition import (DecompositionRecord, FirstJump, FirstJumpIn, FixedTime,
                            IndependentRandomTime, KthJump, decompose, decompose_many,
                            evaluate_stopping, first_value_identity,
                            restricted_jump_identity)
from .discount import (TruncationPolicy, eval_by_parts, eval_jump_sum,
                       sample_discounted_integral_many)
from .errors import (ConfigError, ContractionError, InsufficientHorizonError,
                     SpectralGateError)
from .levy import (ConstantJumps, ExponentialJumps, GammaJumps, JumpPath, JumpSet,
                   LevyModel, TableJumps, UniformJumps, path_from_json, path_to_json,
                   shift_path, simulate_path, thin_path)
from .operator import (IndependentCoordinates, OperatorDecompositionRecord,
                       OperatorModel, SharedJumpDirection, matrix_exp,
                       operator_decompose_many, sample_operator_integral_many)
from .perpetuity import (BetaGammaAffine, ConstantAffine, CustomAffine,
                         StoppedIntegralAffine, beta_gamma_identity_samples,
                         gamma_factor_samples, iterate_many, sample_backward_series_many,
                         selfdecomposable_as_perpetuity)
from .rng import GammaParams, RngStream, sample_gamma, sample_poisson_arrivals
from .stats import (StatReport, compare_samples, ecf_distance, gamma_cf,
                    independence_diagnostic, independence_pass_band, ks_two_sample,
                    normal_cf)

__version__ = "0.1.0"
