"""Simulation and verification of selfdecomposable laws represented as
exponentially discounted integrals of Levy processes: stopping-time
factorizations, gamma/compound Poisson constructions, perpetuity fixed
points, and the finite-dimensional operator generalization."""

from .decomposition import (DecompositionRecord, FixedTime, IndependentRandomTime,
                            KthJump, decompose, decompose_many, evaluate_stopping,
                            restricted_jump_identity)
from .discount import (TruncationPolicy, eval_by_parts, eval_jump_sum,
                       sample_discounted_integral_many)
from .errors import (ConfigError, ContractionError, InsufficientHorizonError,
                     SpectralGateError)
from .levy import (ExponentialJumps, JumpPath, JumpSet, LevyModel, shift_path,
                   simulate_path, thin_path)
from .operator import (OperatorDecompositionRecord, OperatorModel, operator_decompose_many,
                       sample_operator_integral_many)
from .perpetuity import StoppedIntegralAffine, sample_backward_series_many
from .rng import GammaParams, RngStream, sample_gamma
from .stats import (StatReport, compare_samples, gamma_cf, independence_diagnostic,
                    independence_pass_band, ks_two_sample)

__version__ = "0.1.0"
