"""specshift: trace-norm increments of functions of self-adjoint matrices.

Library layout:

- ``hermitian``: dense self-adjoint core (decomposition, functional calculus,
  Schatten norms, truncation, increment ratios);
- ``catalog``: scalar test functions with derivatives and the paper's
  verdict (operator Lipschitz near 0 or not);
- ``loewner``: divided differences, Loewner matrices, grids and the
  mixed-basis perturbation identity;
- ``search``: seeded lower-bound search for the increment-ratio seminorms;
- ``blocks``: ``SumBlock``, the one direct-sum type (a block pair with a
  symbolic multiplicity; a direct sum is a tuple of them), segment
  refinement, amplification, divergent block families and partial sums;
- ``sequences``: scalar sequence witnesses for jointly diagonal pairs, whose
  levels are 1x1 ``SumBlock``s;
- ``cli``: the ``specshift`` experiment runner.
"""

from .blocks import (BlockRecord, DivergentFamily, SumBlock, amplify_to_unit,
                     build_divergent_family, default_delta_schedule,
                     partial_sums, segment_refine, weighted)
from .catalog import ScalarFunction, catalog_ids, get_function
from .errors import (BadInterval, BadParams, ConfigError, ConvergenceFailure,
                     DegeneratePair, DomainError, InvariantViolation,
                     NonFinite, PreconditionViolated, RefinementOverflow,
                     SpecshiftError, UnknownFunction)
from .hermitian import (HermitianOperator, RatioWitness, SpectralDecomposition,
                        TraceTransferReport, apply_function, decompose,
                        increment_ratio, operator_scale, schatten_norm,
                        singular_values, spectral_truncation,
                        trace_transfer_check)
from .loewner import (FiniteSpectrumSet, LoewnerMatrix, divided_difference,
                      loewner_matrix, perturbation_identity_residual,
                      restrict_to_grid)
from .search import NORM_KINDS, SeminormLowerBound, seminorm_lower_bound
from .sequences import (NotFound, SequenceWitness, divergence_check,
                        make_sequence_witness, scalar_ratio_witnesses)

__version__ = "0.1.0"
