"""Dimension bounds and certificates for linear systems of plane curves
with multiple base points."""

from .gfmat import DEFAULT_PRIME, GFMatrix, rank, rational_rank
from .linsys import (FatPointSystem, GENERIC, ON_CUBIC, chi, conditions_count,
                     cremona, cremona_standardize, effective_part,
                     expected_dim, homogeneous_system, monomial_count)
from .interp import (Certificate, PointConfig, RankReport, build_matrix,
                     certify, h0_at_sample, monomial_basis, sample_config)
from .elliptic import (ReductionPlan, best_bound, chi_gap, chi_identity_check,
                       corollary_nonspecial, mu_bound, reduce,
                       theorem_upper_bound)

__version__ = "0.1.0"
