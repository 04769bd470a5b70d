"""Verification-grade tooling for the K-invariant spectral decomposition of
GL(2) and GL(3) Eisenstein series: completed-zeta intertwining scalars,
type-A root combinatorics, truncated inner products, the GL(3) residue
matrix, and the contour-shift Parseval identities."""

from .errors import DomainError, NonConvergence, PoleProximity
from .roots import (RHO_CHECK, AssociationClass, RootDatum, StandardParabolic,
                    Weight, WeylElement, association_classes, tau_hat,
                    transporters, truncation_terms)
from .contour import circle_residue, trapezoid_circle
from .zeta import completed_L, gamma_fn, ratio_L, zeta
from .intertwine import cocycle_check, m_scalar, unitarity_check
from .gl3 import (GL3, delta_weight, double_residue_table, lambda_line,
                  line_direction, multiplicativity_residual, n_entry,
                  n_matrix, rank_one_residual, sigma, symmetry_residual,
                  transverse_residue, volume_constant, volume_factors)
from .truncation import (QuadratureResult, QuadratureSpec, TruncationParam,
                         eisenstein_fourier, eisenstein_theta,
                         inner_product_fd, maass_selberg_record, omega_rank1,
                         truncated_eisenstein)
from .parseval import (PaleyWienerGaussian, SpectralReport,
                       contribution_A, contribution_B, contribution_C,
                       decomposed_norm_gl2, measure_constants,
                       parseval_check_gl3, shifted_norm_gl2,
                       shifted_norm_gl3)

__version__ = "0.1.0"
