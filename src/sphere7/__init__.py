"""Quantization toolkit for the standard contact seven-sphere.

Layers, bottom up:

    quaternions  quaternions and 2x2 quaternionic matrices as arrays with one
                 product table, the group sections
    coframe      sphere points, tangents, the pulled-back coframe, Reeb flow
    u2h          the ten-dimensional Lie algebra with exact structure constants
    weyl         normal-ordered oscillator algebra, formal Laurent series,
                 the ten formal generators and their bracket reports
    classical    the commutative Poisson ring; the weyl construction and its
                 bracket report run on it give the classical mirror
    fock         truncated Fock representations, exact and partial-sum
    connection   flat connections, parallel transport, Born probabilities
    cli          batch verification / simulation driver
"""

from .coframe import (CoframeSample, SpherePoint, TangentVector, ToricPoint,
                      eds_residual, pullback, reeb_flow, reeb_tangent,
                      toric_embed, toric_tangent)
from .connection import (PathSpec, TransportResult, connection_matrix,
                         curvature_residual, parallel_transport)
from .fock import (basis, build_rho, build_rho_partial, casimir_deviation,
                   commutant_dimension, dim, k_spectrum, matrix_of_laurent,
                   partial_sum_distance, verify_brackets, verify_reality)
from .quaternions import PatchError, section_n, section_s, transition_tau
from .u2h import SPINOR_GENERATORS, VECTOR_GENERATORS, verify_jacobi
from .weyl import (LaurentElement, WeylElement, embedded_generators,
                   verify_embedding)
from .classical import PoissonElement, verify_classical

__version__ = "0.1.0"
