"""Convolution/transform algebra on finite cyclic groups, with classifiers
that recover the canonical transform form of conforming operators (and a
concrete violation witness otherwise), plus desk-scale circle-grid and
twisted-convolution counterparts."""

from .convhom import ConvClassification, classify, construct
from .exchange import (ExchangeClassification, check_involution_symmetry,
                       classify_exchange, classify_fourier_exchange,
                       construct_exchange)
from .groups import (Group, Signal, constant, convolve, delta, dft,
                     expectation, idft, pointwise_mul)
from .intertwine import (IntertwinerClassification, classify_intertwiner,
                         construct_intertwiner)
from .operators import (AxiomReport, Operator, Witness, apply,
                        check_conv_homomorphism, check_exchange_axioms,
                        compose, rel_residual)
from .torus import (KernelFamily, TorusClassification, TorusGrid,
                    check_character_equation, classify_torus_operator,
                    extract_kernels, fourier_coefficient_operator,
                    recover_frequency)
from .twisted import (OperatorKernel, PhaseSpaceFunction, PlaneGrid,
                      compose_kernels, gaussian_pair, rho_kernel,
                      twisted_convolve, verify_rho_homomorphism)

__version__ = "0.1.0"
