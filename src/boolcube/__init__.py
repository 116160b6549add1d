"""Exact analysis of subsets of the Boolean n-cube: Walsh spectra,
correlation immunity, MacWilliams duals, perfect 2-colorings, and the
nei/cor/rho inequality with its equality criterion."""

__version__ = "0.1.0"

from .cube_core import N_MAX, VertexSet, complement, make_set
from .spectral import Spectrum, cor_order_direct, transform
from .macwilliams import (DistanceDistribution, DualDistribution,
                          distance_distribution, inverse_macwilliams,
                          krawtchouk, macwilliams_from_distances,
                          macwilliams_from_spectrum)
from .coloring import ColoringVerdict, ParameterMatrix, check_perfect
from .theorem import SweepSummary, TheoremReport, sweep, verify
from .search import (Infeasible, SearchResult, affine_coloring,
                     backtrack_search, construct, enumerate_perfect,
                     half_cube, hamming_code)
