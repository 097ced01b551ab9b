"""Exact rational cohomology of unordered configuration spaces.

Given a finite presentation of the cohomology ring of a closed
oriented even-dimensional manifold M, this package builds the bigraded
complex whose cohomology is H^*(C_k(M); Q), computes exact Betti
tables, and — for the projective spaces CP^m — analyzes the extremal
Hilbert functions near the top of the complex, fitting exact
quasi-polynomial certificates to their tails.
"""

from .cecomplex import (BigradedBasis, DifferentialBlock, assemble_blocks,
                        count_monomials, dump_complex, enumerate_basis,
                        homotopy_check, monomial_label, reduce_complex)
from .generators import Generator, GeneratorSet, build_generators
from .homology import (BettiTable, ConsistencyReport, betti,
                       consistency_report)
from .linalg import SparseExactMatrix, kernel_dim, rank
from .ring import (InvalidRingError, RingDiagnostics, RingPresentation,
                   RingSchemaError, diagonal_comultiplication, load_ring,
                   make_cpm, ring_from_dict, validate_ring)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "BigradedBasis", "ConsistencyReport", "DifferentialBlock",
    "Generator", "GeneratorSet", "HilbertRay", "InvalidRingError",
    "QuasiPolynomial", "RangeReport", "RingDiagnostics", "RingPresentation",
    "RingSchemaError", "SparseExactMatrix", "UnderDeterminedError",
    "assemble_blocks", "betti", "build_generators", "consistency_report",
    "count_monomials", "detect_quasi_polynomial", "diagonal_comultiplication",
    "dump_complex", "enumerate_basis", "hilbert_ray", "homotopy_check",
    "kernel_dim", "load_ring", "make_cpm", "monomial_label", "rank",
    "reduce_complex", "ring_from_dict", "validate_ring", "verify_vanishing_ranges",
]

# exported, but imported only when one of them is first asked for
_EXTREMAL = ("HilbertRay", "QuasiPolynomial", "RangeReport", "UnderDeterminedError",
             "detect_quasi_polynomial", "hilbert_ray", "verify_vanishing_ranges")


def __getattr__(name):
    """The extremal exports, imported on first use (PEP 562)."""
    if name in _EXTREMAL:
        from . import extremal
        return getattr(extremal, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
