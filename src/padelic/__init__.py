"""Exact arithmetic for integer-valued polynomials on p-adic and adelic sets."""
from .adelic import AdelicOrdering, adelic_ordering, scale_into_z
from .approx import ApproxCertificate, ApproxRequest, approximate
from .errors import (CertificateFailed, EmptySet, FactorLimitExceeded, LengthExceedsSet,
                     NoAdelicOrdering, NotFinitelyGenerated, PadelicError,
                     PrecisionExhausted, SetTooSmall)
from .globalbasis import (BasisFamily, CharIdeal, char_ideal, crt_combine,
                          global_membership, regular_basis)
from .mahler import MahlerSeries, StepFunction, expand, expand_in_basis
from .ordering import (POrdering, basis_rational, local_membership, p_ordering,
                       product_poly, rational_lift)
from .padic import DEFAULT_PRECISION, INF, residue, valp
from .polys import RatPoly, format_poly, parse_poly
from .sets import (FULL, PZP, AdelicSet, CompactSet, normalize, parse_adelic,
                   parse_set, residues)

__version__ = "0.1.0"
