"""Exact operator algebra on spinor-valued polynomials over quaternionic space.

Everything is computed exactly over the field Q(i, sqrt2).  An integer
coefficient is a plain int; any other is stored as four ints over one
common denominator (scalars.ExtendedScalar).
"""

from .scalars import BACKEND_NAME, ExtendedScalar, xs

__version__ = "0.1.0"

__all__ = ["BACKEND_NAME", "ExtendedScalar", "xs", "__version__"]
