"""Exact operator algebra on spinor-valued polynomials over quaternionic space.

Everything is computed over the field Q(i, sqrt2) with exact rational
arithmetic in stdlib Fractions (scalars.BACKEND_NAME).
"""

from .scalars import BACKEND_NAME, ExtendedScalar, xs

__version__ = "0.1.0"

__all__ = ["BACKEND_NAME", "ExtendedScalar", "xs", "__version__"]
