"""The value rules of the extended reals, on plain floats.

A functional value is a float in (-inf, +inf]: +inf is legitimate (the
Lindblad relative entropy and Tr rho(-ln sigma) on a support violation), NaN
and -inf are not.  ``finite`` and ``extended`` check one value against these
rules and return it as a Python float.
"""

from __future__ import annotations

import math


def finite(x) -> float:
    """x as a float, refusing inf and NaN."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite value, got {v}")
    return v


def extended(x) -> float:
    """x as a float, refusing NaN and -inf; +inf is kept as math.inf."""
    v = float(x)
    if not v > -math.inf:  # NaN or -inf
        raise ValueError(f"expected a value in (-inf, +inf], got {v}")
    return v
