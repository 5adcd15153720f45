"""Extended-real scalars: finite floats plus a distinguished +inf.

Finite values are never NaN.  +inf absorbs addition of finite values and
+inf - finite = +inf, while inf - inf raises instead of silently producing
NaN so that diagnostics never propagate indeterminate cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ExtendedReal:
    value: float

    def __post_init__(self):
        v = float(self.value)
        if not v > -math.inf:  # NaN or -inf
            raise ValueError("ExtendedReal cannot hold NaN" if math.isnan(v)
                             else "ExtendedReal only supports +inf, not -inf")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return self.value == math.inf

    def __float__(self) -> float:
        return self.value

    def _coerce(self, other) -> "ExtendedReal":
        if isinstance(other, ExtendedReal):
            return other
        return ExtendedReal(float(other))

    def __add__(self, other) -> "ExtendedReal":
        o = self._coerce(other)
        return ExtendedReal(self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other) -> "ExtendedReal":
        o = self._coerce(other)
        if self.is_inf and o.is_inf:
            raise ArithmeticError("inf - inf is indeterminate")
        if o.is_inf:
            raise ArithmeticError("finite - inf leaves the extended-real cone")
        return ExtendedReal(self.value - o.value)

    def __mul__(self, other) -> "ExtendedReal":
        c = float(other)
        if self.is_inf and c == 0.0:
            return ExtendedReal(0.0)
        return ExtendedReal(self.value * c)

    __rmul__ = __mul__

    def __lt__(self, other):
        return self.value < float(self._coerce(other).value)

    def __le__(self, other):
        return self.value <= float(self._coerce(other).value)

    def __gt__(self, other):
        return self.value > float(self._coerce(other).value)

    def __ge__(self, other):
        return self.value >= float(self._coerce(other).value)

    def __repr__(self):
        return "ExtendedReal(+inf)" if self.is_inf else f"ExtendedReal({self.value!r})"


INFINITY = ExtendedReal(math.inf)


def finite(x) -> ExtendedReal:
    """Wrap a finite float, rejecting inf/NaN."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite value, got {v}")
    return ExtendedReal(v)
