"""Extended-real scalars: finite floats plus a distinguished +inf.

Finite values are never NaN.  +inf absorbs addition of finite values and
+inf - finite = +inf, while inf - inf raises instead of silently producing
NaN so that diagnostics never propagate indeterminate cells.
"""

from __future__ import annotations

import math


class ExtendedReal:
    """An immutable extended real: its ``value`` is a float, never NaN or -inf."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        v = float(value)
        if not v > -math.inf:  # NaN or -inf
            raise ValueError("ExtendedReal cannot hold NaN" if math.isnan(v)
                             else "ExtendedReal only supports +inf, not -inf")
        _set_value(self, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: ExtendedReal is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: ExtendedReal is immutable")

    def __eq__(self, other):
        if other.__class__ is ExtendedReal:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __reduce__(self):
        return ExtendedReal, (self.value,)

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


_set_value = ExtendedReal.value.__set__  # the slot's own setter, past the refusing __setattr__
INFINITY = ExtendedReal(math.inf)


def finite(x) -> ExtendedReal:
    """Wrap a finite float, rejecting inf/NaN."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite value, got {v}")
    return ExtendedReal(v)
