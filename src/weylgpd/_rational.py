"""Exact rational arithmetic: every rational is a fractions.Fraction."""

from __future__ import annotations

from fractions import Fraction as Rat

BACKEND = "fractions"  # recorded in the benchmark's run metadata

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Coerce ints, strings like "p/q" or "p", and rationals to Rat."""
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            p, q = (int(part) for part in text.split("/"))
            if q == 0:
                raise ValueError(f"zero denominator in {value!r}")
            return Rat(p, q)
        return Rat(int(text))
    if isinstance(value, float):
        raise TypeError("floating-point input is not accepted; pass a rational")
    return Rat(value)
