"""Exact rational arithmetic: every rational is a fractions.Fraction."""

from __future__ import annotations

from fractions import Fraction as Rat

BACKEND = "fractions"  # recorded in the benchmark's run metadata

ZERO = Rat(0)
ONE = Rat(1)


def fmt_covector(cov) -> str:
    """A covector, point or coordinate list as "(1, -1/2)", and a chamber key
    (a tuple of covectors) as "((0, 1), (1, 0))": never a Fraction repr."""
    return "(" + ", ".join(fmt_covector(c) if isinstance(c, tuple) else str(c) for c in cov) + ")"


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
