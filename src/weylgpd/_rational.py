"""Exact rational arithmetic backend.

gmpy2's mpq is used when available (C-speed bigint rationals); otherwise
fractions.Fraction.  Both hash and compare identically and print as "p/q",
so the choice never affects results, only speed.  Set WEYLGPD_RATIONAL=fractions
to force the pure-Python backend.
"""

from __future__ import annotations

import os

_FORCED = os.environ.get("WEYLGPD_RATIONAL", "").strip().lower()

if _FORCED in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        from fractions import Fraction as Rat

        BACKEND = "fractions"
elif _FORCED == "fractions":
    from fractions import Fraction as Rat

    BACKEND = "fractions"
else:
    raise RuntimeError(f"unknown WEYLGPD_RATIONAL backend {_FORCED!r}")

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> "Rat":
    """Coerce ints, strings like "p/q" or "p", and rationals to the backend type."""
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


def rat_str(value) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(value)
