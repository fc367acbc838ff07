"""Small numeric helpers: integer-relation residuals and fractional parts."""

from __future__ import annotations

import math


def relation_residual(coeffs: dict[str, int], values: dict[str, float]) -> float:
    """Float residual of an integer relation sum(c_i * v_i)."""
    return math.fsum(c * values[k] for k, c in coeffs.items() if c != 0)


def frac(x: float) -> float:
    """Fractional part in [0, 1)."""
    y = x - math.floor(x)
    if y >= 1.0:  # guard against rounding at the top
        y -= 1.0
    return y
