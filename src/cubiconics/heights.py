"""Naive and affine height functions over Q.

Heights are computed exactly as rationals; logs appear only in report-facing
values (double precision).  The naive height of a point or a form is read off
its primitive integer representative (``linalg.normalize_primitive_vector``),
where it is the max coordinate/coefficient magnitude; the place-by-place
product is kept as an independent route for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .exactarith import factorize
from .linalg import normalize_primitive_vector
from .multipoly import MultiPoly


@dataclass(frozen=True)
class HeightValue:
    H: Fraction
    h: float

    @classmethod
    def from_H(cls, H):
        H = Fraction(H)
        return cls(H, math.log(H))


def point_height(xi) -> HeightValue:
    """Naive height of a projective point over Q.

    Computed place by place (the finite places collapse the content), which
    for a primitive representative equals the max coordinate magnitude.
    """
    coords, _ = normalize_primitive_vector(xi)
    H = _place_product(coords)
    if H != max(abs(c) for c in coords):
        raise AssertionError("place product differs from the max coordinate")
    return HeightValue.from_H(H)


def poly_height(f: MultiPoly) -> HeightValue:
    """Naive height of a form: the same construction on its coefficient
    vector."""
    if f.is_zero():
        raise DomainError("zero polynomial has no height")
    coeffs = list(f.terms.values())
    prim, _ = normalize_primitive_vector(coeffs)
    H = _place_product(prim)
    return HeightValue.from_H(H)


def _place_product(ints) -> Fraction:
    """Product over all places of max |x_i|_v for an integer vector."""
    arch = Fraction(max(abs(c) for c in ints))
    # finite places: |.|_p of the vector max is p^(-min v_p); primitive => 1,
    # but compute honestly off the gcd
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    fin = Fraction(1)
    if g > 1:
        for p, e in factorize(g).items():
            fin /= Fraction(p) ** e
    return arch * fin


def affine_height(x) -> HeightValue:
    """Archimedean-only height: max |x_i| over the real place, with no
    normalization at all (contrast with the projective height)."""
    if isinstance(x, MultiPoly):
        if x.is_zero():
            raise DomainError("zero polynomial")
        vals = [abs(c) for c in x.terms.values()]
    else:
        vals = [abs(Fraction(c)) for c in x]
        if not vals:
            raise DomainError("empty tuple")
        if all(v == 0 for v in vals):
            raise DomainError("zero input")
    H = max(vals)
    return HeightValue.from_H(H)


def product_formula_check(x) -> bool:
    """Exact check that the product of |x|_v over all places is 1."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("product formula needs x != 0")
    total = abs(x)
    for p, e in factorize(x.numerator).items():
        total *= Fraction(1, p) ** e
    for p, e in factorize(x.denominator).items():
        total *= Fraction(p) ** e
    return total == 1


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def comparison_window(n: int, d: int, delta: int):
    """Two-sided window parameters for comparing the naive height of a Cayley
    form with the intersection-theoretic height it shadows.

    Returns (N, harmonic H_N, lower offset, upper offset): the unknowable
    intersection height lies within [h(psi) - upper, h(psi) - lower].
    """
    N = math.comb(n + 1, d + 1) - 1
    HN = harmonic(N)
    lower = -0.5 * (math.log((N + 1) * (delta + 1)) + delta * float(HN))
    upper = (N + 1) * delta * math.log(2) + 4 * delta * math.log(N + 1) - 0.5 * delta * float(HN)
    return N, HN, lower, upper


def height_comparison_audit(psi: MultiPoly, n: int, d: int, delta: int) -> dict:
    """Report h(psi) together with the comparison-window data.

    Only the computable consistency h(psi) >= 0 is flagged; the intersection
    side of the comparison is out of scope and the window is recorded for
    documentation.
    """
    hv = poly_height(psi)
    N, HN, lower, upper = comparison_window(n, d, delta)
    return {
        "h_psi": hv.h,
        "H_psi": str(hv.H),
        "N": N,
        "harmonic_HN": str(HN),
        "window_lower_offset": lower,
        "window_upper_offset": upper,
        "window_width": upper - lower,
        "h_psi_nonnegative": hv.h >= 0,
    }
