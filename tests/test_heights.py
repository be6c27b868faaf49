import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cubiconics.errors import DomainError
from cubiconics.heights import (affine_height, comparison_window,
                                height_comparison_audit, point_height,
                                poly_height, product_formula_check)
from cubiconics.linalg import normalize_primitive_vector
from cubiconics.multipoly import MultiPoly

T = ("T0", "T1", "T2", "T3")


def test_normalize_primitive_vectors():
    v, s = normalize_primitive_vector([4, 6])
    assert v == (2, 3) and s == 2
    v2, s2 = normalize_primitive_vector([-1, 0])
    assert v2 == (1, 0) and s2 == -1
    with pytest.raises(DomainError):
        normalize_primitive_vector([0, 0])
    # ints, numpy int64 and Fractions of mixed denominators in one vector
    rng = random.Random(7)
    kinds = (int, np.int64, lambda x: Fraction(x, rng.choice((2, 6, 35, 2 ** 70))))
    for _ in range(300):
        coords = [rng.choice(kinds)(rng.randint(-10 ** 12, 10 ** 12) * rng.randint(0, 1))
                  for _ in range(rng.randint(1, 6))]
        if not any(coords):
            continue
        v, s = normalize_primitive_vector(coords)
        assert all(type(x) is int for x in v) and type(s) is Fraction
        assert [s * x for x in v] == [Fraction(c) for c in coords]
        assert math.gcd(*v) == 1 and next(x for x in v if x) > 0


def test_point_height():
    assert point_height([1, 0]).H == 1
    assert point_height([2, 3]).H == 3
    assert point_height([4, 6]).H == 3  # normalized to [2:3]
    # scaling invariance
    rng = random.Random(1)
    for _ in range(20):
        base = [rng.randint(-9, 9) for _ in range(4)]
        if all(v == 0 for v in base):
            continue
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = [lam * v for v in base]
        assert point_height(base).H == point_height(scaled).H


def test_poly_height():
    assert poly_height(MultiPoly.parse("2*T0^2 + 4*T1^2", T)).H == 2
    assert poly_height(MultiPoly.parse("T0", T)).H == 1
    assert poly_height(MultiPoly.parse("3*T0^2 + 5*T1^2", T)).H == 5


def test_poly_height_submultiplicativity():
    rng = random.Random(4)
    for _ in range(20):
        f = MultiPoly(T, {(rng.randint(0, 2), rng.randint(0, 2), 0, 0):
                          rng.randint(-9, 9) for _ in range(3)})
        g = MultiPoly(T, {(0, rng.randint(0, 2), rng.randint(0, 2), 0):
                          rng.randint(-9, 9) for _ in range(3)})
        if f.is_zero() or g.is_zero():
            continue
        lhs = poly_height(f * g).H
        bound = (math.comb(f.total_degree() + g.total_degree(), f.total_degree())
                 * len(f.terms) * len(g.terms)
                 * poly_height(f).H * poly_height(g).H)
        assert lhs <= bound


def test_affine_height():
    assert affine_height((2, 3)).H == 3
    assert affine_height((1, 1, 1)).H == 1
    assert affine_height((4, 6)).H == 6  # no normalization, unlike projective


def test_product_formula():
    assert product_formula_check(6)
    assert product_formula_check(Fraction(-5, 7))
    assert product_formula_check(1)
    rng = random.Random(0)
    for _ in range(1000):
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 6))
        assert product_formula_check(x)
    with pytest.raises(DomainError):
        product_formula_check(0)


def test_comparison_window_values():
    N, HN, lo, hi = comparison_window(3, 1, 2)
    assert N == 5
    assert HN == Fraction(137, 60)
    assert lo < 0 < hi


def test_height_comparison_audit():
    psi = MultiPoly.parse("p01", ("p01", "p02", "p03", "p12", "p13", "p23"))
    rep = height_comparison_audit(psi, 3, 1, 1)
    assert rep["h_psi"] == 0.0
    assert rep["N"] == 5
    assert rep["h_psi_nonnegative"]
