"""The benchmark's oracles at tiny bounds, against counts made by hand.

    python3 -m pytest -q bench/test_oracles.py
"""

import random

import oracles
from workloads import REPRODUCER

FERMAT = "T0^3 + T1^3 + T2^3 + T3^3"


def test_parse_form_reads_both_corpus_styles():
    assert oracles.parse_form("T0^3 + 8*T3^3", 4) == [((0, 0, 0, 3), 8), ((3, 0, 0, 0), 1)]
    assert oracles.parse_form("1 * T0^2*T2 + -1 * T0*T3^2", 4) == [
        ((1, 0, 0, 2), -1), ((2, 0, 1, 0), 1)]


def test_reproducer_text_is_the_factored_form():
    terms = oracles.parse_form(REPRODUCER, 4)
    rng = random.Random(3)
    for _ in range(200):
        x0, x1, x2, x3 = (rng.randint(-50, 50) for _ in range(4))
        want = (x3 - x0) ** 2 * (x3 + x1) + x2 ** 3 - x2 * x0 ** 2
        assert oracles.eval_form(terms, (x0, x1, x2, x3)) == want


def test_fermat_at_height_one():
    # x_i in {-1, 0, 1} with zero sum: one +1 and one -1 (6 points up to
    # sign) or two of each (3 points up to sign), all on the three lines
    brute = oracles.brute_projective(oracles.parse_form(FERMAT, 4), 4, 1)
    assert brute == oracles.fermat_projective(1)
    assert len(brute) == 9
    assert all(oracles.on_fermat_line(p) for p in brute)


def test_fermat_affine_by_hand():
    # one coordinate -1 and the other two opposite, inside the ball
    assert oracles.fermat_affine(1) == [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    assert oracles.fermat_affine(2) == sorted(
        [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)])


def test_reproducer_counts():
    # true counts of ROADMAP item 1, where the library finds 41 and 130
    terms = oracles.parse_form(REPRODUCER, 4)
    assert len(oracles.brute_projective(terms, 4, 2)) == 44
    assert len(oracles.brute_projective(terms, 4, 4)) == 148


def test_normal_curves_by_hand():
    conic = [(0, 0, 1), (1, -1, 1), (1, 0, 0), (1, 1, 1)]
    assert oracles.normal_curve_points(2, 3, 1) == conic
    assert oracles.brute_projective(oracles.parse_form("T0*T2 - T1^2", 3), 3, 1) == conic
    assert oracles.normal_curve_points(1, 3, 1) == [(0, 1, 0), (1, -1, 0), (1, 0, 0), (1, 1, 0)]
    assert len(oracles.normal_curve_points(1, 3, 3)) == 16
    # |s|, |t| <= 4 with gcd 1: 48 primitive vectors, 24 up to sign
    assert len(oracles.normal_curve_points(2, 4, 16)) == 24


def test_witness_check():
    pts = oracles.normal_curve_points(1, 3, 1)
    assert oracles.witness_check("T0^3*T1 + -1 * T0*T1^3", 1, 3, pts, 4) is None
    assert "whole curve" in oracles.witness_check("T2^4", 1, 3, pts, 4)
    assert "does not vanish" in oracles.witness_check("T0^4", 1, 3, pts, 4)


def test_lines():
    f = oracles.parse_form(FERMAT, 4)
    assert oracles.line_on_surface(f, (1, 1, 0, 0), (0, 0, 1, 1))
    assert not oracles.line_on_surface(f, (1, 0, 0, 0), (0, 1, 0, 0))
    assert oracles.plucker((1, 1, 0, 0), (0, 0, 1, 1)) == (0, 1, 1, 1, 1, 0)


def test_smooth_mod_p():
    f = oracles.parse_form(FERMAT, 4)
    assert oracles.smooth_mod_p(f, 4, 2)
    assert not oracles.smooth_mod_p(f, 4, 3)  # f = (x0+x1+x2+x3)^3 mod 3


def test_census_count_of_the_identity_family():
    # member (t1, t2) has height max(|t1|, |t2|)
    rows = [[1, 0], [0, 1]]
    assert oracles.census_count(rows, 1, 1, 5) == 4
    assert oracles.census_count(rows, 1, 2, 5) == 8


def test_proportional():
    assert oracles.proportional({(1, 0): 2, (0, 1): -4}, {(1, 0): -1, (0, 1): 2})
    assert not oracles.proportional({(1, 0): 2, (0, 1): 4}, {(1, 0): 1, (0, 1): 1})
