import hashlib
import random
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np
import pytest

from cubiconics.cli import load_forms
from cubiconics.detmethod import (_matrix_mod_p, _power_table,
                                  _product_of_lines_witness,
                                  auxiliary_form, evaluation_matrix,
                                  exact_kernel, minimal_omega,
                                  translation_search)
from cubiconics.errors import DomainError
from cubiconics.hilbert_samuel import ExternalConstants
from cubiconics.linalg import rank_mod_p
from cubiconics.multipoly import MultiPoly
from cubiconics.pointcount import enumerate_projective

P2 = ("T0", "T1", "T2")
A3 = ("T1", "T2", "T3")


def test_evaluation_matrix_shapes():
    M = evaluation_matrix([(1, 0)], 1)
    assert len(M.rows) == 1 and len(M.monomials) == 2
    pts = [(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)]
    M4 = evaluation_matrix(pts, 2)
    assert len(M4.rows) == 4 and len(M4.monomials) == 6
    # duplicate rows leave the rank unchanged
    M5 = evaluation_matrix(pts + [pts[0]], 2)
    k4 = exact_kernel(M4.rows, 6)
    k5 = exact_kernel(M5.rows, 6)
    assert len(k4) == len(k5) == 2
    # each entry is the monomial's value, computed term by term
    rng = random.Random(3)
    pts = [tuple(rng.choice((0, -1, rng.randint(-9, 9))) for _ in range(4))
           for _ in range(12)]
    M6 = evaluation_matrix(pts, 5)
    assert M6.rows == [[prod(x ** e for x, e in zip(p, mono)) for mono in M6.monomials]
                       for p in pts]


def test_exact_kernel():
    assert exact_kernel([[1, 0], [0, 1]]) == []
    rng = random.Random(7)
    A = [[rng.randint(-5, 5) for _ in range(7)] for _ in range(10)]
    B = [[rng.randint(-5, 5) for _ in range(10)] for _ in range(7)]
    prod = [[sum(A[i][k] * B[k][j] for k in range(7)) for j in range(10)]
            for i in range(10)]
    ker = exact_kernel(prod, 10)
    assert len(ker) == 3
    for v in ker:
        for row in prod:
            assert sum(Fraction(x) * y for x, y in zip(row, v)) == 0


def test_auxiliary_form_examples():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    pts = [(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1)]
    af = auxiliary_form([conic], P2, pts, 2)
    assert af is not None
    for p in pts:
        sub = {n: Fraction(v) for n, v in zip(P2, p)}
        assert af.form.substitute(sub).is_zero()
    assert not conic.divides(af.form)

    line = MultiPoly.parse("T2", P2)
    collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)]
    assert auxiliary_form([line], P2, collinear, 2) is None
    assert auxiliary_form([line], P2, collinear, 3) is None

    empty = auxiliary_form([line], P2, [], 1)
    assert empty is not None and empty.form.total_degree() == 1


def test_auxiliary_form_refuses_points_off_the_variety():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    with pytest.raises(DomainError):
        auxiliary_form([conic], P2, [(1, 0, 0), (1, 1, 0)], 2)


def test_non_squarefree_form_is_refused():
    # T2^2 cuts the line T2 = 0 twice: a witness such as T2 vanishes on V,
    # so neither search may certify one
    double = MultiPoly.parse("T2^2", P2)
    collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)]
    with pytest.raises(DomainError, match="squarefree"):
        minimal_omega([double], P2, 1)
    with pytest.raises(DomainError, match="squarefree"):
        auxiliary_form([double], P2, collinear, 2)
    # a reducible but squarefree form passes the check
    pair = MultiPoly.parse("T0*T1", P2)
    assert minimal_omega([pair], P2, 1)["certificate"]["not_containing_variety"]


def test_minimal_omega_line_and_conic():
    line = MultiPoly.parse("T2", P2)
    r = minimal_omega([line], P2, 1, constants=ExternalConstants())
    assert r["omega"] == 4
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    r2 = minimal_omega([conic], P2, 2)
    assert r2["omega"] == 2
    assert "bound_shape" not in r2 or r2["bound_shape"]["value"] > 0


def test_minimal_omega_growth_and_monotone():
    conic = MultiPoly.parse("T0*T2 - T1^2", P2)
    omegas = [minimal_omega([conic], P2, B)["omega"] for B in (2, 4, 8, 16)]
    assert omegas == sorted(omegas)
    import math
    slope = (math.log(omegas[-1]) - math.log(omegas[1])) / math.log(4)
    assert 0.5 < slope < 1.5


def test_minimal_omega_kernel_fallback_used_on_small_case():
    # the product-of-lines shortcut does not apply in 4 variables, so this
    # exercises the standard-monomial kernel end to end
    from cubiconics.cayley import T4
    ell = MultiPoly.parse("T3", T4)
    Q = MultiPoly.parse("T0*T2 - T1^2", T4)
    r = minimal_omega([ell, Q], T4, 2)
    assert r["omega"] >= 1
    assert r["certificate"]["not_containing_variety"]


def test_minimal_omega_conic_p3_at_16(data_dir):
    # 24 points on a conic need a form of degree ceil(24/2) = 12; of the
    # 455 monomials of degree 12 in P^3 only 25 are standard
    forms, names = load_forms(data_dir / "conic_p3.txt")
    r = minimal_omega(forms, names, 16)
    assert r["omega"] == 12 and r["points"] == 24
    w = MultiPoly.parse(r["form"], names)
    assert w.total_degree() == 12
    pts = enumerate_projective(forms, names, 16).points
    assert len(pts) == 24 and all(w.evaluate(p) == 0 for p in pts)
    assert not MultiPoly.parse("T0*T2 - T1^2", names).divides(w)
    assert "T3" not in w.variables_used()


SCAN_PRIME = (1 << 30) - 35


def _ideal_dim(forms, nvars, D):
    """Degree-D part of the ideal of one form, or of a complete intersection
    of two, counted in monomials: sum of the multiples of each form minus
    the multiples of their product."""
    def n(d):
        return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0

    degs = [f.total_degree() for f in forms]
    if len(degs) == 1:
        return n(D - degs[0])
    a, b = degs
    return n(D - a) + n(D - b) - n(D - a - b)


@pytest.mark.parametrize("fname,Bmax", [("line_p2.txt", 3), ("conic.txt", 16),
                                        ("conic_p3.txt", 9)])
def test_scan_matches_full_monomial_space(data_dir, fname, Bmax):
    # every scan record restates the full degree-D monomial space: the mod-p
    # kernel of the full evaluation matrix and the ideal's share of it
    forms, names = load_forms(data_dir / fname)
    for B in range(1, Bmax + 1):
        r = minimal_omega(forms, names, B)
        pts = enumerate_projective(forms, names, B).points
        assert len(pts) == r["points"]
        degrees = [rec["D"] for rec in r["scan"]]
        assert degrees == list(range(1, r["omega"]))
        for D in degrees + [r["omega"]]:
            M = evaluation_matrix(pts, D, names)
            rows = np.array([[x % SCAN_PRIME for x in row] for row in M.rows],
                            dtype=np.int64)
            dimker = len(M.monomials) - rank_mod_p(rows, SCAN_PRIME)[0]
            ideal = _ideal_dim(forms, len(names), D)
            if D < r["omega"]:
                assert r["scan"][D - 1] == {"D": D, "dimker_p": dimker,
                                            "ideal_dim": ideal}
            else:
                assert dimker > ideal


def _multipoly_product_of_lines(points, D):
    """The product-of-lines form built term by term in MultiPoly: the
    factors of _product_of_lines_witness, multiplied sparsely, filler
    T0 + T1 + T2 up to degree D, then the primitive part."""
    pts = sorted(points)
    pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
    if len(pts) % 2:
        last = pts[-1]
        unit = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                    if any(np.cross(last, e)))
        pairs.append((last, unit))
    poly = MultiPoly.constant(1, P2)
    for a, b in pairs:
        cr = [int(c) for c in np.cross(a, b)]
        poly = poly * MultiPoly(P2, {tuple(int(k == j) for k in range(3)): c
                                     for j, c in enumerate(cr)})
    filler = MultiPoly.parse("T0 + T1 + T2", P2)
    for _ in range(D - len(pairs)):
        poly = poly * filler
    return poly.rational_content()[1]


def _random_points_p2(rng, n):
    """n distinct primitive points of P^2, first nonzero entry positive,
    with many zero coordinates."""
    pts = set()
    while len(pts) < n:
        v = [rng.choice((0, 0, rng.randint(-7, 7))) for _ in range(3)]
        if any(v):
            g = gcd(*v)
            v = [x // g for x in v]
            if next(x for x in v if x) < 0:
                v = [-x for x in v]
            pts.add(tuple(v))
    return sorted(pts)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11, 14])
def test_dense_product_of_lines_matches_multipoly(n):
    rng = random.Random(100 + n)
    pts = _random_points_p2(rng, n)
    nfactors = (n + 1) // 2
    for D in (nfactors, nfactors + 3):
        w = _product_of_lines_witness(None, P2, pts, D)
        assert w.form.terms == _multipoly_product_of_lines(pts, D).terms
        assert all(w.form.evaluate(p) == 0 for p in pts)
    assert _product_of_lines_witness(None, P2, pts, nfactors - 1) is None


def test_matrix_mod_p_matches_pow():
    rng = random.Random(11)
    p = SCAN_PRIME
    pts = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(30)]
    table = _power_table(pts, 3, p)
    table = _power_table(pts, 9, p, table)  # extended, as the scan grows D
    assert table.shape == (10, 4, 30)
    exps = np.array([[rng.randint(0, 9) for _ in range(4)] for _ in range(25)])
    ref = [[prod(pow(x, int(e), p) for x, e in zip(pt, mono)) % p for mono in exps]
           for pt in pts]
    assert _matrix_mod_p(table, exps, p).tolist() == ref


def test_minimal_omega_conic_forms_pinned(data_dir):
    # sha256 of the witness text: its terms, sign and content stay fixed
    forms, names = load_forms(data_dir / "conic.txt")
    want = {32: "33f83fd8837f7bfb34f537ca723dbf5dd006386de959d21f9b907aef2e780357",
            64: "d16631af24791c45148e48753a0491f5159340e75dd35c6ae44ec7adc75ee141"}
    for B, digest in want.items():
        r = minimal_omega(forms, names, B)
        assert hashlib.sha256(r["form"].encode()).hexdigest() == digest


def test_translation_search():
    aff = MultiPoly.parse("T1^3 + T2^3 + T3^3 - 1", A3)
    rep = translation_search(aff)
    assert rep == {"a": (0, 0, 0), "already_nonzero": True, "delta": 3}
    through_origin = MultiPoly.parse("T1^3 + T2^3 + T3^3 + T1", A3)
    rep2 = translation_search(through_origin)
    a = rep2["a"]
    assert max(abs(x) for x in a) <= rep2["delta"]
    # certificate: the translated polynomial does not vanish at the origin
    sub = {n: -Fraction(v) for n, v in zip(A3, a)}
    assert not through_origin.substitute(sub).is_zero()


def test_translation_search_rejects_zero_input():
    with pytest.raises(DomainError):
        translation_search(MultiPoly.zero(A3))


def test_evaluation_matrix_dump():
    M = evaluation_matrix([(1, 2, 3)], 1)
    text = M.dump()
    assert "degree 1" in text and "[1, 2, 3]" in text
