import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cubiconics.cli import load_forms
from cubiconics.detmethod import (auxiliary_form, evaluation_matrix,
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
