"""Empirical determinant method: auxiliary hypersurfaces through point sets.

Given the rational points of bounded height on a variety, find the least
degree omega at which some form vanishes on all of them without vanishing on
the variety.  The two certificates are exact: vanishing is checked in integer
arithmetic, non-containment by exact polynomial division.

The degree scan is certified arithmetically: a kernel dimension computed
modulo a random word-size prime never exceeds the rational one, so a mod-p
kernel that is no bigger than the containment subspace proves that no
witness exists at that degree; only then is an exact fraction-free solve run
at the candidate degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .cayley import cayley_degree_parts, cayley_hypersurface, transform_Ta
from .errors import BudgetError, DomainError, PropertyViolationError
from .hilbert_samuel import ExternalConstants, bound_evaluator
from .linalg import annihilates, exact_kernel, rank_mod_p
from .multipoly import MultiPoly, monomials_of_degree, restrict
from .pointcount import enumerate_projective, homogenize

_SCAN_PRIME = (1 << 30) - 35  # prime below 2^30: products fit int64


def _monomials(nvars: int, D: int, mode: str):
    """Exponent vectors: degree exactly D (projective) or <= D (affine),
    graded-lex descending within each degree block."""
    degs = [D] if mode == "projective" else range(D, -1, -1)
    return [e for d in degs for e in monomials_of_degree(nvars, d)]


@dataclass
class EvaluationMatrix:
    points: tuple
    monomials: tuple
    rows: list
    names: tuple
    D: int
    mode: str

    def dump(self) -> str:
        """Text dump for offline inspection: the column monomials in the
        polynomial text format, then one integer row per point."""
        head = " | ".join(
            str(MultiPoly(self.names, {e: 1})) for e in self.monomials)
        lines = [f"# degree {self.D} ({self.mode}); columns: {head}"]
        for p, row in zip(self.points, self.rows):
            lines.append(f"{list(p)}: " + " ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def evaluation_matrix(points, D: int, mode: str = "projective",
                      names=None) -> EvaluationMatrix:
    """Exact integer matrix of monomial evaluations, rows by point order,
    columns in graded-lex order."""
    points = tuple(tuple(int(c) for c in p) for p in points)
    if mode not in ("projective", "affine"):
        raise DomainError("mode must be 'projective' or 'affine'")
    nvars = len(points[0]) if points else (len(names) if names else 0)
    if names is None:
        names = tuple(f"T{i}" for i in range(nvars))
    monos = _monomials(nvars, D, mode)
    rows = []
    for p in points:
        row = []
        for e in monos:
            v = 1
            for x, ei in zip(p, e):
                if ei:
                    v *= x ** ei
            row.append(v)
        rows.append(row)
    return EvaluationMatrix(points, tuple(monos), rows, tuple(names), D, mode)


def _matrix_mod_p(points, monos, p):
    pts = np.array(points, dtype=np.int64) % p
    cols = []
    for e in monos:
        v = np.ones(len(points), dtype=np.int64)
        for k, ei in enumerate(e):
            if ei:
                v = v * pow_mod_vec(pts[:, k], ei, p) % p
        cols.append(v)
    return np.stack(cols, axis=1)


def pow_mod_vec(a, e, p):
    out = np.ones_like(a)
    base = a % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


# --- containment tests -----------------------------------------------------------


def _ideal_dimension(forms, nvars: int, D: int, mode: str) -> int:
    """Dimension of the degree-D (or <= D) part of the ideal of the variety
    inside the full monomial space; the containment subspace of the kernel."""
    degs = sorted(f.total_degree() for f in forms)

    def proj_dim(d):
        return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0

    def ideal_proj(d):
        if len(degs) == 1:
            return proj_dim(d - degs[0])
        if len(degs) == 2:
            a, b = degs
            return proj_dim(d - a) + proj_dim(d - b) - proj_dim(d - a - b)
        raise DomainError("containment implemented for at most two forms")

    if mode == "projective":
        return ideal_proj(D)
    return sum(ideal_proj(d) for d in range(D + 1))


def _contains_variety(candidate: MultiPoly, forms, mode: str) -> bool:
    """Exact test that the candidate vanishes on the whole variety.

    One form: exact divisibility (the defining ideal is principal and, for
    the geometrically integral inputs used here, radical).  Two forms (a
    curve in a plane of P^3): reduce modulo the linear form and divide.
    """
    if len(forms) == 1:
        return forms[0].divides(candidate)
    ell = min(forms, key=lambda f: f.total_degree())
    other = max(forms, key=lambda f: f.total_degree())
    if ell.total_degree() != 1:
        raise DomainError("two-form containment expects a linear member")
    piv_e = next(iter(sorted(ell.terms)))
    piv = ell.names[piv_e.index(1)]
    cpiv = ell.terms[piv_e]
    expr = MultiPoly.zero(ell.names)
    for e, c in ell.terms.items():
        if e != piv_e:
            expr = expr - (c / cpiv) * MultiPoly(ell.names, {e: 1})
    cand_bar = candidate.substitute({piv: expr})
    other_bar = other.substitute({piv: expr})
    if cand_bar.is_zero():
        return True
    if other_bar.is_zero():
        return False
    return other_bar.divides(cand_bar)


@dataclass
class AuxiliaryForm:
    D: int
    form: MultiPoly
    certificate: dict


def auxiliary_form(forms, names, points, D: int, mode: str = "projective"):
    """A degree-D form vanishing at every point but not on the variety, with
    both certificate legs exact; None when every such form contains the
    variety."""
    names = tuple(names)
    forms = [restrict(f, names) for f in forms]
    if not points:
        for mono in _monomials(len(names), D, mode):
            cand = MultiPoly(names, {mono: 1})
            if not _contains_variety(cand, forms, mode):
                return AuxiliaryForm(D, cand, {"vanishes_on_all_points": True,
                                               "not_containing_variety": True,
                                               "points": 0})
        return None
    M = evaluation_matrix(points, D, mode, names)
    kernel = exact_kernel(M.rows, len(M.monomials))
    if len(kernel) and len(points) < len(M.monomials):
        assert len(kernel) >= len(M.monomials) - len(points)
    for v in kernel:
        cand = _vec_to_poly(v, M.monomials, names)
        if not _contains_variety(cand, forms, mode):
            return AuxiliaryForm(D, cand, {
                "vanishes_on_all_points": True,  # verified inside exact_kernel
                "not_containing_variety": True,
                "points": len(points),
            })
    return None


def _vec_to_poly(v, monomials, names):
    terms = {e: c for e, c in zip(monomials, v) if c != 0}
    poly = MultiPoly(names, terms)
    _, prim = poly.rational_content()
    return prim


def _exact_kernel_vector_from_pivots(rows, monos, pivots, free_col):
    """Exact kernel vector supported on the mod-p pivot columns plus one free
    column, solved by fraction-free elimination on the restricted matrix;
    None if the restricted system is inconsistent over Q."""
    cols = pivots + [free_col]
    sub = [[r[c] for c in cols] for r in rows]
    kernel = exact_kernel(sub, len(cols))
    want = None
    for v in kernel:
        if v[-1] != 0:
            want = v
            break
    if want is None:
        return None
    full = [Fraction(0)] * len(monos)
    for c, val in zip(cols, want):
        full[c] = val
    return full


def minimal_omega(forms, names, B, mode: str = "projective",
                  budget_D: int = 200, constants: ExternalConstants | None = None,
                  enum_budget: float | None = None) -> dict:
    """Least degree omega admitting an auxiliary form through all points of
    height <= B, by linear scan from D = 1 with mod-p certified skips.

    Returns the witness form with its certificates and the closed-form bound
    shape evaluation for comparison.
    """
    names = tuple(names)
    forms = [f.rational_content()[1] for f in (restrict(f, names) for f in forms)]
    res = enumerate_projective(forms, names, B, budget=enum_budget)
    points = res.points
    nvars = len(names)
    p = _SCAN_PRIME
    skipped = []
    for D in range(1, budget_D + 1):
        monos = _monomials(nvars, D, mode)
        ideal_dim = _ideal_dimension(forms, nvars, D, mode)
        if not points:
            dimker_p = len(monos)
            pivots, free = [], list(range(len(monos)))
        else:
            Mp = _matrix_mod_p(points, monos, p)
            rank_p, pivots, free = rank_mod_p(Mp, p)
            dimker_p = len(monos) - rank_p
        if dimker_p <= ideal_dim:
            # kernel over Q is at most the mod-p kernel and always contains
            # the ideal part: equality certified, no witness at this degree
            skipped.append({"D": D, "dimker_p": dimker_p, "ideal_dim": ideal_dim})
            continue
        witness = _witness_at_degree(forms, names, points, monos, pivots, free,
                                     ideal_dim, D, mode)
        if witness is not None:
            delta = max(f.total_degree() for f in forms)
            d = nvars - 1 - len(forms)
            report = {
                "omega": D,
                "points": len(points),
                "B": B,
                "form": str(witness.form),
                "certificate": witness.certificate,
                "scan": skipped,
            }
            if constants is not None and d == 1:
                kind = "projective-curve" if mode == "projective" else "affine-curve"
                report["bound_shape"] = {
                    "kind": kind,
                    "value": bound_evaluator(kind, {"n": nvars - 1, "delta": delta,
                                                    "B": B}, constants),
                }
            return report
        skipped.append({"D": D, "dimker_p": dimker_p, "ideal_dim": ideal_dim,
                        "note": "witness search exhausted over Q"})
    raise BudgetError(f"no auxiliary form found up to degree {budget_D}",
                      partial=skipped)


def _product_of_lines_witness(forms, names, points, D, mode):
    """Witness as a product of linear forms, one through each pair of points
    (plus filler factors up to degree D); both certificates verified exactly.

    An irreducible defining form of degree >= 2 never divides a product of
    linear forms, so for non-linear varieties this is a minimal-cost witness;
    a None return means the construction did not apply and the caller should
    fall back to exact linear algebra.
    """
    if mode != "projective" or len(names) != 3 or len(forms) != 1:
        return None
    pts = sorted(points)
    factors = []
    for i in range(0, len(pts) - 1, 2):
        a, b = pts[i], pts[i + 1]
        cr = (a[1] * b[2] - a[2] * b[1],
              a[2] * b[0] - a[0] * b[2],
              a[0] * b[1] - a[1] * b[0])
        if not any(cr):
            return None  # duplicate projective points; should not happen
        factors.append(cr)
    if len(pts) % 2:
        p = pts[-1]
        for basis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            cr = (p[1] * basis[2] - p[2] * basis[1],
                  p[2] * basis[0] - p[0] * basis[2],
                  p[0] * basis[1] - p[1] * basis[0])
            if any(cr):
                factors.append(cr)
                break
    if len(factors) > D:
        return None
    poly = MultiPoly.constant(1, names)
    for cr in factors:
        lin = MultiPoly(names, {
            tuple(1 if k == j else 0 for k in range(3)): c
            for j, c in enumerate(cr) if c})
        poly = poly * lin
    # filler factors keep the degree at exactly D without new zeros on X
    filler = MultiPoly(names, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    for _ in range(D - len(factors)):
        poly = poly * filler
    _, poly = poly.rational_content()
    # exact certificates
    if any(poly.evaluate(p) != 0 for p in pts):
        return None
    if _contains_variety(poly, forms, mode):
        return None
    return AuxiliaryForm(D, poly, {
        "vanishes_on_all_points": True,
        "not_containing_variety": True,
        "points": len(pts),
        "construction": "product of lines through point pairs",
    })


def _witness_at_degree(forms, names, points, monos, pivots, free, ideal_dim,
                       D, mode):
    if not points:
        cand = MultiPoly(names, {monos[0]: 1})
        if not _contains_variety(cand, forms, mode):
            return AuxiliaryForm(D, cand, {"vanishes_on_all_points": True,
                                           "not_containing_variety": True,
                                           "points": 0})
        return None
    cheap = _product_of_lines_witness(forms, names, points, D, mode)
    if cheap is not None:
        return cheap
    rows = [list(r) for r in evaluation_matrix(points, D, mode, names).rows]
    # if every reduced-basis kernel vector lay in the containment subspace the
    # whole kernel would, contradicting the dimension gap, so scanning free
    # columns finds a witness as soon as the mod-p pivot structure is honest
    tried = 0
    for fc in free:
        v = _exact_kernel_vector_from_pivots(rows, monos, pivots, fc)
        tried += 1
        if v is None:
            continue
        if not annihilates(rows, v):
            continue  # unlucky pivot structure mod p
        cand = _vec_to_poly(v, monos, names)
        if not _contains_variety(cand, forms, mode):
            return AuxiliaryForm(D, cand, {
                "vanishes_on_all_points": True,
                "not_containing_variety": True,
                "points": len(points),
            })
        if tried >= 24:
            break
    if len(monos) <= 400:
        # small enough for the full exact kernel
        return auxiliary_form(forms, names, points, D, mode)
    raise BudgetError(
        f"witness search at degree {D} exhausted its column budget")


# --- translation search -------------------------------------------------------------


def translation_search(f_affine: MultiPoly, box: int | None = None) -> dict:
    """Integer translation a with |a_i| <= deg f making the translated
    variety's Cayley constant part nonzero; identity when already nonzero.

    An exhaustive failure over the whole box falsifies the existence
    statement and raises PropertyViolationError.
    """
    names = ("T1", "T2", "T3")
    f_affine = restrict(f_affine, names)
    delta = f_affine.total_degree()
    F = homogenize(f_affine, names)
    psi = cayley_hypersurface(F)
    parts = cayley_degree_parts(psi, 0)
    if delta not in parts or parts[delta].is_zero():
        raise DomainError("top Cayley part vanishes; translation lemma needs it nonzero")
    if 0 in parts and not parts[0].is_zero():
        return {"a": (0, 0, 0), "already_nonzero": True, "delta": delta}
    cap = box if box is not None else delta
    for a1 in range(-cap, cap + 1):
        for a2 in range(-cap, cap + 1):
            for a3 in range(-cap, cap + 1):
                if (a1, a2, a3) == (0, 0, 0):
                    continue
                Ft = transform_Ta([F], (a1, a2, a3))[0]
                pt = cayley_degree_parts(cayley_hypersurface(Ft), 0)
                if 0 in pt and not pt[0].is_zero():
                    return {"a": (a1, a2, a3), "already_nonzero": False,
                            "delta": delta}
    raise PropertyViolationError(
        f"no translation in the box |a_i| <= {cap} produced a nonzero constant part")
