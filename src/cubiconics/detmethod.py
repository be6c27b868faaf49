"""Empirical determinant method: auxiliary hypersurfaces through point sets.

Given the rational points of bounded height on a projective variety V, find
the least degree omega at which some form vanishes on all of them without
vanishing on V.

The search runs in a basis of the coordinate ring, not in the whole monomial
space.  Each linear member of the system eliminates its graded-lex leading
variable (its pivot), and at most one form f is left in the other variables.
The degree-D monomials free of the pivots that the graded-lex leading
monomial of f does not divide (the standard monomials) are a basis of the
degree-D part of Q[T]/I(V), provided f is squarefree; that is certified
exactly on a line, and DomainError raised when no line certifies it.  A
nonzero combination of standard monomials is its own remainder mod f, so it
does not vanish on V: every nonzero kernel vector of the standard columns of
the evaluation matrix is a witness.  Conversely, the
remainder of any witness is such a vector, because the points lie on V.

Both certificate legs are exact: vanishing at every point is checked in
integer arithmetic (inside exact_kernel, or by evaluation for the
product-of-lines construction in P^2), and non-containment by one exact
division: f does not divide the witness.

The degree scan is certified arithmetically: a rank modulo a word-size prime
never exceeds the rational one, so standard columns of full rank mod p prove
that no witness exists at that degree; only then is an exact fraction-free
solve run.  Scan records give the full-space figures, which the quotient
determines: ideal_dim = #monomials - #standard (the degree-D part of I(V))
and dimker_p = ideal_dim + #standard - rank mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cayley import cayley_degree_parts, cayley_hypersurface, transform_Ta
from .errors import BudgetError, DomainError, PropertyViolationError
from .hilbert_samuel import ExternalConstants, bound_evaluator
from .linalg import exact_kernel, rank_mod_p
from .multipoly import (MultiPoly, embed, gcd_binary_forms,
                        monomials_of_degree, restrict)
from .pointcount import enumerate_projective, homogenize

_SCAN_PRIME = (1 << 30) - 35  # prime below 2^30: products fit int64
_SQUAREFREE_LINES = 4


@dataclass
class EvaluationMatrix:
    points: tuple
    monomials: tuple
    rows: list
    names: tuple
    D: int

    def dump(self) -> str:
        """Text dump for offline inspection: the column monomials in the
        polynomial text format, then one integer row per point."""
        head = " | ".join(
            str(MultiPoly(self.names, {e: 1})) for e in self.monomials)
        lines = [f"# degree {self.D}; columns: {head}"]
        for p, row in zip(self.points, self.rows):
            lines.append(f"{list(p)}: " + " ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def evaluation_matrix(points, D: int, names=None) -> EvaluationMatrix:
    """Exact integer matrix of the degree-D monomial evaluations, rows by
    point order, columns in graded-lex order."""
    points = tuple(tuple(int(c) for c in p) for p in points)
    nvars = len(points[0]) if points else (len(names) if names else 0)
    if names is None:
        names = tuple(f"T{i}" for i in range(nvars))
    monos = monomials_of_degree(nvars, D)
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
    return EvaluationMatrix(points, tuple(monos), rows, tuple(names), D)


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


# --- the coordinate ring ---------------------------------------------------------


def _quotient(forms, names):
    """(pivots, f): the indices of the variables that the linear members
    eliminate, and the one form left in the other variables (None when no
    form is left)."""
    rest = sorted(forms, key=MultiPoly.total_degree)
    pivots, f = [], None
    for i, g in enumerate(rest):
        if not g.is_homogeneous():
            raise DomainError(f"form is not homogeneous: {g}")
        if g.is_zero():
            continue  # implied by the linear members
        if g.total_degree() == 1:
            e, c = g.leading_term()
            k = e.index(1)
            expr = MultiPoly.variable(names[k], names) - g * (1 / c)
            rest[i + 1:] = [h.substitute({names[k]: expr}) for h in rest[i + 1:]]
            pivots.append(k)
        elif f is None:
            f = g
        else:
            raise DomainError("auxiliary forms need at most one nonlinear form "
                              "besides the linear members")
    if f is not None:
        _certify_squarefree(f)
    return tuple(pivots), f


def _certify_squarefree(f):
    """Certify that f is squarefree, else raise DomainError.

    On a line P + sQ, f restricts to a binary form g(s, u) = f(uP + sQ).  If
    h^2 divides f, the square of h's restriction (of degree deg h, or zero)
    divides g, and a repeated factor of g divides both partial derivatives.
    So a nonzero g whose partials have a constant gcd proves f squarefree.
    A few fixed integer lines are tried.
    """
    ring = f.names + ("_s", "_u")
    s, u = (MultiPoly.variable(n, ring) for n in ring[-2:])
    rng = random.Random(1)
    for _ in range(_SQUAREFREE_LINES):
        g = embed(f, ring).substitute({
            n: rng.randint(-9, 9) * u + rng.randint(-9, 9) * s for n in f.names})
        partials = [restrict(g.partial(n), ring[-2:]) for n in ring[-2:]]
        if any(partials) and gcd_binary_forms(partials, ring[-2:]).total_degree() == 0:
            return
    raise DomainError(f"cannot certify that {f} is squarefree on "
                      f"{_SQUAREFREE_LINES} lines")


def _standard(monos, pivots, f):
    """Indices of the standard monomials among ``monos``: free of the pivots
    and not divisible by the leading monomial of f."""
    lead = f.leading_term()[0] if f is not None else None
    return [i for i, e in enumerate(monos)
            if not any(e[k] for k in pivots)
            and (lead is None or any(a < b for a, b in zip(e, lead)))]


@dataclass
class AuxiliaryForm:
    D: int
    form: MultiPoly
    certificate: dict


def _kernel_witness(M: EvaluationMatrix, std, f):
    """The first basis vector of the exact kernel of the standard columns of
    M, as a certified witness; None when that kernel is zero."""
    kernel = exact_kernel([[r[i] for i in std] for r in M.rows], len(std))
    if not kernel:
        return None
    cand = _vec_to_poly(kernel[0], [M.monomials[i] for i in std], M.names)
    if f is not None and f.divides(cand):
        raise AssertionError("a combination of standard monomials lies in (f)")
    return AuxiliaryForm(M.D, cand, {
        "vanishes_on_all_points": True,  # verified inside exact_kernel
        "not_containing_variety": True,
        "points": len(M.points),
    })


def auxiliary_form(forms, names, points, D: int):
    """A degree-D form vanishing at every point but not on the variety, with
    both certificate legs exact; None when every such form contains the
    variety.  DomainError when a point is not on the variety."""
    names = tuple(names)
    forms = [restrict(f, names) for f in forms]
    if any(g.evaluate(p) != 0 for p in points for g in forms):
        raise DomainError("auxiliary_form needs points on the variety")
    pivots, f = _quotient(forms, names)
    M = evaluation_matrix(points, D, names)
    return _kernel_witness(M, _standard(M.monomials, pivots, f), f)


def _vec_to_poly(v, monomials, names):
    terms = {e: c for e, c in zip(monomials, v) if c != 0}
    poly = MultiPoly(names, terms)
    _, prim = poly.rational_content()
    return prim


def minimal_omega(forms, names, B, budget_D: int = 200,
                  constants: ExternalConstants | None = None,
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
    pivots, f = _quotient(forms, names)
    p = _SCAN_PRIME
    skipped = []
    for D in range(1, budget_D + 1):
        monos = monomials_of_degree(nvars, D)
        std = _standard(monos, pivots, f)
        rank_p = 0
        if points and std:
            rank_p = rank_mod_p(_matrix_mod_p(points, [monos[i] for i in std], p), p)[0]
        record = {"D": D, "dimker_p": len(monos) - rank_p,
                  "ideal_dim": len(monos) - len(std)}
        if rank_p == len(std):
            # the rank over Q is at least the rank mod p, so no combination
            # of standard monomials vanishes on the points: no witness at D
            skipped.append(record)
            continue
        witness = None
        if nvars == 3 and not pivots:
            witness = _product_of_lines_witness(f, names, points, D)
        if witness is None:
            witness = _kernel_witness(evaluation_matrix(points, D, names), std, f)
        if witness is not None:
            delta = max(g.total_degree() for g in forms)
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
                kind = "projective-curve"
                report["bound_shape"] = {"kind": kind, "value": bound_evaluator(
                    kind, {"n": nvars - 1, "delta": delta, "B": B}, constants)}
            return report
        skipped.append({**record, "note": "witness search exhausted over Q"})
    raise BudgetError(f"no auxiliary form found up to degree {budget_D}",
                      partial=skipped)


def _product_of_lines_witness(f, names, points, D):
    """Witness in P^2 as a product of linear forms, one through each pair of
    points (plus filler factors up to degree D); both certificates verified
    exactly.

    An irreducible defining form of degree >= 2 never divides a product of
    linear forms, so this is a minimal-cost witness; a None return means the
    construction did not apply and the caller should fall back to exact
    linear algebra.
    """
    if not points:
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
    if f is not None and f.divides(poly):
        return None
    return AuxiliaryForm(D, poly, {
        "vanishes_on_all_points": True,
        "not_containing_variety": True,
        "points": len(pts),
        "construction": "product of lines through point pairs",
    })


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
