"""Cayley forms in Pluecker line coordinates.

Lines in P^3 are intersections of two hyperplanes; their six coordinates are
the 2x2 minors of the hyperplane coefficient pair and satisfy the quadric
relation G = p01*p23 - p02*p13 + p03*p12.  A curve's Cayley form is the
polynomial in these coordinates cutting the locus of lines that meet it.

Two computation routes are kept:

* the primary route, one substitution: a line meets the plane ell = 0 in the
  point Y_j = sum_i c_i pi_ij, where c_i is the coefficient of T_i in ell and
  pi is the line's primal bivector (the coordinates of a point pair spanning
  it, written in the p_ij).  The Cayley form of the plane curve V(ell, Q) is
  Q(Y) modulo G (Gelfand, Kapranov and Zelevinsky, *Discriminants,
  Resultants and Multidimensional Determinants*, ch. 3): no resultant, no
  chart, and ell may be a family whose coefficients are forms in the pencil
  parameters;
* the full Macaulay resultant in a symbolic hyperplane pair, descended to
  line coordinates by an exact kernel, as an independent oracle.

All outputs are put in a canonical normal form: reduced modulo G so that no
monomial is divisible by p01*p23, integer primitive, sign-normalized.  Raw
scalars are never compared across routes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotFrameInvariantError
from .linalg import exact_kernel, normalize_primitive_vector
from .multipoly import (MultiPoly, coefficients_in, macaulay_resultant,
                        monomials_of_degree, restrict)

T4 = ("T0", "T1", "T2", "T3")
PLUCKER = ("p01", "p02", "p03", "p12", "p13", "p23")
UV = ("u0", "u1", "u2", "u3", "v0", "v1", "v2", "v3")
TPAR = ("t1", "t2")

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the Hodge star: up to one common factor, the point-pair coordinate of a
# line at _PAIRS[k] is _STAR[k] times its hyperplane-pair coordinate at
# _PAIRS[5 - k]
_STAR = (1, -1, 1, 1, -1, 1)


def wedge_names(n: int):
    """Variable names for the top wedges of an (n+1)-dim space: entry i is
    the wedge omitting index i."""
    return tuple("w" + "".join(str(j) for j in range(n + 1) if j != i)
                 for i in range(n + 1))


def grassmann_relation() -> MultiPoly:
    return MultiPoly.parse("p01*p23 - p02*p13 + p03*p12", PLUCKER)


def canonical_mod_G(poly: MultiPoly) -> MultiPoly:
    """Normal form modulo G: eliminate every monomial divisible by p01*p23
    (the graded-lex leading monomial of G) via p01*p23 -> p02*p13 - p03*p12."""
    names = poly.names
    i, j = names.index("p01"), names.index("p23")
    rest = (((names.index("p02"), names.index("p13")), 1),
            ((names.index("p03"), names.index("p12")), -1))
    terms = dict(poly.terms)
    todo = list(terms)
    while todo:
        e = todo.pop()
        if not (e[i] and e[j]) or e not in terms:
            continue
        c = terms.pop(e)
        for (a, b), s in rest:
            e2 = tuple(x + (k in (a, b)) - (k in (i, j)) for k, x in enumerate(e))
            cur = terms.pop(e2, 0) + s * c
            if cur:
                terms[e2] = cur
                todo.append(e2)
    return MultiPoly(names, terms)


@dataclass(frozen=True)
class PluckerForm:
    """Canonical form in line coordinates: G-reduced, primitive, sign fixed.

    ``poly`` lives in the six p-variables, optionally extended by the pencil
    parameters t1, t2; ``degree`` is the degree in the p-variables.
    """

    poly: MultiPoly
    degree: int

    @classmethod
    def make(cls, poly: MultiPoly) -> "PluckerForm":
        if poly.is_zero():
            raise DomainError("zero Pluecker form")
        missing = poly.variables_used() - set(PLUCKER) - set(TPAR)
        if missing:
            raise DomainError(f"not a Pluecker-coordinate polynomial: {sorted(missing)}")
        if not poly.is_homogeneous([n for n in poly.names if n in PLUCKER]):
            raise DomainError("form must be homogeneous in the line coordinates")
        red = canonical_mod_G(poly)
        if red.is_zero():
            raise DomainError("form reduced to zero modulo the line-coordinate relation")
        _, prim = red.rational_content()
        deg = prim.degree_in([n for n in prim.names if n in PLUCKER])
        return cls(prim, deg)

    def __str__(self):
        return str(self.poly)

    def evaluate(self, plucker_coords) -> Fraction:
        """Value at a numeric 6-tuple of line coordinates."""
        if self.poly.variables_used() - set(PLUCKER):
            raise DomainError("form still has free parameters; specialize t first")
        coords = dict(zip(PLUCKER, plucker_coords))
        return self.poly.evaluate([coords.get(n, 0) for n in self.poly.names])

    def specialize_t(self, t1, t2) -> "PluckerForm":
        if "t1" not in self.poly.names:
            return self
        sp = self.poly.substitute({"t1": Fraction(t1), "t2": Fraction(t2)})
        return PluckerForm.make(restrict(sp, PLUCKER))


# --- lines ---------------------------------------------------------------------


def _linear_coeffs(form: MultiPoly):
    if form.is_zero() or form.total_degree() != 1:
        raise DomainError("need a nonzero linear form")
    out = [Fraction(0)] * 4
    for e, c in form.terms.items():
        if sum(e) != 1:
            raise DomainError("form is not homogeneous linear")
        out[e.index(1)] = c
    return out


def plucker_of_line(u: MultiPoly, v: MultiPoly):
    """Six primitive line coordinates (2x2 minors) of the hyperplane pair."""
    cu, cv = _linear_coeffs(u), _linear_coeffs(v)
    minors = [cu[i] * cv[j] - cu[j] * cv[i] for i, j in _PAIRS]
    if all(m == 0 for m in minors):
        raise DomainError("hyperplane forms are dependent; no line")
    prim, _ = normalize_primitive_vector(minors)
    return prim


@dataclass(frozen=True)
class LineP3:
    u: MultiPoly
    v: MultiPoly
    plucker: tuple

    @classmethod
    def make(cls, u: MultiPoly, v: MultiPoly) -> "LineP3":
        u, v = restrict(u, T4), restrict(v, T4)
        pl = plucker_of_line(u, v)
        if grassmann_relation().evaluate(pl) != 0:
            raise AssertionError("minor vector violates the quadric relation")
        return cls(u, v, pl)


def incidence_form(line: LineP3) -> PluckerForm:
    """Linear form in line coordinates vanishing exactly on lines meeting
    ``line`` (Laplace expansion of the 4x4 determinant of stacked hyperplane
    pairs)."""
    q = line.plucker
    # det[u;v;w;z] = p01 q23' - p02 q13' + p03 q12' + p12 q03' - p13 q02' + p23 q01'
    coeffs = [s * q[5 - k] for k, s in enumerate(_STAR)]
    return PluckerForm.make(MultiPoly(PLUCKER, {
        tuple(int(k == i) for k in range(6)): c for i, c in enumerate(coeffs)}))


@functools.cache
def minor_biforms():
    """{p_ij -> u_i v_j - u_j v_i} in the biform ring of the hyperplane pair."""
    x = {n: MultiPoly.variable(n, UV) for n in UV}
    return {key: x[f"u{i}"] * x[f"v{j}"] - x[f"u{j}"] * x[f"v{i}"]
            for (i, j), key in zip(_PAIRS, PLUCKER)}


# --- hypersurface Cayley form -----------------------------------------------------


def cayley_hypersurface(f: MultiPoly) -> MultiPoly:
    """Cayley form of the hypersurface f = 0 in P^n: substitute for T_i the
    signed top wedge omitting the i-th dual vector.  Degree is preserved and
    the construction is multiplicative."""
    if f.is_zero():
        raise DomainError("zero form")
    if not f.is_homogeneous():
        raise DomainError("hypersurface form must be homogeneous")
    # each odd-indexed wedge carries a sign
    psi = MultiPoly(wedge_names(len(f.names) - 1),
                    {e: (-1) ** sum(e[1::2]) * c for e, c in f.terms.items()})
    _, prim = psi.rational_content()
    return prim


# --- descent from biforms to line coordinates --------------------------------------


def rewrite_biform_to_plucker(b: MultiPoly) -> PluckerForm:
    """Descend a frame-invariant (k,k)-biform in the hyperplane pair to the
    canonical degree-k form in line coordinates: P with P(p(u,v)) == b(u,v)
    identically.  Only the Macaulay oracle takes this route.

    The candidate monomials exclude multiples of p01*p23, so their
    expansions are a basis of the image and the solution is unique; an
    inconsistent system means b was not in the image, i.e. not
    frame-invariant.
    """
    b = restrict(b, UV)
    uvars, vvars = UV[:4], UV[4:]
    k = b.degree_in(uvars)
    if not (b.is_homogeneous(uvars) and b.is_homogeneous(vvars)) or b.degree_in(vvars) != k:
        raise NotFrameInvariantError("not a biform of balanced bidegree")
    minors = minor_biforms()
    monos = [e for e in monomials_of_degree(6, k) if not (e[0] and e[5])]
    cols = []  # expansion of each candidate monomial as a biform
    for e in monos:
        prod = MultiPoly.constant(1, UV)
        for name, ei in zip(PLUCKER, e):
            prod = prod * minors[name] ** ei
        cols.append(prod)
    uv_monos = sorted({m for c in cols for m in c.terms})
    if set(b.terms) - set(uv_monos):
        raise NotFrameInvariantError("biform involves a monomial outside the image")
    # the columns are independent, so b is in their span exactly when the
    # kernel of [cols | -b] is one vector ending in 1, the solution
    rows = [[c.coefficient(m) for c in cols] + [-b.coefficient(m)] for m in uv_monos]
    kernel = exact_kernel(rows, len(monos) + 1)
    if len(kernel) != 1 or kernel[0][-1] != 1:
        raise NotFrameInvariantError("descent system inconsistent")
    return PluckerForm.make(MultiPoly(PLUCKER, dict(zip(monos, kernel[0]))))


# --- plane curves in P^3 -------------------------------------------------------------


def cycle_resultant_biform(Q: MultiPoly, ell: MultiPoly, tvars=()) -> MultiPoly:
    """Cayley form of the cycle V(ell, Q) in P^3 as a polynomial in the line
    coordinates (and ``tvars``), reduced so that no monomial is divisible by
    p01*p23, not yet primitive.  It is Q at the point where the line meets the
    plane, and takes no resultant; the name is kept because
    ``bench/tracing.py`` wraps it by name.

    The coefficient c_i of T_i in ell may be a form in ``tvars``.  The point
    Y_j = sum_i c_i pi_ij, with pi the line's primal bivector, lies on the
    plane because ell(Y) = sum c_i c_j pi_ij = 0 by antisymmetry, and on the
    line; so Q(Y) vanishes exactly on the lines meeting V(ell, Q), unless ell
    divides Q, when it is 0 modulo G and DomainError is raised.
    """
    tvars = tuple(tvars)
    ring = T4 + PLUCKER + tvars
    ell = restrict(ell, T4 + tvars)
    if ell.degree_in(T4) != 1 or not ell.is_homogeneous(T4):
        raise DomainError("plane form must be linear in T0..T3")
    c = {e.index(1): restrict(ci, ring) for e, ci in coefficients_in(ell, tvars).items()}
    p = [MultiPoly.variable(n, ring) for n in PLUCKER]
    pi = {}
    for k, (i, j) in enumerate(_PAIRS):
        pi[i, j] = _STAR[k] * p[5 - k]
        pi[j, i] = -pi[i, j]
    Y = {f"T{j}": sum((ci * pi[i, j] for i, ci in c.items() if i != j), MultiPoly.zero(ring))
         for j in range(4)}
    QY = restrict(restrict(Q, T4 + tvars), ring).substitute(Y)
    out = canonical_mod_G(restrict(QY, PLUCKER + tvars))
    if out.is_zero():
        raise DomainError("curve form vanishes on the plane (degenerate cycle)")
    return out


def cayley_plane_curve(Q: MultiPoly, ell: MultiPoly) -> PluckerForm:
    """Canonical Cayley form of the plane curve V(ell, Q) in P^3.

    Q is a degree-k form not divisible by ell (else DomainError); the result
    has degree k and vanishes exactly on the lines meeting the curve.
    """
    return PluckerForm.make(cycle_resultant_biform(Q, ell))


def cayley_plane_curve_macaulay(Q: MultiPoly, ell: MultiPoly) -> PluckerForm:
    """Cross-check oracle: the same Cayley form through the full Macaulay
    resultant with two symbolic hyperplane slots."""
    names = T4 + UV
    Qx = restrict(restrict(Q, T4), names)
    Lx = restrict(restrict(ell, T4), names)
    h1 = sum((MultiPoly.variable(f"u{i}", names) * MultiPoly.variable(f"T{i}", names)
              for i in range(4)), MultiPoly.zero(names))
    h2 = sum((MultiPoly.variable(f"v{i}", names) * MultiPoly.variable(f"T{i}", names)
              for i in range(4)), MultiPoly.zero(names))
    res = macaulay_resultant([Qx, Lx, h1, h2], T4)
    if not isinstance(res, MultiPoly) or res.is_zero():
        raise DomainError("degenerate Macaulay output")
    return rewrite_biform_to_plucker(restrict(res, UV))


# --- coordinate-change laws -----------------------------------------------------------


def _vars_with_index(names, idx: int):
    digit = str(idx)
    return [n for n in names if n[0] in ("p", "w") and digit in n[1:]]


def cayley_degree_parts(psi, index: int):
    """Partition a Cayley form by total degree in the variables involving the
    given point index (0 for translations, n for the stretch law)."""
    poly = psi.poly if isinstance(psi, PluckerForm) else psi
    subset = _vars_with_index(poly.names, index)
    return poly.split_by_degree(subset)


def transform_FH(psi: PluckerForm, H) -> PluckerForm:
    """Stretch law: scale each monomial by H^(degree in the index-3
    variables).

    In the hyperplane-pair convention used here this is the Cayley form of
    the image of X under [x0:x1:x2:x3] -> [x0:x1:x2:H*x3], whose defining
    forms are the originals with T3 replaced by T3/H (coefficients of T3
    scaled by H scale the index-3 minors by H).
    """
    H = Fraction(H)
    if H == 0:
        raise DomainError("H must be nonzero")
    poly = psi.poly
    idx = [poly.names.index(n) for n in _vars_with_index(poly.names, 3)]
    return PluckerForm.make(MultiPoly(poly.names, {
        e: c * H ** sum(e[j] for j in idx) for e, c in poly.terms.items()}))


def transform_Ta(forms, a):
    """Translate defining forms by the integer vector a: the image variety of
    [T0 : T1 + a1 T0 : T2 + a2 T0 : T3 + a3 T0]."""
    a = [int(x) for x in a]
    if len(a) != 3:
        raise DomainError("translation vector must have length 3")
    T0 = MultiPoly.variable("T0", T4)
    sub = {f"T{i+1}": MultiPoly.variable(f"T{i+1}", T4) - a[i] * T0 for i in range(3)}
    return [restrict(f, T4).substitute(sub) for f in forms]


def top_part_check(psi1: PluckerForm, psi2: PluckerForm, delta: int,
                   index: int = 0) -> bool:
    """Equality (after canonical normalization) of the maximal-degree parts
    in the index-involving variables."""
    p1 = cayley_degree_parts(psi1, index).get(delta)
    p2 = cayley_degree_parts(psi2, index).get(delta)
    if p1 is None or p2 is None:
        return p1 is None and p2 is None
    _, a = p1.rational_content()
    _, b = p2.rational_content()
    return a == b
