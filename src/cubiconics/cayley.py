"""Cayley forms in Pluecker line coordinates.

Lines in P^3 are intersections of two hyperplanes; their six coordinates are
the 2x2 minors of the hyperplane coefficient pair and satisfy the quadric
relation G = p01*p23 - p02*p13 + p03*p12.  A curve's Cayley form is the
polynomial in these coordinates cutting the locus of lines that meet it.

Two computation routes are kept:

* the primary elimination route: solve the two symbolic hyperplanes for two
  of the ambient variables, reduce to a Sylvester resultant of binary forms,
  then descend the resulting frame-invariant biform to line coordinates;
* the full Macaulay resultant as a cross-check oracle.

All outputs are put in a canonical normal form: reduced modulo G so that no
monomial is divisible by p01*p23, integer primitive, sign-normalized.  Raw
scalars are never compared across routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotFrameInvariantError
from .heights import normalize_primitive_vector
from .linalg import solve
from .multipoly import (MultiPoly, embed, macaulay_resultant,
                        monomials_of_degree, restrict,
                        sylvester_resultant_generic)

T4 = ("T0", "T1", "T2", "T3")
PLUCKER = ("p01", "p02", "p03", "p12", "p13", "p23")
UV = ("u0", "u1", "u2", "u3", "v0", "v1", "v2", "v3")
TPAR = ("t1", "t2")

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def wedge_names(n: int):
    """Variable names for the top wedges of an (n+1)-dim space: entry i is
    the wedge omitting index i."""
    return tuple("w" + "".join(str(j) for j in range(n + 1) if j != i)
                 for i in range(n + 1))


def grassmann_relation(names=PLUCKER) -> MultiPoly:
    return MultiPoly.parse("p01*p23 - p02*p13 + p03*p12", names)


def canonical_mod_G(poly: MultiPoly) -> MultiPoly:
    """Normal form modulo G: eliminate every monomial divisible by p01*p23
    (the graded-lex leading monomial of G) via p01*p23 -> p02*p13 - p03*p12."""
    names = poly.names
    i01, i23 = names.index("p01"), names.index("p23")
    i02, i13 = names.index("p02"), names.index("p13")
    i03, i12 = names.index("p03"), names.index("p12")
    terms = dict(poly.terms)
    work = [e for e in terms if e[i01] and e[i23]]
    while work:
        e = work.pop()
        c = terms.pop(e, None)
        if c is None or c == 0:
            continue
        base = list(e)
        base[i01] -= 1
        base[i23] -= 1
        for (a, b), s in (((i02, i13), 1), ((i03, i12), -1)):
            e2 = list(base)
            e2[a] += 1
            e2[b] += 1
            e2 = tuple(e2)
            cur = terms.get(e2, Fraction(0)) + s * c
            if cur == 0:
                terms.pop(e2, None)
            else:
                terms[e2] = cur
                if e2[i01] and e2[i23]:
                    work.append(e2)
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
        sp = restrict(sp, PLUCKER)
        return PluckerForm.make(sp)


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
        u = restrict(u, T4)
        v = restrict(v, T4)
        pl = plucker_of_line(u, v)
        assert grassmann_relation().evaluate(pl) == 0, \
            "minor vector violates the quadric relation"
        return cls(u, v, pl)


def incidence_form(line: LineP3) -> PluckerForm:
    """Linear form in line coordinates vanishing exactly on lines meeting
    ``line`` (Laplace expansion of the 4x4 determinant of stacked hyperplane
    pairs)."""
    q = line.plucker
    # det[u;v;w;z] = p01 q23' - p02 q13' + p03 q12' + p12 q03' - p13 q02' + p23 q01'
    coeffs = {
        "p01": q[5], "p02": -q[4], "p03": q[3],
        "p12": q[2], "p13": -q[1], "p23": q[0],
    }
    poly = MultiPoly(PLUCKER, {
        tuple(1 if n == k else 0 for n in PLUCKER): c
        for k, c in coeffs.items() if c
    })
    return PluckerForm.make(poly)


def incidence_biform(line: LineP3, names=UV) -> MultiPoly:
    """The same incidence condition as a (1,1)-biform in a symbolic
    hyperplane pair: det of the 4x4 matrix [l1; l2; u; v]."""
    q = line.plucker
    minors = minor_biforms(names)
    out = MultiPoly.zero(names)
    for qc, s, key in zip(reversed(q), (1, -1, 1, 1, -1, 1), PLUCKER):
        if qc:
            out = out + minors[key] * (s * qc)
    return out


_MINOR_CACHE = {}


def minor_biforms(names=UV):
    """{p_ij -> u_i v_j - u_j v_i} in the given biform ring."""
    if names in _MINOR_CACHE:
        return _MINOR_CACHE[names]
    out = {}
    for (i, j), key in zip(_PAIRS, PLUCKER):
        ui = MultiPoly.variable(f"u{i}", names)
        uj = MultiPoly.variable(f"u{j}", names)
        vi = MultiPoly.variable(f"v{i}", names)
        vj = MultiPoly.variable(f"v{j}", names)
        out[key] = ui * vj - uj * vi
    _MINOR_CACHE[names] = out
    return out


def bidegree(b: MultiPoly, names=UV):
    """(deg in u's, deg in v's); requires bihomogeneity, else DomainError."""
    uvars = [n for n in b.names if n.startswith("u")]
    vvars = [n for n in b.names if n.startswith("v")]
    if not b.is_homogeneous(uvars) or not b.is_homogeneous(vvars):
        raise DomainError("not bihomogeneous")
    return b.degree_in(uvars), b.degree_in(vvars)


# --- hypersurface Cayley form -----------------------------------------------------


def cayley_hypersurface(f: MultiPoly) -> MultiPoly:
    """Cayley form of the hypersurface f = 0 in P^n: substitute for T_i the
    signed top wedge omitting the i-th dual vector.  Degree is preserved and
    the construction is multiplicative."""
    if f.is_zero():
        raise DomainError("zero form")
    if not f.is_homogeneous():
        raise DomainError("hypersurface form must be homogeneous")
    n = len(f.names) - 1
    wnames = wedge_names(n)
    out = {}
    for e, c in f.terms.items():
        sign = 1
        for i, ei in enumerate(e):
            if i % 2 == 1 and ei % 2 == 1:
                sign = -sign
        out[e] = out.get(e, Fraction(0)) + sign * c
    psi = MultiPoly(wnames, out)
    _, prim = psi.rational_content()
    return prim


# --- descent from biforms to line coordinates --------------------------------------


def rewrite_biform_to_plucker(b: MultiPoly) -> PluckerForm:
    """Descend a frame-invariant (k,k)-biform to the canonical degree-k form
    in line coordinates: P with P(p(u,v)) == b(u,v) identically.

    The candidate monomials exclude multiples of p01*p23, which makes the
    solution unique; an inconsistent system means b was not in the image,
    i.e. not frame-invariant.
    """
    tvars = tuple(n for n in b.names if n in TPAR)
    uvnames = UV
    du, dv = bidegree(b)
    if du != dv:
        raise NotFrameInvariantError("bidegree is not balanced")

    minors = minor_biforms(uvnames)
    monos = [e for e in monomials_of_degree(6, du) if not (e[0] and e[5])]
    # expansion of each candidate monomial as a biform
    cols = []
    for e in monos:
        prod = MultiPoly.constant(1, uvnames)
        for name, ei in zip(PLUCKER, e):
            for _ in range(ei):
                prod = prod * minors[name]
        cols.append(prod)
    uv_monos = sorted({m for c in cols for m in c.terms})
    uv_index = {m: i for i, m in enumerate(uv_monos)}
    rows = [[Fraction(0)] * len(monos) for _ in uv_monos]
    for j, c in enumerate(cols):
        for m, coeff in c.terms.items():
            rows[uv_index[m]][j] = coeff

    # collect right-hand sides per t-monomial
    rhs_by_t = {}
    for e, cc in b.terms.items():
        te = tuple(e[b.names.index(t)] for t in tvars) if tvars else ()
        ue = tuple(e[b.names.index(n)] for n in uvnames)
        if ue not in uv_index:
            raise NotFrameInvariantError("biform involves a monomial outside the image")
        col = rhs_by_t.setdefault(te, [Fraction(0)] * len(uv_monos))
        col[uv_index[ue]] = cc
    t_keys = sorted(rhs_by_t)
    try:
        sols = solve(rows, [rhs_by_t[tk] for tk in t_keys], len(monos))
    except DomainError as exc:
        raise NotFrameInvariantError(f"descent system inconsistent: {exc}") from exc

    out_names = PLUCKER + tvars
    terms = {}
    for tk, sol in zip(t_keys, sols):
        for e, c in zip(monos, sol):
            if c != 0:
                terms[tuple(e) + tk] = c
    if not terms:
        raise DomainError("biform descended to zero")
    return PluckerForm.make(MultiPoly(out_names, terms))


# --- plane curves in P^3 -------------------------------------------------------------


def _line_parameterization(names):
    """Substitution T -> binary forms in (S, U) with formal line-coordinate
    coefficients, parameterizing the intersection of the symbolic pair."""
    S = MultiPoly.variable("S", names)
    Uu = MultiPoly.variable("U", names)

    def pv(n):
        return MultiPoly.variable(n, names)

    return {
        "T0": pv("p23") * S,
        "T1": pv("p23") * Uu,
        "T2": -pv("p03") * S - pv("p13") * Uu,
        "T3": pv("p02") * S + pv("p12") * Uu,
    }


def cycle_resultant_biform(Q: MultiPoly, ell: MultiPoly, tvars=()) -> MultiPoly:
    """Biform of the Cayley form of the cycle V(ell, Q) in P^3 via the
    elimination route: parameterize the symbolic line, take a Sylvester
    resultant in the parameters, expand to the hyperplane pair and strip the
    chart factor p23^(deg Q) exactly."""
    tvars = tuple(tvars)
    Qr = restrict(Q, T4 + tvars)
    k = Qr.degree_in(T4)
    work_names = PLUCKER + ("S", "U") + tvars
    Qx = embed(Qr, T4 + work_names)
    Lx = embed(restrict(ell, T4 + tvars), T4 + work_names)
    sub = _line_parameterization(T4 + work_names)
    Qs = restrict(Qx.substitute(sub), work_names)
    Ls = restrict(Lx.substitute(sub), work_names)
    R = sylvester_resultant_generic(Ls, Qs, ("S", "U"))
    if R.is_zero():
        raise DomainError("resultant vanished identically (degenerate cycle)")
    R = canonical_mod_G(R)
    # expand to the hyperplane pair
    uvnames = UV + tvars
    big = PLUCKER + uvnames
    minors = minor_biforms(UV)
    sub2 = {name: embed(m, big) for name, m in minors.items()}
    expanded = restrict(embed(R, big).substitute(sub2), uvnames)
    p23b = embed(minors["p23"], uvnames)
    for _ in range(k):
        expanded = expanded.exact_divide(p23b)
    return expanded


def cayley_plane_curve(Q: MultiPoly, ell: MultiPoly) -> PluckerForm:
    """Canonical Cayley form of the plane curve V(ell, Q) in P^3.

    Q is a degree-k form not divisible by ell; the result has degree k and
    vanishes exactly on the lines meeting the curve.
    """
    if ell.is_zero() or ell.total_degree() != 1:
        raise DomainError("plane form must be linear and nonzero")
    if Q.is_zero():
        raise DomainError("zero curve form")
    if ell.divides(Q):
        raise DomainError("degenerate cycle: plane form divides the curve form")
    b = cycle_resultant_biform(Q, ell)
    return rewrite_biform_to_plucker(b)


def cayley_plane_curve_macaulay(Q: MultiPoly, ell: MultiPoly) -> PluckerForm:
    """Cross-check oracle: the same Cayley form through the full Macaulay
    resultant with two symbolic hyperplane slots."""
    names = T4 + UV
    Qx = embed(restrict(Q, T4), names)
    Lx = embed(restrict(ell, T4), names)
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
    subset = _vars_with_index(poly.names, 3)
    idx = [poly.names.index(n) for n in subset]
    out = {}
    for e, c in poly.terms.items():
        i = sum(e[j] for j in idx)
        out[e] = c * H ** i
    return PluckerForm.make(MultiPoly(poly.names, out))


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
