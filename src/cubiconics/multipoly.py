"""Sparse exact multivariate polynomials over Q and over Q[t1,t2].

A polynomial is a map from exponent vectors to nonzero Fraction coefficients,
over a fixed tuple of variable names.  Graded-lexicographic order (total degree
first, then lex with earlier names larger) is the single canonical term order:
it fixes serialization, sign normalization and the leading-term conventions of
exact division.

The module also houses the two resultants (Sylvester for binary forms, the
Macaulay two-determinant quotient in general) and the structural tests on
polynomials that the rest of the library consumes.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, MacaulayDegenerateError, NonDivisibleError
from .linalg import det, exact_kernel

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _heap_entry(exps):
    """Min-heap entry whose order is the reverse of graded-lex order."""
    return (-sum(exps), tuple(-x for x in exps)), exps


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise DomainError(f"not an exact rational: {c!r}")


class MultiPoly:
    """Sparse polynomial with Fraction coefficients over named variables."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        clean = {}
        if terms:
            nv = len(self.names)
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nv or any(e < 0 for e in exps):
                    raise DomainError(f"bad exponent vector {exps} for {self.names}")
                clean[exps] = clean.get(exps, _ZERO) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, names):
        return cls(names, {})

    @classmethod
    def constant(cls, c, names):
        names = tuple(names)
        c = _as_fraction(c)
        if c == 0:
            return cls(names, {})
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def variable(cls, name, names):
        names = tuple(names)
        i = names.index(name)
        e = [0] * len(names)
        e[i] = 1
        return cls(names, {tuple(e): _ONE})

    # --- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, subset) -> int:
        """Max total degree over the variables in ``subset``; -1 if zero."""
        if not self.terms:
            return -1
        idx = [self.names.index(n) for n in subset]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous(self, subset=None) -> bool:
        if not self.terms:
            return True
        if subset is None:
            degs = {sum(e) for e in self.terms}
        else:
            idx = [self.names.index(n) for n in subset]
            degs = {sum(e[i] for i in idx) for e in self.terms}
        return len(degs) == 1

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei:
                    used.add(self.names[i])
        return used

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    # --- term order -------------------------------------------------------

    def _glex_key(self, exps):
        return (sum(exps), exps)

    def leading_term(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=self._glex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._glex_key(kv[0]), reverse=True)

    # --- ring operations ----------------------------------------------------

    def _check_ring(self, other):
        if self.names != other.names:
            raise DomainError(f"ring mismatch: {self.names} vs {other.names}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.names)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        r = MultiPoly.__new__(MultiPoly)
        r.names, r.terms = self.names, out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = MultiPoly.__new__(MultiPoly)
        r.names = self.names
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.names)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return MultiPoly.zero(self.names)
            r = MultiPoly.__new__(MultiPoly)
            r.names = self.names
            r.terms = {e: cc * c for e, cc in self.terms.items()}
            return r
        self._check_ring(other)
        out = {}
        if len(other.terms) > len(self.terms):
            a, b = other, self
        else:
            a, b = self, other
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, _ZERO) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        r = MultiPoly.__new__(MultiPoly)
        r.names, r.terms = self.names, out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative power")
        result = MultiPoly.constant(1, self.names)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.names)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    # --- exact division -----------------------------------------------------

    def exact_divide(self, g: "MultiPoly") -> "MultiPoly":
        """Exact quotient self/g; raises NonDivisibleError (with the remainder
        reached) when g does not divide self.

        The leading remainder term comes from a max-heap of exponents in
        graded-lex order (Monagan and Pearce, CASC 2007).  A cancelled term
        stays in the heap and is skipped when popped.  Every term a step adds
        lies below the term it cancels, so an exponent, once popped, never
        returns, and the terms are processed in the order a full scan for
        the largest one would take.
        """
        self._check_ring(g)
        if g.is_zero():
            raise DomainError("division by zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.names)
        ge, gc = g.leading_term()
        q = {}
        r = dict(self.terms)
        heap = [_heap_entry(e) for e in r]
        heapq.heapify(heap)
        while r:
            _, re = heapq.heappop(heap)
            if re not in r:
                continue  # cancelled after it was pushed
            rc = r[re]
            te = tuple(a - b for a, b in zip(re, ge))
            if any(x < 0 for x in te):
                rem = MultiPoly(self.names, r)
                raise NonDivisibleError("non-divisible (leading term obstruction)", rem)
            tc = rc / gc
            q[te] = q.get(te, _ZERO) + tc
            for e2, c2 in g.terms.items():
                e = tuple(x + y for x, y in zip(te, e2))
                c, t = r.get(e), tc * c2
                if c is None:
                    r[e] = -t
                    heapq.heappush(heap, _heap_entry(e))
                elif c == t:
                    del r[e]
                else:
                    r[e] = c - t
        return MultiPoly(self.names, q)

    def divides(self, f: "MultiPoly") -> bool:
        try:
            f.exact_divide(self)
            return True
        except NonDivisibleError:
            return False

    # --- calculus / structure -------------------------------------------------

    def partial(self, name: str) -> "MultiPoly":
        i = self.names.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return MultiPoly(self.names, out)

    def substitute(self, mapping) -> "MultiPoly":
        """Substitute variables by polynomials (same ring) or exact scalars.

        Variables absent from ``mapping`` are kept.
        """
        polys = {}
        for k, v in mapping.items():
            i = self.names.index(k)
            if isinstance(v, (int, Fraction)):
                v = MultiPoly.constant(v, self.names)
            polys[i] = v
        out = MultiPoly.zero(self.names)
        pow_cache = {}
        for e, c in self.terms.items():
            piece = MultiPoly.constant(c, self.names)
            rest = [0] * len(self.names)
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                if i in polys:
                    key = (i, ei)
                    if key not in pow_cache:
                        pow_cache[key] = polys[i] ** ei
                    piece = piece * pow_cache[key]
                else:
                    rest[i] = ei
            if any(rest):
                piece = piece * MultiPoly(self.names, {tuple(rest): _ONE})
            out = out + piece
        return out

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as one int or Fraction per variable.

        Denominators of the coefficients and of the point are cleared once,
        so the terms are summed as Python integers.
        """
        if len(point) != len(self.names):
            raise DomainError(f"point {point!r} does not match the ring {self.names}")
        if not self.terms:
            return _ZERO
        xs = [x if isinstance(x, int) else _as_fraction(x) for x in point]
        den = lcm(*(x.denominator for x in xs))
        nums = [x.numerator * (den // x.denominator) for x in xs]
        cden = lcm(*(c.denominator for c in self.terms.values()))
        # x = nums/den: a term of degree k is scaled by den^(top - k)
        top = self.total_degree() if den != 1 else 0
        total = 0
        for e, c in self.terms.items():
            t = c.numerator * (cden // c.denominator)
            for x, k in zip(nums, e):
                if k:
                    t *= x ** k
            if den != 1:
                t *= den ** (top - sum(e))
            total += t
        return Fraction(total, cden * den ** top)

    def homogeneous_component(self, subset, i: int) -> "MultiPoly":
        """Sum of monomials whose total degree over ``subset`` equals ``i``."""
        idx = [self.names.index(n) for n in subset]
        out = {e: c for e, c in self.terms.items() if sum(e[j] for j in idx) == i}
        return MultiPoly(self.names, out)

    def split_by_degree(self, subset):
        """Partition into {degree over subset -> component}; parts sum to self."""
        idx = [self.names.index(n) for n in subset]
        parts = {}
        for e, c in self.terms.items():
            d = sum(e[j] for j in idx)
            parts.setdefault(d, {})[e] = c
        return {d: MultiPoly(self.names, t) for d, t in sorted(parts.items())}

    # --- content / primitive part ---------------------------------------------

    def rational_content(self):
        """Signed rational content: self == content * primitive, where the
        primitive part has coprime integer coefficients and positive
        graded-lex leading coefficient."""
        if self.is_zero():
            raise DomainError("content of zero polynomial")
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den)
        _, lc = self.leading_term()
        if lc < 0:
            content = -content
        prim = self * (1 / content)
        return content, prim

    def content_primitive(self, wrt=None):
        """(content, primitive part).

        ``wrt=None``: content is the signed rational content.
        ``wrt=(a, b)``: coefficients are read as polynomials in the two named
        variables; content is their gcd (a binary form over Q, itself made
        integer-primitive), sign-normalized so the primitive part's leading
        coefficient is positive.
        """
        if self.is_zero():
            raise DomainError("content of zero polynomial")
        if wrt is None:
            return self.rational_content()
        wrt = tuple(wrt)
        if len(wrt) != 2:
            raise DomainError("polynomial content implemented for two variables only")
        coeffs = coefficients_in(self, wrt).values()
        g = gcd_binary_forms(list(coeffs), wrt)
        q = self.exact_divide(embed(g, self.names))
        cr, prim = q.rational_content()
        return embed(g, self.names) * cr, prim

    # --- serialization -----------------------------------------------------

    def _monomial_str(self, exps):
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            m = self._monomial_str(e)
            chunks.append(f"{c} * {m}" if m else f"{c}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self})"

    @classmethod
    def parse(cls, text: str, names) -> "MultiPoly":
        """Parse the canonical text format: terms ``coeff * v^e*v^e`` joined
        by '+'; bare monomials and leading '-' are accepted."""
        names = tuple(names)
        s = text.split("#", 1)[0].strip()
        if not s or s == "0":
            return cls.zero(names)
        s = s.replace("-", "+-")
        out = {}
        for raw in s.split("+"):
            raw = raw.strip()
            if not raw:
                continue
            coeff = _ONE
            exps = [0] * len(names)
            neg = raw.startswith("-")
            if neg:
                raw = raw[1:].strip()
            for factor in re.split(r"\*", raw):
                factor = factor.strip()
                if not factor:
                    continue
                if re.fullmatch(r"\d+(/\d+)?", factor):
                    coeff *= Fraction(factor)
                    continue
                m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(\d+))?", factor)
                if not m:
                    raise DomainError(f"cannot parse factor {factor!r}")
                name, e = m.group(1), int(m.group(2) or 1)
                if name not in names:
                    raise DomainError(f"unknown variable {name!r} (ring {names})")
                exps[names.index(name)] += e
            if neg:
                coeff = -coeff
            key = tuple(exps)
            out[key] = out.get(key, _ZERO) + coeff
        return cls(names, out)


# --- ring-changing helpers -----------------------------------------------


def embed(f: MultiPoly, names) -> MultiPoly:
    """Reinterpret f inside a larger ring containing all of f's variables."""
    names = tuple(names)
    pos = [names.index(n) for n in f.names]
    out = {}
    for e, c in f.terms.items():
        e2 = [0] * len(names)
        for p, ei in zip(pos, e):
            e2[p] = ei
        out[tuple(e2)] = c
    return MultiPoly(names, out)


def restrict(f: MultiPoly, names) -> MultiPoly:
    """Move f into the (possibly smaller) ring ``names``; fails if f involves
    a variable outside it."""
    names = tuple(names)
    missing = f.variables_used() - set(names)
    if missing:
        raise DomainError(f"cannot restrict: {sorted(missing)} occur in f")
    keep = []
    for n in names:
        keep.append(f.names.index(n) if n in f.names else None)
    out = {}
    for e, c in f.terms.items():
        out[tuple(e[i] if i is not None else 0 for i in keep)] = c
    return MultiPoly(names, out)


def coefficients_in(f: MultiPoly, coeff_vars):
    """View f as a polynomial in the variables *outside* ``coeff_vars``:
    returns {outer exponent vector -> coefficient polynomial in coeff_vars}.
    """
    coeff_vars = tuple(coeff_vars)
    cidx = [f.names.index(n) for n in coeff_vars]
    oidx = [i for i in range(len(f.names)) if i not in cidx]
    groups = {}
    for e, c in f.terms.items():
        outer = tuple(e[i] for i in oidx)
        inner = tuple(e[i] for i in cidx)
        groups.setdefault(outer, {})[inner] = c
    return {k: MultiPoly(coeff_vars, t) for k, t in groups.items()}


# --- univariate/binary gcd --------------------------------------------------


def _univ_gcd(a, b):
    """Monic gcd of univariate coefficient lists over Q."""
    a = [c for c in a]
    b = [c for c in b]

    def deg(v):
        d = len(v) - 1
        while d >= 0 and v[d] == 0:
            d -= 1
        return d

    da, db = deg(a), deg(b)
    if da < 0:
        a, da = b, db
        b, db = [], -1
    while db >= 0:
        # remainder of a by b
        while da >= db >= 0:
            f = a[da] / b[db]
            for i in range(db + 1):
                a[da - db + i] -= f * b[i]
            da = deg(a)
        a, da, b, db = b, db, a, da
    if da < 0:
        return []
    lead = a[da]
    return [c / lead for c in a[: da + 1]]


def gcd_binary_forms(forms, names) -> MultiPoly:
    """Gcd of homogeneous binary forms in the two named variables, returned
    integer-primitive with positive leading (graded-lex) coefficient.

    Nonzero inputs may have different degrees; zero entries are skipped.
    """
    names = tuple(names)
    x, y = names
    live = [f for f in forms if f and not f.is_zero()]
    if not live:
        raise DomainError("gcd of all-zero family")
    for f in live:
        if not f.is_homogeneous():
            raise DomainError("gcd_binary_forms expects homogeneous forms")
        if f.variables_used() - {x, y}:
            raise DomainError("forms must live in the two given variables")
    # powers of y are invisible after dehomogenizing at y=1; track them apart
    min_y = min(min(e[f.names.index(y)] for e in f.terms) for f in live)
    g_univ = None
    for f in live:
        fx = restrict(f, names)
        cs = {}
        for (ex, ey), c in fx.terms.items():
            cs[ex] = cs.get(ex, _ZERO) + c
        coeffs = [cs.get(i, _ZERO) for i in range(max(cs) + 1)]
        g_univ = coeffs if g_univ is None else _univ_gcd(g_univ, coeffs)
        if len(g_univ) == 1 and min_y == 0:
            break
    d = len(g_univ) - 1
    out = {}
    for i, c in enumerate(g_univ):
        if c != 0:
            out[(i, (d - i) + min_y)] = c
    g = MultiPoly(names, out)
    _, g = g.rational_content()
    return g


# --- determinants over a ring ------------------------------------------------


def _peel_singleton_rows(m):
    """Laplace-eliminate rows with a single nonzero entry (cheap and common
    for Macaulay matrices of near-pure-power systems).  Mutates nothing;
    returns (sign, factors, reduced matrix) with det = sign * prod(factors)
    * det(reduced)."""
    rows = list(range(len(m)))
    cols = list(range(len(m)))
    sign = 1
    factors = []
    changed = True
    while changed and rows:
        changed = False
        for ri, i in enumerate(rows):
            nz = [cj for cj, j in enumerate(cols) if not m[i][j].is_zero()]
            if len(nz) == 0:
                return sign, factors, None  # zero row: determinant vanishes
            if len(nz) == 1:
                cj = nz[0]
                # sign of the (ri, cj) Laplace position in the current minor
                sign *= -1 if (ri + cj) % 2 else 1
                factors.append(m[i][cols[cj]])
                rows.pop(ri)
                cols.pop(cj)
                changed = True
                break
    return sign, factors, [[m[i][j] for j in cols] for i in rows]


def det_poly(rows, names):
    """Determinant of a square matrix of MultiPoly entries (Bareiss
    fraction-free elimination on top of singleton-row peeling; every
    division is exact)."""
    n = len(rows)
    if n == 0:
        return MultiPoly.constant(1, names)
    m = [[e if isinstance(e, MultiPoly) else MultiPoly.constant(e, names) for e in r] for r in rows]
    sign, factors, m = _peel_singleton_rows(m)
    lead = MultiPoly.constant(sign, names)
    for f in factors:
        lead = lead * f
    if m is None:
        return MultiPoly.zero(names)
    if not m:
        return lead
    n = len(m)
    sign = 1
    prev = MultiPoly.constant(1, names)
    for c in range(n - 1):
        piv = None
        best = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                w = len(m[i][c].terms)
                if best is None or w < best:
                    best, piv = w, i
        if piv is None:
            return MultiPoly.zero(names)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pc = m[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = m[i][j] * pc - m[i][c] * m[c][j]
                m[i][j] = num.exact_divide(prev)
            m[i][c] = MultiPoly.zero(names)
        prev = pc
    out = m[n - 1][n - 1] * lead
    return out if sign > 0 else -out


# --- resultants ---------------------------------------------------------------


def sylvester_rows(fc, gc):
    """Sylvester matrix rows of two binary forms given by their coefficient
    lists, leading coefficient first."""
    m, n = len(fc) - 1, len(gc) - 1
    return ([[0] * k + list(fc) + [0] * (n - 1 - k) for k in range(n)]
            + [[0] * k + list(gc) + [0] * (m - 1 - k) for k in range(m)])


def sylvester_resultant(f: MultiPoly, g: MultiPoly) -> Fraction:
    """Classical Sylvester resultant of two numeric homogeneous binary forms,
    normalized so Res(x^m, y^n) = 1."""
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant of the zero form")
    if len(f.names) != 2 or g.names != f.names:
        raise DomainError("binary forms expected (ring with two variables)")
    coeffs = []
    for h in (f, g):
        if not h.is_homogeneous():
            raise DomainError("form is not homogeneous in the binary pair")
        d = h.total_degree()
        coeffs.append([h.terms.get((d - k, k), _ZERO) for k in range(d + 1)])
    return det(sylvester_rows(*coeffs))


def monomials_of_degree(nvars, d):
    """Exponent vectors of total degree d, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


def macaulay_resultant(forms, ambient_names):
    """Macaulay resultant of n+1 forms in the n+1 ``ambient_names`` variables.

    Coefficients may involve extra (symbolic) variables; the result is then a
    polynomial in those.  Normalized so Res of pure powers is 1.  When the
    denominator minor vanishes, the variable order is re-partitioned by
    deterministic cyclic shifts before failing.
    """
    ambient_names = tuple(ambient_names)
    nv = len(ambient_names)
    if len(forms) != nv:
        raise DomainError(f"need {nv} forms for {nv} variables")
    degrees = []
    for f in forms:
        if f.is_zero():
            raise DomainError("zero form in resultant slot")
        if not f.is_homogeneous(ambient_names):
            raise DomainError("forms must be homogeneous in the ambient variables")
        degrees.append(f.degree_in(ambient_names))
    if any(d < 1 for d in degrees):
        raise DomainError("all degrees must be >= 1")
    symbol_names = None
    coeff_tables = []
    for f in forms:
        # coefficient data in the complement of the ambient variables
        extra = tuple(n for n in f.names if n not in ambient_names)
        table = {}
        for e, c in f.terms.items():
            amb = tuple(e[f.names.index(n)] for n in ambient_names)
            rest = tuple((n, e[f.names.index(n)]) for n in extra if e[f.names.index(n)])
            table.setdefault(amb, []).append((rest, c))
        coeff_tables.append(table)
        if extra:
            symbol_names = tuple(sorted(set(extra) | set(symbol_names or ())))
    symbol_names = symbol_names or ()

    def coeff_as_poly(table_entry):
        out = {}
        for rest, c in table_entry:
            e = [0] * len(symbol_names)
            for n, ei in rest:
                e[symbol_names.index(n)] = ei
            key = tuple(e)
            out[key] = out.get(key, _ZERO) + c
        return MultiPoly(symbol_names, out)

    nu = sum(d - 1 for d in degrees) + 1
    cols = monomials_of_degree(nv, nu)
    col_index = {m: i for i, m in enumerate(cols)}

    last_error = None
    for shift in range(nv):
        order = [(i + shift) % nv for i in range(nv)]

        def assign(alpha):
            for i in order:
                if alpha[i] >= degrees[i]:
                    return i
            raise AssertionError("pigeonhole failure in Macaulay partition")

        rows = []
        reduced_flags = []
        for alpha in cols:
            i = assign(alpha)
            hits = sum(1 for j in range(nv) if alpha[j] >= degrees[j])
            reduced_flags.append(hits == 1)
            shiftexp = list(alpha)
            shiftexp[i] -= degrees[i]
            row = [MultiPoly.zero(symbol_names) for _ in cols]
            for amb, entry in coeff_tables[i].items():
                tgt = tuple(a + b for a, b in zip(shiftexp, amb))
                row[col_index[tgt]] = row[col_index[tgt]] + coeff_as_poly(entry)
            rows.append(row)

        sub_idx = [k for k, fl in enumerate(reduced_flags) if not fl]
        if not symbol_names:
            frows = [[e.coefficient(()) for e in r] for r in rows]
            det_m = det(frows)
            det_sub = det([[frows[i][j] for j in sub_idx] for i in sub_idx])
            if det_sub == 0:
                last_error = MacaulayDegenerateError(
                    f"denominator minor vanished for variable shift {shift}")
                continue
            return det_m / det_sub
        det_m = det_poly(rows, symbol_names)
        sub = [[rows[i][j] for j in sub_idx] for i in sub_idx]
        det_sub = det_poly(sub, symbol_names)
        if det_sub.is_zero():
            last_error = MacaulayDegenerateError(
                f"denominator minor vanished for variable shift {shift}")
            continue
        if det_m.is_zero():
            return MultiPoly.zero(symbol_names)
        try:
            res = det_m.exact_divide(det_sub)
        except NonDivisibleError as exc:
            last_error = MacaulayDegenerateError(f"inexact Macaulay quotient: {exc}")
            continue
        return res
    raise last_error


# --- essential variables -------------------------------------------------------


def essential_variable_count(f: MultiPoly):
    """Least number k of linear forms in which f can be written, with a basis.

    k is the rank of the coefficient matrix of the first partial derivatives;
    the returned forms are a basis of the orthogonal complement of the space
    of constant directions annihilating f.
    """
    if f.is_zero():
        raise DomainError("essential variables of the zero polynomial")
    nv = len(f.names)
    partials = [f.partial(n) for n in f.names]
    monos = sorted({e for p in partials for e in p.terms})
    # rows indexed by variables: coefficient vectors of the partials
    rows = [[p.terms.get(e, _ZERO) for e in monos] for p in partials]
    kernel = exact_kernel([list(col) for col in zip(*rows)], nv) if monos else \
        [[_ONE if i == j else _ZERO for j in range(nv)] for i in range(nv)]
    # kernel of the map v -> sum_i v_i d_i f, i.e. right kernel of the
    # (monomials x variables) matrix
    k = nv - len(kernel)
    # basis of the annihilator of the kernel: right kernel of kernel matrix
    if kernel:
        forms_vecs = exact_kernel([list(v) for v in kernel], nv)
    else:
        forms_vecs = [[_ONE if i == j else _ZERO for j in range(nv)] for i in range(nv)]
    forms = []
    for v in forms_vecs:
        p = MultiPoly(f.names, {tuple(1 if i == j else 0 for i in range(nv)): v[j]
                                for j in range(nv) if v[j] != 0})
        _, p = p.rational_content()
        forms.append(p)
    assert len(forms) == k
    return k, forms
