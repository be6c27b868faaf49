#!/usr/bin/env python3
"""Cayley forms in line coordinates: incidence, the curve form at the line's
meet with the plane checked against the Macaulay resultant oracle, and the
coordinate-change laws."""
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubiconics import (LineP3, MultiPoly, cayley_degree_parts,
                        cayley_hypersurface, cayley_plane_curve,
                        cayley_plane_curve_macaulay, incidence_form,
                        plucker_of_line, poly_height, transform_FH,
                        transform_Ta, top_part_check)
from cubiconics.cayley import T4


def lin(s):
    return MultiPoly.parse(s, T4)


print("== line coordinates of hyperplane pairs ==")
for u, v in (("T2", "T3"), ("T0", "T1"), ("T0 + T1", "T2")):
    print(f"  p(V({u}, {v})) = {plucker_of_line(lin(u), lin(v))}")

print("\n== incidence forms ==")
L = LineP3.make(lin("T2"), lin("T3"))
print("  incidence(V(T2,T3)) =", incidence_form(L))
M = LineP3.make(lin("T0 - T2"), lin("T1 + T3"))
print("  incidence(V(T0-T2, T1+T3)) =", incidence_form(M))
print("  self-incidence value:", incidence_form(M).evaluate(M.plucker))

print("\n== Cayley form of a plane conic, two independent routes ==")
Q = lin("T2^2 - T2*T3 + T3^2")
ell = lin("T0 + T1")
psi = cayley_plane_curve(Q, ell)
psi_m = cayley_plane_curve_macaulay(Q, ell)
print("  elimination route :", psi)
print("  Macaulay route agrees:", psi.poly == psi_m.poly)
print("  H(psi) =", poly_height(psi.poly).H)

print("\n== hypersurface Cayley form (top-wedge substitution) ==")
F = lin("T0^3 + T1^3 + T2^3 + T3^3")
w = cayley_hypersurface(F)
print("  Fermat cubic ->", w)
parts = cayley_degree_parts(w, 0)
print("  index-0 graded parts:", {k: str(v) for k, v in parts.items()})

print("\n== coordinate-change laws ==")
law = transform_FH(psi, Fraction(2))
print("  stretch law with H=2:", law)
print("  round trip:", transform_FH(law, Fraction(1, 2)).poly == psi.poly)
Qt, ellt = transform_Ta([Q, ell], (1, 0, 2))
psit = cayley_plane_curve(Qt, ellt)
print("  translated top part equals the original:",
      top_part_check(psi, psit, psi.degree, index=0))
