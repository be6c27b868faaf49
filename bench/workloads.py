"""The benchmark's workloads: their inputs, operations and checks.

Each workload is a list of operations.  An operation calls the library
through its public functions; its check compares the answer with an oracle
from `oracles.py` and returns the canonical answer that goes into the
digest, or raises `Failure`.  Module import is stdlib-only so that the set-up
probe times the import of cubiconics itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

WORKLOADS = ("corpus_pencils", "point_counts", "aux_omega")

# ROADMAP item 1: float Cardano drops an integer double root of this form.
REPRODUCER = ("T3^3 + T1*T3^2 - 2*T0*T3^2 - 2*T0*T1*T3 + T0^2*T3 + T0^2*T1"
              " + T2^3 - T0^2*T2")  # (T3-T0)^2 (T3+T1) + T2^3 - T2*T0^2
VERIFY_B = (16, 32, 64)
VERIFY_ARGV = ["verify", "--surface", "data/fermat.cubic", "--line-height", "1",
               "--B", ",".join(map(str, VERIFY_B)), "--affine"]
COUNT_B = 32
CENSUS_B = 400
LINE_HEIGHT = 2
IRREDUCIBILITY_PRIMES = (2, 3, 5, 7, 11)
PENCIL_SAMPLES = 2

# Operations that fail on every run because of a known fault in the library,
# with the kind of failure each one must show.  Any other failure makes the
# run incorrect.
KNOWN_FAULTS = {
    # pointcount._cubic_real_roots loses integer double roots (fault A)
    "enumerate_projective[reproducer]": "missed-points",
    "enumerate_projective[corpus_06]": "missed-points",
    # detmethod._witness_at_degree stops after 24 free columns (fault B)
    "minimal_omega[conic_p3,B=16]": "BudgetError",
}


class Failure(Exception):
    """An operation whose answer is wrong or that raised."""

    def __init__(self, kind: str, reason: str):
        super().__init__(f"{kind}: {reason}")
        self.kind = kind
        self.reason = reason


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


class Workload:
    ops: list
    # passes a run makes at least, however short --seconds is
    MIN_PASSES = 1


def _points_failure(got, want):
    got, want = set(got), set(want)
    extra = sorted(got - want)
    if extra:
        raise Failure("wrong-answer", f"{len(extra)} points not on the surface "
                                      f"or above the bound, first {extra[:3]}")
    missed = sorted(want - got)
    if missed:
        raise Failure("missed-points", f"missed {len(missed)} of {len(want)} "
                                       f"points, first {missed[:3]}")


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Failure("wrong-answer", reason)


def _corpus(load_forms, names):
    """The corpus cubics, parsed by the library and as their text lines."""
    path = DATA / "cubics_corpus.txt"
    forms, _ = load_forms(path, names)
    texts = [s for s in (raw.split("#", 1)[0].strip()
                         for raw in path.read_text().splitlines()) if s]
    return forms, texts


def _linear_vector(form):
    """Coefficient vector of a linear form in T0..T3."""
    from oracles import integer_vector
    coeffs = [0] * 4
    for e, c in form.terms.items():
        coeffs[e.index(1)] = c
    return integer_vector(coeffs)


# --- corpus_pencils -----------------------------------------------------------------


class CorpusPencils(Workload):
    """The surface pipeline on each corpus cubic: classification, line
    search, absolute irreducibility of the T0-free part, the residual-conic
    pencil and its invariants, the certified census and the height pairing."""

    def __init__(self, seed: int):
        from cubiconics import cubic_conics as cc
        from cubiconics.cayley import T4
        from cubiconics.cli import load_forms
        self.cc = cc
        self.seed = seed
        forms, self.texts = _corpus(load_forms, T4)
        self.surfaces = [cc.CubicSurface.make(f) for f in forms]
        self.ops = [Op(f"pipeline[corpus_{i + 1:02d}]",
                       (lambda i=i: self._run(i)), (lambda a, i=i: self._check(i, a)))
                    for i in range(len(self.surfaces))]

    def _run(self, i: int):
        from cubiconics.multipoly import restrict
        cc = self.cc
        surf = self.surfaces[i]
        classification = cc.classify_cubic(surf.f)
        lines = cc.find_lines(surf, LINE_HEIGHT)
        top = restrict(surf.f.substitute({"T0": 0}), ("T1", "T2", "T3"))
        irreducible = ("inconclusive", None)
        for p in IRREDUCIBILITY_PRIMES:
            label = cc.absolutely_irreducible_cubic_mod_p(top, p)
            if label == "certified-irreducible":
                irreducible = (label, p)
                break
        pencil = cc.conic_family(surf, lines[0])
        lead = cc.leading_family(pencil, irreducible[0])
        image = cc.family_image(pencil.a_family)
        census = cc.conic_census(pencil, CENSUS_B)
        pairing = cc.height_pairing_check(pencil, seed=self.seed)
        return {"classification": classification, "lines": lines,
                "irreducible": irreducible, "pencil": pencil, "lead": lead,
                "image": image, "census": census, "pairing": pairing}

    def _pencil_params(self, i: int):
        rng = random.Random(self.seed * 1009 + i)
        out = []
        while len(out) < PENCIL_SAMPLES:
            t = (rng.randint(1, 9), rng.randint(-9, 9))
            if math.gcd(*t) == 1 and t not in out:
                out.append(t)
        return out

    def _check(self, i: int, a):
        import oracles
        from cubiconics.cayley import cayley_plane_curve_macaulay
        cc = self.cc
        terms = oracles.parse_form(self.texts[i], 4)

        cls = a["classification"]
        p = cls["smooth_certified_at"]
        _require(cls["non_ruled"] == "certified" and p is not None,
                 f"not certified non-ruled: {cls['non_ruled']}")
        _require(oracles.smooth_mod_p(terms, 4, p), f"reduction mod {p} is singular")

        pluckers = []
        for rl in a["lines"]:
            u, v = _linear_vector(rl.line.u), _linear_vector(rl.line.v)
            _require(oracles.line_on_surface(terms, u, v),
                     f"line {rl.line.plucker} does not lie on the surface")
            pl = oracles.plucker(u, v)
            _require(pl == oracles.canonical(rl.line.plucker),
                     f"Pluecker coordinates {rl.line.plucker} != {pl}")
            pluckers.append(pl)
        _require(len(set(pluckers)) == len(pluckers) > 0, "no lines or repeated lines")
        if i == 0:
            _require(len(pluckers) == 3, f"Fermat cubic has 3 rational lines, got {len(pluckers)}")

        _require(a["irreducible"][0] == "certified-irreducible",
                 "T0-free part not certified absolutely irreducible")

        pencil = a["pencil"]
        _require(pencil.family_degree == 3, f"family degree {pencil.family_degree} != 3")
        for t in self._pencil_params(i):
            ell, Q = cc.residual_conic(self.surfaces[i], a["lines"][0], t)
            other = cayley_plane_curve_macaulay(Q, ell).poly
            mine = pencil.specialize(*t).poly
            _require(mine.names == other.names and
                     oracles.proportional(mine.terms, other.terms),
                     f"pencil member at t={t} differs from the Macaulay Cayley form")

        _require(a["lead"]["no_common_zero"], "leading family has a common zero")
        img = a["image"]
        _require(img["image_degree"] * img["cover_degree"] == pencil.family_degree,
                 "image degree times cover degree != family degree")

        census = a["census"]
        _require(census["certified_complete"], "census cutoff not certified")
        d = pencil.family_degree
        rows = []
        for q in pencil.b_ij.values():
            row = [Fraction(0)] * (d + 1)
            for e, c in q.terms.items():
                row[d - e[q.names.index("t1")]] = c
            rows.append(row)
        den = math.lcm(*(c.denominator for r in rows for c in r))
        rows = [[int(c * den) for c in r] for r in rows]
        want = oracles.census_count(rows, d, CENSUS_B, 2 * census["cutoff_m"])
        _require(census["count"] == want,
                 f"census count {census['count']} != recount {want}")

        _require(a["pairing"]["samples"] == 200 and a["pairing"]["seed"] == self.seed,
                 "height pairing sampled the wrong parameters")
        return {"pluckers": sorted(pluckers), "smooth_at": p,
                "irreducible_at": a["irreducible"][1], "family_degree": d,
                "rank": a["lead"]["rank"],
                "image": [img["image_degree"], img["cover_degree"]],
                "census": census["count"]}


# --- point_counts -----------------------------------------------------------------


class PointCounts(Workload):
    """The README `verify` command in-process, and the fibre scan at
    B = COUNT_B on every corpus cubic and on the double-root reproducer."""

    # the reproducibility check compares the verify JSON of two passes
    MIN_PASSES = 2

    def __init__(self, seed: int):
        from cubiconics import cli
        from cubiconics import pointcount as pc
        from cubiconics.cayley import T4
        from cubiconics.multipoly import MultiPoly
        self.cli = cli
        forms, texts = _corpus(cli.load_forms, T4)
        named = [(f"corpus_{i + 1:02d}", f, t) for i, (f, t) in enumerate(zip(forms, texts))]
        named.append(("reproducer", MultiPoly.parse(REPRODUCER, T4), REPRODUCER))
        self.ops = [Op("cli.verify[fermat]", self._verify, self._check_verify)]
        for name, f, text in named:
            self.ops.append(Op(f"enumerate_projective[{name}]",
                               (lambda f=f: pc.enumerate_projective([f], T4, COUNT_B)),
                               (lambda r, text=text: self._check_points(text, r))))
        self._expected = {}

    def _verify(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(VERIFY_ARGV)
        return code, buf.getvalue()

    def _check_verify(self, answer):
        import oracles
        code, text = answer
        _require(code == 0, f"exit code {code}")
        res = json.loads(text)["results"]
        if "verify" not in self._expected:
            self._expected["verify"] = oracles.fermat_verify_counts(VERIFY_B, max(VERIFY_B))
        want = self._expected["verify"]
        for key, got in (("rational", res["rational_experiment"]),
                         ("integral", res["integral_experiment"])):
            for field, value in want[key].items():
                _require(got[field] == value, f"{key} {field} {got[field]} != {value}")
        _require(res["classification"]["non_ruled"] == "certified", "Fermat not certified")
        return {"json_sha256": hashlib.sha256(text.encode()).hexdigest()}

    def _check_points(self, text, res):
        import oracles
        if text not in self._expected:
            self._expected[text] = oracles.brute_projective(
                oracles.parse_form(text, 4), 4, COUNT_B)
        want = self._expected[text]
        got = list(res.points)
        _require(res.complete and res.count == len(got) == len(set(got)),
                 "inconsistent CountResult")
        _points_failure(got, want)
        return {"count": res.count, "points": _sha(sorted(got))}


# --- aux_omega -----------------------------------------------------------------------


class AuxOmega(Workload):
    """Minimal auxiliary-form degree on rational normal curves: the plane
    conic (product-of-lines witness), the plane line and the conic in P^3
    (exact-kernel witness)."""

    # (label, data file, degree e of the curve, ambient coordinates, B)
    CASES = (("conic_p2", "conic.txt", 2, 3, 64),
             ("line_p2", "line_p2.txt", 1, 3, 3),
             ("conic_p3", "conic_p3.txt", 2, 4, 9),
             ("conic_p3", "conic_p3.txt", 2, 4, 16))

    def __init__(self, seed: int):
        from cubiconics import detmethod as dm
        from cubiconics.cli import load_forms
        self.ops = []
        for label, fname, e, ambient, B in self.CASES:
            forms, names = load_forms(DATA / fname)
            self.ops.append(Op(
                f"minimal_omega[{label},B={B}]",
                (lambda forms=forms, names=names, B=B: dm.minimal_omega(forms, names, B)),
                (lambda r, e=e, ambient=ambient, B=B: self._check(r, e, ambient, B))))

    @staticmethod
    def _check(report, e, ambient, B):
        import oracles
        pts = oracles.normal_curve_points(e, ambient, B)
        omega = -(-len(pts) // e)
        _require(report["points"] == len(pts), f"{report['points']} points, want {len(pts)}")
        _require(report["omega"] == omega, f"omega {report['omega']} != {omega}")
        bad = oracles.witness_check(report["form"], e, ambient, pts, omega)
        _require(bad is None, str(bad))
        return {"omega": omega, "points": len(pts)}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def make(name: str, seed: int):
    """Import cubiconics and build the named workload from its inputs."""
    cls = {"corpus_pencils": CorpusPencils, "point_counts": PointCounts,
           "aux_omega": AuxOmega}[name]
    return cls(seed)
