"""Command line driver.

Commands wire the library's pipelines to polynomial files (one form per
line, '#' comments) and emit schema-versioned JSON reports, with CSV as a
convenience export.  Exit codes: 0 success, 1 a structural property was
falsified on the instance (the most important signal), 2 a budget was
exceeded, 3 bad configuration or input, 4 an internal check failed.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from . import cubic_conics as cc
from .cayley import (T4, cayley_degree_parts, cayley_hypersurface,
                     cayley_plane_curve)
from .detmethod import minimal_omega
from .errors import (BudgetError, ConfigError, MacaulayDegenerateError, NonDivisibleError,
                     PropertyViolationError)
from .exactarith import bertrand_prime, mertens_check, theta_psi_phi
from .heights import height_comparison_audit, poly_height
from .hilbert_samuel import (ExternalConstants, geometric_hs_window, local_hs,
                             q_lower_bound_check)
from .multipoly import MultiPoly, embed, restrict
from .pointcount import (enumerate_affine, enumerate_projective,
                         integral_conics_experiment, points_on_conics_experiment)
from .reports import ExperimentReport, tag


def load_forms(path, names=None):
    """Forms from a text file, one per line, '#' comments; the ambient ring
    is T0..Tmax over all lines unless given."""
    lines = []
    for raw in Path(path).read_text().splitlines():
        s = raw.split("#", 1)[0].strip()
        if s:
            lines.append(s)
    if not lines:
        raise ConfigError(f"no polynomials in {path}")
    if names is None:
        hi = 0
        for s in lines:
            for m in re.finditer(r"\bT(\d+)\b", s):
                hi = max(hi, int(m.group(1)))
        names = tuple(f"T{i}" for i in range(hi + 1))
    return [MultiPoly.parse(s, names) for s in lines], names


def _parse_blist(s):
    return [int(x) for x in s.split(",") if x.strip()]


def _constants(args):
    if getattr(args, "constants", None):
        return ExternalConstants.from_file(args.constants)
    return ExternalConstants()


def _emit(report: ExperimentReport, args) -> None:
    text = report.to_json(with_timing=getattr(args, "timing", False))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{report.command}.json").write_text(text)
        if args.format == "csv":
            (outdir / f"{report.command}.csv").write_text(report.to_csv())
    if args.format == "csv" and not args.out:
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(text)


def _surface_pipeline(args):
    forms, names = load_forms(args.surface, T4)
    surface = cc.CubicSurface.make(forms[0])
    classification = cc.classify_cubic(surface.f)
    lines = cc.find_lines(surface, args.line_height)
    return surface, classification, lines


def cmd_primes(args):
    x = args.x_max
    th, ps, ph = theta_psi_phi(x)
    rep = mertens_check(x, args.step)
    return {
        "x_max": x,
        "theta": tag(th, "exact"),
        "psi": tag(ps, "exact"),
        "phi": tag(ph, "exact"),
        "mertens": {k: tag(v, "fitted" if "fitted" in k or "sup" in k else "exact")
                    for k, v in rep.items()},
        "bertrand_prime_at_x_max": tag(bertrand_prime(max(2, int(x))), "exact"),
    }


def cmd_hs(args):
    local = q_lower_bound_check(args.d, args.mu, args.m_max)
    local["min_slack"] = tag(local["min_slack"], "exact")
    local["table_head"] = [local_hs(args.d, args.mu, s) for s in range(8)]
    bad = []
    checked = 0
    for d in range(1, 4):
        for delta in range(2, 11):
            for D in range(delta, args.geo_D_max + 1):
                lo, hi, rg = geometric_hs_window(d, delta, D)
                checked += 1
                if not (lo and hi):
                    bad.append((d, delta, D, rg))
    return {"local_check": local,
            "geometric_window": {"checked": checked, "violations": bad, "D_max": args.geo_D_max}}


def _top_part_irreducibility(surface):
    """Absolute irreducibility of the top part f(0, T1, T2, T3), from the
    first of the primes 2, 3, 5, 7 that decides it ("inconclusive" if none)."""
    top = restrict(surface.f.substitute({"T0": 0}), ("T1", "T2", "T3"))
    for p in (2, 3, 5, 7):
        irr = cc.absolutely_irreducible_cubic_mod_p(top, p)
        if irr != "inconclusive":
            return irr
    return "inconclusive"


def cmd_classify(args):
    surface, classification, lines = _surface_pipeline(args)
    return {
        "surface": str(surface.f),
        "classification": classification,
        "lines_found": [{"u": str(l.line.u), "v": str(l.line.v),
                         "plucker": list(l.line.plucker)} for l in lines],
        "top_part_irreducibility": _top_part_irreducibility(surface),
    }


def cmd_cayley(args):
    forms, names = load_forms(args.curve or args.surface)
    if len(forms) == 1 and len(names) == 4:
        psi = cayley_hypersurface(forms[0])
        parts = cayley_degree_parts(psi, 0)
        return {
            "kind": "hypersurface",
            "cayley_form": str(psi),
            "height_H": tag(poly_height(psi).H, "exact"),
            "degree_parts_index0": {str(k): str(v) for k, v in parts.items()},
        }
    if len(forms) != 2:
        raise ConfigError("curve input needs the plane and the curve form")
    ell = min(forms, key=lambda f: f.total_degree())
    Q = max(forms, key=lambda f: f.total_degree())
    psi = cayley_plane_curve(embed(Q, T4), embed(ell, T4))
    audit = height_comparison_audit(psi.poly, 3, 1, psi.degree)
    return {
        "kind": "plane-curve",
        "cayley_form": str(psi),
        "degree": psi.degree,
        "height_H": tag(poly_height(psi.poly).H, "exact"),
        "comparison_window": audit,
    }


def cmd_pencil(args):
    surface, classification, lines = _surface_pipeline(args)
    if classification["non_ruled"] != "certified":
        raise PropertyViolationError(
            "pencil analysis requires a certified non-ruled surface")
    if not lines:
        raise ConfigError("no rational line found at this height bound")
    rline = lines[0]
    pencil = cc.conic_family(surface, rline)
    lead = cc.leading_family(pencil, _top_part_irreducibility(surface))
    img_b = cc.family_image(pencil.b_ij.values())
    img_a = cc.family_image(pencil.a_family)
    pairing = cc.height_pairing_check(pencil, seed=args.seed)
    return {
        "surface": str(surface.f),
        "line": {"u": str(rline.line.u), "v": str(rline.line.v)},
        "family_degree": tag(pencil.family_degree, "exact"),
        "content": str(pencil.b_content),
        "b_ij_nonzero": sum(1 for q in pencil.b_ij.values() if not q.is_zero()),
        "leading_family": lead,
        "image_b": img_b,
        "image_a": img_a,
        "height_pairing": {k: tag(v, "fitted" if k in ("slope", "intercept",
                                                       "fitted_height_exponent",
                                                       "max_abs_residual")
                                  else "exact") for k, v in pairing.items()},
    }


def cmd_census(args):
    surface, classification, lines = _surface_pipeline(args)
    if not lines:
        raise ConfigError("no rational line found at this height bound")
    pencil = cc.conic_family(surface, lines[0])
    B_list = _parse_blist(args.B)
    counts = []
    details = []
    for B in B_list:
        r = cc.conic_census(pencil, B)
        counts.append(r["count"])
        details.append(r)
    return {"B_list": B_list, "counts": counts, "census": details}


def cmd_count(args):
    B_list = _parse_blist(args.B)
    if not B_list:
        raise ConfigError("empty B list")
    Bmax = max(B_list)
    forms, names = load_forms(args.curve or args.surface)
    if args.mode == "affine":
        names = tuple(n for n in names if n != "T0") or names
        res = enumerate_affine(forms, names, Bmax, budget=args.budget)
        counts = [sum(1 for p in res.points
                      if sum(c * c for c in p) <= B * B) for B in B_list]
    else:
        res = enumerate_projective(forms, names, Bmax, budget=args.budget)
        counts = [sum(1 for p in res.points
                      if max(abs(c) for c in p) <= B) for B in B_list]
    out = {"B_list": B_list, "counts": counts,
           "mode": args.mode, "total_points": res.count}
    if args.points:
        out["points"] = [list(p) for p in res.points]
    return out


def cmd_aux(args):
    forms, names = load_forms(args.curve)
    constants = _constants(args)
    B_list = _parse_blist(args.B)
    runs = [minimal_omega(forms, names, B, constants=constants,
                          enum_budget=args.budget) for B in B_list]
    return {"B_list": B_list, "omegas": [r["omega"] for r in runs], "runs": runs}


def cmd_verify(args):
    surface, classification, lines = _surface_pipeline(args)
    constants = _constants(args)
    B_list = _parse_blist(args.B)
    out = {"classification": classification}
    if classification["non_ruled"] != "certified":
        raise PropertyViolationError("verification requires a non-ruled certificate")
    rational = points_on_conics_experiment(surface, lines, B_list,
                                           constants=constants, budget=args.budget)
    out["rational_experiment"] = {
        **rational,
        "fitted_exponent": tag(rational["fitted_exponent"], "fitted"),
        "overlay_exponent": tag(rational["overlay_exponent"], "paper-overlay"),
        "overlay_bounds": [tag(b, "paper-overlay") for b in rational["overlay_bounds"]],
    }
    if not all(rational["bound_satisfied"]):
        raise PropertyViolationError("a count exceeded its stated overlay bound")
    if args.affine:
        aff = restrict(surface.f.substitute({"T0": 1}), ("T1", "T2", "T3"))
        integral = integral_conics_experiment(aff, B_list, lines=lines,
                                              constants=constants,
                                              budget=args.budget)
        out["integral_experiment"] = {
            **integral,
            "fitted_exponent": tag(integral["fitted_exponent"], "fitted"),
            "overlay_exponent": tag(integral["overlay_exponent"], "paper-overlay"),
        }
        if not all(integral["trivial_bound_ok"]):
            raise PropertyViolationError("trivial affine bound violated")
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cubiconics",
        description="exact heights, Cayley forms, conic pencils and point "
                    "counts on cubic surfaces")
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--out", help="directory for report files")
    parent.add_argument("--format", choices=("json", "csv"), default="json")
    parent.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (exact results unaffected)")
    parent.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; execution is "
                             "deterministic and vectorized")
    parent.add_argument("--timing", action="store_true",
                        help="include wall time in the JSON report (breaks "
                             "byte-reproducibility)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, surface=False, curve=False, B=None):
        if surface:
            p.add_argument("--surface", required=True)
            p.add_argument("--line-height", type=int, default=2)
        if curve:
            p.add_argument("--curve")
        if B:
            p.add_argument("--B", required=True, help="comma-separated bounds")
        p.add_argument("--budget", type=float, default=None)
        p.add_argument("--constants", help="key=value file of external constants")

    p = sub.add_parser("primes", parents=[parent], help="prime-distribution functions")
    p.add_argument("--x-max", type=float, default=1e4)
    p.add_argument("--step", type=float, default=10.0)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("hs", parents=[parent], help="Hilbert-Samuel tables and bound checks")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--mu", type=int, default=1)
    p.add_argument("--m-max", type=int, default=10000)
    p.add_argument("--geo-D-max", type=int, default=200)
    p.set_defaults(func=cmd_hs)

    p = sub.add_parser("classify", parents=[parent], help="cubic surface structure report")
    common(p, surface=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cayley", parents=[parent], help="Cayley forms of curves/hypersurfaces")
    common(p, curve=True)
    p.add_argument("--surface")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("pencil", parents=[parent], help="conic pencil family analysis")
    common(p, surface=True)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("census", parents=[parent], help="bounded-height census of pencil members")
    common(p, surface=True, B=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("count", parents=[parent], help="point enumeration")
    common(p, curve=True, B=True)
    p.add_argument("--surface")
    p.add_argument("--mode", choices=("projective", "affine"), default="projective")
    p.add_argument("--points", action="store_true", help="include point lists")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("aux", parents=[parent], help="minimal auxiliary-form degree search")
    common(p, curve=True, B=True)
    p.set_defaults(func=cmd_aux)

    p = sub.add_parser("verify", parents=[parent], help="end-to-end conic-count experiments")
    common(p, surface=True, B=True)
    p.add_argument("--affine", action="store_true",
                   help="also run the integral-point experiment")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        results = args.func(args)
    except PropertyViolationError as exc:
        sys.stderr.write(f"property violation: {exc}\n")
        return 1
    except (AssertionError, NonDivisibleError, MacaulayDegenerateError) as exc:
        sys.stderr.write(f"internal check failed: {type(exc).__name__}: {exc}\n")
        return 4
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 3
    config = {k: v for k, v in vars(args).items()
              if k not in ("func",) and v is not None}
    inputs = {k: config.get(k) for k in ("surface", "curve", "B") if config.get(k)}
    report = ExperimentReport(args.command, inputs, config, results,
                              timing_s=round(time.perf_counter() - t0, 3))
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
