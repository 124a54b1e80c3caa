"""Batch command-line surface: polynomial expansion, identity sweeps, LPP
simulation vs exact laws, and Yang-Baxter checks.

Exit codes: 0 all pass, 1 verification failure, 2 usage error.  All numeric
inputs are exact rationals in "p/q" syntax; JSON output is canonical and
byte-identical for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .polynomial import X, Z, as_poly, int_text
from .shapes import parse_partition, part, subpartitions
from . import symfunc
from . import vertex
from . import lpp as lpp_mod

SCHEMA = "grothlab/1"


def _fail_usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _parse_rational_list(text):
    try:
        return [Fraction(tok) for tok in text.split(",") if tok]
    except (ValueError, ZeroDivisionError) as exc:
        _fail_usage(f"bad rational list {text!r}: {exc}")


def _emit(payload, fmt):
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, val in payload.items():
            if key == "schema":
                continue
            print(f"{key}: {val}")


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def cmd_expand(args):
    try:
        shape = parse_partition(args.shape)
    except ValueError as exc:
        _fail_usage(exc)
    n = args.n
    if n < 0:
        _fail_usage(f"--n must be nonnegative, got {n}")
    if args.kind == "g":
        route = args.route or "jt_h"
        if route not in symfunc.G_ROUTES:
            _fail_usage(f"unknown g route {route!r}")
        poly = symfunc.dual_grothendieck(shape, n, route=route)
        label = f"g_{{{args.shape}}}"
    elif args.kind == "G":
        route = args.route or "schur_expansion"
        if route == "schur":
            # render as a Schur expansion with t-polynomial coefficients
            lines = []
            for mu in subpartitions((part(shape, 1),) * n, shape):
                c = symfunc.E_coeff(shape, mu, negate=True)
                if not c.is_zero():
                    lines.append({"mu": list(mu), "coeff": c.to_json_obj()})
            _emit({"kind": "G_schur_expansion", "shape": list(shape), "n": n,
                   "terms": lines}, args.format)
            return 0
        if route not in symfunc.GROTH_ROUTES:
            _fail_usage(f"unknown G route {route!r}")
        poly = symfunc.grothendieck(shape, n, route=route)
        label = f"G_{{{args.shape}}}"
    elif args.kind == "s":
        poly = symfunc.schur(shape, [X(i) for i in range(1, n + 1)])
        label = f"s_{{{args.shape}}}"
    else:
        _fail_usage(f"unknown polynomial kind {args.kind!r}")
    if args.format == "json":
        _emit({"kind": args.kind, "shape": list(shape), "n": n,
               "route": args.route, "polynomial": poly.to_json_obj()}, "json")
    else:
        print(f"{label} = {poly}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _box_arg(text):
    try:
        a, b = text.lower().split("x")
        box = int(a), int(b)
    except ValueError:
        _fail_usage(f"bad box spec {text!r}; expected like 3x3")
    if min(box) < 0:
        _fail_usage(f"bad box spec {text!r}; sides must be nonnegative")
    return box


def _specs(args):
    """The (identity, params) cases that ``verify`` runs for its arguments."""
    name = args.identity
    for flag in ("n", "m", "l", "k", "degree_cap"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            _fail_usage(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
    box = _box_arg(args.box) if args.box else (3, 3)
    in_box = subpartitions((box[1],) * box[0])
    shapes = [la for la in in_box if la]
    n = 2 if args.n is None else args.n
    m = 3 if args.m is None else args.m
    l = 2 if args.l is None else args.l

    if name == "all":
        return [
            ("cauchy", dict(m=3, l=2, n=2)),
            ("littlewood", dict(m=4, l=3, n=2)),
            ("coincidence", dict(m=3, l=3, n=2)),
            ("finite_cauchy_schur", dict(m=2, l=2, n=2)),
            ("cauchy_littlewood_box", dict(m=3, l=2, n=2)),
            ("bounded_cauchy_littlewood", dict(l=2, n=2, degree_cap=8)),
            ("fnr_dual", dict(la=(2, 2, 1), n=3)),
            ("fnr_G", dict(la=(1,), m=4, k=2, n=4)),
            *((ident, dict(la=la, n=n)) for la in shapes
              for ident in ("branching", "symmetry")),
            *(("generalized_coincidence", dict(nu=nu, m=3, n=n)) for nu in shapes),
            *(("ybe", dict(model=fam)) for fam in vertex.BUNDLED_FAMILIES),
        ]
    if name in ("cauchy", "littlewood", "coincidence", "finite_cauchy_schur",
                "cauchy_littlewood_box"):
        return [(name, dict(m=m, l=l, n=n))]
    if name == "bounded_cauchy_littlewood":
        return [(name, dict(l=l, n=n, degree_cap=args.degree_cap))]
    if name in ("symmetry", "branching", "routes"):
        return [(name, dict(la=la, n=n)) for la in shapes]
    if name == "generalized_coincidence":
        return [(name, dict(nu=nu, m=m, n=n)) for nu in shapes]
    if name == "duality":
        return [(name, dict(la=la, mu=mu, box=box)) for la in in_box for mu in in_box]
    if name == "fnr_dual":
        return [(name, dict(la=parse_partition(args.shape or "2,2,1"), n=n))]
    if name == "fnr_G":
        return [(name, dict(la=parse_partition(args.shape or "1"), m=m, k=args.k, n=n))]
    if name == "ybe":
        model = args.model or "nilp"
        if model not in vertex.BUNDLED_FAMILIES:
            _fail_usage(f"unknown model {model!r}")
        return [(name, dict(model=model))]
    _fail_usage(f"unknown identity {name!r}")


def _label(identity, params):
    return " ".join([identity, *(f"{k}={v}" for k, v in params.items())])


def _run_case(identity, params):
    if identity == "ybe":
        lfac, rfac = vertex.BUNDLED_FAMILIES[params["model"]]
        return vertex.check_ybe(lfac(), rfac()).ok
    if identity == "routes":
        return _routes_agree(**params)
    return symfunc.verify_identity(identity, **params).holds


def _routes_agree(la, n):
    base = symfunc.dual_grothendieck(la, n, route="rpp")
    if any(symfunc.dual_grothendieck(la, n, route=r) != base
           for r in symfunc.G_ROUTES[1:]):
        return False
    gbase = symfunc.grothendieck(la, n, route="svt")
    return all(symfunc.grothendieck(la, n, route=r) == gbase
               for r in symfunc.GROTH_ROUTES[1:])


def cmd_verify(args):
    specs = _specs(args)
    if not specs:
        _fail_usage(f"no cases to run for {args.identity!r} with these arguments")
    results = [(_label(*spec), bool(_run_case(*spec))) for spec in specs]
    failures = [name for name, ok in results if not ok]
    if args.format == "json":
        _emit({"command": "verify", "identity": args.identity,
               "cases": [{"name": n, "pass": ok} for n, ok in results],
               "failures": len(failures)}, "json")
    else:
        for name, ok in results:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        print(f"{len(results) - len(failures)}/{len(results)} passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# lpp
# ---------------------------------------------------------------------------


def cmd_lpp(args):
    try:
        shape = parse_partition(args.shape)
        t_vals = _parse_rational_list(args.t)
        x_vals = _parse_rational_list(args.x)
        params = lpp_mod.GeomParams(tuple(t_vals), tuple(x_vals))
    except ValueError as exc:
        _fail_usage(exc)
    payload = {"command": f"lpp {args.mode}", "shape": list(shape),
               "t": [str(v) for v in params.t], "x": [str(v) for v in params.x]}
    exact = lpp_mod.exact_prob(shape, params)
    payload["exact"] = f"{int_text(exact.numerator)}/{int_text(exact.denominator)}"
    ok = True
    if args.mode == "exact":
        if args.bruteforce:
            bf = lpp_mod.exact_prob_bruteforce(shape, params)
            payload["bruteforce"] = f"{int_text(bf.numerator)}/{int_text(bf.denominator)}"
            ok = bf == exact
    elif args.mode == "mc":
        try:
            res = lpp_mod.monte_carlo(shape, params, args.trials, args.seed)
        except RuntimeError as exc:  # a parameter too close to 1
            _fail_usage(exc)
        payload.update({
            "mc_estimate": res.estimate,
            "std_error": res.std_error,
            "trials": res.trials,
            "seed": args.seed,
        })
        if res.std_error > 0:
            sigma = abs(res.estimate - float(exact)) / res.std_error
            payload["sigma_distance"] = sigma
            ok = sigma <= 4.0
    _emit(payload, args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# ybe
# ---------------------------------------------------------------------------


def cmd_ybe(args):
    model = args.model
    if model not in vertex.BUNDLED_FAMILIES:
        _fail_usage(f"unknown model {model!r}; choose from "
                    f"{sorted(vertex.BUNDLED_FAMILIES)}")
    lfac, rfac = vertex.BUNDLED_FAMILIES[model]
    L, R = lfac(), rfac()
    if args.perturb:
        bits = args.perturb.split(",")
        if len(bits) != 4 or any(b not in ("0", "1") for b in bits):
            _fail_usage(f"--perturb needs 4 comma-separated bits, got {args.perturb!r}")
        key = tuple(int(b) for b in bits)
        L = L.perturbed(key, as_poly(Z(1)) + 1)
    rep = vertex.check_ybe(L, R)
    if args.format == "json":
        _emit({"command": "ybe", "model": model, "pass": rep.ok,
               "failures": [{"boundary": list(b), "lhs": str(l), "rhs": str(r)}
                            for b, l, r in rep.failures[:8]]}, "json")
    else:
        if args.per_boundary:
            failing = {b for b, _, _ in rep.failures}
            for code in range(64):
                b = tuple(code >> k & 1 for k in range(6))
                print(f"[{'FAIL' if b in failing else 'PASS'}] boundary {b}")
        print(f"[{'PASS' if rep.ok else 'FAIL'}] ybe {model}")
        for b, l, r in rep.failures[:8]:
            print(f"  boundary {b}: {l} != {r}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(prog="grothlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print a polynomial via a chosen route")
    p.add_argument("kind", choices=["g", "G", "s"])
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--route", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("verify", help="run identity verifications")
    p.add_argument("identity")
    p.add_argument("--box", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--shape", default=None)
    p.add_argument("--degree-cap", type=int, default=8)
    p.add_argument("--model", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lpp", help="exact vs simulated last-passage laws")
    p.add_argument("mode", choices=["exact", "mc"])
    p.add_argument("--shape", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--bruteforce", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(fn=cmd_lpp)

    p = sub.add_parser("ybe", help="check the RLL equation for a bundled model")
    p.add_argument("--model", default="nilp")
    p.add_argument("--perturb", default=None,
                   help="aux_in,q_in,q_out,aux_out key to overwrite with z+1")
    p.add_argument("--per-boundary", action="store_true",
                   help="print one pass/fail line per boundary labeling")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_ybe)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except ValueError as exc:
        _fail_usage(exc)


if __name__ == "__main__":
    raise SystemExit(main())
