"""Command-line front end.

Structured JSON goes to stdout (deterministic for fixed flags and seed, apart
from wall_time fields); short human-readable summaries go to stderr.  Exit
codes:

  0  success
  2  flag parsing / validation (argparse)
  3  I/O error (missing or unreadable file)
  4  graph file parse error
  5  domain precondition violated
  6  verification failed (witness found or bound violated)
  7  budget exceeded: a walk length above 20 (nbops --max-len, nbcount
     --len, boundcheck lemma8 2*--ell, lemma9 --ell-max), poly --n above
     500, neighbour-table padding, the gadget search's nodes or the qhat
     scan's q limit

Pipeline stage failures use distinct codes: 10 spectral certification,
11 gadget verification, 12 product construction, 13 unique-neighbour audit.

Result payloads are the reports' to_dict() (expanderlab.report): every field
by name, Fractions as "p/q" strings.  Each value has one flag: --seed,
--budget, --precision and --tolerance go before the subcommand (commands
that do not use them ignore them: --precision is read by qhat and boundcheck
lemma6, --budget by gadget verify and pipeline, --tolerance by spectrum,
incidence, pipeline and boundcheck lemma8, --seed by gadget sample, pipeline
and boundcheck lemma6), and after it a subcommand accepts only the flags it
reads; any other exits 2.  Numeric flags are
range-checked while parsing, so a value outside the range exits 2 with
nothing on stdout: pipeline --k, --retries, --audit-trials, qhat --margin
and boundcheck --samples, --ell, --ell-max take integers >= 1; --seed,
--budget, gadget verify --k, nbops --max-len, nbcount --len and poly --n
integers >= 0; nbcount and boundcheck lemma8 --set comma-separated integers
>= 0 (or none); --precision an integer >= 15; --tolerance a finite number
> 0; constants and bounds --eps a finite number >= 0; boundcheck lemma6,
constants and bounds --c and --d integers with 2 <= c < d, and poly with
2 <= c <= d; gadget sample --L, --R, --c, --d and each of the four values of
pipeline --gadget-params L,R,c,d integers >= 1 (L > R and Lc = Rd stay
preconditions, exit 5); qhat --c0 an integer >= 6; and qhat and pipeline
--alpha a rational number > 0 (an integer, a decimal or p/q).

nbcount counts the non-backtracking paths of --len from the left set --set
whose last left vertex (--mode endpoints-in-S, the default) or every left
vertex (--mode all-in-S) lies in the set, and prints {set, len, mode, count}.

incidence prints {identity, spectrum, n_left, n_right}.  identity is {d,
mismatched_entries, ok}: the entries where B^T B differs from d I + A, counted
in exact integers, and whether there are none; it leaves the exit code alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from expanderlab import bigraph, gadget, nbwalk, params, product, spectral

EXIT_OK = 0
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_PRECONDITION = 5
EXIT_VERIFICATION = 6
EXIT_BUDGET = 7
EXIT_STAGE_SPECTRAL = 10
EXIT_STAGE_GADGET = 11
EXIT_STAGE_PRODUCT = 12
EXIT_STAGE_AUDIT = 13

# Fewest decimal digits --precision accepts.  params screens in float64
# with mpmath constants converted at the working precision; 15
# digits are mpmath's 53 bits, float64's own, so no constant reaches the
# screen coarser than the screen's arithmetic.  At 0 to 4 digits q_hat is
# wrong on every published table row (4642 for (35, 2), where it is 1492).
PRECISION_FLOOR = 15


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


def _parse_vertex_set(text: str) -> bigraph.VertexSet:
    """Flag type for a left vertex set: comma-separated integers >= 0, or none."""
    members = [t for t in text.split(",") if t != ""]
    if not all(t.isdecimal() for t in members):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 0, got {text!r}")
    return bigraph.VertexSet.left(int(t) for t in members)


def _parse_gadget_params(text: str) -> tuple[int, int, int, int]:
    """Flag type for L,R,c,d: four comma-separated integers >= 1."""
    values = text.split(",")
    if len(values) != 4 or not all(t.isdecimal() and int(t) >= 1 for t in values):
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers L,R,c,d >= 1, got {text!r}")
    L, R, c, d = map(int, values)
    return L, R, c, d


def _int_at_least(low: int):
    """Flag type for a decimal integer >= low."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _finite_at_least(low: float, strict: bool = False):
    """Flag type for a finite number > low (strict) or >= low."""
    bound = f"{'>' if strict else '>='} {low:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")
        return value
    return parse


_parse_tolerance = _finite_at_least(0, strict=True)


def _parse_alpha(text: str) -> Fraction:
    """Flag type for a rational number > 0: an integer, a decimal or p/q."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = Fraction(0)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a rational number > 0 (an integer, a decimal or p/q), got {text!r}")
    return value


def cmd_spectrum(args) -> int:
    g = bigraph.read_graph(args.infile)
    report = spectral.spectrum(g, tolerance=args.tolerance)
    _emit(report.to_dict(), f"ramanujan={report.ramanujan} trivial={report.trivial_multiplicity}")
    return EXIT_OK


def cmd_incidence(args) -> int:
    g = spectral.read_regular_graph(args.infile)
    inc = spectral.incidence_graph(g)
    # spectrum first: its size and connectivity checks refuse a graph before
    # the identity check builds its two n x n matrices
    report = spectral.spectrum(inc, tolerance=args.tolerance)
    identity = spectral.incidence_identity_check(g)
    if args.out:
        bigraph.write_graph(inc, args.out)
    _emit(
        {"identity": identity.to_dict(), "spectrum": report.to_dict(),
         "n_left": inc.n_left, "n_right": inc.n_right},
        f"incidence ({inc.n_left}+{inc.n_right}) ramanujan={report.ramanujan} "
        f"identity={identity.ok}",
    )
    return EXIT_OK


def cmd_nbops(args) -> int:
    g = bigraph.read_graph(args.infile)
    ops = nbwalk.build_nb_operators(g, args.max_len)
    dump = {
        f"{kind}_{l}": ops.operator(kind, l).tolist()
        for kind in ("LL", "LR", "RL", "RR")
        for l in range(ops.max_len + 1)
    }
    _emit({"c": ops.c, "d": ops.d, "max_len": ops.max_len, "operators": dump},
          f"built operators up to length {ops.max_len}")
    return EXIT_OK


def cmd_nbcount(args) -> int:
    g = bigraph.read_graph(args.infile)
    count = nbwalk.count_nb_paths(g, args.set, args.length, mode=args.mode)
    _emit({"set": list(args.set.members), "len": args.length, "mode": args.mode,
           "count": count},
          f"count={count}")
    return EXIT_OK


def cmd_poly(args) -> int:
    p = nbwalk.p_polynomial(args.c, args.d, args.n)
    _emit(
        {"c": args.c, "d": args.d, "n": args.n,
         "coefficients": [str(c) for c in p.coefficients]},
        f"p_{args.n} degree {p.degree}",
    )
    return EXIT_OK


def cmd_lemma6(args) -> int:
    report = nbwalk.lemma6_sweep(args.c, args.d, args.ell, samples=args.samples, seed=args.seed,
                                 precision=args.precision)
    entry = report.entries[-1]
    _emit(dataclasses.replace(report, entries=(entry,)).to_dict(),
          f"lemma6 ell={args.ell} asserted={entry.asserted} "
          f"violations={entry.violations} worst={entry.worst_ratio:.4f}")
    return EXIT_VERIFICATION if entry.asserted and entry.violations else EXIT_OK


def cmd_lemma8(args) -> int:
    g = bigraph.read_graph(args.infile)
    report = nbwalk.lemma8_upper_check(g, args.set, args.ell, tolerance=args.tolerance)
    _emit(report.to_dict(), f"lemma8 lhs={report.lhs} rhs={report.rhs:.4f} ok={report.ok}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_lemma9(args) -> int:
    g = bigraph.read_graph(args.infile)
    report = nbwalk.lemma9_lower_check(g, ell_max=args.ell_max)
    _emit(report.to_dict(), f"lemma9 ok={report.ok}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_gadget_sample(args) -> int:
    p = gadget.GadgetParams(L=args.L, R=args.R, c=args.c, d=args.d, seed=args.seed)
    g = gadget.sample_biregular(p.L, p.R, p.c, p.d, p.seed)
    bigraph.write_graph(g, args.out)
    _emit({"params": p.to_dict(), "out": str(args.out), "edges": len(g.edges)},
          f"sampled ({args.c},{args.d})-biregular gadget with {len(g.edges)} edges")
    return EXIT_OK


def cmd_gadget_verify(args) -> int:
    g = bigraph.read_graph(args.infile)
    t0 = time.perf_counter()
    cert = gadget.verify_unique_neighbour_upto(g, args.k, budget=args.budget)
    payload = cert.to_dict()
    payload["params"] = {"n_left": g.n_left, "n_right": g.n_right}
    payload["wall_time"] = time.perf_counter() - t0
    _emit(payload, f"verified_k={cert.verified_k} witness={cert.witness}")
    if cert.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK if cert.verified_k == cert.target_k else EXIT_VERIFICATION


def cmd_product(args) -> int:
    big = bigraph.read_graph(args.big)
    small = bigraph.read_graph(args.gadget)
    rp = product.routed_product(big, small)
    bigraph.write_graph(rp.product, args.out)
    if args.export_pcm:
        product.export_parity_check(rp.product, args.export_pcm)
    _emit(
        {"left": rp.product.n_left, "right": rp.product.n_right,
         "edges": len(rp.product.edges),
         "left_degree": rp.c * rp.c0, "right_degree": rp.d0, "out": str(args.out)},
        f"product ({rp.c * rp.c0},{rp.d0})-biregular on "
        f"{rp.product.n_left}+{rp.product.n_right}",
    )
    return EXIT_OK


def cmd_qhat(args) -> int:
    report = params.qhat(args.c0, args.alpha, scan_margin=args.margin,
                         precision=args.precision)
    _emit(report.to_dict(), f"q_hat({args.c0}, {args.alpha}) = {report.q_hat}")
    return EXIT_OK


def cmd_constants(args) -> int:
    consts = params.theorem2_constants(args.c, args.d, args.eps)
    _emit(consts.to_dict(), f"ell={consts.ell} delta={consts.delta:.3e}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    t2 = params.theorem2_bound(args.c, args.d, args.eps)
    eml, eml_delta = params.eml_bound(args.c, args.d, args.eps)
    payload = {"c": args.c, "d": args.d, "eps": args.eps,
               "walk_bound": t2, "eml_bound": eml, "eml_delta": eml_delta,
               "dominance": t2 < eml}
    _emit(payload, f"walk={t2:.4f} < eml={eml:.4f}: {t2 < eml}")
    return EXIT_OK


def _pipeline_stop(stages: list[dict], stage: dict, summary: str, code: int) -> int:
    """Append the last stage run, print the payload and return the exit code."""
    stages.append(stage)
    _emit({"stages": stages, "passed": all(s["ok"] for s in stages)}, summary)
    return code


def cmd_pipeline(args) -> int:
    stages: list[dict] = []

    big = bigraph.read_graph(args.big)
    report = spectral.spectrum(big, tolerance=args.tolerance)
    spectral_stage = {"stage": "spectral", "ok": report.ramanujan, "report": report.to_dict()}
    if not report.ramanujan:
        return _pipeline_stop(stages, spectral_stage, "pipeline: spectral certification failed",
                              EXIT_STAGE_SPECTRAL)
    stages.append(spectral_stage)
    c, d = report.c, report.d

    # (seed, gadget) candidates: the loaded gadget, or one draw per retry
    # seed, each checked and sampled only once the one before it has failed
    if args.gadget:
        small = bigraph.read_graph(args.gadget)
        gadget_left, candidates = small.n_left, [(None, small)]
    else:
        gadget_left, R0, c0, d0 = args.gadget_params
        draws = (gadget.GadgetParams(L=gadget_left, R=R0, c=c0, d=d0, seed=args.seed + retry)
                 for retry in range(args.retries))
        candidates = ((p.seed, gadget.sample_biregular(p.L, p.R, p.c, p.d, p.seed))
                      for p in draws)
    if gadget_left != d:
        return _pipeline_stop(
            stages, {"stage": "gadget", "ok": False,
                     "reason": f"port-count mismatch: gadget left {gadget_left} != d {d}"},
            "pipeline: gadget port mismatch", EXIT_STAGE_PRODUCT)
    attempts = []
    for seed, small in candidates:
        cert = gadget.verify_unique_neighbour_upto(small, args.k, budget=args.budget)
        attempts.append(cert.to_dict() if seed is None else {"seed": seed, **cert.to_dict()})
        if cert.verified_k >= args.k:
            break
    gadget_stage = {"stage": "gadget", "ok": cert.verified_k >= args.k, "required_k": args.k,
                    "attempts": attempts}
    if not gadget_stage["ok"]:
        return _pipeline_stop(stages, gadget_stage, f"pipeline: no gadget verified to k={args.k}",
                              EXIT_STAGE_GADGET)
    stages.append(gadget_stage)

    alpha = args.alpha
    if alpha is not None:
        expected_r0 = Fraction(d, 1) / (alpha * c)
        if expected_r0 != small.n_right:
            reason = f"gadget right side {small.n_right} != d/(alpha c) = {expected_r0}"
            return _pipeline_stop(stages, {"stage": "product", "ok": False, "reason": reason},
                                  "pipeline: alpha inconsistent with gadget size",
                                  EXIT_STAGE_PRODUCT)
    else:
        alpha = Fraction(d, 1) / (c * small.n_right)

    rp = product.routed_product(big, small)
    if args.out:
        bigraph.write_graph(rp.product, args.out)
    stages.append({"stage": "product", "ok": True, "alpha": str(alpha),
                   "left": rp.product.n_left, "right": rp.product.n_right,
                   "edges": len(rp.product.edges)})

    rng = np.random.Generator(np.random.Philox(args.seed))
    audit = product.audit(rp, cert.verified_k, args.audit_trials, rng)
    audit_ok = audit["failures"] == 0 and audit["conclusive"] > 0
    return _pipeline_stop(stages, {"stage": "audit", "ok": audit_ok, **audit},
                          f"pipeline: {'PASS' if audit_ok else 'FAIL'} "
                          f"(audit {audit['conclusive']}/{audit['trials']} conclusive)",
                          EXIT_OK if audit_ok else EXIT_STAGE_AUDIT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderlab",
        description="Build and verify bipartite unique-neighbour expanders at desk scale.",
    )
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="RNG seed (Philox 4x64), an integer >= 0")
    parser.add_argument("--precision", type=_int_at_least(PRECISION_FLOOR),
                        default=params.DEFAULT_PRECISION,
                        help=f"working precision in decimal digits, an integer >= {PRECISION_FLOOR} "
                             f"(default {params.DEFAULT_PRECISION})")
    parser.add_argument("--budget", type=_int_at_least(0),
                        default=gadget.DEFAULT_NODE_BUDGET,
                        help="search nodes a gadget verification may visit (an integer >= 0)")
    parser.add_argument("--tolerance", type=_parse_tolerance,
                        default=spectral.DEFAULT_TOLERANCE,
                        help="spectral classification tolerance (a finite number > 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="singular spectrum + Ramanujan verdict")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("incidence", help="edge-vertex incidence graph of a regular graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("nbops", help="non-backtracking path operators")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-len", dest="max_len", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_nbops)

    p = sub.add_parser("nbcount", help="count non-backtracking paths")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--set", type=_parse_vertex_set, required=True,
                   help="comma-separated left vertices")
    p.add_argument("--len", dest="length", type=_int_at_least(0), required=True)
    p.add_argument("--mode", choices=[nbwalk.ENDPOINTS_IN_S, nbwalk.ALL_IN_S],
                   default=nbwalk.ENDPOINTS_IN_S)
    p.set_defaults(func=cmd_nbcount)

    p = sub.add_parser("poly", help="path-count polynomial p_n")
    p.add_argument("--c", type=_int_at_least(2), required=True)
    p.add_argument("--d", type=_int_at_least(2), required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("boundcheck", help="numeric checks of the path-count bounds")
    bsub = p.add_subparsers(dest="kind", required=True)
    pb = bsub.add_parser("lemma6", help="band bound |p_ell| on sampled lambda")
    pb.add_argument("--c", type=int, required=True)
    pb.add_argument("--d", type=int, required=True)
    pb.add_argument("--ell", type=_int_at_least(1), required=True)
    pb.add_argument("--samples", type=_int_at_least(1), default=10_000)
    pb.set_defaults(func=cmd_lemma6)
    pb = bsub.add_parser("lemma8", help="upper bound on one set's path count")
    pb.add_argument("--in", dest="infile", required=True)
    pb.add_argument("--set", type=_parse_vertex_set, required=True,
                    help="comma-separated left vertices")
    pb.add_argument("--ell", type=_int_at_least(1), required=True)
    pb.set_defaults(func=cmd_lemma8)
    pb = bsub.add_parser("lemma9", help="lower bound on the whole graph's path counts")
    pb.add_argument("--in", dest="infile", required=True)
    pb.add_argument("--ell-max", dest="ell_max", type=_int_at_least(1), default=8)
    pb.set_defaults(func=cmd_lemma9)

    p = sub.add_parser("gadget", help="sample / verify unique-neighbour gadgets")
    gsub = p.add_subparsers(dest="gadget_command", required=True)
    ps = gsub.add_parser("sample")
    ps.add_argument("--L", type=_int_at_least(1), required=True)
    ps.add_argument("--R", type=_int_at_least(1), required=True)
    ps.add_argument("--c", type=_int_at_least(1), required=True)
    ps.add_argument("--d", type=_int_at_least(1), required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_gadget_sample)
    pv = gsub.add_parser("verify")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--k", type=_int_at_least(0), required=True)
    pv.set_defaults(func=cmd_gadget_verify)

    p = sub.add_parser("product", help="routed product of big graph and gadget")
    p.add_argument("--big", required=True)
    p.add_argument("--gadget", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--export-pcm", dest="export_pcm", default=None)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("qhat", help="threshold q_hat(c0, alpha)")
    p.add_argument("--c0", type=_int_at_least(6), required=True)
    p.add_argument("--alpha", type=_parse_alpha, required=True)
    p.add_argument("--margin", type=_int_at_least(1), default=params.DEFAULT_SCAN_MARGIN)
    p.set_defaults(func=cmd_qhat)

    p = sub.add_parser("constants", help="walk length and delta for given (c, d, eps)")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=_finite_at_least(0), required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bounds", help="walk-based vs expander-mixing average degree bounds")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=_finite_at_least(0), required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pipeline", help="certify -> verify gadget -> product -> audit")
    p.add_argument("--big", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gadget", help="gadget graph file")
    source.add_argument("--gadget-params", dest="gadget_params", type=_parse_gadget_params,
                        help="L,R,c,d to sample a gadget instead of loading one")
    p.add_argument("--alpha", type=_parse_alpha, default=None,
                   help="declared imbalance, a rational number > 0 (checked against gadget)")
    p.add_argument("--k", type=_int_at_least(1), default=1,
                   help="required verified unique-neighbour size (a positive integer)")
    p.add_argument("--retries", type=_int_at_least(1), default=16,
                   help="seeds to try when sampling (a positive integer)")
    p.add_argument("--audit-trials", dest="audit_trials", type=_int_at_least(1), default=50,
                   help="random left sets to audit (a positive integer)")
    p.add_argument("--out", default=None, help="write the product graph here")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func in (cmd_lemma6, cmd_constants, cmd_bounds, cmd_poly):
        equal_ok = args.func is cmd_poly  # p_n allows c = d; the band bounds do not
        if not (2 <= args.c < args.d or equal_ok and 2 <= args.c == args.d):
            parser.error(f"--c and --d need 2 <= c {'<=' if equal_ok else '<'} d, "
                         f"got c={args.c}, d={args.d}")
    try:
        return args.func(args)
    except bigraph.GraphFormatError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, f"parse error: {exc}")
        return EXIT_PARSE
    except FileNotFoundError as exc:
        _emit({"error": {"type": "FileNotFoundError", "message": str(exc)}}, f"I/O error: {exc}")
        return EXIT_IO
    except OSError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, f"I/O error: {exc}")
        return EXIT_IO
    except nbwalk.EnumerationBudgetError as exc:
        _emit({"error": {"type": "EnumerationBudgetError", "message": str(exc)}},
              f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ValueError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              f"precondition violated: {exc}")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
