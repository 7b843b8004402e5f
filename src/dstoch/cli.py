"""Command-line surface.  One verb per library operation; JSON to stdout
(CSV for the boundary table with --csv), exact rationals rendered as
"p/q" strings.

Exit codes: 0 success, 1 domain error (e.g. the input is not doubly
stochastic), 2 usage or parse error.
"""

import argparse
import functools
import json
import math
import sys

from .ratmat import (DomainError, OrderTooLarge, ParseError, make_jn, make_tn,
                     matrix_payload, parse_integer, parse_rational, read_matrix,
                     validate_ds)

CANONICAL_CAP = 512  # largest order of `canonical --name Tn:<n>` / `Jn:<n>`


def _emit(payload):
    print(json.dumps(payload, separators=(",", ":")))


# ── subcommand handlers ───────────────────────────────────────────────────
# Each handler imports the module it calls, so a `ds` process loads only
# the modules of its verb; ratmat stays at the top for main's error types.

def cmd_check(args):
    m = validate_ds(read_matrix(args.matrix))
    _emit({"n": m.n, "doubly_stochastic": True})


def cmd_gap(args):
    from . import diagsum
    report = diagsum.marcus_ree_gap(validate_ds(read_matrix(args.matrix)))
    _emit({"frob_sq": str(report.frob_sq), "max_trace": str(report.max_trace),
           "gap": str(report.gap), "saturated": report.saturated})


def cmd_maxtrace(args):
    from . import diagsum
    m = read_matrix(args.matrix)
    if args.method == "brute":
        report = diagsum.max_trace_brute(m)
    else:
        report = diagsum.max_trace_assignment(m)
    _emit({"max_trace": str(report.max_value),
           "argmax": list(report.argmax), "method": report.method})


def cmd_permanent(args):
    from . import diagsum
    _emit({"permanent": str(diagsum.permanent(read_matrix(args.matrix)))})


def cmd_maxprod(args):
    from . import diagsum
    value, perm = diagsum.max_diag_product(read_matrix(args.matrix))
    _emit({"max_product": str(value), "argmax": list(perm)})


def cmd_classify(args):
    from . import diagsum
    m = validate_ds(read_matrix(args.matrix))
    if m.n == 2:  # Marcus-Ree: saturated iff a11 is 0, 1/2 or 1
        _emit({"saturated": diagsum.marcus_ree_gap(m).saturated})
        return
    if m.n != 3:
        raise DomainError(f"classify supports orders 2 and 3, got {m.n}")
    from . import saturation  # after the order checks: order 2 needs only diagsum
    c = saturation.classify3(m)
    if c.saturated:
        _emit({"saturated": True, "form": c.form,
               "P": list(c.witness[0]), "Q": list(c.witness[1])})
    else:
        _emit({"saturated": False, "separator": list(c.separator)})


def cmd_region(args):
    from . import weakform
    u, v = parse_rational(args.u), parse_rational(args.v)
    _emit({"E0": weakform.in_disc_e0(u, v),
           "E1": weakform.in_ellipse(1, u, v),
           "E2": weakform.in_ellipse(2, u, v),
           "E3": weakform.in_ellipse(3, u, v),
           "U_minus": weakform.in_u_minus(u, v),
           "U_plus": weakform.in_u_plus(u, v)})


def cmd_boundary(args):
    from . import weakform
    rows = weakform.boundary_curves(args.min, args.max, args.step)
    if args.csv:
        sys.stdout.write(weakform.boundary_csv(rows))
    else:
        _emit({"rows": [[u, f, g, h] for u, f, g, h in rows]})


def cmd_params(args):
    from . import weakform
    m = validate_ds(read_matrix(args.matrix))
    u, v, w = weakform.matrix_to_params(m)
    _emit({"u": str(u), "v": str(v), "w": str(w)})


def cmd_construct(args):
    from . import weakform
    u, v = parse_rational(args.u), parse_rational(args.v)
    params = weakform.solve_w(u, v, args.sign)
    payload = {"u": str(u), "v": str(v), "sign": args.sign, "exact": params.exact}
    if params.exact:
        payload["w"] = str(params.w)
        payload["matrix"] = matrix_payload(weakform.params_to_matrix(params))
    else:
        # decided exactly in Q(sqrt(disc)), printed as the closed form's doubles
        s = -1 if args.sign == weakform.SIGN_MINUS else 1
        w = (1.0 - 2.0 * float(v) + s * math.sqrt(float(params.discriminant))) / 8.0
        payload["w"] = w
        payload["matrix"] = rows = weakform._format_rows(float(u), float(v), w)
        try:
            weakform.params_to_matrix(params)
        except weakform.NotDoublyStochastic as exc:
            x = rows[int(exc.entry[1]) - 1][int(exc.entry[2]) - 1]
            if x >= 0:  # rounded up from a tiny negative: print it exactly
                raise
            raise weakform.NotDoublyStochastic(exc.entry, x) from None
    _emit(payload)


def cmd_enumerate(args):
    from . import explore
    cell = None if args.zero_cell is None else args.zero_cell.split(",")
    if cell is not None and len(cell) != 2:
        raise ParseError(f"--zero-cell expects two integers I,J, got {args.zero_cell!r}")
    report = explore.enumerate_grid(args.denominator,
                                    zero_cell=cell and tuple(map(parse_integer, cell)))
    found = []
    for m, c in report.saturating:
        found.append({"matrix": matrix_payload(m), "form": c.form,
                      "P": list(c.witness[0]), "Q": list(c.witness[1])})
    _emit({"denominator": report.denominator,
           "total_candidates": report.total_candidates,
           "ds_count": report.ds_count, "saturating": found})


def _spec_json(spec):
    return {"p": list(spec.p), "parts": list(spec.parts), "q": list(spec.q)}


def cmd_products(args):
    from . import explore
    probes = explore.search_products(args.n, args.max_parts, args.samples,
                                     args.seed)
    out = []
    for probe in probes:
        out.append({"left": _spec_json(probe.left),
                    "right": _spec_json(probe.right),
                    "product": matrix_payload(probe.product),
                    "frob_sq": str(probe.frob_sq),
                    "max_trace": str(probe.max_trace),
                    "trace_perm": list(probe.trace_perm),
                    "identity_holds": probe.identity_holds,
                    "saturates": probe.saturates})
    _emit({"n": args.n, "samples": args.samples, "seed": args.seed,
           "probes": out})


def cmd_probe(args):
    from . import explore
    report = explore.rationality_probe(args.n, args.samples, args.seed)
    out = []
    for c in report.candidates:
        out.append({"index": c.index, "kind": c.kind, "gap_float": c.gap_float,
                    "verified": c.verified,
                    "matrix": None if c.reconstructed is None
                    else matrix_payload(c.reconstructed)})
    _emit({"n": report.n, "samples": report.samples, "seed": report.seed,
           "tol": report.tol, "candidates": out})


def cmd_canonical(args):
    name = args.name
    if name[:3] in ("Tn:", "Jn:"):
        n = parse_integer(name[3:])
        if n > CANONICAL_CAP:
            raise OrderTooLarge(n, CANONICAL_CAP, f"canonical {name[:2]}")
        m = make_tn(n) if name[0] == "T" else make_jn(n)
    else:
        from . import saturation
        m = saturation.canonical({"I1J2": "I1_J2"}.get(name, name))
    _emit(matrix_payload(m))


# ── driver ────────────────────────────────────────────────────────────────

def _integer_option(text):
    """parse_integer for argparse, which prints the message after the usage line."""
    try:
        return parse_integer(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc) from None


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ds",
        description="Exact computations on doubly stochastic matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("check", cmd_check, "validate a doubly stochastic matrix file")
    p.add_argument("matrix")
    p = add("gap", cmd_gap, "Frobenius norm squared, maximal trace, and gap")
    p.add_argument("matrix")
    p = add("maxtrace", cmd_maxtrace, "maximal trace with witness")
    p.add_argument("matrix")
    p.add_argument("--method", choices=["brute", "assignment"],
                   default="assignment")
    p = add("permanent", cmd_permanent, "exact permanent")
    p.add_argument("matrix")
    p = add("maxprod", cmd_maxprod, "maximal diagonal product with witness")
    p.add_argument("matrix")
    p = add("classify", cmd_classify, "saturation decision (orders 2 and 3)")
    p.add_argument("matrix")
    p = add("region", cmd_region, "exact region membership of a point (u,v)")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p = add("boundary", cmd_boundary, "sample the boundary curves f, g, h")
    p.add_argument("--min", type=float, default=-1.2)
    p.add_argument("--max", type=float, default=1.2)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--csv", action="store_true")
    p = add("params", cmd_params, "recover (u, v, w) from a matrix with "
                                  "entry (2,1) zero")
    p.add_argument("matrix")
    p = add("construct", cmd_construct, "build the matrix at (u, v) for a "
                                        "root sign")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--sign", choices=["minus", "plus"], required=True)
    p = add("enumerate", cmd_enumerate, "exact census of the 1/d grid")
    p.add_argument("--denominator", type=_integer_option, required=True)
    p.add_argument("--zero-cell", default=None, metavar="I,J")
    p = add("products", cmd_products, "seeded block-J product probes")
    p.add_argument("--n", type=_integer_option, required=True)
    p.add_argument("--samples", type=_integer_option, required=True)
    p.add_argument("--seed", type=_integer_option, required=True)
    p.add_argument("--max-parts", type=_integer_option, default=4)
    p = add("probe", cmd_probe, "float sampling with exact rational "
                                "reconstruction of near-saturating finds")
    p.add_argument("--n", type=_integer_option, required=True)
    p.add_argument("--samples", type=_integer_option, required=True)
    p.add_argument("--seed", type=_integer_option, required=True)
    p = add("canonical", cmd_canonical, "emit a canonical matrix "
                                        "(I3|J3|I1J2|S|T|R|Tn:<n>|Jn:<n>)")
    p.add_argument("--name", required=True)
    return parser


def _glue_rational_flags(argv):
    """Join `--opt VALUE` into `--opt=VALUE` for every option that takes a
    value, so that argparse reads no value as an option name: it would take
    -1 and -.5 as numbers but -3/5, -1,0 and -1e-3 as names.  Only the flags
    --csv and --help (or a prefix argparse reads as one) take no value, and
    "--" ends the options."""
    out, tokens = [], iter(argv)
    for token in tokens:
        if token == "--":
            return out + [token, *tokens]
        if (token.startswith("--") and "=" not in token
                and not any(flag.startswith(token) for flag in ("--csv", "--help"))):
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        out.append(token)
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_rational_flags(list(argv)))
    try:
        args.handler(args)
    except ParseError as exc:
        print(f"ds: parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"ds: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ds: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
