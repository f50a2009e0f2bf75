"""Command-line front end.

Subcommands: analyze, table1, oracle, normalize, basis, nonsingular.
Output formats: plain (default), json, csv, markdown.  Exit codes: 0 for a
completed computation (including reports on invalid parameters), 1 when
the oracle search does not match the reference table, 2 on usage errors.

All output goes through one renderer, `_render`, which builds only the
format asked for; the one special case is basis markdown, a bullet list.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .classify import (DEFAULT_BOX, ClassificationRow, SearchBox,
                       classify_k2_failures, nonsingular_delta, oracle_search)
from .conditions import (DEFAULT_THRESHOLDS, FibrationReport, InvalidParams,
                         KFailureReason, report, to_json)
from .grading import (BundleParams, DivisorClass, GradingMatrix, InvalidMatrix,
                      fiber_part_count, monomial_count, monomial_strings,
                      normalize)

FORMATS = ("plain", "json", "csv", "markdown")

# Largest monomial basis `basis` lists; past it, it refuses with exit 2
# instead of building the list.
MAX_BASIS_MONOMIALS = 10**6

ROWS_PLAIN_HEADER = ("no", "(lambda,mu,nu)", "delta", "case", "K-cond.")
ROWS_MD_HEADER = ("No.", "(λ,μ,ν)", "δ_X", "Case", "K-cond.")
ROWS_CSV_HEADER = ("no", "lambda", "mu", "nu", "delta", "case", "k_fails")
_JSON = json.JSONEncoder(indent=2)  # json.dumps would build one per call


def _render(fmt: str, plain, payload, table, markdown_table=None) -> str:
    """The output in format fmt.  plain() gives the text, payload() the JSON
    value, table() the header and rows of cells of the csv table and, unless
    markdown_table() gives its own, of the markdown table (a row number,
    headed No., is right-aligned).  Only the format asked for is built."""
    if fmt == "plain":
        return plain()
    if fmt == "json":
        return _JSON.encode(payload()) + "\n"
    if fmt == "csv":
        header, rows = table()
        return "\n".join(map(",".join, (header, *rows))) + "\n"
    header, rows = (markdown_table or table)()
    rule = "|".join(["-" * len(h) + ("-:" if h == "No." else "--") for h in header])
    body = " |\n| ".join(map(" | ".join, rows))
    return f"| {' | '.join(header)} |\n|{rule}|\n" + (f"| {body} |\n" if rows else "")


def _triplet(p: BundleParams) -> str:
    return "(%s,%s,%s)" % p


def _bool(b: bool) -> str:
    return "true" if b else "false"


def render_rows(rows: list[ClassificationRow], fmt: str) -> str:
    def cells():  # of the plain and the markdown table
        return [(str(i), _triplet(p), str(d), case.table_label, "no" if k else "")
                for i, (p, d, case, k) in enumerate(rows, 1)]
    return _render(
        fmt,
        lambda: "".join(map("%3s  %-15s %5s  %-6s %s\n".__mod__,
                            (ROWS_PLAIN_HEADER, *cells()))),
        lambda: [{"params": to_json(p), "delta": to_json(d),
                  "case": to_json(case), "k_fails": k} for p, d, case, k in rows],
        lambda: (ROWS_CSV_HEADER, [
            (str(i), str(lam), str(mu), str(nu), str(d), case.value, _bool(k))
            for i, ((lam, mu, nu), d, case, k) in enumerate(rows, 1)]),
        lambda: (ROWS_MD_HEADER, cells()))


def render_report(rep: FibrationReport, fmt: str) -> str:
    return _render(fmt, lambda: _report_plain(rep), rep.to_json_dict,
                   lambda: _report_table(rep))


def _report_table(rep: FibrationReport) -> tuple:
    p = rep.params
    pairs = [("lambda", str(p.lam)), ("mu", str(p.mu)), ("nu", str(p.nu)),
             ("is_valid", _bool(rep.validity.is_valid))]
    if rep.case is None:
        pairs.append(("invalid_reason", "; ".join(rep.validity.failure_reasons())))
        return ("field", "value"), pairs
    branch = rep.validity.restrictb_branch
    pairs += [
        ("case", rep.case.value),
        ("restrictb_branch", branch.value if branch else ""),
        ("k_cubed", str(rep.k_cubed)),
        ("nef_threshold", str(rep.nef_threshold)),
        ("delta", str(rep.delta)),
        ("k2_holds", _bool(rep.k2_holds)),
    ]
    for d, ok in rep.k3_threshold_results.items():
        pairs.append((f"k3({d})", _bool(ok)))
    pairs += [("k_status", str(rep.k_status)),
              ("verdict", rep.verdict.value if rep.verdict else "")]
    return ("field", "value"), pairs


def _report_plain(rep: FibrationReport) -> str:
    lines = [str(rep.params)]
    if not rep.validity.is_valid:
        lines.append("valid: no")
        for reason in rep.validity.failure_reasons():
            lines.append(f"  - {reason}")
        return "\n".join(lines) + "\n"
    wr = rep.weight_ratios
    branch = rep.validity.restrictb_branch
    case = rep.case.value + (f" (branch {branch.value})" if branch else "")
    lines += [
        "valid: yes",
        f"case: {case}  [wr_x={wr.wr_x} wr_y={wr.wr_y} wr_z={wr.wr_z} wr_w={wr.wr_w}]",
        f"(-K_X)^3: {rep.k_cubed}",
        f"nef threshold: {rep.nef_threshold}",
        f"delta: {rep.delta}",
        f"K^2-condition (delta <= 0): {'holds' if rep.k2_holds else 'fails'}",
    ]
    k3 = ", ".join(f"d={d}: {'holds' if ok else 'fails'}"
                   for d, ok in rep.k3_threshold_results.items())
    lines.append(f"K^3_d-condition: {k3}")
    status = str(rep.k_status)
    if (rep.k_status.proven_fails
            and rep.k_status.reason is KFailureReason.DZ_MOVABLE_INTERIOR):
        status += "  [combinatorial certificate]"
    lines.append(f"K-condition: {status}")
    lines.append(f"verdict: {rep.verdict.value if rep.verdict else 'undetermined'}")
    return "\n".join(lines) + "\n"


def _thresholds_arg(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad thresholds {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp1toric",
        description=("Exact invariants and rigidity conditions of degree-1 "
                     "del Pezzo fibrations in toric P(1,1,2,3)-bundles over P^1."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=FORMATS, default="plain")

    sp = sub.add_parser("analyze", help="full report for one (lambda, mu, nu)")
    sp.add_argument("lam", type=int, metavar="lambda")
    sp.add_argument("mu", type=int)
    sp.add_argument("nu", type=int)
    sp.add_argument("--thresholds", type=_thresholds_arg,
                    default=DEFAULT_THRESHOLDS,
                    help="comma-separated rationals for K^3_d checks (default 0,1,3/2)")
    add_format(sp)

    sp = sub.add_parser("table1", help="the reference classification table")
    add_format(sp)

    sp = sub.add_parser("oracle",
                        help="brute-force search, diffed against the table")
    sp.add_argument("--lambda", dest="lambda_range", nargs=2, type=int,
                    metavar=("LO", "HI"), default=DEFAULT_BOX.lambda_range)
    sp.add_argument("--mu", dest="mu_range", nargs=2, type=int,
                    metavar=("LO", "HI"), default=DEFAULT_BOX.mu_range)
    sp.add_argument("--nu", dest="nu_range", nargs=2, type=int,
                    metavar=("LO", "HI"), default=DEFAULT_BOX.nu_range)
    add_format(sp)

    sp = sub.add_parser("normalize",
                        help="canonical (lambda, mu, nu) of a grading-matrix top row")
    sp.add_argument("top_row", type=int, nargs=6, metavar="DEG")

    sp = sub.add_parser("basis", help="monomial basis of h*H + f*F")
    for name in ("lam", "mu", "nu", "h", "f"):
        sp.add_argument(name, type=int, metavar=name if name != "lam" else "lambda")
    add_format(sp)

    sp = sub.add_parser("nonsingular",
                        help="delta of the nonsingular family on P(lambda, 2*mu, 3*mu)")
    sp.add_argument("lam", type=int, metavar="lambda")
    sp.add_argument("mu", type=int)
    add_format(sp)

    return parser


def _cmd_analyze(args) -> int:
    rep = report(BundleParams(args.lam, args.mu, args.nu), args.thresholds)
    sys.stdout.write(render_report(rep, args.format))
    return 0


def _cmd_table1(args) -> int:
    sys.stdout.write(render_rows(classify_k2_failures(), args.format))
    return 0


def _cmd_oracle(args) -> int:
    box = SearchBox(tuple(args.lambda_range), tuple(args.mu_range),
                    tuple(args.nu_range))
    rows = oracle_search(box)
    sys.stdout.write(render_rows(rows, args.format))

    def by_triplet(rs):
        return {p: (d, case, k) for p, d, case, k in rs}
    found, ref = by_triplet(rows), by_triplet(classify_k2_failures())
    diff = [f"{kind}: {_triplet(p)}" for kind, triplets in (
        ("missing", ref.keys() - found.keys()),
        ("extra", found.keys() - ref.keys()),
        ("differs", [t for t in ref.keys() & found.keys() if ref[t] != found[t]]))
        for p in sorted(triplets)]
    # The diff goes to stderr unless the format is plain, so that the
    # formatted rows on stdout parse.
    print("DOES NOT MATCH TABLE 1" if diff else "MATCHES TABLE 1", *diff,
          sep="\n", file=sys.stdout if args.format == "plain" else sys.stderr)
    return 1 if diff else 0


def _cmd_normalize(args) -> int:
    p = normalize(GradingMatrix(tuple(args.top_row)))
    print(_triplet(p))
    return 0


def _check_basis_size(p: BundleParams, cls: DivisorClass) -> None:
    """Refuse a basis of more than MAX_BASIS_MONOMIALS monomials, or one
    whose enumeration visits more fiber parts x^c y^d z^e w^g than that,
    before any of it is built."""
    if fiber_part_count(cls) > MAX_BASIS_MONOMIALS:
        raise ValueError(f"|{cls}| has more than {MAX_BASIS_MONOMIALS} "
                         "fiber monomials x^c*y^d*z^e*w^g to scan")
    count = monomial_count(p, cls)
    if count > MAX_BASIS_MONOMIALS:
        raise ValueError(f"|{cls}| on {p} has {count} monomials, more than "
                         f"the {MAX_BASIS_MONOMIALS} that basis lists")


def _cmd_basis(args) -> int:
    p = BundleParams(args.lam, args.mu, args.nu)
    cls = DivisorClass(args.h, args.f)
    _check_basis_size(p, cls)
    monomials = monomial_strings(p, cls)
    if args.format == "markdown":  # a bullet list, not a table
        sys.stdout.write("".join(f"- `{m}`\n" for m in monomials))
    else:
        sys.stdout.write(_render(
            args.format, lambda: "".join(f"{m}\n" for m in monomials),
            lambda: monomials, lambda: (("monomial",), [(m,) for m in monomials])))
    return 0


def _cmd_nonsingular(args) -> int:
    d, case = nonsingular_delta(args.lam, args.mu)
    sys.stdout.write(_render(
        args.format, lambda: f"{d}\n",
        lambda: {"delta": to_json(d), "case": to_json(case)},
        lambda: (("delta", "case"), [(str(d), case.value)])))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "table1": _cmd_table1,
    "oracle": _cmd_oracle,
    "normalize": _cmd_normalize,
    "basis": _cmd_basis,
    "nonsingular": _cmd_nonsingular,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    most commands."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidMatrix, InvalidParams, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
