"""Command-line front end.

Subcommands: analyze, table1, oracle, normalize, basis, nonsingular.
Output formats: plain (default), json, csv, markdown.  Exit codes: 0 for a
completed computation (including reports on invalid parameters), 1 when
the oracle search does not match the reference table, 2 on usage errors.
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
                         KFailureReason, report)
from .grading import (BundleParams, DivisorClass, GradingMatrix, InvalidMatrix,
                      monomial_basis, monomial_count, normalize)

FORMATS = ("plain", "json", "csv", "markdown")

# Largest monomial basis `basis` lists; past it, it refuses with exit 2
# instead of building the list.
MAX_BASIS_MONOMIALS = 10**6

TABLE_MD_HEADER = ("| No. | (λ,μ,ν) | δ_X | Case | K-cond. |\n"
                   "|----:|---------|-----|------|---------|\n")
TABLE_CSV_HEADER = "no,lambda,mu,nu,delta,case,k_fails\n"


def _triplet(p: BundleParams) -> str:
    return f"({p.lam},{p.mu},{p.nu})"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def render_rows(rows: list[ClassificationRow], fmt: str) -> str:
    if fmt == "markdown":
        out = TABLE_MD_HEADER
        for i, r in enumerate(rows, 1):
            kcond = "no" if r.k_fails else ""
            out += (f"| {i} | {_triplet(r.params)} | {r.delta} "
                    f"| {r.case.table_label} | {kcond} |\n")
        return out
    if fmt == "csv":
        out = TABLE_CSV_HEADER
        for i, r in enumerate(rows, 1):
            p = r.params
            out += (f"{i},{p.lam},{p.mu},{p.nu},{r.delta},"
                    f"{r.case.value},{_bool(r.k_fails)}\n")
        return out
    if fmt == "json":
        data = [
            {
                "params": {"lambda": r.params.lam, "mu": r.params.mu,
                           "nu": r.params.nu},
                "delta": str(r.delta),
                "case": r.case.value,
                "k_fails": r.k_fails,
            }
            for r in rows
        ]
        return json.dumps(data, indent=2) + "\n"
    out = f"{'no':>3}  {'(lambda,mu,nu)':<15} {'delta':>5}  {'case':<6} K-cond.\n"
    for i, r in enumerate(rows, 1):
        kcond = "no" if r.k_fails else ""
        out += (f"{i:>3}  {_triplet(r.params):<15} {str(r.delta):>5}  "
                f"{r.case.table_label:<6} {kcond}\n")
    return out


def render_report(rep: FibrationReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rep.to_json_dict(), indent=2) + "\n"
    if fmt in ("csv", "markdown"):
        pairs = _report_pairs(rep)
        if fmt == "csv":
            return "field,value\n" + "".join(f"{k},{v}\n" for k, v in pairs)
        return ("| field | value |\n|-------|-------|\n"
                + "".join(f"| {k} | {v} |\n" for k, v in pairs))
    return _report_plain(rep)


def _report_pairs(rep: FibrationReport) -> list[tuple[str, str]]:
    p = rep.params
    pairs = [("lambda", str(p.lam)), ("mu", str(p.mu)), ("nu", str(p.nu)),
             ("is_valid", _bool(rep.validity.is_valid))]
    if rep.case is None:
        pairs += [("invalid_reason", "; ".join(rep.validity.failure_reasons()))]
        return pairs
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
    return pairs


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
    found = oracle_search(box)
    reference = classify_k2_failures()
    sys.stdout.write(render_rows(found, args.format))
    found_set = {r.params: r for r in found}
    ref_set = {r.params: r for r in reference}
    missing = sorted(set(ref_set) - set(found_set),
                     key=lambda p: (p.lam, p.mu, p.nu))
    extra = sorted(set(found_set) - set(ref_set),
                   key=lambda p: (p.lam, p.mu, p.nu))
    changed = [p for p in set(ref_set) & set(found_set)
               if ref_set[p] != found_set[p]]
    if not missing and not extra and not changed:
        print("MATCHES TABLE 1")
        return 0
    print("DOES NOT MATCH TABLE 1")
    for p in missing:
        print(f"missing: {_triplet(p)}")
    for p in extra:
        print(f"extra: {_triplet(p)}")
    for p in changed:
        print(f"differs: {_triplet(p)}")
    return 1


def _cmd_normalize(args) -> int:
    p = normalize(GradingMatrix(tuple(args.top_row)))
    print(_triplet(p))
    return 0


def _check_basis_size(p: BundleParams, cls: DivisorClass) -> None:
    """Refuse a basis of more than MAX_BASIS_MONOMIALS monomials, or one
    whose enumeration visits more fiber parts x^c y^d z^e w^g than that,
    before any of it is built."""
    parts = 0
    for r in range(int(cls.h), -1, -3):  # H-degree left to x, y, z beside w^g
        parts += (r // 2 + 1) * (r - r // 2 + 1)
        if parts > MAX_BASIS_MONOMIALS:
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
    monomials = [str(m) for m in monomial_basis(p, cls)]
    if args.format == "json":
        print(json.dumps(monomials, indent=2))
    elif args.format == "csv":
        sys.stdout.write("monomial\n" + "".join(f"{m}\n" for m in monomials))
    elif args.format == "markdown":
        sys.stdout.write("".join(f"- `{m}`\n" for m in monomials))
    else:
        sys.stdout.write("".join(f"{m}\n" for m in monomials))
    return 0


def _cmd_nonsingular(args) -> int:
    d, case = nonsingular_delta(args.lam, args.mu)
    if args.format == "json":
        print(json.dumps({"delta": str(d), "case": case.value}, indent=2))
    elif args.format == "csv":
        sys.stdout.write(f"delta,case\n{d},{case.value}\n")
    elif args.format == "markdown":
        print(f"| delta | case |\n|-------|------|\n| {d} | {case.value} |")
    else:
        print(d)
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
