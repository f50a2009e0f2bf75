"""Command-line front end.

Subcommands: analyze, table1, oracle, normalize, basis, nonsingular.
Output formats: plain (default), json, csv, markdown.  Exit codes: 0 for a
completed computation (including reports on invalid parameters), 1 when
the oracle search does not match the reference table, 2 on usage errors.

Every report and nonsingular output goes through one renderer, `_render`,
which builds only the format asked for.  A report's fields are listed
once, in `_report_fields`, and each call builds one form of them: the
plain lines, or the cells of the csv and markdown table.  JSON is
written by this module's own `indent=2` writer, `_json`, whose text equals
`json.dumps(value, indent=2)`; it escapes strings with CPython's `_json`
accelerator, the function `json.encoder` uses, so that no command imports
the json package.
A report's text is built once per shape, as a `%` template, and filled
per report.  Only 10 values vary inside a shape, the holes of its template:
lambda, mu, nu, the four weight ratios, (-K_X)^3, the nef threshold and
delta.  The shape key, `_shape`, is the format, the id of every other
object the text shows (the validity record, the case, k2, the K^3_d
thresholds and results, the K-status and the verdict) and one flat run
of the types of the records and the holes; an invalid report's key is
the format, the id of its validity record and the type of its triplet.
`_template` renders a report of the shape by the field path above, with a
mark in each hole, so each field is still written in one place.
`_TEMPLATES` caches only shapes made of the objects `report` shares
(`_SHARED`): the shared validity records and K-statuses, bools, the enum
members and the `DEFAULT_THRESHOLDS` Fractions, each alive as long as
its module, so an id in a key names one object for good.  They are
finite, and a format not in FORMATS raises before any template is built,
so the cache needs no bound of its own: 84 templates cover every
shape of lambda in [0,6], mu in [-12,12], nu in [-2,21].  Other
thresholds, such as those `analyze --thresholds` reads from text, are new
Fractions with new ids, so their reports, which would make shapes without
end, take the field path, as does a report of any other types or with a
copy of a shared record.
A table of rows is its head, then per row the row's number and its
piece: the rest of its line, or for JSON its item of the list.
`_row_pieces` is the one formatter of a row.  Every list of rows the
library makes is drawn from the 14 oracle rows, so the piece of each in
each format is built at import, in `_ROW_PIECES`, by the row's id, as are
the `missing:` and `extra:` lines of `oracle`: an `oracle` or `table1`
call formats no row.  This module holds those rows, so an id in the table
names one row for good; any other row is formatted per call.
The command line is read by one table, `_GRAMMAR`, and `_parse`, in one
pass over the tokens.  `_SPELLINGS`, built from `_GRAMMAR` at import, maps
each spelling of a command's flags (a flag, -h, --help, or a prefix of one
long flag only) to the flag it names.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from operator import add, attrgetter
from types import SimpleNamespace

try:  # the function json.encoder re-exports, without importing json
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .classify import (DEFAULT_BOX, ClassificationRow, SearchBox,
                       classify_k2_failures, nonsingular_delta, oracle_search)
from .conditions import (DEFAULT_THRESHOLDS, CaseLabel, FibrationReport,
                         KFailureReason, KStatus, ValidityReport,
                         Verdict, WeightRatios, report, to_json)
from .grading import (BundleParams, DivisorClass, GradingMatrix,
                      monomial_strings, normalize, rational)

FORMATS = ("plain", "json", "csv", "markdown")

ROWS_PLAIN_HEADER = ("no", "(lambda,mu,nu)", "delta", "case", "K-cond.")
ROWS_MD_HEADER = ("No.", "(λ,μ,ν)", "δ_X", "Case", "K-cond.")
ROWS_CSV_HEADER = ("no", "lambda", "mu", "nu", "delta", "case", "k_fails")
# A row's line of a table is its number, then its piece: the rest of the
# line.
_ROWS_PLAIN_PIECE = "  %-15s %5s  %-6s %s\n"
_ROWS_MD_PIECE = " | %s | %s | %s | %s |\n"
_TABLE_LABELS = {CaseLabel.AI: "(a-i)", CaseLabel.AII: "(a-ii)", CaseLabel.B: "(b)"}


def _render(fmt: str, plain, payload, table) -> str:
    """The output in format fmt.  plain() gives the text, payload() the JSON
    value and table() the header and rows of cells of the csv and markdown
    tables.  Only the format asked for is built; any other format raises
    ValueError."""
    if fmt == "plain":
        return plain()
    if fmt == "json":
        return _json(payload()) + "\n"
    if fmt == "csv":
        header, rows = table()
        return "\n".join(map(",".join, (header, *rows))) + "\n"
    if fmt == "markdown":
        return _markdown(*table())
    return _no_format(fmt)


def _no_format(fmt: str):
    raise ValueError(f"invalid choice: {fmt!r} (choose from {', '.join(FORMATS)})")


def _json(value, pad: str = "\n") -> str:
    """The text of the JSON value as `json.dumps(value, indent=2)` writes it,
    pad being the newline and indent of value's own line.  value is built
    of dicts with str keys, lists, str, int, bool and None, matched by exact
    type, so that True is written true, never 1; any other type, 1.0 (which
    equals True) included, raises TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if kind is list:
        inner = pad + "  "
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is int:
        return repr(value)
    raise TypeError(f"{kind.__name__} {value!r} is not written as JSON")


def _markdown(header, rows) -> str:
    """The markdown table of header and rows of cells; a row number, headed
    No., is right-aligned."""
    rule = "|".join(["-" * len(h) + ("-:" if h == "No." else "--") for h in header])
    body = " |\n| ".join(map(" | ".join, rows))
    return f"| {' | '.join(header)} |\n|{rule}|\n" + (f"| {body} |\n" if rows else "")


def _triplet(p: BundleParams) -> str:
    return "(%s,%s,%s)" % p


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _row_pieces(row: ClassificationRow, fmt: str) -> str:
    """The text of row in format fmt after its row number (`_ROWS`): the
    rest of its line, or its item of the JSON list."""
    p, d, case, k = row
    if fmt == "json":
        return _json(to_json(row), "\n  ")
    if fmt == "csv":
        return ",%s,%s,%s,%s,%s,%s\n" % (*p, d, case.value, _bool(k))
    return (_ROWS_PLAIN_PIECE if fmt == "plain" else _ROWS_MD_PIECE) % (
        _triplet(p), d, _TABLE_LABELS[case], "no" if k else "")


# The 14 oracle rows, from which every list of rows the library makes is
# drawn.  This module holds them, so that their ids stay theirs for as
# long as the tables below.
_ORACLE_ROWS = tuple(oracle_search(DEFAULT_BOX))
# Per format, each oracle row's piece, by the row's id.
_ROW_PIECES = {fmt: {id(row): _row_pieces(row, fmt) for row in _ORACLE_ROWS}
               for fmt in FORMATS}
# Per format but JSON, the head of a table of rows, the text of a row's
# number, and that text for the numbers of the oracle rows.
_ROWS = {fmt: (head, number, tuple(number % i for i in range(1, len(_ORACLE_ROWS) + 1)))
         for fmt, head, number in (
             ("plain", "%3s" % "no" + _ROWS_PLAIN_PIECE % ROWS_PLAIN_HEADER[1:], "%3s"),
             ("csv", ",".join(ROWS_CSV_HEADER) + "\n", "%s"),
             ("markdown", _markdown(ROWS_MD_HEADER, []), "| %s"))}


def render_rows(rows: list[ClassificationRow], fmt: str) -> str:
    """The table of rows in format fmt (any other format raises ValueError):
    its head, then per row its number and its piece.  An oracle row's piece
    is looked up by its id, which no other object has while this module
    holds the row; any other row is formatted per call."""
    piece = (_ROW_PIECES.get(fmt) or _no_format(fmt)).get
    pieces = [piece(id(r)) or _row_pieces(r, fmt) for r in rows]
    if fmt == "json":
        return "[\n  " + ",\n  ".join(pieces) + "\n]\n" if pieces else "[]\n"
    head, number, numbers = _ROWS[fmt]
    if len(pieces) > len(numbers):  # rows the library did not make
        numbers = [number % i for i in range(1, len(pieces) + 1)]
    return head + "".join(map(add, numbers, pieces))


def render_report(rep: FibrationReport, fmt: str) -> str:
    """The text of rep in format fmt: its shape's template, built on first
    use, filled with rep's values.  A report whose shape is not made of the
    objects `report` shares takes the field path."""
    template = _TEMPLATES.get(key := _shape(rep, fmt))
    if template is None and _SHARED.issuperset(key[1:]):
        template = _TEMPLATES[key] = _template(rep, fmt)
    return template[0] % template[1](rep) if template else _render_fields(rep, fmt)


def _render_fields(rep: FibrationReport, fmt: str) -> str:
    return _render(fmt, lambda: "\n".join(_report_fields(rep, False)) + "\n",
                   rep.to_json_dict, lambda: (("field", "value"), _report_fields(rep, True)))


# The values of a report that vary inside its shape, by their attribute
# paths: the holes of its template.  A template is the text of a report of
# its shape whose i-th hole holds 10**25 + i: an int in the triplet and a
# Fraction elsewhere, as `report` makes them, so each hole is written, JSON
# quotes and all, as its values are.
_HOLES = ("params.lam", "params.mu", "params.nu", "weight_ratios.wr_x", "weight_ratios.wr_y",
          "weight_ratios.wr_z", "weight_ratios.wr_w", "k_cubed", "nef_threshold", "delta")
# What a shape is made of when `report` makes it: the ids of the objects
# that its text shows besides the holes (the shared validity records and
# K-statuses, the cases, k2, the `DEFAULT_THRESHOLDS` and their results
# and the verdicts), each of which lives as long as its module, so that no
# other object has its id, and the types of its records and holes.
_SHARED = frozenset((*map(id, (True, False, *DEFAULT_THRESHOLDS, *CaseLabel, *Verdict,
                               *ValidityReport.shared(), KStatus.not_proven(),
                               *map(KStatus.proven, KFailureReason))),
                     dict, BundleParams, WeightRatios, Fraction))
_TEMPLATES = {}  # shape key -> (text, getter of its hole values)


def _shape(rep: FibrationReport, fmt: str) -> tuple:
    """The key of rep's shape in format fmt: the format, the id of each
    object its text shows besides the holes, and one flat run of the types
    of its records and holes.  An invalid report shows only its validity
    record and its triplet."""
    p, v, case, wr, k_cubed, nef, delta, k2, k3, status, verdict = rep
    if case is None:
        return fmt, id(v), type(p)
    return (fmt, id(v), id(case), id(k2), *map(id, k3), *map(id, k3.values()), id(status),
            id(verdict), *map(type, (k3, p, wr, *(wr or ()), k_cubed, nef, delta)))


def _template(rep: FibrationReport, fmt: str) -> tuple:
    """The template of rep's shape in format fmt: its text with `%s` at each
    hole, and the getter of the hole values in text order."""
    marks = [10 ** 25 + i for i in range(len(_HOLES))]
    holey = FibrationReport(BundleParams(*marks[:3]), *rep[1:3], WeightRatios(
        *map(rational, marks[3:7])), *map(rational, marks[7:]), *rep[7:])
    pieces = re.split("(%s)" % "|".join(map(str, marks)), _render_fields(holey, fmt))
    return ("%s".join(piece.replace("%", "%%") for piece in pieces[::2]),
            attrgetter(*[_HOLES[int(mark) - marks[0]] for mark in pieces[1::2]]))


def _report_fields(rep: FibrationReport, table: bool) -> list:
    """The fields of a report in output order: (csv name, cell) pairs when
    table, else the lines of the plain text.  Each entry builds only the
    form asked for.  The triplet, the case and the K^3_d results are
    several cells of one line, and the reasons of an invalid triplet one
    cell of several lines."""
    p, v = rep.params, rep.validity
    fields = ([("lambda", str(p.lam)), ("mu", str(p.mu)), ("nu", str(p.nu))] if table
              else [str(p)])
    fields.append(("is_valid", _bool(v.is_valid)) if table else
                  "valid: " + ("yes" if v.is_valid else "no"))
    if rep.case is None:
        reasons = v.failure_reasons()
        fields.append(("invalid_reason", "; ".join(reasons)) if table else
                      "  - " + "\n  - ".join(reasons))
        return fields
    wr, branch, k3 = rep.weight_ratios, v.restrictb_branch, rep.k3_threshold_results
    return fields + [
        *((("case", rep.case.value), ("restrictb_branch", branch.value if branch else ""))
          if table else
          (f"case: {rep.case.value}{f' (branch {branch.value})' if branch else ''}"
           f"  [wr_x={wr.wr_x} wr_y={wr.wr_y} wr_z={wr.wr_z} wr_w={wr.wr_w}]",)),
        ("k_cubed", str(rep.k_cubed)) if table else f"(-K_X)^3: {rep.k_cubed}",
        ("nef_threshold", str(rep.nef_threshold)) if table else
        f"nef threshold: {rep.nef_threshold}",
        ("delta", str(rep.delta)) if table else f"delta: {rep.delta}",
        ("k2_holds", _bool(rep.k2_holds)) if table else
        f"K^2-condition (delta <= 0): {'holds' if rep.k2_holds else 'fails'}",
        *([(f"k3({d})", _bool(ok)) for d, ok in k3.items()] if table else
          ["K^3_d-condition: " + ", ".join(f"d={d}: {'holds' if ok else 'fails'}"
                                           for d, ok in k3.items())]),
        ("k_status", str(rep.k_status)) if table else f"K-condition: {rep.k_status}" + (
            "  [combinatorial certificate]"
            if rep.k_status.reason is KFailureReason.DZ_MOVABLE_INTERIOR else ""),
        ("verdict", rep.verdict.value) if table else f"verdict: {rep.verdict.value}",
    ]


def _cmd_analyze(args) -> int:
    rep = report(BundleParams(args.lam, args.mu, args.nu), args.thresholds)
    sys.stdout.write(render_report(rep, args.format))
    return 0


def _cmd_table1(args) -> int:
    sys.stdout.write(render_rows(classify_k2_failures(), args.format))
    return 0


# The triplets of the reference table, as the oracle diffs them, in order,
# each with the diff line that reports it missing; and the triplet of each
# oracle row, all of which lie in DEFAULT_BOX, with the line that reports
# it extra.
_TABLE1 = {p: f"missing: {_triplet(p)}"
           for p in sorted(r.params for r in classify_k2_failures())}
_EXTRA = {r.params: f"extra: {_triplet(r.params)}" for r in _ORACLE_ROWS}


def _cmd_oracle(args) -> int:
    rows = oracle_search(SearchBox(args.lambda_range, args.mu_range, args.nu_range))
    found = {r.params for r in rows}
    # rows are sorted and hold each triplet once, so the extra lines are
    # in order as they come.
    diff = [line for p, line in _TABLE1.items() if p not in found]
    diff += [_EXTRA[r.params] for r in rows if r.params not in _TABLE1]
    status = "\n".join(["DOES NOT MATCH TABLE 1" if diff else "MATCHES TABLE 1",
                        *diff, ""])
    text = render_rows(rows, args.format)
    # The diff goes to stderr unless the format is plain, so that the
    # formatted rows on stdout parse.
    if args.format == "plain":
        sys.stdout.write(text + status)
    else:
        sys.stdout.write(text)
        sys.stderr.write(status)
    return 1 if diff else 0


def _cmd_normalize(args) -> int:
    p = normalize(GradingMatrix(args.top_row))
    print(_triplet(p))
    return 0


# Per format, the head, separator and tail of a basis listing, and the
# empty listing.  A monomial string needs no JSON escape and no csv quote:
# see the alphabet of monomial_strings.
_BASIS = {"plain": ("", "\n", "\n", ""), "csv": ("monomial\n", "\n", "\n", "monomial\n"),
          "json": ('[\n  "', '",\n  "', '"\n]\n', "[]\n"),
          "markdown": ("- `", "`\n- `", "`\n", "")}


def _cmd_basis(args) -> int:
    monomials = monomial_strings(BundleParams(args.lam, args.mu, args.nu),
                                 DivisorClass(args.h, args.f))
    head, separator, tail, empty = _BASIS[args.format]
    sys.stdout.write(head + separator.join(monomials) + tail if monomials else empty)
    return 0


def _cmd_nonsingular(args) -> int:
    d, case = nonsingular_delta(args.lam, args.mu)
    header, cells = ("delta", "case"), (str(d), case.value)
    sys.stdout.write(_render(args.format, lambda: f"{d}\n",
                             lambda: dict(zip(header, cells)),
                             lambda: (header, [cells])))
    return 0


def _format_arg(text: str) -> str:
    return text if text in FORMATS else _no_format(text)


_DESCRIPTION = ("Exact invariants and rigidity conditions of degree-1 del Pezzo "
                "fibrations in toric P(1,1,2,3)-bundles over P^1.")

# The grammar of the command line.  A command is (handler, help,
# positionals, options): each positional is (destination, metavar, count)
# and takes count ints; each option is {flag: (destination, default,
# number of values, converter of one value, metavar)}.  A positional or
# option of one value holds that value, one of more the tuple of them.
_FORMAT = {"--format": ("format", "plain", 1, _format_arg,
                        "{" + ",".join(FORMATS) + "}")}
_TRIPLET = (("lam", "lambda", 1), ("mu", "mu", 1), ("nu", "nu", 1))
_GRAMMAR = {
    "analyze": (_cmd_analyze, "full report for one (lambda, mu, nu); THRESHOLDS "
                "are comma-separated rationals for the K^3_d checks "
                f"(default {','.join(map(str, DEFAULT_THRESHOLDS))})", _TRIPLET,
                {"--thresholds": ("thresholds", DEFAULT_THRESHOLDS, 1,
                                  lambda text: tuple(map(rational, text.split(","))),
                                  "THRESHOLDS"), **_FORMAT}),
    "table1": (_cmd_table1, "the reference classification table", (), _FORMAT),
    "oracle": (_cmd_oracle, "brute-force search, diffed against the table", (),
               {"--lambda": ("lambda_range", DEFAULT_BOX.lambda_range, 2, int, "LO HI"),
                "--mu": ("mu_range", DEFAULT_BOX.mu_range, 2, int, "LO HI"),
                "--nu": ("nu_range", DEFAULT_BOX.nu_range, 2, int, "LO HI"),
                **_FORMAT}),
    "normalize": (_cmd_normalize,
                  "canonical (lambda, mu, nu) of a grading-matrix top row",
                  (("top_row", "DEG", 6),), {}),
    "basis": (_cmd_basis, "monomial basis of h*H + f*F",
              _TRIPLET + (("h", "h", 1), ("f", "f", 1)), _FORMAT),
    "nonsingular": (_cmd_nonsingular,
                    "delta of the nonsingular family on P(lambda, 2*mu, 3*mu)",
                    _TRIPLET[:2], _FORMAT),
}
_HELP = ("-h", "--help")


def _spellings(flags) -> dict[str, str]:
    """Each spelling of a flag among flags and -h/--help, mapped to the
    flag: the flag itself, or a prefix, at least one character past `--`,
    of exactly one long flag."""
    longs = [flag for flag in (*flags, "--help") if flag[:2] == "--"]
    return {**{flag[:end]: flag for flag in longs for end in range(3, len(flag))
               if sum(f.startswith(flag[:end]) for f in longs) == 1},
            **{flag: flag for flag in (*flags, *_HELP)}}


# Per command, the defaults of its options and the metavars of its
# positionals, one per value.
_DEFAULTS = {command: {spec[0]: spec[1] for spec in options.values()}
             for command, (_, _, _, options) in _GRAMMAR.items()}
_METAVARS = {command: tuple(metavar for _, metavar, count in positionals
                             for _ in range(count))
             for command, (_, _, positionals, _) in _GRAMMAR.items()}
# Per command, and for None the top level, every spelling of its flags.
_SPELLINGS = {None: _spellings(()),
              **{command: _spellings(spec[3]) for command, spec in _GRAMMAR.items()}}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: dp1toric [-h] {%s} ..." % ",".join(_GRAMMAR)
    options = _GRAMMAR[command][3]
    return " ".join(["usage: dp1toric", command, "[-h]",
                     *(f"[{flag} {spec[4]}]" for flag, spec in options.items()),
                     *_METAVARS[command]])


def _help(command: str | None) -> None:
    """Print the usage and the help of command (None: the top level), and
    exit 0."""
    if command is None:
        listing = "".join(f"  {name:<13}{spec[1]}\n" for name, spec in _GRAMMAR.items())
        text = f"\n\n{_DESCRIPTION}\n\ncommands:\n{listing}"
    else:
        text = f"\n\n{_GRAMMAR[command][1]}\n"
    sys.stdout.write(_usage(command) + text)
    raise SystemExit(0)


def _fail(command: str | None, reason: str) -> None:
    """Write the usage of command (None: the top level) and reason to
    stderr, and exit 2."""
    prog = "dp1toric" if command is None else f"dp1toric {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {reason}\n")
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple:
    """The handler of the command that argv names, and its arguments as
    attributes, read by _GRAMMAR.  Options may come anywhere after the
    command, as `--flag value` or `--flag=value`, and a unique prefix
    names a long flag; after `--` every token is a positional.  A token
    is a flag unless it is `-` or starts with `-` and a `.` or a decimal
    digit of any script, as `int` reads them."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _GRAMMAR:
        if command in _SPELLINGS[None]:
            _help(None)
        if (command[:1] == "-" and command[1:2] not in "0123456789."
                and not command[1:2].isdecimal()):
            _fail(None, f"unrecognized arguments: {command}")
        _fail(None, f"invalid choice: {command!r} (choose from {', '.join(_GRAMMAR)})")
    handler, _, positionals, options = _GRAMMAR[command]
    spellings = _SPELLINGS[command]
    values = _DEFAULTS[command].copy()
    tokens = []  # the positionals
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        flag, eq = spellings.get(token), ""
        if flag is None:
            if token[:1] != "-" or token[1:2] in "0123456789." or token[1:2].isdecimal():
                tokens.append(token)
                continue
            if token == "--":
                tokens += argv[i:]
                break
            text, eq, value = token.partition("=")
            flag = spellings.get(text) or _fail(command, f"unrecognized arguments: {text}")
        dest, _, nargs, convert, _ = options.get(flag) or _help(command)
        given = [value] if eq else argv[i:i + nargs]
        if not eq:
            i += nargs
        for text in given:  # a flag among the values leaves too few
            if text[:1] == "-" and text[1:2] not in "0123456789." and not text[1:2].isdecimal():
                given = ()
        if len(given) != nargs:
            _fail(command, f"argument {flag}: expected {nargs} argument{'s' * (nargs > 1)}")
        try:
            values[dest] = convert(given[0]) if nargs == 1 else tuple(map(convert, given))
        except ValueError as exc:
            _fail(command, f"argument {flag}: {exc}")
    names = _METAVARS[command]
    if len(tokens) < len(names):
        _fail(command, "the following arguments are required: "
              + ", ".join(names[len(tokens):]))
    if len(tokens) > len(names):
        _fail(command, "unrecognized arguments: " + " ".join(tokens[len(names):]))
    texts = iter(tokens)
    for dest, metavar, count in positionals:
        try:
            values[dest] = (int(next(texts)) if count == 1
                            else tuple(map(int, islice(texts, count))))
        except ValueError as exc:
            _fail(command, f"argument {metavar}: {exc}")
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
