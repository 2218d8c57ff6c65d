"""Command-line front end: one subcommand per public operation family.

Exit codes: 0 success, 1 input error (including usage), 2 unsupported field,
3 degenerate or not-applicable outcomes.  All floats print with 12
significant digits; exact integers print exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields, replace
from fractions import Fraction

from . import bounds, radical, sml, xyz
from .arith import factor_element, parse_element, parse_field
from .bounds import BoundConfig
from .errors import (
    BadParameter,
    BadValue,
    InputError,
    NotApplicable,
    ParseError,
    UnknownKey,
    UnsupportedField,
)
from .heights import MP, log_projective_height, projective_height, weil_height


def fmt(value) -> str:
    """12 significant digits for floats; exact integers and fractions verbatim."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# ---------------------------------------------------------------------------
# Run configuration files: `key = value` lines with # comments


_BOUND_KEYS = {f.name for f in fields(BoundConfig)}
_BOOL_KEYS = {"full_exponent"}


def _open(path: str, mode: str, action: str, **kwargs):
    """open(path, mode), with an OSError turned into BadParameter (exit 1)."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except OSError as exc:
        raise BadParameter(f"cannot {action} {path}: {exc.strerror or exc}") from exc


def load_config(path: str | None) -> BoundConfig:
    """Parse a config file; absent keys keep their defaults, a bad value fails on its line."""
    config = BoundConfig()
    if path is not None:
        with _open(path, "r", "read config") as handle:
            try:
                for lineno, raw in enumerate(handle, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ParseError(f"expected `key = value`, got {line!r}", lineno)
                    key, _, value = (part.strip() for part in line.partition("="))
                    if key not in _BOUND_KEYS:
                        raise UnknownKey(key)
                    value = _parse_typed(key, value)
                    try:
                        config = replace(config, **{key: value})
                    except BadParameter as exc:
                        raise BadValue(key, str(exc)) from exc
            except UnicodeDecodeError as exc:
                raise BadParameter(f"cannot read config {path}: not UTF-8 text") from exc
    return config


def _parse_typed(key: str, value: str):
    try:
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("1", "true", "yes"):
                return True
            if lowered in ("0", "false", "no"):
                return False
            raise ValueError("expected a boolean")
        return float(value)
    except ValueError as exc:
        raise BadValue(key, f"{value!r} ({exc})") from exc


def _config_from_args(args) -> BoundConfig:
    bound = load_config(getattr(args, "config", None))
    if getattr(args, "C", None) is not None:
        bound = bound.with_C(args.C)
    if getattr(args, "G_min", None) is not None:
        bound = replace(bound, G_min=args.G_min)
    if getattr(args, "full_exponent", False):
        bound = replace(bound, full_exponent=True)
    return bound


# ---------------------------------------------------------------------------
# CSV emission and re-reading (round-trip safe: all fields unquoted scalars)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with _open(path, "w", "write", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_NONE)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    """Re-parse an emitted CSV; numeric fields come back as int/Fraction/float."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [dict(zip(header, map(_parse_csv_value, row))) for row in reader]
    return header, rows


def _parse_csv_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:  # exact rationals only; plain decimals stay floats
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    try:
        return float(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# Subcommand handlers


def _triple_from_args(args) -> radical.AbcTriple:
    field = parse_field(args.field)
    a = parse_element(args.a, field)
    b = parse_element(args.b, field)
    z = getattr(args, "z", None)
    if (args.c is None) == (z is None):
        raise ParseError("give exactly one of --c (a+b+c=0) or --z (a+b=z)")
    c = -parse_element(z, field) if z is not None else parse_element(args.c, field)
    return radical.make_triple(a, b, c, field)


def _triple_row(t: radical.AbcTriple) -> list:
    sel = t.selectors
    smooth = radical.smoothness_S(t) if t.field.degree == 1 else ""
    return [
        str(t.a), str(t.b), str(t.c), t.field.label(), t.G, smooth,
        sel.n_a, sel.n_b, sel.n_c, sel.n_c_third, sel.n_q,
        float(MP.log(t.H)),
    ]


_TRIPLE_HEADER = ["a", "b", "c", "field", "G", "S", "N_a", "N_b", "N_c",
                  "N_c_third", "N_q", "log_H"]


def _cmd_factor(args) -> int:
    field = parse_field(args.field)
    element = parse_element(args.element, field)
    fac = factor_element(element)
    pieces = " * ".join(
        f"({e.prime})^{e.exponent}" if e.exponent > 1 else f"({e.prime})"
        for e in fac
    )
    print(f"{element} = ({fac.unit})" + (f" * {pieces}" if pieces else ""))
    for e in fac:
        print(f"  prime {e.prime}  exponent {e.exponent}  norm {e.norm}")
    return 0


def _cmd_height(args) -> int:
    field = parse_field(args.field)
    if args.coords:
        coords = [parse_element(s, field) for s in args.coords.split(",")]
        h = projective_height(coords, field)
        print(f"H = {fmt(h)}")
        print(f"log H = {fmt(log_projective_height(coords, field))}")
        return 0
    if args.num is None:
        raise ParseError("height needs either --coords or --num [--den]")
    num = parse_element(args.num, field)
    den = parse_element(args.den, field) if args.den else None
    print(f"h = {fmt(weil_height(num, den, field))}")
    return 0


def _cmd_radical(args) -> int:
    triple = _triple_from_args(args)
    row = _triple_row(triple)
    sel = triple.selectors
    print(f"G={triple.G}")
    if triple.field.degree == 1:
        print(f"S={row[5]}")
    print(f"N_a={sel.n_a} N_b={sel.n_b} N_c={sel.n_c} "
          f"N_c_third={sel.n_c_third} N_q={sel.n_q}")
    print(f"log H = {fmt(row[-1])}")
    if args.out:
        write_csv(args.out, _TRIPLE_HEADER, [row])
    return 0


_THEOREMS = {1: bounds.thm1_rhs, 2: bounds.thm2_rhs, 3: bounds.thm3_rhs}


def _cmd_abc_check(args) -> int:
    triple = _triple_from_args(args)
    config = _config_from_args(args)
    report = _THEOREMS[args.theorem](triple, config)
    print(f"theorem {args.theorem}: {'holds' if report.holds else 'FAILS'} "
          f"lhs={fmt(report.lhs)} rhs={fmt(report.rhs)} "
          f"margin={fmt(report.margin)} regime={report.regime}")
    if report.weak_rhs is not None:
        print(f"weak form rhs = {fmt(report.weak_rhs)}")
    if args.out:
        row = [str(triple.a), str(triple.b), str(triple.c), triple.field.label(),
               args.theorem, report.lhs, report.rhs, report.margin, report.regime]
        write_csv(args.out, ["a", "b", "c", "field", "theorem", "lhs", "rhs",
                             "margin", "regime"], [row])
    return 0


def _cmd_corollary(args) -> int:
    triple = _triple_from_args(args)
    config = _config_from_args(args)
    report = bounds.corollary_bound(args.id, triple, config,
                                    alpha=args.alpha, form=args.form)
    print(f"corollary {args.id}: {'holds' if report.holds else 'FAILS'} "
          f"lhs={fmt(report.lhs)} rhs={fmt(report.rhs)} margin={fmt(report.margin)} "
          f"[{report.detail}] regime={report.regime}")
    return 0


def _cmd_yu_bound(args) -> int:
    try:
        heights = [float(h) for h in args.heights.split(",")] if args.heights else []
    except ValueError as exc:
        raise BadParameter(f"--heights must be comma-separated numbers: {exc}") from exc
    value = bounds.yu_ord_bound(args.n, args.degree, args.e_p, args.norm_p,
                                heights, args.B)
    print(fmt(value))
    return 0


def _cmd_landau(args) -> int:
    field = parse_field(args.field)
    print(fmt(bounds.landau_min_constant(field, args.R)))
    return 0


def _cmd_tidy(args) -> int:
    print(fmt(bounds.tidy_bound(args.x)))
    return 0


def _cmd_sml_decide(args) -> int:
    spec = sml.RecurrenceSpec(args.c1, args.c2, args.c3, args.a0, args.a1, args.a2)
    config = _config_from_args(args)
    verdict = sml.decide_zeros(spec, config, cap=args.cap)
    if verdict.status in ("Degenerate", "Unsupported"):
        print(f"{verdict.status}: {verdict.reason}")
        print(verdict.machine_line())
        return 3 if verdict.status == "Degenerate" else 2
    print(f"{verdict.status}: checked n <= {verdict.N} "
          f"(raw bound {fmt(verdict.bound)}, G={verdict.G}, "
          f"h_max={fmt(verdict.h_max)}, C={fmt(verdict.C)})")
    if verdict.truncated:
        print(f"enumeration truncated at the cap: {verdict.reason}")
    if verdict.zeros:
        print("zeros at n = " + ", ".join(str(n) for n in verdict.zeros))
    print(verdict.machine_line())
    return 0


def _cmd_xyz_search(args) -> int:
    triples = xyz.enumerate_triples(args.P, args.limit, workers=args.workers)
    rows = []
    passed = below = 0
    for t in triples:
        holds, slack = xyz.verify_lemma9(t)
        status = xyz.thm4_status(t.s, t.h, args.phi)
        passed += status == "pass"
        below += status == "below-threshold"
        rows.append([t.x, t.y, t.z, t.s, t.g, t.h, t.log_h, slack,
                     status == "pass", status == "below-threshold"])
    write_csv(args.out, ["X", "Y", "Z", "S", "G", "H", "logH", "lemma9_slack",
                         "passes_thm4", "below_threshold"], rows)
    print(f"{len(triples)} primitive {args.P}-smooth triples with Z <= {args.limit}; "
          f"{passed} pass the filter, {below} below the nesting threshold")
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _config_from_args(args)
    triples = radical.enumerate_primitive_triples(args.H_limit)
    value = bounds.empirical_min_C(triples, args.theorem, config)
    print(f"empirical min C for theorem {args.theorem} over "
          f"{len(triples)} triples with H <= {args.H_limit}: {fmt(value)}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and dispatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract is 1
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _add_triple_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", default="Q")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", default=None, help="third coordinate of a + b + c = 0")
    p.add_argument("--z", default=None, help="right side of a + b = z (c becomes -z)")


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--C", type=float, default=None, help="leading constant C_main")
    p.add_argument("--G-min", dest="G_min", type=float, default=None)
    p.add_argument("--full-exponent", dest="full_exponent", action="store_true")
    p.add_argument("--config", default=None, help="path to a key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="abckit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("factor", help="factor an element into canonical primes")
    p.add_argument("--field", default="Q")
    p.add_argument("--element", required=True)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("height", help="projective height of coords, or Weil height")
    p.add_argument("--field", default="Q")
    p.add_argument("--coords", default=None, help="comma-separated elements")
    p.add_argument("--num", default=None)
    p.add_argument("--den", default=None)
    p.set_defaults(handler=_cmd_height)

    p = sub.add_parser("radical", help="radical G, smoothness and selectors")
    _add_triple_options(p)
    p.add_argument("--out", default=None, help="write the CSV row here")
    p.set_defaults(handler=_cmd_radical)

    p = sub.add_parser("abc-check", help="evaluate a bound report for a triple")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    _add_triple_options(p)
    _add_config_options(p)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_abc_check)

    p = sub.add_parser("corollary", help="evaluate a corollary bound")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--form", type=int, choices=(1, 2), default=None)
    _add_triple_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_corollary)

    p = sub.add_parser("yu-bound", help="explicit prime-order bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--e-p", dest="e_p", type=int, required=True)
    p.add_argument("--norm-p", dest="norm_p", type=int, required=True)
    p.add_argument("--heights", required=True, help="comma-separated heights")
    p.add_argument("--B", type=float, required=True)
    p.set_defaults(handler=_cmd_yu_bound)

    p = sub.add_parser("landau", help="prime-ideal product constant")
    p.add_argument("--field", default="Q")
    p.add_argument("--R", type=int, required=True)
    p.set_defaults(handler=_cmd_landau)

    p = sub.add_parser("tidy", help="max(e, 2x log x)")
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(handler=_cmd_tidy)

    p = sub.add_parser("sml", help="linear recurrence tools")
    sml_sub = p.add_subparsers(dest="sml_command", required=True, parser_class=_Parser)
    p = sml_sub.add_parser("decide", help="decide zero existence for an order-3 recurrence")
    for name in ("c1", "c2", "c3", "a0", "a1", "a2"):
        p.add_argument(f"--{name}", type=int, required=True)
    _add_config_options(p)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(handler=_cmd_sml_decide)

    p = sub.add_parser("xyz", help="smooth triple tools")
    xyz_sub = p.add_subparsers(dest="xyz_command", required=True, parser_class=_Parser)
    p = xyz_sub.add_parser("search", help="enumerate smooth primitive triples")
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--phi", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_xyz_search)

    p = sub.add_parser("calibrate", help="smallest C making a bound hold on a dataset")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--H-limit", dest="H_limit", type=int, required=True)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_calibrate)

    return parser


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except UnsupportedField as exc:
        print(f"unsupported field: {exc}", file=sys.stderr)
        return 2
    except NotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
