"""Command-line front end.

Every command reads one input file (--input), works in exact rational
arithmetic, and prints either an aligned table or deterministic JSON
(--format json).  Exit status: 0 success, 1 a mathematical validation
failed, 2 the input could not be read or parsed.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable

from . import jsonio, picard_fuchs, vshs
from .amodel import InstantonTable, cover_power, instantons_from_g
from .scalars import Scalar, format_scalar, parse_scalar
from .series import Series

# the largest --order any command accepts; the benchmark runs order 32
MAX_ORDER = 256
# the most digits --decimal prints; CPython refuses to turn an int of more
# than 4300 digits into a string
MAX_DECIMAL = 1000
# the most digits of each numerator and denominator of --volume; the
# printed values carry the volume's digits on top of their own (under 1000
# for the quintic at MAX_ORDER), and stay under that same 4300
MAX_VOLUME_DIGITS = 1000


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise picard_fuchs.ParseError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _fraction_decimal(f: Fraction, digits: int) -> str:
    neg = f < 0
    a = -f if neg else f
    scaled = (a.numerator * 10 ** digits +
              a.denominator // 2) // a.denominator
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{'-' if neg else ''}{whole}.{frac:0{digits}d}"


def _decimal_str(x: Scalar, digits: int) -> str:
    if x.im == 0:
        return _fraction_decimal(x.re, digits)
    re_part = _fraction_decimal(x.re, digits)
    im_part = _fraction_decimal(x.im, digits)
    joiner = "+" if x.im > 0 else ""
    return f"{re_part}{joiner}{im_part}i"


def _value_cell(x: Scalar, decimal: int | None) -> str:
    text = format_scalar(x)
    if decimal is not None and not x.is_integer():
        text += f"  (~ {_decimal_str(x, decimal)})"
    return text


def _print_series(s: Series, var: str, label: str,
                  decimal: int | None) -> None:
    print(f"# {label} mod {var}^{s.order}")
    for k, c in enumerate(s.coeffs):
        if c.is_zero():
            continue
        print(f"{var}^{k:<4d} {_value_cell(c, decimal)}")


def _print_table(table: InstantonTable, decimal: int | None) -> None:
    print(f"# instanton numbers through degree {table.max_degree}")
    if not table.entries:
        print("(all zero)")
    for d, v in sorted(table.entries.items()):
        flag = "   [not an integer]" if d in table.suspect else ""
        print(f"d={d:<5d} {_value_cell(v, decimal)}{flag}")


def _parse_volume(text: str) -> Scalar:
    try:
        vol = parse_scalar(text)
    except ValueError as exc:
        raise picard_fuchs.ParseError(f"--volume: {exc}") from None
    if vol.is_zero():
        raise vshs.ZeroScalar("volume must be nonzero")
    bound = 10 ** MAX_VOLUME_DIGITS
    if any(abs(n) >= bound for part in (vol.re, vol.im)
           for n in (part.numerator, part.denominator)):
        raise picard_fuchs.ParseError(
            f"--volume has a numerator or denominator of more than "
            f"MAX_VOLUME_DIGITS = {MAX_VOLUME_DIGITS} digits")
    return vol


def _signed_report(op: picard_fuchs.PFOperator, volume: Scalar,
                   order: int, sign: int) -> vshs.NormalFormReport:
    report = picard_fuchs.bmodel_normal_form(op, volume, order)
    if sign == 1:
        return report
    return vshs.NormalFormReport(
        mirror_coordinate=report.mirror_coordinate * Scalar(sign),
        gauge=report.gauge,
        dn=vshs.rescale_coordinate(report.dn, Scalar(sign)),
        volume_index=report.volume_index)


def _instantons(report: vshs.NormalFormReport,
                volume: Scalar) -> InstantonTable:
    return instantons_from_g(picard_fuchs.g_series(report.dn, volume),
                             volume, report.dn.n)


def _cmd_pipeline(args) -> int:
    op = picard_fuchs.parse_pf(_read_input(args.input))
    volume = _parse_volume(args.volume)
    cover_power(op.order_theta - 1)  # refuses n >= 5 before the normal form
    report = _signed_report(op, volume, args.order, args.sign)
    table = _instantons(report, volume)
    yuk = vshs.yukawa(report.dn)
    if args.format == "json":
        payload = {
            "kind": "pipeline_report",
            "normal_form": jsonio.report_to_obj(report),
            "yukawa": jsonio.series_to_obj(yuk),
            "instantons": jsonio.table_to_obj(table),
        }
        sys.stdout.write(jsonio.dumps(payload))
        return 0
    _print_series(report.mirror_coordinate, "q", "mirror map Q(q)",
                  args.decimal)
    print()
    _print_series(yuk, "Q", "Yukawa coupling", args.decimal)
    print()
    _print_table(table, args.decimal)
    return 0


def _cmd_mirror_map(args) -> int:
    op = picard_fuchs.parse_pf(_read_input(args.input))
    basis = picard_fuchs.frobenius_solve(op, depth=2, order=args.order)
    q_frob = picard_fuchs.mirror_map_frobenius(basis)
    geometric = picard_fuchs.companion_vhs(op, args.order)
    canon = vshs.to_canonical_connection(geometric)
    q_canon = vshs.canonical_coordinate(canon.a_series, canon.levels2)
    picard_fuchs.check_mirror_maps(q_canon, q_frob)
    series = q_frob * Scalar(args.sign)
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(
            {"kind": "mirror_map", "series": jsonio.series_to_obj(series)}))
        return 0
    _print_series(series, "q", "mirror map Q(q), both routes agree",
                  args.decimal)
    return 0


def _cmd_yukawa(args) -> int:
    op = picard_fuchs.parse_pf(_read_input(args.input))
    volume = _parse_volume(args.volume)
    report = _signed_report(op, volume, args.order, args.sign)
    yuk = vshs.yukawa(report.dn)
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(
            {"kind": "yukawa", "series": jsonio.series_to_obj(yuk)}))
        return 0
    _print_series(yuk, "Q", "Yukawa coupling", args.decimal)
    return 0


def _cmd_instantons(args) -> int:
    op = picard_fuchs.parse_pf(_read_input(args.input))
    volume = _parse_volume(args.volume)
    cover_power(op.order_theta - 1)  # refuses n >= 5 before the normal form
    report = _signed_report(op, volume, args.order, args.sign)
    table = _instantons(report, volume)
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(jsonio.table_to_obj(table)))
        return 0
    _print_table(table, args.decimal)
    return 0


def _cmd_normal_form(args) -> int:
    op = picard_fuchs.parse_pf(_read_input(args.input))
    volume = _parse_volume(args.volume)
    report = _signed_report(op, volume, args.order, args.sign)
    if args.format == "json":
        sys.stdout.write(jsonio.dumps(jsonio.report_to_obj(report)))
        return 0
    dn = report.dn
    print(f"n = {dn.n}, degrees {dn.degrees}")
    print(f"volume index {report.volume_index}")
    _print_series(report.mirror_coordinate, "q", "mirror map Q(q)",
                  args.decimal)
    print()
    print("# pairing at q = 0")
    for row in dn.pairing0:
        print("  " + "  ".join(format_scalar(x) for x in row))
    print()
    # from n = 5 on g(Q) is a product of several entries of A
    label = ("middle connection entry g(Q)" if dn.n <= 4
             else "Yukawa coupling over the volume")
    _print_series(picard_fuchs.g_series(dn, volume), "Q", label,
                  args.decimal)
    return 0


def _cmd_check(args) -> int:
    text = _read_input(args.input)
    try:
        obj = jsonio.load_text(text)
    except (picard_fuchs.NotMaximallyUnipotent, vshs.InvariantViolation,
            vshs.ZeroScalar) as exc:
        print(f"FAIL: {exc}")
        return 1
    if isinstance(obj, vshs.ReesModule):
        report = vshs.verify_prevhs(obj)
        width = max(len(k) for k in report)
        ok = True
        for key, passed in report.items():
            print(f"{key:<{width}}  {'ok' if passed else 'FAIL'}")
            ok = ok and passed
        return 0 if ok else 1
    if isinstance(obj, vshs.DnObject):
        print(f"dn_object: n = {obj.n}, degrees {obj.degrees}: ok")
        return 0
    if isinstance(obj, vshs.GeometricVHS):
        print(f"geometric_vhs: rank {obj.rank}, levels {obj.levels2}: ok")
        return 0
    if isinstance(obj, picard_fuchs.PFOperator):
        print(f"pf_operator: order {obj.order_theta}, "
              "maximally unipotent: ok")
        return 0
    if isinstance(obj, InstantonTable):
        status = "ok" if not obj.suspect else \
            f"FAIL: non-integral at degrees {list(obj.suspect)}"
        print(f"instanton_table: {len(obj.entries)} entries: {status}")
        return 0 if not obj.suspect else 1
    print(f"{type(obj).__name__}: parsed: ok")
    return 0


def _cmd_rees_roundtrip(args) -> int:
    obj = jsonio.load_text(_read_input(args.input))
    if not isinstance(obj, vshs.DnObject):
        raise ValueError("rees-roundtrip expects a dn_object input")
    rees = vshs.from_normal_form(obj)
    print(f"from_normal_form: rank {rees.rank}, degrees {rees.degrees}")
    report = vshs.verify_prevhs(rees)
    ok = all(report.values())
    width = max(len(k) for k in report)
    for key, passed in report.items():
        print(f"  {key:<{width}}  {'ok' if passed else 'FAIL'}")
    geometric = vshs.rees_to_geometric(rees)
    back = vshs.geometric_to_rees(geometric)
    ident = back == rees
    print(f"rees -> geometric -> rees identity: "
          f"{'ok' if ident else 'FAIL'}")
    nf = vshs.to_normal_form(geometric)
    coord = nf.mirror_coordinate == Series.coordinate(rees.order)
    exact = nf.dn == obj
    print(f"canonical coordinate is q: {'ok' if coord else 'FAIL'}")
    print(f"normal form returns the input exactly: "
          f"{'ok' if exact else 'FAIL'}")
    return 0 if (ok and ident and coord and exact) else 1


def _add_common(p: argparse.ArgumentParser, *, volume: bool = True,
                sign: bool = True) -> None:
    p.add_argument("--input", required=True, help="input file")
    p.add_argument("--order", type=int, default=16,
                   help="truncation order (default 16)")
    if volume:
        p.add_argument("--volume", default="5",
                       help="volume scalar (default 5)")
    if sign:
        p.add_argument("--sign", type=int, choices=(1, -1), default=1,
                       help="sign of the canonical coordinate")
    p.add_argument("--format", choices=("table", "json"),
                   default="table")
    p.add_argument("--decimal", type=int, default=None, metavar="K",
                   help="append K-digit decimal approximations in tables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vshs",
        description="mirror-symmetry computations in exact arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    handlers: dict[str, Callable] = {
        "pipeline": _cmd_pipeline,
        "mirror-map": _cmd_mirror_map,
        "yukawa": _cmd_yukawa,
        "instantons": _cmd_instantons,
        "normal-form": _cmd_normal_form,
    }
    descriptions = {
        "pipeline": "operator -> mirror map, Yukawa coupling, instantons",
        "mirror-map": "both mirror-map routes, checked against each other",
        "yukawa": "Yukawa coupling of the operator's normal form",
        "instantons": "instanton numbers of the operator",
        "normal-form": "full normal-form report",
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name, help=descriptions[name])
        _add_common(p, volume=(name != "mirror-map"))
        p.set_defaults(func=handler)

    p = sub.add_parser("check", help="validate a stored object")
    p.add_argument("--input", required=True, help="input file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rees-roundtrip",
                       help="dn_object -> Rees module -> back, verified")
    p.add_argument("--input", required=True, help="input file")
    p.set_defaults(func=_cmd_rees_roundtrip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    order = getattr(args, "order", 16)
    if order < 2:
        print("error: --order must be at least 2", file=sys.stderr)
        return 1
    if order > MAX_ORDER:
        print(f"error: --order exceeds the limit MAX_ORDER = {MAX_ORDER}",
              file=sys.stderr)
        return 2
    decimal = getattr(args, "decimal", None)
    if decimal is not None and decimal < 0:
        print("error: --decimal must be nonnegative", file=sys.stderr)
        return 2
    if decimal is not None and decimal > MAX_DECIMAL:
        print(f"error: --decimal exceeds the limit MAX_DECIMAL = "
              f"{MAX_DECIMAL}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (picard_fuchs.ParseError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
