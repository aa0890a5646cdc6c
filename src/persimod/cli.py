"""Command-line front door.

One command per process; the parser dispatches it to `run(args, field)`,
and `persimod.io` reads every input file, `PERSIMOD_CONFIG` included.
Exit code 0 on success, 1 on domain errors (bad parameters, failed
tolerance, undiagonalizable towers), 2 on I/O and parse errors.
`--machine` switches to line-oriented key=value records; in either mode
output bytes are deterministic for fixed inputs.  The float cone code, and
with it numpy, is imported only by the commands that build a point cloud
(`cone-test`, `cantor --emit-cloud` and `validate` on a `.csv`), so every
other command starts without it.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .barcodes import Bar, Barcode
from .canonical import DiagonalizationError
from .cantor import _cantor_ratio, cantor_cubes, corner_cloud, displacement_bound
from .fields import GF2, field_by_name
from .intervals import Interval, POS_INF, check_printable, parse_rational
from .interleaving import check_interleaving, gamma, gamma_symmetric
from .io import (
    ParseError,
    _lines,
    _parsed,
    _read_text,
    _write,
    emit_barcode,
    emit_certificate,
    emit_cloud,
    load_certificate,
    load_system,
    parse_barcode,
    parse_cloud,
    parse_plfunction,
    stage_files,
    validate_file,
)
from .limits import CompletionError, complete_cauchy, defect_check, hocolim
from .spectral import spectral_invariants, sublevel_barcode

__all__ = ["main", "rational_degeneracy"]


def _switch(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected one of 1/0/true/false/yes/no, got {raw!r}")
    return word in ("1", "true", "yes")


# Each config key with the parser that checks its value.
_CONFIG_KEYS = {"field": field_by_name, "machine": _switch}

# The Farey barcodes hold about 0.3 N^2 bars, and the order-preserving
# matching walks the whole staircase for each: N = 64 takes about 1 s,
# N = 100 about 5 s and N = 140 about 24 s.
MAX_DEMO_DENOM = 64


def _load_config() -> dict:
    """`key = value` defaults from the file named by PERSIMOD_CONFIG.

    An unreadable named file, an unknown or repeated key, a value its key's
    parser refuses, or a line that is not `key = value` raises ParseError."""
    path = os.environ.get("PERSIMOD_CONFIG")
    if not path:
        return {}
    out = {}
    for n, line in _lines(_read_text(path)):
        if "=" not in line:
            raise ParseError(path, n, "expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ParseError(path, n, f"unknown key {key!r}")
        if key in out:
            raise ParseError(path, n, f"duplicate key {key!r}")
        _parsed(path, n, f"bad {key} value", _CONFIG_KEYS[key], val)
        out[key] = val
    return out


def build_parser() -> argparse.ArgumentParser:
    """The argument tree; `main` fills an unset `--field` or `--machine` from the config."""
    top = argparse.ArgumentParser(prog="persimod", description=__doc__)
    top.add_argument("--field", default=None,
                     help="scalar field: a prime p or 'q' for rationals")
    top.add_argument("--machine", action="store_true",
                     help="emit line-oriented key=value records")
    sub = top.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="interleaving distances")
    dsub = dist.add_subparsers(dest="subcommand", required=True)
    dg = dsub.add_parser("gamma", help="asymmetric interleaving distance")
    dg.add_argument("left")
    dg.add_argument("right")
    dg.add_argument("--symmetric", action="store_true")
    dg.add_argument("--certificate", default="gamma.cert",
                    help="where to write the verified certificate")
    dg.set_defaults(run=_cmd_gamma)
    dc = dsub.add_parser("check", help="decide an (a,b)-interleaving")
    dc.add_argument("left")
    dc.add_argument("right")
    dc.add_argument("--a", required=True)
    dc.add_argument("--b", required=True)
    dc.set_defaults(run=_cmd_check)

    sp = sub.add_parser("spectral", help="read spectral numbers off a barcode")
    sp.add_argument("file")
    sp.add_argument("--convention", required=True, choices=("LeftInfinite", "Sublevel"))
    sp.add_argument("--dim", required=True, type=int)
    sp.set_defaults(run=_cmd_spectral)

    sl = sub.add_parser("sublevel", help="sublevel persistence of a PL function")
    sl.add_argument("file")
    sl.set_defaults(run=_cmd_sublevel)

    lim = sub.add_parser("limit", help="truncated colimit of a tower directory")
    lim.add_argument("dir")
    lim.add_argument("--defect", type=int, default=None,
                     help="also run the stage-n defect comparison")
    lim.set_defaults(run=_cmd_limit)

    comp = sub.add_parser("complete", help="Cauchy completion of a barcode sequence")
    comp.add_argument("dir")
    comp.add_argument("--tol", required=True)
    comp.set_defaults(run=_cmd_complete)

    cone = sub.add_parser("cone-test", help="cone-level coisotropy test")
    cone.add_argument("--cloud", required=True)
    cone.add_argument("--point", required=True,
                      help="base point, comma- or space-separated coordinates")
    cone.add_argument("--theta-res", type=float, default=5.0)
    cone.set_defaults(run=_cmd_cone)

    can = sub.add_parser("cantor", help="Cantor cube families and displacement bounds")
    can.add_argument("--a", required=True)
    can.add_argument("--n", required=True, type=int)
    can.add_argument("--k", required=True, type=int)
    group = can.add_mutually_exclusive_group()
    group.add_argument("--emit-cloud", action="store_true")
    group.add_argument("--bound-table", action="store_true")
    can.set_defaults(run=_cmd_cantor)

    demo = sub.add_parser("demo", help="built-in demonstration scenarios")
    dsub2 = demo.add_subparsers(dest="scenario", required=True)
    rd = dsub2.add_parser("rational-degeneracy",
                          help="distinct barcodes at certified distance 1/N")
    rd.add_argument("--denom-max", required=True, type=int)
    rd.set_defaults(run=_cmd_demo)

    val = sub.add_parser("validate", help="parse any fixture file and summarize")
    val.add_argument("file")
    val.set_defaults(run=_cmd_validate)
    return top


def _farey(n: int) -> List[Fraction]:
    return sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})


def rational_degeneracy(denom_max: int, field=GF2):
    """Two distinct one-degree barcodes of right-infinite bars at every
    reduced fraction of denominator <= N, interleaved at shifts (0, 1/N).

    Returns (F, G, certificate); the certificate is matching-built and
    verified, so the distance between the distinct barcodes is at most 1/N.
    """
    if not 2 <= denom_max <= MAX_DEMO_DENOM:
        raise ValueError(f"need 2 <= denominator bound <= {MAX_DEMO_DENOM}, got {denom_max}")
    pts = _farey(denom_max)
    F = Barcode([Bar(0, Interval(x, POS_INF)) for x in pts if x < 1])
    G = Barcode([Bar(0, Interval(x, POS_INF)) for x in pts if x > 0])
    if F == G:
        raise ValueError("degeneracy demo produced equal barcodes")
    cert = check_interleaving(F, G, 0, Fraction(1, denom_max), field=field)
    if cert is None:
        raise ValueError("no certificate at the advertised shifts")
    return F, G, cert


def _emit(args, human: str, records: List[str]) -> None:
    if args.machine:
        for rec in records:
            print(rec)
    else:
        print(human)


def _cmd_check(args, field) -> int:
    F, G = parse_barcode(args.left), parse_barcode(args.right)
    result = check_interleaving(F, G, parse_rational(args.a), parse_rational(args.b), field=field)
    word = "interleaved" if result is not None else "not-interleaved"
    _emit(args, word, [f"a={args.a}", f"b={args.b}", f"result={word}"])
    return 0


def _cmd_gamma(args, field) -> int:
    F, G = parse_barcode(args.left), parse_barcode(args.right)
    fn = gamma_symmetric if args.symmetric else gamma
    report = fn(F, G, field=field)
    # A distance between printable barcodes can be too long to print.
    if report.value.is_finite:
        check_printable("distance", report.value.as_fraction())
    records = [
        f"value={report.value}",
        f"exactness={report.exactness}",
        f"lower={report.lower}",
        f"upper={report.upper}",
    ]
    human = f"{report.value} {report.exactness.lower()}"
    if report.certificate is not None:
        _write(args.certificate, emit_certificate(F, G, report.certificate))
        load_certificate(args.certificate)  # re-verify what we just wrote
        records.append(f"certificate={args.certificate}")
        human += f" (certificate: {args.certificate})"
    else:
        records.append("certificate=none")
    _emit(args, human, records)
    return 0


def _cmd_spectral(args, field) -> int:
    report = spectral_invariants(parse_barcode(args.file), args.convention, args.dim)
    spectrum = ",".join(f"{d}:{v}" for d, v in report.invariants)
    _emit(
        args,
        f"c-={report.c_minus} c+={report.c_plus} gamma={report.gamma}",
        [
            f"c_minus={report.c_minus}",
            f"c_plus={report.c_plus}",
            f"gamma={report.gamma}",
            f"spectrum={spectrum}",
        ],
    )
    return 0


def _cmd_sublevel(args, field) -> int:
    sys.stdout.write(emit_barcode(sublevel_barcode(parse_plfunction(args.file))))
    return 0


def _cmd_limit(args, field) -> int:
    system = load_system(args.dir, field)
    if args.defect is not None:
        lhs, rhs, ok = defect_check(system, args.defect)
        _emit(
            args,
            f"defect at stage {args.defect}: {lhs} <= {rhs}: {'ok' if ok else 'VIOLATED'}",
            [f"stage={args.defect}", f"lhs={lhs}", f"rhs={rhs}", f"ok={str(ok).lower()}"],
        )
        return 0 if ok else 1
    result = hocolim(system)
    _emit(args, f"error bound: {result.error_bound}", [f"error_bound={result.error_bound}"])
    sys.stdout.write(emit_barcode(result.barcode))
    return 0


def _cmd_complete(args, field) -> int:
    seq = [parse_barcode(path) for path in stage_files(args.dir)]
    result = complete_cauchy(seq, parse_rational(args.tol), field=field)
    _emit(
        args,
        f"start: {result.start}; distance to last stage: {result.final_gamma.value}",
        [f"start={result.start}", f"final_gamma={result.final_gamma.value}"],
    )
    sys.stdout.write(emit_barcode(result.barcode))
    return 0


def _cmd_cone(args, field) -> int:
    from .cones import ConeParams, cone_coisotropy_test

    cloud = parse_cloud(args.cloud)
    point = [float(t) for t in args.point.replace(",", " ").split()]
    params = ConeParams(theta_res=args.theta_res)
    verdict = cone_coisotropy_test(cloud, point, params)
    if verdict.witness is not None:
        normal = ",".join(repr(float(x)) for x in verdict.witness.normal)
        _emit(args, f"{verdict.kind} witness-normal {normal}",
              [f"verdict={verdict.kind}", f"witness={normal}"])
    else:
        _emit(args, verdict.kind, [f"verdict={verdict.kind}"])
    return 0


def _cmd_cantor(args, field) -> int:
    a = parse_rational(args.a)
    if args.bound_table:
        # Deepest level first, so an over-budget table fails before any
        # work; every line is formatted before the first is written.
        rows = [(k, displacement_bound(a, k, args.n)) for k in range(args.k, 0, -1)]
        form = "level={} bound={}\n" if args.machine else "{} {}\n"
        sys.stdout.write("".join(form.format(k, bound) for k, bound in reversed(rows)))
        return 0
    if args.emit_cloud:
        sys.stdout.write(emit_cloud(corner_cloud(cantor_cubes(a, args.k, args.n))))
        return 0
    # An unprintable bound is refused before any cube is built; bad
    # parameters are still reported as `cantor_cubes` reports them.
    bound = displacement_bound(_cantor_ratio(a, args.k, args.n), args.k, args.n)
    family = cantor_cubes(a, args.k, args.n)
    _emit(
        args,
        f"{len(family.cubes)} cubes of edge {a ** args.k}; displacement bound {bound}",
        [f"cubes={len(family.cubes)}", f"edge={a ** args.k}", f"bound={bound}"],
    )
    return 0


def _cmd_demo(args, field) -> int:
    n = args.denom_max
    F, G, cert = rational_degeneracy(n, field)
    _emit(
        args,
        f"distinct barcodes ({len(F.bars)} vs {len(G.bars)} bars), "
        f"certified gamma <= 1/{n}",
        [
            f"n={n}",
            "distinct=true",
            f"bound={Fraction(1, n)}",
            f"cert_a={cert.a}",
            f"cert_b={cert.b}",
        ],
    )
    return 0


def _cmd_validate(args, field) -> int:
    print(validate_file(args.file, field))
    return 0


_PARSER = build_parser()  # holds no input and no result, so one serves every call


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = _load_config()  # a bad config is exit 2 before argv is parsed
        args = _PARSER.parse_args(argv)
        field = cfg.get("field", "2") if args.field is None else args.field
        args.machine = args.machine or _switch(cfg.get("machine", "no"))
        return args.run(args, field_by_name(field))
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, DiagonalizationError, CompletionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
