"""Command-line front end: volume tables, single-case computations, special
values, and oracle-verification runs in text/JSON/CSV.

Exit codes are the only failure channel: 0 success, 2 invalid input,
3 verification mismatch or violated invariant, 4 enumeration budget exceeded.
In json/csv modes stdout carries only the payload; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from mpmath import nstr

from .arith import is_prime
from .group_enum import (BudgetExceeded, count_group, count_kernel, default_budget,
                         oracle_tau_p, stabilization_check)
from .local_density import tau_p
from .quadfield import make_field
from .residue_ring import ResidueRing
from .special_values import exact_numeric, l_exact, l_numeric, zeta_exact, zeta_numeric
from .volume import (Verdict, compare_pipelines, evaluate_numeric, hm_assembled, hm_table,
                     rationalize)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4

_TABLE_COLUMNS = ["lattice", "n", "d", "D", "volume_rational", "volume_numeric",
                  "zeta_args", "l_args", "pipeline_agreement"]


def _fail(msg: str, code: int) -> int:
    print(f"hmvol: {msg}", file=sys.stderr)
    return code


def _rat_str(v: Fraction) -> str:
    # the volume coefficients outgrow Python's int -> str digit limit (4300
    # digits) from n = 90 on; lift it for the package's own rationals only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{v.numerator}/{v.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def _num_str(v) -> str:
    return nstr(v, 13)


def _field_or_none(d: int):
    try:
        return make_field(d)
    except ValueError:
        return None


def _record(lattice: str, n: int, field, pipeline: str, tol) -> dict:
    """One OutputRecord; with pipeline "both" the verdict compares the table
    transcription against the authoritative assembly."""
    if pipeline == "table":
        expr = hm_table(lattice, n, field).expr
    else:
        expr = hm_assembled(lattice, n, field)
    verdict = None
    if pipeline == "both":
        case = compare_pipelines(lattice, n, field)
        value, verdict = case.assembled_value, case.verdict
    else:
        value = rationalize(expr, field)
    numeric, bound = evaluate_numeric(expr, field, tol)
    return {
        "lattice": lattice,
        "n": n,
        "d": field.d,
        "D": field.D,
        "volume_rational": _rat_str(value),
        "volume_numeric": float(numeric),
        "volume_error_bound": float(bound),
        "coefficient": _rat_str(expr.coeff),
        "d_power": _rat_str(expr.d_power),
        "zeta_args": list(expr.zeta_args),
        "l_args": list(expr.l_args),
        "provenance": pipeline,
        "verdict": verdict.value if verdict else None,
    }


def _emit_records(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(records, indent=2))
        return
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(_TABLE_COLUMNS)
        for r in records:
            w.writerow(_table_row(r))
        sys.stdout.write(buf.getvalue())
        return
    for r in records:
        verdict = f" [{r['verdict']}]" if r["verdict"] else ""
        print(f"lattice={r['lattice']} n={r['n']} d={r['d']} D={r['D']} "
              f"volume={r['volume_rational']} "
              f"(~{r['volume_numeric']:.10g} +/- {r['volume_error_bound']:.2g}) "
              f"pipeline={r['provenance']}{verdict}")


def _table_row(r: dict) -> list:
    agreement = r["verdict"] if r["verdict"] else r["provenance"]
    return [r["lattice"], r["n"], r["d"], r["D"], r["volume_rational"],
            f"{r['volume_numeric']:.12g}",
            ";".join(str(a) for a in r["zeta_args"]),
            ";".join(str(a) for a in r["l_args"]),
            agreement]


def _cmd_compute(args) -> int:
    field = _field_or_none(args.d)
    if field is None:
        return _fail(f"d={args.d} is not odd and squarefree", EXIT_INVALID)
    if args.n < 1:
        return _fail("n must be >= 1", EXIT_INVALID)
    lattices = ["L", "M"] if args.lattice == "both" else [args.lattice]
    records = [_record(lat, args.n, field, args.pipeline, args.tol) for lat in lattices]
    _emit_records(records, args.format)
    if args.pipeline == "both" and any(r["verdict"] == Verdict.MISMATCH.value for r in records):
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_table(args) -> int:
    try:
        lo, hi = args.n_range.split("..")
        n_lo, n_hi = int(lo), int(hi)
        d_list = [int(x) for x in args.d_list.split(",") if x]
    except ValueError:
        return _fail(f"bad range/list: --n-range {args.n_range} --d-list {args.d_list}",
                     EXIT_INVALID)
    if n_lo < 1 or n_hi < n_lo or not d_list:
        return _fail("invalid n range or empty d list", EXIT_INVALID)
    fields = []
    for d in d_list:
        f = _field_or_none(d)
        if f is None:
            return _fail(f"d={d} is not odd and squarefree", EXIT_INVALID)
        fields.append(f)
    if args.format != "csv":
        return _fail("table output is csv only", EXIT_INVALID)
    lattices = ["L", "M"] if args.lattice == "both" else [args.lattice]
    rows = []
    mismatch = False
    for lat in lattices:
        for n in range(n_lo, n_hi + 1):
            for field in fields:
                r = _record(lat, n, field, "both", args.tol)
                mismatch |= r["verdict"] == Verdict.MISMATCH.value
                rows.append(_table_row(r))
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as e:
        return _fail(f"cannot write {args.out}: {e}", EXIT_INVALID)
    try:
        w = csv.writer(out)
        w.writerow(_TABLE_COLUMNS)
        w.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_verify(args) -> int:
    field = None
    if args.d is not None:
        field = _field_or_none(args.d)
        if field is None:
            return _fail(f"d={args.d} is not odd and squarefree", EXIT_INVALID)
    if args.n < 1:
        return _fail("n must be >= 1", EXIT_INVALID)
    budget = args.budget if args.budget is not None else default_budget()
    dim = (args.n + 1) ** 2 - 1
    try:
        if args.oracle == "kernel":
            if field is not None and field.d % 4 != 1:
                return _fail("kernel formula is pinned for 2-ramified fields (d = 1 mod 4)",
                             EXIT_INVALID)
            got = count_kernel(args.lattice, args.n, field=field)
            want = 2 ** (args.n**2 + 3 * args.n) if args.lattice == "L" \
                else 2 ** (2 * args.n**2 + 5 * args.n)
            return _verdict_lines(f"kernel count ({args.lattice}, n={args.n})", got, want)
        if field is None:
            return _fail("--d is required for this oracle", EXIT_INVALID)
        if args.p is None:
            return _fail("--p is required for this oracle", EXIT_INVALID)
        if not is_prime(args.p):
            return _fail(f"{args.p} is not prime", EXIT_INVALID)
        level = 1 if args.level is None else args.level
        if args.oracle == "stabilization":
            ok = stabilization_check(args.lattice, args.n, field, args.p, level,
                                     budget=budget)
            print(f"stabilization ({args.lattice}, n={args.n}, d={field.d}, p={args.p}, "
                  f"N={level} -> {level + 1}): {'holds' if ok else 'FAILS'}")
            return EXIT_OK if ok else EXIT_MISMATCH
        if args.oracle == "su-count":
            if args.p == 2:
                return _fail("su-count compares at odd p; use --oracle tau-p for p=2",
                             EXIT_INVALID)
            rep = count_group(args.lattice, args.n, ResidueRing(field, args.p, level),
                              "SU", budget=budget)
            formula = tau_p(args.lattice, args.n, field, args.p).value * args.p ** (level * dim)
            if formula.denominator != 1:
                return _fail("formula count is not integral at this level", EXIT_INVALID)
            return _verdict_lines(
                f"#SU ({args.lattice}, n={args.n}, d={field.d}, p={args.p}, N={level})",
                rep.count, formula.numerator)
        if args.oracle == "tau-p":
            got = oracle_tau_p(args.lattice, args.n, field, args.p, budget=budget)
            want = tau_p(args.lattice, args.n, field, args.p).value
            return _verdict_lines(
                f"tau_p ({args.lattice}, n={args.n}, d={field.d}, p={args.p})",
                got, want, fmt=_rat_str)
    except BudgetExceeded as e:
        return _fail(f"budget exceeded (inconclusive): {e}", EXIT_BUDGET)
    return _fail(f"unknown oracle {args.oracle}", EXIT_INVALID)


def _verdict_lines(what: str, got, want, fmt=str) -> int:
    match = got == want
    print(f"{what}: oracle {fmt(got)}, formula {fmt(want)} -> "
          f"{'Match' if match else 'MISMATCH'}")
    return EXIT_OK if match else EXIT_MISMATCH


def _cmd_lvalue(args) -> int:
    if args.k < 2:
        return _fail("k must be >= 2", EXIT_INVALID)
    if args.kind == "zeta":
        sv = zeta_numeric(args.k, args.tol)
        form = zeta_exact(args.k) if args.k % 2 == 0 else None
        print(f"zeta({args.k}) = {_num_str(sv.numeric)}  (error <= {_num_str(sv.error_bound)})")
        if form is not None:
            print(f"exact: ({_rat_str(form.coeff)}) * pi^{form.pi_power}")
        return EXIT_OK
    if args.d is None:
        return _fail("--kind L requires --d", EXIT_INVALID)
    field = _field_or_none(args.d)
    if field is None:
        return _fail(f"d={args.d} is not odd and squarefree", EXIT_INVALID)
    sv = l_numeric(args.k, field, args.tol)
    # everything is computed before the first print, so a failed pin leaves stdout empty
    form = l_exact(args.k, field) if args.k % 2 == 1 and args.k >= 3 else None
    print(f"L({args.k}, chi_{field.D}) = {_num_str(sv.numeric)}  "
          f"(error <= {_num_str(sv.error_bound)})")
    if form is not None:
        print(f"exact: ({_rat_str(form.coeff)}) * pi^{form.pi_power} * "
              f"|D|^({form.d_sqrt_power}/2) = {_num_str(exact_numeric(form, field))}")
    return EXIT_OK


_VOLUME_TOL_HELP = ("truncation tolerance of the special values (default %(default)s): it is "
                    "split evenly across the zeta/L factors of the volume, and each share, "
                    "at least 1e-40, bounds that factor's absolute truncation error; compute "
                    "reports the propagated absolute bound on the volume as "
                    "volume_error_bound")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hmvol",
                                 description="Hirzebruch-Mumford volumes of ball quotients "
                                             "for the forms diag(1,...,1,-1) and diag(1,...,1,-2)")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="volume of one case")
    c.add_argument("--lattice", choices=["L", "M", "both"], required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--pipeline", choices=["table", "assembled", "both"], default="assembled")
    c.add_argument("--format", choices=["text", "json", "csv"], default="text")
    c.add_argument("--tol", type=float, default=1e-12, help=_VOLUME_TOL_HELP)
    c.set_defaults(func=_cmd_compute)

    t = sub.add_parser("table", help="volume table as CSV")
    t.add_argument("--lattice", choices=["L", "M", "both"], required=True)
    t.add_argument("--n-range", required=True, metavar="a..b")
    t.add_argument("--d-list", required=True, metavar="d1,d2,...")
    t.add_argument("--format", default="csv")
    t.add_argument("--out", default=None)
    t.add_argument("--tol", type=float, default=1e-12, help=_VOLUME_TOL_HELP)
    t.set_defaults(func=_cmd_table)

    v = sub.add_parser("verify", help="run the enumeration oracle against a closed form")
    v.add_argument("--oracle", choices=["su-count", "tau-p", "kernel", "stabilization"],
                   required=True)
    v.add_argument("--lattice", choices=["L", "M"], required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=int, default=None)
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--level", type=int, default=None)
    v.add_argument("--budget", type=int, default=None)
    v.set_defaults(func=_cmd_verify)

    lv = sub.add_parser("lvalue", help="special values zeta(k), L(k, chi_D)")
    lv.add_argument("--kind", choices=["zeta", "L"], required=True)
    lv.add_argument("--k", type=int, required=True)
    lv.add_argument("--d", type=int, default=None)
    lv.add_argument("--tol", type=float, default=1e-10,
                    help="bound on the truncation error of the value (default %(default)s, "
                         "at least 1e-40)")
    lv.set_defaults(func=_cmd_lvalue)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush here, so that a closed stdout raises inside the handler below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # cannot raise a second time (the recipe of the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail("stdout was closed before all output was written", EXIT_INVALID)
    except ValueError as e:
        return _fail(str(e), EXIT_INVALID)
    except BudgetExceeded as e:
        return _fail(f"budget exceeded (inconclusive): {e}", EXIT_BUDGET)
    except (ArithmeticError, AssertionError) as e:
        # a failed invariant (rationalize, the pinned L closed form) is a mismatch
        return _fail(f"invariant violated ({type(e).__name__}): {e}", EXIT_MISMATCH)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
