"""Command-line front end: volume tables, single-case computations, special
values, and oracle-verification runs in text/JSON/CSV.

compute and table are one path: records over lattices x n x fields, all built
before anything is opened or written, then one writer to stdout or --out.
Inputs are checked where their values are defined (make_field, ResidueRing,
the volume and count functions); their ValueError is exit 2.

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

from . import dyadic
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


def _digits(x: Fraction, n: int) -> str:
    """The dyadic rational x to n significant digits, as mpmath's nstr(x, n)
    writes the same value: its digits rounded toward zero (`dyadic.decimal_digits`,
    n + 3 of them at least), then rounded half up at digit n; fixed notation for
    a leading-digit exponent strictly between min(-(n//3), -5) and n, else
    `e+k`/`e-k`; trailing zeros stripped, but a whole number keeps `.0`."""
    if not x:
        return "0.0"
    den = x.denominator
    assert not den & (den - 1), f"{x} is not a dyadic rational"
    digits, exponent = dyadic.decimal_digits(abs(x.numerator), 1 - den.bit_length(), n + 3)
    up = len(digits) > n and digits[n] >= "5"
    digits = digits[:n]
    if up:
        digits = str(int(digits) + 1)
        if len(digits) > n:  # ...999 carried into a new leading digit
            digits, exponent = digits[:n], exponent + 1
    split = 1
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - n)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return ("-" if x < 0 else "") + digits + (f"e{exponent:+d}" if exponent else "")


def _num_str(v) -> str:
    return _digits(v, 13)


def _record(lattice: str, n: int, field, pipeline: str, tol) -> dict:
    """One OutputRecord; with pipeline "both" the verdict compares the table
    transcription against the authoritative assembly."""
    verdict = None
    if pipeline == "both":
        case = compare_pipelines(lattice, n, field)
        expr, value, verdict = case.assembled, case.assembled_value, case.verdict
    else:
        expr = hm_table(lattice, n, field).expr if pipeline == "table" \
            else hm_assembled(lattice, n, field)
        value = rationalize(expr, field)
    numeric, bound = evaluate_numeric(expr, field, tol)
    return {
        "lattice": lattice,
        "n": n,
        "d": field.d,
        "D": field.D,
        "volume_rational": _rat_str(value),
        # exact dyadic Fractions: past 1.8e308 (n >= 39) a float would overflow to inf
        "volume_numeric": numeric,
        "volume_error_bound": bound,
        "coefficient": _rat_str(expr.coeff),
        "d_power": _rat_str(expr.d_power),
        "zeta_args": list(expr.zeta_args),
        "l_args": list(expr.l_args),
        "provenance": pipeline,
        "verdict": verdict.value if verdict else None,
    }


def _json_dumps(records: list[dict]) -> str:
    """The records as JSON, each numeric value (a Fraction) written as a number
    literal with 17 significant digits: RFC 8259 numbers have no range limit,
    so a volume beyond the float range stays a finite number.  A Fraction is
    always finite; a non-finite float is refused by allow_nan=False."""
    literals = []

    def stand_in(v):
        literals.append(_digits(v, 17))
        return f"@num{len(literals) - 1}@"

    text = json.dumps([{k: stand_in(v) if isinstance(v, Fraction) else v for k, v in r.items()}
                       for r in records], indent=2, allow_nan=False)
    for i, literal in enumerate(literals):
        text = text.replace(f'"@num{i}@"', literal, 1)
    return text


def _text_line(r: dict) -> str:
    verdict = f" [{r['verdict']}]" if r["verdict"] else ""
    return (f"lattice={r['lattice']} n={r['n']} d={r['d']} D={r['D']} "
            f"volume={r['volume_rational']} "
            f"(~{_digits(r['volume_numeric'], 10)} +/- {_digits(r['volume_error_bound'], 2)}) "
            f"pipeline={r['provenance']}{verdict}\n")


def _table_row(r: dict) -> list:
    agreement = r["verdict"] if r["verdict"] else r["provenance"]
    return [r["lattice"], r["n"], r["d"], r["D"], r["volume_rational"],
            _digits(r["volume_numeric"], 12),
            ";".join(str(a) for a in r["zeta_args"]),
            ";".join(str(a) for a in r["l_args"]),
            agreement]


def _write(records: list[dict], fmt: str, out: str | None) -> int:
    """The records as text, JSON or CSV, to stdout or to the file out."""
    if fmt == "json":
        text = _json_dumps(records) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(_TABLE_COLUMNS)
        w.writerows(_table_row(r) for r in records)
        text = buf.getvalue()
    else:
        text = "".join(_text_line(r) for r in records)
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        return _fail(f"cannot write {out}: {e}", EXIT_INVALID)
    return EXIT_OK


def _volumes(lattice: str, ns, fields: list, pipeline: str, tol, fmt: str,
             out: str | None = None) -> int:
    """Records over lattices x ns x fields, every one computed before the
    writer runs, so a failure leaves no output; a pipeline mismatch is exit 3."""
    lattices = ["L", "M"] if lattice == "both" else [lattice]
    records = [_record(lat, n, field, pipeline, tol)
               for lat in lattices for n in ns for field in fields]
    code = _write(records, fmt, out)
    mismatched = sum(r["verdict"] == Verdict.MISMATCH.value for r in records)
    if code == EXIT_OK and mismatched:
        return _fail(f"pipelines disagree on {mismatched} of {len(records)} records",
                     EXIT_MISMATCH)
    return code


def _cmd_compute(args) -> int:
    return _volumes(args.lattice, [args.n], [make_field(args.d)], args.pipeline, args.tol,
                    args.format)


def _cmd_table(args) -> int:
    try:
        lo, hi = args.n_range.split("..")
        ns = range(int(lo), int(hi) + 1)
        d_list = [int(x) for x in args.d_list.split(",") if x]
    except ValueError:
        return _fail(f"bad range/list: --n-range {args.n_range} --d-list {args.d_list}",
                     EXIT_INVALID)
    if not ns or not d_list:
        return _fail("invalid n range or empty d list", EXIT_INVALID)
    fields = [make_field(d) for d in d_list]
    if args.format != "csv":
        return _fail("table output is csv only", EXIT_INVALID)
    return _volumes(args.lattice, ns, fields, "both", args.tol, "csv", args.out)


def _cmd_verify(args) -> int:
    # checked before any oracle runs, the kernel (which needs no budget) included
    if args.budget is not None and args.budget < 0:
        return _fail(f"--budget must be >= 0, got {args.budget}", EXIT_INVALID)
    budget = args.budget if args.budget is not None else default_budget()
    field = None if args.d is None else make_field(args.d)
    dim = (args.n + 1) ** 2 - 1
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
    level = 1 if args.level is None else args.level
    if args.oracle == "stabilization":
        ok = stabilization_check(args.lattice, args.n, field, args.p, level, budget=budget)
        what = f"stabilization ({args.lattice}, n={args.n}, d={field.d}, p={args.p}, " \
               f"N={level} -> {level + 1})"
        print(f"{what}: {'holds' if ok else 'FAILS'}")
        return EXIT_OK if ok else _fail(f"{what} fails", EXIT_MISMATCH)
    if args.oracle == "su-count":
        if args.p == 2:
            return _fail("su-count compares at odd p; use --oracle tau-p for p=2",
                         EXIT_INVALID)
        rep = count_group(args.lattice, args.n, ResidueRing(field, args.p, level), "SU",
                          budget=budget)
        formula = tau_p(args.lattice, args.n, field, args.p).value * args.p ** (level * dim)
        if formula.denominator != 1:
            return _fail("formula count is not integral at this level", EXIT_INVALID)
        return _verdict_lines(
            f"#SU ({args.lattice}, n={args.n}, d={field.d}, p={args.p}, N={level})",
            rep.count, formula.numerator)
    # tau-p, the last of the --oracle choices
    got = oracle_tau_p(args.lattice, args.n, field, args.p, budget=budget)
    want = tau_p(args.lattice, args.n, field, args.p).value
    return _verdict_lines(f"tau_p ({args.lattice}, n={args.n}, d={field.d}, p={args.p})",
                          got, want, fmt=_rat_str)


def _verdict_lines(what: str, got, want, fmt=str) -> int:
    match = got == want
    print(f"{what}: oracle {fmt(got)}, formula {fmt(want)} -> "
          f"{'Match' if match else 'MISMATCH'}")
    return EXIT_OK if match else _fail(f"{what}: oracle and formula differ", EXIT_MISMATCH)


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
    field = make_field(args.d)
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
