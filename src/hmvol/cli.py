"""Command-line front end: volume tables, single-case computations, special
values, and oracle-verification runs in text/JSON/CSV.

compute and table are one path: records over lattices x n x fields, all built
before anything is opened or written, then one writer to stdout or --out.
Inputs are checked where their values are defined (make_field, ResidueRing,
the volume and count functions); their ValueError is exit 2.

The command line is read from one option table, _COMMANDS: each command's
handler, help line and flags, each flag with its converter (int, float or
str), its choices and its default or _REQUIRED.  One loop reads argv against
it into the namespace the handlers read (--n-range as args.n_range): a flag
takes one value, as --flag value or --flag=value, by its name or a unique
prefix (an exact name wins), the last of a repeated flag winning; a value may
be a negative number.  -h/--help prints help built from the same table.  Any
malformed command line is a ValueError, so it ends like every invalid input.

Exit codes are the only failure channel: 0 success, 2 invalid input,
3 verification mismatch or violated invariant, 4 enumeration budget exceeded.
Every non-zero exit writes one `hmvol: ...` line to stderr.  In json/csv
modes stdout carries only the payload; diagnostics go to stderr.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


def _exact_str(v: int | Fraction) -> str:
    """An int as its digits, a Fraction as numerator/denominator (even over 1).
    The volume coefficients outgrow Python's int -> str digit limit (4300
    digits) from n = 90 on, and the kernel counts from n = 84 (M) or 119 (L);
    the limit is lifted for the package's own numbers only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v) if isinstance(v, int) else f"{v.numerator}/{v.denominator}"
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
        "volume_rational": _exact_str(value),
        # exact dyadic Fractions: past 1.8e308 (n >= 39) a float would overflow to inf
        "volume_numeric": numeric,
        "volume_error_bound": bound,
        "coefficient": _exact_str(expr.coeff),
        "d_power": _exact_str(expr.d_power),
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
        return _fail(f"cannot write {out!r}: {e}", EXIT_INVALID)
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
        return _fail(f"bad range/list: --n-range {args.n_range!r} --d-list {args.d_list!r}",
                     EXIT_INVALID)
    if not ns or not d_list:
        return _fail("invalid n range or empty d list", EXIT_INVALID)
    fields = [make_field(d) for d in d_list]
    return _volumes(args.lattice, ns, fields, "both", args.tol, args.format, args.out)


def _cmd_verify(args) -> int:
    # checked before any oracle runs, the kernel (which reads neither) included
    if args.budget is not None and args.budget < 0:
        return _fail(f"--budget must be >= 0, got {args.budget}", EXIT_INVALID)
    if args.level is not None and args.level < 1:
        return _fail(f"--level must be >= 1, got {args.level}", EXIT_INVALID)
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
        # at odd p, tau_p = m / p^e with e <= (n^2+3n)/2 <= dim, and level >= 1
        assert formula.denominator == 1, f"formula count {formula} is not integral"
        return _verdict_lines(
            f"#SU ({args.lattice}, n={args.n}, d={field.d}, p={args.p}, N={level})",
            rep.count, formula.numerator)
    # tau-p, the last of the --oracle choices
    got = oracle_tau_p(args.lattice, args.n, field, args.p, budget=budget)
    want = tau_p(args.lattice, args.n, field, args.p).value
    return _verdict_lines(f"tau_p ({args.lattice}, n={args.n}, d={field.d}, p={args.p})",
                          got, want)


def _verdict_lines(what: str, got, want) -> int:
    match = got == want
    print(f"{what}: oracle {_exact_str(got)}, formula {_exact_str(want)} -> "
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
            print(f"exact: ({_exact_str(form.coeff)}) * pi^{form.pi_power}")
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
        print(f"exact: ({_exact_str(form.coeff)}) * pi^{form.pi_power} * "
              f"|D|^({form.d_sqrt_power}/2) = {_num_str(exact_numeric(form, field))}")
    return EXIT_OK


_VOLUME_TOL_HELP = ("truncation tolerance of the special values (default %(default)s): it is "
                    "split evenly across the zeta/L factors of the volume, and each share, "
                    "at least 1e-40, bounds that factor's absolute truncation error; compute "
                    "reports the propagated absolute bound on the volume as "
                    "volume_error_bound")

_REQUIRED = object()


class _Flag(NamedTuple):
    """One flag of a command: its converter, the values it allows (any when
    empty), its default or _REQUIRED, and a help text with %(default)s."""
    convert: Callable[[str], object] = str
    choices: tuple = ()
    default: object = _REQUIRED
    help: str = ""
    metavar: str = ""


class _Command(NamedTuple):
    func: Callable[[SimpleNamespace], int]
    help: str
    flags: dict[str, _Flag]


_LATTICES = ("L", "M", "both")
_VOLUME_TOL = _Flag(float, default=1e-12, help=_VOLUME_TOL_HELP)

# The whole CLI: each command's handler, help line and flags.  A handler reads
# flag --n-range as args.n_range.
_COMMANDS = {
    "compute": _Command(_cmd_compute, "volume of one case", {
        "--lattice": _Flag(choices=_LATTICES),
        "--n": _Flag(int),
        "--d": _Flag(int),
        "--pipeline": _Flag(choices=("table", "assembled", "both"), default="assembled"),
        "--format": _Flag(choices=("text", "json", "csv"), default="text"),
        "--tol": _VOLUME_TOL,
    }),
    "table": _Command(_cmd_table, "volume table as CSV", {
        "--lattice": _Flag(choices=_LATTICES),
        "--n-range": _Flag(metavar="a..b"),
        "--d-list": _Flag(metavar="d1,d2,..."),
        "--format": _Flag(choices=("csv",), default="csv"),
        "--out": _Flag(default=None, metavar="PATH"),
        "--tol": _VOLUME_TOL,
    }),
    "verify": _Command(_cmd_verify, "run the enumeration oracle against a closed form", {
        "--oracle": _Flag(choices=("su-count", "tau-p", "kernel", "stabilization")),
        "--lattice": _Flag(choices=("L", "M")),
        "--n": _Flag(int),
        "--d": _Flag(int, default=None),
        "--p": _Flag(int, default=None),
        "--level": _Flag(int, default=None),
        "--budget": _Flag(int, default=None),
    }),
    "lvalue": _Command(_cmd_lvalue, "special values zeta(k), L(k, chi_D)", {
        "--kind": _Flag(choices=("zeta", "L")),
        "--k": _Flag(int),
        "--d": _Flag(int, default=None),
        "--tol": _Flag(float, default=1e-10,
                       help="bound on the truncation error of the value (default %(default)s, "
                            "at least 1e-40)"),
    }),
}

_HELP = ("-h", "--help")
# where a value is due, a token that starts with "-" is a flag unless it is a
# negative number, so --d -3 reads -3 and --d --p 3 is a missing value
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


_USAGE = """usage: hmvol COMMAND [--flag value ...]

Hirzebruch-Mumford volumes of ball quotients for the forms
diag(1,...,1,-1) and diag(1,...,1,-2).

A flag takes one value, as --flag value or --flag=value.  A unique prefix of
a flag will do, an exact name winning, and the last of a repeated flag wins.
-h or --help after a command prints that command's flags.  Exit codes:
0 success, 2 invalid input, 3 verification mismatch, 4 enumeration budget
exceeded.
"""


def _usage(command: str | None) -> str:
    """The help text of one command, or of hmvol and all its commands."""
    import textwrap  # only help is wrapped; no command run pays for the import
    lines = [_USAGE] if command is None else []
    for name in [command] if command else _COMMANDS:
        cmd = _COMMANDS[name]
        lines.append(f"hmvol {name}: {cmd.help}")
        for flag, opt in cmd.flags.items():
            shape = "{" + ",".join(opt.choices) + "}" if opt.choices \
                else opt.metavar or opt.convert.__name__.upper()
            note = "required" if opt.default is _REQUIRED \
                else "optional" if opt.default is None else f"default {opt.default}"
            lines.append(f"  {flag} {shape} ({note})")
            lines += textwrap.wrap(opt.help % {"default": opt.default}, 79,
                                   initial_indent=" " * 6, subsequent_indent=" " * 6)
        lines.append("")
    return "\n".join(lines)


def _cmd_help(args) -> int:
    sys.stdout.write(_usage(args.command))
    return EXIT_OK


def _resolve(name: str, command: str, flags: dict) -> str:
    """The flag that name stands for: itself, or the one flag it is a prefix of."""
    if name in flags or name in _HELP:
        return name
    matches = [f for f in (*flags, "--help") if f.startswith(name)] \
        if name.startswith("--") and len(name) > 2 else []
    if len(matches) > 1:
        raise ValueError(f"{command}: ambiguous flag {name!r} could match {', '.join(matches)}")
    if not matches:
        raise ValueError(f"{command}: unrecognized flag {name!r}")
    return matches[0]


def _convert(command: str, flag: str, opt: _Flag, raw: str):
    try:
        value = opt.convert(raw)
    except ValueError:
        raise ValueError(f"{command} {flag}: invalid {opt.convert.__name__} value {raw!r}") \
            from None
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{command} {flag}: invalid choice {raw!r} "
                         f"(choose from {', '.join(opt.choices)})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv as the namespace a handler reads: the command, its handler as
    func, and one attribute per flag of the command, given or defaulted.
    Help is the handler _cmd_help.  A malformed command line is a ValueError."""
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command in _HELP:
        return SimpleNamespace(command=None, func=_cmd_help)
    if command not in _COMMANDS:
        got = "" if command is None else f", got {command!r}"
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}){got}")
    flags = _COMMANDS[command].flags
    values = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if not token.startswith("-"):
            raise ValueError(f"{command}: unexpected argument {token!r}")
        name, eq, raw = token.partition("=") if token.startswith("--") else (token, "", "")
        flag = _resolve(name, command, flags)
        if flag in _HELP:
            if eq:
                raise ValueError(f"{command}: {flag} takes no value")
            return SimpleNamespace(command=command, func=_cmd_help)
        if not eq:
            if i == len(rest) or rest[i].startswith("-") and not _NEGATIVE.fullmatch(rest[i]):
                raise ValueError(f"{command}: {flag} expects a value")
            raw = rest[i]
            i += 1
        values[flag] = _convert(command, flag, flags[flag], raw)
    missing = [f for f, opt in flags.items() if opt.default is _REQUIRED and f not in values]
    if missing:
        raise ValueError(f"{command}: the following flags are required: {', '.join(missing)}")
    args = SimpleNamespace(command=command, func=_COMMANDS[command].func)
    for flag, opt in flags.items():
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, opt.default))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
