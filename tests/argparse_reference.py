"""The argparse parser that `hmvol.cli`'s option table replaced, kept as a test
reference.

`build_parser()` is the parser `cli.main` used to build on every call.  For
every command line it accepts, the table parser must give the same value for
every attribute of the namespace: the command, the handler and each flag's
converted value or default.  On a command line it rejects, argparse prints a
usage block and raises SystemExit(2), where `cli.main` returns 2 with one
`hmvol: ...` line.
"""

from __future__ import annotations

import argparse

from hmvol.cli import _VOLUME_TOL_HELP, _cmd_compute, _cmd_lvalue, _cmd_table, _cmd_verify


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
