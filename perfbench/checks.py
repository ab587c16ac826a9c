"""Output checks for every benchmark case.

Oracle counts are compared with the closed forms of hmvol.local_density and
with literal anchors that do not depend on the program; table rows must be
positive rationals that agree with their numeric value; Killing determinants
and curvature ratios are compared with their closed forms.  Each check
returns a list of failure reasons, one entry per failed output.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction

from hmvol.local_density import index_u_su, tau_p
from hmvol.quadfield import make_field
from workloads import prime_class

# (oracle, lattice, n, d, p, level) -> literal value
ANCHORS = {
    ("su-count", "L", 1, 3, 3, None): 18,
    ("su-count", "L", 1, 3, 5, None): 120,
    ("su-count", "L", 1, 7, 11, None): 1320,
    ("su-count", "L", 2, 3, 3, None): 5832,
    ("su-count", "L", 2, 3, 5, None): 378000,
    ("kernel", "M", 2, None, None, None): 262144,
    ("tau-p", "L", 1, 5, 2, None): Fraction(1, 2),
}
TABLE_ANCHORS = {("L", 1, 3): Fraction(1, 6), ("L", 1, 1): Fraction(1, 8),
                 ("M", 1, 3): Fraction(1, 12)}
TABLE_COLUMNS = ["lattice", "n", "d", "D", "volume_rational", "volume_numeric",
                 "zeta_args", "l_args", "pipeline_agreement"]
# ROADMAP baseline node counts: (lattice, n, p, level, group, classes) -> nodes
NODE_BASELINES = {("L", 1, 5, 2, "U", ("split", "inert")): 225_390_625,
                  ("L", 2, 5, 1, "SU", ("inert",)): 65_220_625}
_ORACLE_LINE = re.compile(r"oracle (\S+), formula (\S+) -> (Match|MISMATCH)")


def _dim(n: int) -> int:
    return (n + 1) ** 2 - 1


def group_count(lattice: str, n: int, d: int, p: int, level: int, group: str) -> Fraction:
    """#SU (or #U) at O/p^level for odd p from the closed-form density."""
    field = make_field(d)
    val = tau_p(lattice, n, field, p).value * p ** (level * _dim(n))
    return val * index_u_su(field, p, level, lattice) if group == "U" else val


def _run_failure(res: dict) -> str | None:
    if res.get("error"):
        return "raised: " + res["error"].strip().splitlines()[-1]
    if "Traceback" in res.get("stderr", ""):
        return "traceback on stderr"
    if res.get("rc") != 0:
        return f"exit code {res.get('rc')}: {res.get('stderr', '').strip()[-200:]}"
    return None


def check_verify(case: dict, res: dict) -> list[str]:
    what = " ".join(case["argv"])
    bad = _run_failure(res)
    if bad:
        return [f"{what}: {bad}"]
    out = res["stdout"]
    oracle = case["oracle"]
    if oracle == "stabilization":
        return [] if "holds" in out else [f"{what}: stabilization does not hold: {out!r}"]
    m = _ORACLE_LINE.search(out)
    if not m or m.group(3) != "Match":
        return [f"{what}: no matching oracle line in {out!r}"]
    key = (oracle, case["lattice"], case["n"], case["d"], case["p"], case["level"])
    n = case["n"]
    if oracle == "tau-p":
        got = Fraction(m.group(1))
        want = tau_p(case["lattice"], n, make_field(case["d"]), case["p"]).value
    elif oracle == "kernel":
        got = int(m.group(1))
        want = 2 ** (n * n + 3 * n) if case["lattice"] == "L" else 2 ** (2 * n * n + 5 * n)
    else:
        got = int(m.group(1))
        want = group_count(case["lattice"], n, case["d"], case["p"], case["level"] or 1, "SU")
    if got != want:
        return [f"{what}: oracle {got} != closed form {want}"]
    if key in ANCHORS and got != ANCHORS[key]:
        return [f"{what}: oracle {got} != anchor {ANCHORS[key]}"]
    return []


def check_table(case: dict, res: dict) -> list[str]:
    """One entry per failed row; a failed run fails every expected row."""
    expected = {(lat, n, d) for lat in ("L", "M") for n in range(1, case["n_max"] + 1)
                for d in case["fields"]}
    bad = _run_failure(res)
    if bad:
        return [f"table: {bad}"] * len(expected)
    rows = list(csv.reader(io.StringIO(res["stdout"])))
    if not rows or rows[0] != TABLE_COLUMNS:
        return ["table: wrong header"] * len(expected)
    failures, seen = [], set()
    for row in rows[1:]:
        try:
            lat, n, d, value, numeric, agreement = (row[0], int(row[1]), int(row[2]),
                                                    Fraction(row[4]), float(row[5]), row[8])
        except (ValueError, IndexError, ZeroDivisionError):
            failures.append(f"table: unparsable row {row}")
            continue
        key = (lat, n, d)
        seen.add(key)
        if key not in expected:
            failures.append(f"table: unexpected row {key}")
        elif agreement not in ("match", "table-ambiguous") or (
                agreement == "table-ambiguous" and (n % 2 == 0 or n < 3)):
            failures.append(f"table: row {key} reads {agreement}")
        elif value <= 0:
            failures.append(f"table: row {key} volume {value} is not positive")
        elif abs(numeric - float(value)) > 1e-9 * float(value):
            failures.append(f"table: row {key} numeric {numeric} != rational {value}")
        elif key in TABLE_ANCHORS and value != TABLE_ANCHORS[key]:
            failures.append(f"table: row {key} volume {value} != anchor {TABLE_ANCHORS[key]}")
    failures += [f"table: missing row {key}" for key in sorted(expected - seen)]
    return failures


def gram_closed_form(lattice: str, n: int, d: int) -> int:
    """|det Tr(X_i X_j)| on the integral basis (acceptance criterion 6)."""
    want = d ** ((n * (n + 3)) // 2) * (n + 1)
    if lattice == "L":
        return want * (2 ** (n * (n + 1)) if d % 4 == 1 else 1)
    return want * (2 ** (n * (n + 3)) if d % 4 == 1 else 2 ** (2 * n))


def check_killing(case: dict, res: dict) -> list[str]:
    items = case["items"]
    bad = _run_failure(res)
    if bad:
        return [f"killing: {bad}"] * len(items)
    failures = []
    for item, value in zip(items, res["values"]):
        what = f"{item['kind']} {item['lattice']} n={item['n']} d={item['d']}"
        if item["kind"] == "gram":
            want = gram_closed_form(item["lattice"], item["n"], item["d"])
            if abs(int(value)) != want:
                failures.append(f"{what}: gram_det {value} != closed form {want}")
        elif Fraction(value) != -2:
            failures.append(f"{what}: curvature ratio {value} != -2")
    failures += ["killing: missing value"] * (len(items) - len(res["values"]))
    return failures


def check_counts(records: list[dict]) -> list[str]:
    """Traced count_group results against closed forms and ROADMAP baselines."""
    failures = []
    for r in records:
        key = (r["lattice"], r["n"], r["p"], r["level"], r["group"])
        what = "count_group {} n={} O/{}^{} {} d={}".format(*key, r["d"])
        if r["refused"]:
            failures.append(f"{what}: refused")
            continue
        if r["p"] != 2:
            want = group_count(r["lattice"], r["n"], r["d"], r["p"], r["level"], r["group"])
            if r["count"] != want:
                failures.append(f"{what}: count {r['count']} != closed form {want}")
        for (*base_key, classes), nodes in NODE_BASELINES.items():
            if (key == tuple(base_key) and prime_class(r["d"], r["p"]) in classes
                    and r["nodes"] != nodes):
                failures.append(f"{what}: nodes {r['nodes']} != baseline {nodes}")
    return failures


CHECKS = {"table": check_table, "verify": check_verify, "killing": check_killing}


def case_weight(case: dict) -> int:
    """Number of checked outputs a case produces (rows, items or one verdict)."""
    if case["kind"] == "killing":
        return len(case["items"])
    if case["kind"] == "table":
        return 2 * case["n_max"] * len(case["fields"])
    return 1


def check_case(case: dict, res: dict) -> list[str]:
    return CHECKS[case["kind"]](case, res)
