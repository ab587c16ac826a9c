"""One fresh interpreter of the benchmark.

Reads a JSON spec on stdin, sets hmvol up the way every CLI invocation pays
for it (import, then the first `l_exact` call, which runs the lazy pin), runs
the given cases, and prints one JSON line with timings, resource use, the
raw outputs and, when traced, the per-function span summary.  A fixed piece
of reference work is timed before hmvol is imported and after the cases, so
that the parent can scale times to a reference machine speed.

Spec keys: ``src`` (directory holding the hmvol package), ``cases``,
``targets`` (``"module.func"`` names to trace, empty for an untraced run) and
``spans`` (where to save the spans, or null).
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import numpy as np


def reference_s() -> tuple[float, float]:
    """Wall and CPU time of fixed work that does not involve hmvol: pure-Python
    integer arithmetic and int64 numpy arithmetic, the two kinds of work hmvol
    does."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    x = np.arange(1 << 18, dtype=np.int64)
    for _ in range(25):
        x = (x * x + 3) % 1_000_003
    return time.perf_counter() - t0, time.process_time() - c0


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_cli(case: dict) -> dict:
    cli = sys.modules["hmvol.cli"]
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(case["argv"])
        except SystemExit as e:
            rc = e.code
        except Exception:
            error = traceback.format_exc()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def _noncompact_direction(basis, item):
    """A basis element e_k/f_k, or an integer combination of all of them."""
    ef = [X for lbl, X in zip(basis.labels, basis.elements) if lbl[0] in "ef" and "," not in lbl]
    if "element" in item:
        return [list(row) for row in ef[item["element"]]]
    w = len(ef[0])
    acc = [[(Fraction(0), Fraction(0)) for _ in range(w)] for _ in range(w)]
    for c, X in zip(item["coeffs"], ef):
        for i in range(w):
            for j in range(w):
                x, y = acc[i][j]
                acc[i][j] = (x + c * X[i][j][0], y + c * X[i][j][1])
    return acc


def run_killing(case: dict) -> dict:
    from hmvol import lie_form
    from hmvol.quadfield import make_field
    values, error = [], None
    try:
        for item in case["items"]:
            field = make_field(item["d"])
            basis = lie_form.build_basis(item["lattice"], item["n"], field)
            if item["kind"] == "gram":
                values.append(str(lie_form.gram_det(basis)))
            else:
                ratio = lie_form.curvature_ratio(_noncompact_direction(basis, item), field)
                values.append(str(ratio))
    except Exception:
        error = traceback.format_exc()
    return {"rc": 0, "stdout": "", "stderr": "", "error": error, "values": values}


RUNNERS = {"table": run_cli, "verify": run_cli, "killing": run_killing}


class _Hooks:
    """Counters read at the layer boundary: CountReport totals of count_group,
    and how many L-value calls repeat an earlier (k, d) in this process."""

    def __init__(self):
        self.counts = []
        self.seen = {"l_numeric": set(), "l_exact": set()}
        self.repeats = {"l_numeric": 0, "l_exact": 0}

    def count_group(self, a, out, err):
        ring = a["ring"]
        rec = {"lattice": a["lattice"], "n": a["n"], "d": ring.field.d, "p": ring.p,
               "level": ring.exponent, "group": a["group"], "refused": err is not None}
        if out is not None:
            rec.update(count=out.count, nodes=out.nodes)
        self.counts.append(rec)

    def _lvalue(self, name, a):
        key = (a["k"], a["field"].d)
        self.repeats[name] += key in self.seen[name]
        self.seen[name].add(key)

    def mapping(self):
        return {"group_enum.count_group": self.count_group,
                "special_values.l_numeric": lambda a, o, e: self._lvalue("l_numeric", a),
                "special_values.l_exact": lambda a, o, e: self._lvalue("l_exact", a)}


def main() -> None:
    spec = json.load(sys.stdin)
    ref_before = reference_s()
    sys.path.insert(0, spec["src"])
    import hmvol  # noqa: F401
    import hmvol.cli  # noqa: F401
    from hmvol.quadfield import make_field
    from hmvol.special_values import l_exact
    l_exact(3, make_field(3))
    t_setup = time.monotonic()

    tracer = hooks = None
    if spec["targets"]:
        from tracer import Tracer
        hooks = _Hooks()
        tracer = Tracer(spec["targets"], hooks.mapping())
        tracer.install()
    results = []
    try:
        for case in spec["cases"]:
            cpu0 = _cpu()
            t0 = time.monotonic()
            res = RUNNERS[case["kind"]](case)
            res["wall_s"] = time.monotonic() - t0
            res["cpu_s"] = _cpu() - cpu0
            results.append(res)
    finally:
        if tracer:
            tracer.restore()
    report = {"t_setup": t_setup, "results": results, "peak_rss_mb": _peak_rss_mb(),
              "reference_s": [ref_before, reference_s()]}
    if tracer:
        report.update(layers=tracer.summary(), counts=hooks.counts, repeats=hooks.repeats)
        if spec["spans"]:
            tracer.save(spec["spans"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
