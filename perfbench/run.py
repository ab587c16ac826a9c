"""hmvol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/hmvol`` and
``BENCHMARK.json``).  The seed draws the workload's cases (see workloads.py);
the program sees only the generated argument vectors.  A *pass* runs every
case once, each case in a fresh interpreter because the CLI is one-shot; a
run makes ``round(--seconds / PASS_SECONDS)`` passes (at least two).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json.  Shared hosts drift in speed by tens of percent over
minutes, so every time is scaled to a reference machine: each child times
fixed reference work (child.reference_s) before and after its case, and the
child's wall times are multiplied by REFERENCE_S / (mean wall time of the
reference), its CPU times by REFERENCE_S / (mean CPU time of the reference);
a host that takes the CPU away inflates the first but not the second.  The
summary also prints the times as measured.

* ``setup_s``: interpreter start + ``import hmvol`` + first ``l_exact`` call,
  median over every child of the run;
* ``wall_s``: time from the first call into hmvol to the last output of a
  case, set-up excluded; the median over passes of each case, summed over
  the cases;
* ``cpu_s``: user + sys time of the child and its pool workers over the same
  interval, summed the same way;
* ``peak_rss_mb``: per pass, the largest ``ru_maxrss`` of a child or its
  workers; median over passes.

The printed summary also gives quartiles, minimum and sample count of each.

With ``--trace 1`` untraced and traced passes alternate; the per-layer metrics
come from the traced passes (median over them) and ``trace.overhead_frac``
compares the two kinds.  Traced passes also run the self-test: count_group's
exact ``count``/``nodes`` must repeat between passes and between runs of one
seed on one source tree, and must match the ROADMAP baselines.

Every output is checked (checks.py); ``failed`` counts failed checked
outputs.  Details of each run (samples, quartiles, failures, environment) go
to ``perfbench/out/``; the spans of traced passes to ``perfbench/out/spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# The whole run must end within 180 s.
HARD_LIMIT_S = 165.0
# Duration of child.reference_s() on the machine that times are scaled to.
REFERENCE_S = 0.1


def stats(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"min": values[0], "q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "hmvol").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, src: Path) -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(root), "source_sha256": source_digest(src)}


class Child:
    """Runs child.py on one list of cases in a new process group, so that a
    timeout also ends the CLI's pool workers."""

    def __init__(self, src: Path, deadline: float):
        self.src = src
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "HMVOL_BUDGET"}

    def run(self, cases, targets=(), spans=None) -> dict:
        spec = json.dumps({"src": str(self.src), "cases": cases, "targets": list(targets),
                           "spans": str(spans) if spans else None})
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=self.env, start_new_session=True)
        try:
            out, err = proc.communicate(spec, timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"failure": "timed out"}
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.strip():
            return {"failure": f"child exited {proc.returncode}: {err.strip()[-300:]}"}
        report = json.loads(out.strip().splitlines()[-1])
        (wall0, cpu0), (wall1, cpu1) = report["reference_s"]
        report["setup_s"] = report["t_setup"] - t_spawn - wall0
        report["scale"] = 2 * REFERENCE_S / (wall0 + wall1)
        report["cpu_scale"] = 2 * REFERENCE_S / (cpu0 + cpu1)
        return report


class Pass:
    """Every case once; per-case samples are kept in case order."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_s, self.wall_s, self.cpu_s = [], [], []  # as measured
        # per case: REFERENCE_S / reference wall (CPU) time in its child
        self.scale, self.cpu_scale = [], []
        self.peak_rss_mb = 0.0
        self.failures = []
        self.attempted = 0
        self.layers = {}
        self.counts = []
        self.repeats = {}
        self.aborted = False
        self.elapsed = 0.0

    def scaled(self, attr: str) -> list[float]:
        scale = self.cpu_scale if attr == "cpu_s" else self.scale
        return [v * k for v, k in zip(getattr(self, attr), scale)]


def run_pass(child: Child, cases, traced: bool, targets, span_stem: str) -> Pass:
    import checks
    p = Pass(traced)
    t0 = time.monotonic()
    for i, case in enumerate(cases):
        p.attempted += checks.case_weight(case)
        spans = OUT / "spans" / f"{span_stem}-c{i}.npz" if traced else None
        report = child.run([case], targets if traced else (), spans)
        if "failure" in report:
            p.failures += [f"{case['kind']}: {report['failure']}"] * checks.case_weight(case)
            p.aborted = True
            break
        res = report["results"][0]
        p.setup_s.append(report["setup_s"])
        p.wall_s.append(res["wall_s"])
        p.cpu_s.append(res["cpu_s"])
        p.scale.append(report["scale"])
        p.cpu_scale.append(report["cpu_scale"])
        p.peak_rss_mb = max(p.peak_rss_mb, report["peak_rss_mb"])
        p.failures += checks.check_case(case, res)
        if traced:
            for target, stats in report["layers"].items():
                acc = p.layers.setdefault(target, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
                for k, v in stats.items():
                    acc[k] += v if k == "calls" else v * report["scale"]
            p.counts += report["counts"]
            for k, v in report["repeats"].items():
                p.repeats[k] = p.repeats.get(k, 0) + v
    p.elapsed = time.monotonic() - t0
    return p


def layer_metrics(p: Pass, names) -> dict:
    """Per-layer values of one traced pass, keyed by BENCHMARK.json name."""
    done = [r for r in p.counts if not r["refused"]]
    nodes = sum(r["nodes"] for r in done)
    count = sum(r["count"] for r in done)
    extra = {"nodes": nodes, "count": count, "yield": count / nodes if nodes else 0.0,
             "refused": sum(r["refused"] for r in p.counts)}
    out = {}
    for name in names:
        target, field = name.rsplit(".", 1)
        if field in ("calls", "time_s", "self_s"):
            out[name] = p.layers[target][field]
        elif field == "repeat_frac":
            calls = p.layers[target]["calls"]
            out[name] = p.repeats[target.split(".")[1]] / calls if calls else 0.0
        else:
            out[name] = extra[field]
    return out


def case_stats(passes, attr: str, scaled: bool = True) -> dict:
    """Statistics over passes of each case's time, summed over the cases."""
    per_case = [stats(v) for v in zip(*(p.scaled(attr) if scaled else getattr(p, attr)
                                        for p in passes))]
    return {k: sum(s[k] for s in per_case) if k != "n" else len(passes) for k in per_case[0]}


def self_test(workload: str, seed: int, digest: str, traced) -> list[str]:
    """count_group results repeat exactly and match the closed forms and baselines."""
    import checks
    keys = ("lattice", "n", "d", "p", "level", "group", "refused", "count", "nodes")
    runs = [[{k: r.get(k) for k in keys} for r in p.counts] for p in traced]
    failures = checks.check_counts(runs[0])
    if any(r != runs[0] for r in runs[1:]):
        failures.append("self-test: count_group results differ between traced passes")
    record = OUT / "counts" / f"{workload}-s{seed}-{digest[:16]}.json"
    if record.is_file():
        if json.loads(record.read_text()) != runs[0]:
            failures.append(f"self-test: count_group results differ from {record.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(runs[0]))
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    bench_file = root / "BENCHMARK.json"
    if not (src / "hmvol" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"run.py: no hmvol source tree and BENCHMARK.json under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads(bench_file.read_text())
    metric_defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    layer_names = [m["name"] for m in bench["per_layer"] if not m["name"].startswith("trace.")]
    targets = sorted({name.rsplit(".", 1)[0] for name in layer_names})

    env = environment(root, src)
    cases = workloads.make_cases(args.workload, args.seed)
    child = Child(src, t_start + HARD_LIMIT_S)
    stem = f"{args.workload}-s{args.seed}"
    if args.trace:
        for old in (OUT / "spans").glob(f"{args.workload}-*.npz"):
            old.unlink()
        (OUT / "spans").mkdir(parents=True, exist_ok=True)

    # A fixed number of passes gives every run the same sample count; on a slow
    # machine the run stops early, after two passes, near 1.25 x --seconds.
    n_passes = max(2, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    passes: list[Pass] = []
    while len(passes) < n_passes:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(child, cases, traced, targets, f"{stem}-p{len(passes)}"))
        if passes[-1].aborted:
            break
        est = statistics.median(p.elapsed for p in passes)
        if len(passes) >= 2 and time.monotonic() + est > t_start + 1.25 * args.seconds:
            break

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    setups = [v for p in passes for v in p.scaled("setup_s")]
    timed = [p for p in passes if not p.traced and not p.aborted]
    traced = [p for p in passes if p.traced and not p.aborted]
    samples = {"setup_s": setups, "peak_rss_mb": [p.peak_rss_mb for p in timed]}
    if traced:
        per_pass = [layer_metrics(p, layer_names) for p in traced]
        samples.update({name: [v[name] for v in per_pass] for name in layer_names})
        self_failures = self_test(args.workload, args.seed, env["source_sha256"], traced)
        attempted += 1
        failures += self_failures[:1]
        if self_failures:
            print("\n".join(self_failures), file=sys.stderr)
    summary = {name: stats(v) for name, v in samples.items() if v}
    measured = {"setup_s": stats([v for p in passes for v in p.setup_s])} if setups else {}
    for name in ("wall_s", "cpu_s") if timed else ():
        summary[name] = case_stats(timed, name)
        measured[name] = case_stats(timed, name, scaled=False)
    if timed and traced:
        overhead = case_stats(traced, "wall_s")["median"] / summary["wall_s"]["median"] - 1.0
        summary["trace.overhead_frac"] = stats([overhead])
    scales = [k for p in passes for k in p.scale]
    print(f"hmvol benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(timed)} timed + {len(traced)} traced passes, "
          f"{time.monotonic() - t_start:.1f} s")
    print("environment: " + json.dumps(env))
    if scales:
        print(f"  times scaled to the reference machine by a median factor of "
              f"{statistics.median(scales):.3f} (range {min(scales):.3f}-{max(scales):.3f})")
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        if name in summary:
            s = summary[name]
            print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  min {s['min']:.4f}  n {s['n']}"
                  + (f"  (as measured: median {measured[name]['median']:.4f})"
                     if name in measured else ""))
    fail_frac = len(failures) / attempted if attempted else 1.0
    print(f"  fail_frac    {fail_frac:.4f}  ({len(failures)} of {attempted} checked outputs)")
    for f in failures[:20]:
        print(f"  FAILED: {f}")

    metrics = {}
    for m in metric_defs:
        if m["name"] in summary:
            metrics[m["name"]] = {"value": summary[m["name"]]["median"], "unit": m["unit"]}
    correct = (not failures and attempted > 0 and len(metrics) == len(metric_defs))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stem}-t{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
         "cases": cases, "summary": summary, "measured": measured, "samples": samples,
         "passes": [{k: getattr(p, k) for k in ("traced", "elapsed", "setup_s", "wall_s",
                                                 "cpu_s", "scale", "cpu_scale",
                                                 "peak_rss_mb")}
                    for p in passes],
         "fail_frac": fail_frac, "failures": failures}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
