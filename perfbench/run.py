"""Benchmark for detmld: cold-cache passes over three workloads.

    python3 perfbench/run.py --workload {nash,straighten,queries} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass is one fresh interpreter
(``perfbench/child.py``) that imports the library from ``src`` and runs the
workload's op list once, in a closed loop with a single client: an op starts
only after the previous one returns.  Passes repeat until ``--seconds`` have
elapsed.  Outputs are checked after every pass; an op fails if it raises,
exits non-zero or fails its check.

Workloads (inputs depend only on the seed; see gen.py):

* nash        -- verify_nash for the five feasible (m, k); the solve-heavy
                 path.  Fixed inputs, the seed is unused.
* straighten  -- straighten on 100 random double tableaux, m in {3, 4, 5},
                 degree 3..6; most contents are new, so this is the
                 solver-build-heavy use of the same tableaux/linalg layers.
* queries     -- 304 CLI invocations (mld point/locus with --oracle, lc check,
                 semicontinuity, ord with and without --seed, and a few
                 mld point at k in the hundreds); touches no linalg/tableaux/forms.

``--workload all`` runs the three in turn.  With ``--trace 0`` the last
stdout line of a workload reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (untraced and traced
passes alternate, so the tracing overhead is measured in the same run).
Pass timings are scaled to a reference host speed by a calibration loop
timed in every pass (calib.py).  Earlier stdout lines are human-readable;
the full record, with unscaled timings and provenance, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen
from checks import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# A run starts no pass after LAST_START_S and kills any child still running
# at DEADLINE_S, so it ends within 180 s.
LAST_START_S = 120
DEADLINE_S = 170
MIN_PASSES = 3
SETUP_SAMPLES = 8

# Tail percentile per workload, pooled over the passes of a run.  For
# straighten and queries it is the highest percentile with ten ops of one
# pass beyond it; a nash pass has only five ops, so its tail is the p90 of
# the pooled ops, which lies among the (3,1) runs.
TAIL_Q = {
    "nash": 0.9,
    "straighten": 1 - 10 / 100,
    "queries": 1 - 10 / 304,
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TAIL_Q) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """The caller's environment without settings that change the program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DETMLD_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, ops: list, trace: bool, golden: dict, spans_path=None,
             timeout: float = DEADLINE_S) -> dict:
    """One pass in a fresh interpreter; adds setup_s to the child's record."""
    spec = json.dumps({"workload": workload, "ops": ops, "trace": trace,
                       "golden": golden, "spans_path": spans_path and str(spans_path)})
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")], input=spec, capture_output=True,
        text=True, env=child_env(), cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - started
    return record


def setup_sample() -> float:
    """Interpreter start plus `import detmld`, in a fresh child."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, detmld; print(time.perf_counter())"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=DEADLINE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout) - started


def tail(values: list, q: float) -> tuple:
    """(value, samples beyond it): the nearest-rank q-quantile."""
    ordered = sorted(values)
    beyond = int(len(ordered) * (1 - q) + 1e-9)
    return ordered[len(ordered) - beyond - 1], beyond


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- per-layer metrics ---------------------------------------------------------

# Self-time groups: every span name the tracer emits belongs to exactly one,
# so the groups' self times plus the root's add up to the traced pass.
SELF_GROUPS = {
    "linalg.solve.self_s": ["linalg.solve"],
    "linalg.build.block.self_s": ["linalg.build.block"],
    "linalg.build.division.self_s": ["linalg.build.division"],
    "forms.verify_nash.self_s": ["forms.verify_nash"],
    "forms.reduce_top_form.self_s": ["forms.reduce_top_form"],
    "forms.verify_chart_transition.self_s": ["forms.verify_chart_transition"],
    "tableaux.standard_coordinates.self_s": ["tableaux.standard_coordinates"],
    "tableaux.bideterminant.self_s": ["tableaux.bideterminant"],
    "tableaux.enumerate_standard_basis.self_s": ["tableaux.enumerate_standard_basis"],
    "polynomials.mul.self_s": ["polynomials.mul"],
    "polynomials.minor_poly.self_s": ["polynomials.minor_poly"],
    "polynomials.substitute_series.self_s": ["polynomials.substitute_series"],
    "oracle.minimize_objective.self_s": ["oracle.minimize_objective"],
    "oracle.discrepancy_objective.self_s": ["oracle.discrepancy_objective"],
    "oracle.series_minor_order.self_s": ["oracle.series_minor_order"],
    "orbits.self_s": "orbits.",
    "mld.closed_form.self_s": "mld.",
    "core.alpha_prefix.self_s": ["core.alpha_prefix"],
    "cli.main.self_s": ["cli.main"],
    "trace.root.self_s": ["bench.pass"],
}
COUNT_GROUPS = {
    "linalg.solve.count": ["linalg.solve"],
    "linalg.build.count": ["linalg.build.block", "linalg.build.division"],
    "forms.reduce_top_form.count": ["forms.reduce_top_form"],
    "forms.verify_chart_transition.count": ["forms.verify_chart_transition"],
    "tableaux.standard_coordinates.count": ["tableaux.standard_coordinates"],
    "tableaux.bideterminant.count": ["tableaux.bideterminant"],
    "tableaux.enumerate_standard_basis.count": ["tableaux.enumerate_standard_basis"],
    "polynomials.mul.count": ["polynomials.mul"],
    "polynomials.minor_poly.count": ["polynomials.minor_poly"],
    "polynomials.substitute_series.count": ["polynomials.substitute_series"],
    "oracle.minimize_objective.count": ["oracle.minimize_objective"],
    "oracle.discrepancy_objective.count": ["oracle.discrepancy_objective"],
    "oracle.series_minor_order.count": ["oracle.series_minor_order"],
    "orbits.count": "orbits.",
    "mld.closed_form.count": "mld.",
    "core.alpha_prefix.count": ["core.alpha_prefix"],
    "cli.main.count": ["cli.main"],
}
COUNTER_METRICS = {
    "linalg.solve.inconsistent.count": "solve_inconsistent",
    "linalg.build.n_max": "build_n_max",
    "forms.denominator_power.max": "denominator_power_max",
    "oracle.tails.count": "tails",
    "oracle.prefix_unbounded.count": "prefix_unbounded",
}


def _names(group, spans: dict) -> list:
    if isinstance(group, str):
        return [n for n in spans if n.startswith(group)]
    return group


def pass_counts(trace: dict) -> dict:
    """Everything in a traced pass that must repeat exactly for one input."""
    spans, counters = trace["spans"], trace["counters"]
    out = {
        name: sum(spans[n][0] for n in _names(group, spans) if n in spans)
        for name, group in COUNT_GROUPS.items()
    }
    out.update({name: counters[key] for name, key in COUNTER_METRICS.items()})
    builds, solves = out["linalg.build.count"], out["linalg.solve.count"]
    cells = counters["build_cells"]
    out["linalg.build.nnz_frac"] = counters["build_nonzeros"] / cells if cells else 0.0
    out["linalg.solves_per_build"] = solves / builds if builds else 0.0
    return out


def pass_times(trace: dict) -> dict:
    spans = trace["spans"]
    out = {
        name: sum(spans[n][1] for n in _names(group, spans) if n in spans) / 1e9
        for name, group in SELF_GROUPS.items()
    }
    chart = spans.get("forms.verify_chart_transition", (0, 0, 0))
    out["forms.verify_chart_transition.total_s"] = chart[2] / 1e9
    out["trace.wall_s"] = spans["bench.pass"][2] / 1e9
    return out


def unaccounted_spans(trace: dict) -> list:
    known = set()
    for group in SELF_GROUPS.values():
        known.update(_names(group, trace["spans"]))
    return sorted(set(trace["spans"]) - known)


PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_GROUPS},
    **{name: "count" for name in COUNT_GROUPS},
    **{name: "count" for name in COUNTER_METRICS},
    "linalg.build.nnz_frac": "ratio",
    "linalg.solves_per_build": "ratio",
    "forms.verify_chart_transition.total_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- the run -------------------------------------------------------------------


def measure(args, ops: list, golden: dict, started: float) -> dict:
    """Run passes until the time is up; returns the raw records."""
    OUT.mkdir(exist_ok=True)
    setup_sample()  # untimed: the first import in a fresh checkout compiles bytecode
    setups = [setup_sample() for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    need_plain, need_traced = (2, 2) if args.trace else (MIN_PASSES, 0)
    begun = time.perf_counter()
    while True:
        enough = len(plain) >= need_plain and len(traced) >= need_traced
        if enough and time.perf_counter() - begun >= args.seconds:
            break
        if time.perf_counter() - started > LAST_START_S:
            if enough:
                break
            raise RuntimeError("passes too slow to finish a run within the time limit")
        trace = bool(args.trace) and (len(plain) + len(traced)) % 2 == 1
        spans_path = OUT / f"spans-{args.workload}.tsv" if trace else None
        timeout = DEADLINE_S - (time.perf_counter() - started)
        record = run_pass(args.workload, ops, trace, golden, spans_path, timeout)
        (traced if trace else plain).append(record)
    return {"setups": setups, "plain": plain, "traced": traced}


def evaluate(args, ops: list, raw: dict, golden: dict) -> tuple:
    """(result line, details) from the raw pass records."""
    passes = raw["plain"] + raw["traced"]
    issues = []
    reference = passes[0]["digests"]
    failed = 0
    for record in passes:
        for i, problems in enumerate(record["problems"]):
            if not problems and record["digests"][i] != reference[i]:
                problems = ["output differs between passes"]
            if problems:
                failed += 1
                if len(issues) < 10:
                    issues.append(f"op {i} {ops[i]}: {'; '.join(problems)}")
    if args.workload == "queries" and args.seed == DEFAULT_SEED:
        if digest(reference) != golden["queries"]:
            issues.append("query outputs differ from the golden digest of the default seed")
    attempted = len(ops) * len(passes)
    # Timings of the passes are scaled to the reference host speed (calib.py).
    calib_s = statistics.median(r["calib_s"] for r in passes)
    scale = calib.REFERENCE_S / calib_s
    details = {
        "passes": len(raw["plain"]),
        "traced_passes": len(raw["traced"]),
        "calib_s": calib_s,
        "scale": scale,
        "pass_wall_s": [r["wall_s"] for r in raw["plain"]],
        "issues": issues,
    }

    if args.trace:
        counts = [pass_counts(r["trace"]) for r in raw["traced"]]
        if any(c != counts[0] for c in counts[1:]):
            issues.append("per-layer counts differ between traced passes of one input")
        for record in raw["traced"]:
            stray = unaccounted_spans(record["trace"])
            if stray:
                issues.append(f"spans outside every self-time group: {stray}")
        times = [pass_times(r["trace"]) for r in raw["traced"]]
        values = dict(counts[0])
        values.update({name: scale * statistics.median(t[name] for t in times) for name in times[0]})
        untraced_wall = scale * statistics.median(r["wall_s"] for r in raw["plain"])
        values["trace.overhead_frac"] = values["trace.wall_s"] / untraced_wall - 1
        accounted = sum(values[name] for name in SELF_GROUPS) / values["trace.wall_s"]
        details["accounted_share"] = accounted
        details["span_count"] = raw["traced"][0]["trace"]["span_count"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        latencies = [t for r in passes for t in r["latencies_ms"]]
        tail_value, beyond = tail(latencies, TAIL_Q[args.workload])
        setups = raw["setups"] + [r["setup_s"] for r in passes]
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_value,
        }
        values = {name: scale * value for name, value in measured.items()}
        # Start-up is file and import work, which does not follow the
        # calibration loop's speed, so it is reported as measured.
        values["setup_s"] = measured["setup_s"]
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in passes)
        details.update({
            "unscaled": measured,
            "tail_percentile": round(100 * TAIL_Q[args.workload], 2),
            "tail_samples_beyond": beyond,
            "op_samples": len(latencies),
            "setup_samples": len(setups),
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    details["fail_frac"] = failed / attempted
    result = {
        "correct": failed == 0 and not issues,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def run_workload(args) -> int:
    started = time.perf_counter()
    golden = json.loads((HERE / "golden.json").read_text())
    ops = gen.generate(args.workload, args.seed)
    try:
        raw = measure(args, ops, golden, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, details = evaluate(args, ops, raw, golden)
    details["provenance"] = provenance(args)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>10}  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:>10}  fail_frac {details['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for issue in details["issues"]:
        print(f"{args.workload:>10}  FAILED {issue}")
    print(json.dumps({"details": details}))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "detmld" / "__init__.py").is_file():
        print(f"error: no detmld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    # Every workload in turn, each ending with its own result line.
    return max(run_workload(argparse.Namespace(**dict(vars(args), workload=w))) for w in sorted(TAIL_Q))


if __name__ == "__main__":
    sys.exit(main())
