"""One benchmark pass in a fresh interpreter.

Reads {"workload", "ops", "trace", "golden", "spans_path"} as JSON on stdin,
runs every op once in order, then checks the outputs and prints one JSON
line.  The
parent starts a new interpreter for each pass, so every pass begins with
cold module caches, as a command-line user's run does.
"""

import time

import detmld  # setup ends when the package import completes

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from detmld import cli, forms, tableaux  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def _prepare(workload: str, ops: list) -> list:
    """Library argument tuples for each op, built before the clock starts."""
    if workload == "straighten":
        return [
            (tableaux.DoubleTableau(tableaux.Tableau(op["left"]), tableaux.Tableau(op["right"])), op["m"])
            for op in ops
        ]
    return [tuple(op) if workload == "nash" else (list(op),) for op in ops]


def _runner(workload: str):
    """The op as a user calls it; looked up after the tracer is installed."""
    if workload == "nash":
        return forms.verify_nash
    if workload == "straighten":
        return tableaux.straighten
    main = cli.main

    def query(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argument errors exit through argparse
                code = exc.code
        return code, out.getvalue()

    return query


def _check(workload: str, ops: list, args: list, results: list, golden: dict) -> tuple:
    """(problems per op, digest of each op's output)."""
    problems, digests = [], []
    for op, arg, result in zip(ops, args, results):
        if isinstance(result, BaseException):
            problems.append([f"raised {type(result).__name__}: {result}"])
            digests.append(None)
            continue
        if workload == "nash":
            report = result.to_json()
            problems.append(checks.check_nash(report, golden["nash"][f"{op[0]},{op[1]}"]))
            digests.append(checks.nash_digest(report))
        elif workload == "straighten":
            problems.append(checks.check_straighten(op, arg[0], result, tableaux.bideterminant))
            digests.append(checks.digest(result.to_json()))
        else:
            code, stdout = result
            problems.append(checks.check_query(op, code, stdout))
            digests.append(checks.digest([code, stdout]))
    return problems, digests


def main() -> None:
    spec = json.load(sys.stdin)
    workload, ops = spec["workload"], spec["ops"]
    args = _prepare(workload, ops)
    calib_s = calib.loop_seconds()
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    run = _runner(workload)
    results, latencies = [], []
    root = tracer.root() if tracer is not None else contextlib.nullcontext()
    clock = time.perf_counter_ns
    with root:
        start = clock()
        for arg in args:
            t0 = clock()
            try:
                results.append(run(*arg))
            except Exception as exc:  # a failing op is data, counted below
                results.append(exc)
            latencies.append(clock() - t0)
        wall = clock() - start
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, digests = _check(workload, ops, args, results, spec["golden"])
    out = {
        "ready": READY,
        "calib_s": calib_s,
        "wall_s": wall / 1e9,
        "latencies_ms": [t / 1e6 for t in latencies],
        "peak_rss_mb": rss_mb,
        "problems": problems,
        "digests": digests,
    }
    if tracer is not None:
        out["trace"] = tracer.aggregate()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    sys.__stdout__.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
