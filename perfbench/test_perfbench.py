"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())
# Short prefixes of each op list keep the traced passes quick.
SAMPLES = {
    "nash": lambda: [[2, 1], [3, 2], [2, 2]],
    "straighten": lambda: gen.generate("straighten", 3)[:25],
    "queries": lambda: gen.generate("queries", 3)[:60],
}


@pytest.mark.parametrize("workload", ["straighten", "queries"])
def test_generation_is_deterministic_per_seed_and_differs_across_seeds(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)


def test_nash_inputs_are_the_five_feasible_cases():
    assert gen.generate("nash", 1) == gen.generate("nash", 2) == [[2, 1], [2, 2], [3, 1], [3, 2], [3, 3]]


def test_straighten_mix_is_stratified_by_block_size():
    ops = gen.generate("straighten", 5)
    assert len(ops) == 100
    sizes = sorted(gen.block_size(*gen.contents(op)) for op in ops)
    for _, block_sizes, count in gen.STRAIGHTEN_CLASSES:
        inside = sum(1 for n in sizes if n in block_sizes)
        assert count <= inside <= count + gen.STRAIGHTEN_REPEATS
    assert sizes[-1] <= 60


def test_query_mix_has_fixed_shares():
    ops = gen.generate("queries", 5)
    assert len(ops) == sum(count for _, count in gen.QUERY_MIX) == 304
    large_k = [op for op in ops if op[:2] == ["mld", "point"] and "--oracle" not in op]
    assert len(large_k) == 14
    assert all(int(op[op.index("--k") + 1]) >= 80 for op in large_k)


def test_tail_is_nearest_rank_with_samples_beyond():
    assert run.tail(list(range(1, 101)), 0.9) == (90, 10)


@pytest.mark.parametrize("workload", sorted(SAMPLES))
def test_traced_passes_repeat_counts_and_match_untraced_outputs(workload):
    ops = SAMPLES[workload]()
    plain = run.run_pass(workload, ops, False, GOLDEN)
    first = run.run_pass(workload, ops, True, GOLDEN)
    second = run.run_pass(workload, ops, True, GOLDEN)
    assert not any(plain["problems"])
    assert first["digests"] == second["digests"] == plain["digests"]
    counts = run.pass_counts(first["trace"])
    assert counts == run.pass_counts(second["trace"])
    assert counts["cli.main.count"] == (len(ops) if workload == "queries" else 0)
    assert run.unaccounted_spans(first["trace"]) == []
    times = run.pass_times(first["trace"])
    accounted = sum(times[name] for name in run.SELF_GROUPS)
    assert accounted == pytest.approx(times["trace.wall_s"], rel=1e-9)


def test_query_checks_flag_wrong_answers():
    argv = ["mld", "point", "--m", "3", "--k", "2", "--alphas", "0,0", "--q", "0"]
    good = {"mld": "6", "beta": ["2", "4"], "lc": True}
    assert checks.check_query(argv, 0, json.dumps(good)) == []
    assert checks.check_query(argv, 0, json.dumps(dict(good, mld="5")))
    assert checks.check_query(argv, 1, "")
    ord_argv = ["ord", "--lambda", "3,2,1", "--m", "3", "--s", "2", "--N", "7"]
    assert checks.check_query(ord_argv, 0, json.dumps({"order": 3})) == []
    assert checks.check_query(ord_argv, 0, json.dumps({"order": 4}))


def test_straighten_check_flags_a_wrong_expansion():
    from detmld import tableaux

    op = gen.generate("straighten", 2)[0]
    dt = tableaux.DoubleTableau(tableaux.Tableau(op["left"]), tableaux.Tableau(op["right"]))
    expansion = tableaux.straighten(dt, op["m"])
    assert checks.check_straighten(op, dt, expansion, tableaux.bideterminant) == []
    wrong = tableaux.StandardExpansion(tuple((2 * c, t) for c, t in expansion))
    assert checks.check_straighten(op, dt, wrong, tableaux.bideterminant)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nash", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.TAIL_Q)
