"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

They run reduced decks (`--small`), about three minutes in all.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs as gen  # noqa: E402
import run  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    one = gen.digest(gen.generate(workload, 1, 2))
    assert one == gen.digest(gen.generate(workload, 1, 2))
    assert one != gen.digest(gen.generate(workload, 2, 2))


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B3", "D4", "H3", "I2(5)", "I2(8)", "A1*A1"])
def test_generator_agrees_with_gencactus(name):
    from gencactus import CoxeterSystem, RacgContext, CactusWord
    from gencactus import check_relations, conjugate_subset, connected_subsets, rho_rep
    import random

    alpha = gen.Alphabet(name)
    system = CoxeterSystem.from_name(name)
    assert alpha.labels == list(system.labels)
    assert set(alpha.letters) == set(connected_subsets(system))
    for J in alpha.letters:
        for I in alpha.letters:
            if I <= J:
                assert alpha.conj(J, I) == conjugate_subset(system, J, I)
    report = check_relations(system, rho_rep(system, Fraction(1234, 1009)))
    assert report.ok and report.checked == gen.relation_count(alpha)
    ctx, rng = RacgContext(system), random.Random(name)
    for length in (3, 12):
        u = alpha.random_word(rng, length)
        same = alpha.scramble(rng, u, moves=2 * length, inserts=2)
        other = alpha.scramble(rng, u + [rng.choice(alpha.letters)], moves=2 * length, inserts=2)
        assert ctx.cactus_equal(CactusWord(system, u), CactusWord(system, same))
        assert not ctx.cactus_equal(CactusWord(system, u), CactusWord(system, other))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_untraced_run_has_no_failures(workload):
    result, record = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", "0", "--small"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 3 and record["input_digest"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1", "--small")
    first, record = _result(_run(*args))
    second, _ = _result(_run(*args))
    # traced and untraced workers gave the same answers, and all were right
    assert first["correct"] and record["answer_mismatches"] == 0
    assert [n for n, _ in run.per_layer_names()] == list(first["metrics"])
    counts = {n for n, unit in run.per_layer_names() if unit == "count"}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_refuses_a_tree_without_gencactus(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
