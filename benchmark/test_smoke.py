"""Smoke test of the benchmark at tiny sizes (ell = 3, bound 10^3, 5 curves):
every metric BENCHMARK.json names is printed with its unit, and a wrong
expected answer makes the gate fail with a non-zero exit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*argv):
    return subprocess.run([sys.executable, *argv, "--seed", "1", "--seconds", "0",
                           "--size", "smoke"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    done = _run(str(HERE / "run.py"), "--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_wrong_expected_answer_fails_the_gate():
    wrong = ("import sys; sys.path[:0] = sys.argv[1:3]; import run, workloads; "
             "workloads.EXPECTED_CLASSES[3] += 1; sys.exit(run.main(sys.argv[3:]))")
    done = _run("-c", wrong, str(ROOT / "src"), str(HERE), "--workload", "lemma")
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
