"""Self-test of the benchmark on n = 16 versions of every workload.

    python3 -m pytest perfbench

Each workload must print every metric of BENCHMARK.json by name with its
unit, pass its output checks, and repeat its exact counts between two traced
runs. A perturbed reference must be counted as a failed check, a seed the
reference table does not hold must pass the seed-independent checks, and the
benchmark must refuse to run without the program's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_COUNTS = (
    "grid.fft_fwd_per_step",
    "grid.fft_inv_per_step",
    "grid.fft_bytes_per_step",
    "dynamics.steps",
    "diagnostics.samples",
    "dynamics.ckpt_bytes",
)


def bench(workload, trace, *extra, seed=0, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--n", "16", *extra],
        capture_output=True, text=True, cwd=root, timeout=600,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_reports(text, res, table):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in table}
    for m in table:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        pattern = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}(\s|$)"
        assert any(re.match(pattern, line) for line in text), m["name"]


def assert_correct(res):
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    text, res = result(bench(workload, 0))
    assert_correct(res)
    assert_reports(text, res, BENCH["end_to_end"])
    assert any(line.startswith("fail_frac = 0.0 ratio") for line in text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts(workload):
    runs = [result(bench(workload, 1)) for _ in range(2)]
    for text, res in runs:
        assert_correct(res)
        assert_reports(text, res, BENCH["per_layer"])
        assert res["metrics"]["dynamics.steps"]["value"] > 0
    for key in EXACT_COUNTS:
        assert runs[0][1]["metrics"][key] == runs[1][1]["metrics"][key], key


def test_held_out_seed_passes_seed_independent_checks():
    seed = 10**6
    with open(os.path.join(HERE, "reference.json")) as fh:
        assert str(seed) not in json.load(fh)["full_sampled"]["16"]
    _, held_out = result(bench("full_sampled", 0, seed=seed))
    _, known = result(bench("full_sampled", 0))
    assert_correct(held_out)
    assert_correct(known)


def test_perturbed_reference_is_a_failure(tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["model_jets"]["16"]["*"][0]["E_final"] *= 1.0 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    text, res = result(bench("model_jets", 0, "--reference", str(path)))
    assert not res["correct"]
    assert res["failed"] >= 1 and res["attempted"] > res["failed"]
    assert any(line.startswith("FAILED check seg0.ref.E_final") for line in text)
    assert res["metrics"]["pass_frac"]["value"] < 1.0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("model_jets", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
