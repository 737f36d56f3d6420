"""Tests of the benchmark itself, at a toy size: every metric is printed with
its unit, and broken outputs are counted as failed operations."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = bench.Sizes(d_model=32, n_q_heads=4, n_kv_heads=2, head_dim=8, mlp_hidden=64,
                  vocab=256, gdn_heads=2, train_len=32, train_corpus=8, kl_chunk=8,
                  prompt_len=40, decode_len=20, prompts=2, setups=2)
SECONDS = 0.3


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", str(SECONDS),
                     "--trace", str(trace)], sizes=TOY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(spec)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec[name], name
        assert isinstance(metric["value"], (int, float)), name
    assert {"cpus", "blas", "blas_threads", "numpy", "python",
            "git_commit"} <= set(details["machine"])
    assert details["decode_tail"]["samples_per_request"] == TOY.decode_len
    assert details["decode_tail"]["requests"] >= 1


def _perturb(monkeypatch, owner, attr, change):
    original = getattr(owner, attr)

    def broken(*args, **kwargs):
        return change(original(*args, **kwargs), *args, **kwargs)

    monkeypatch.setattr(owner, attr, broken)


def test_perturbed_kl_series_counts_as_failed_steps(monkeypatch, tmp_path):
    def shift(out, *args, **kwargs):
        out.value += 1e-3
        return out

    _perturb(monkeypatch, bench.train, "kl_online", shift)
    result = bench.run("long_ctx", 3, SECONDS, False, tmp_path, TOY)
    assert result.failed == result.details["samples"]["online"] >= 1


def test_perturbed_decode_logit_counts_as_failed_tokens(monkeypatch, tmp_path):
    def shift(out, *args, position_offset=0, **kwargs):
        if position_offset:
            out.logits[0, 0] += 1e-3
        return out

    _perturb(monkeypatch, bench.hybrid, "hybrid_forward", shift)
    result = bench.run("long_ctx", 3, SECONDS, False, tmp_path, TOY)
    assert result.ops["decode_token"][1] == TOY.decode_len
    assert result.ops["prefill"][1] == 0


def test_non_finite_loss_counts_as_failed_step(monkeypatch, tmp_path):
    def poison(value_and_grads, *args, **kwargs):
        return (float("nan"),) + tuple(value_and_grads[1:])

    _perturb(monkeypatch, bench.train, "ild_grads", poison)
    result = bench.run("long_ctx", 3, SECONDS, False, tmp_path, TOY)
    assert result.failed == result.details["samples"]["ild"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_ctx", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
