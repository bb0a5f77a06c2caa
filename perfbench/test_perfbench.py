"""Tests of the benchmark itself: seeded inputs, output checks, span accounting.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from check import CheckError, check_output, ranking_set  # noqa: E402
from spans import SELF_TIMED, Tracer, layer_metrics, run_cli  # noqa: E402
from workloads import WORKLOADS, election_votes, retrieval_lists, sweep_rankings  # noqa: E402

SMALL = {
    "election": lambda rng: election_votes(rng, n_votes=400),
    "retrieval": lambda rng: retrieval_lists(rng, n_lists=8, k=15, pool=60),
    "sweep": lambda rng: sweep_rankings(rng, n=25, universe=10, min_len=4),
}


def small_run(name: str, tmp_path: Path, tracer: Tracer | None = None):
    w = WORKLOADS[name]
    rankings = SMALL[name](random.Random(5))
    path = tmp_path / f"in{w.suffix}"
    path.write_text(w.render(rankings))
    result = run_cli([w.args[0], str(path), *w.args[1:]], tracer)
    assert result.status == 0
    return w, rankings, result


def flip_one_byte(out: bytes) -> bytes:
    # the last digit of the first score: JSON "kappa2": or the first CSV row's
    match = re.search(rb'"kappa2": [0-9.e-]+|\n[^\n]*\n', out)
    end = match.end() - 1
    while not out[end:end + 1].isdigit():
        end -= 1
    flipped = b"1" if out[end:end + 1] == b"0" else b"0"
    return out[:end] + flipped + out[end + 1:]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_regenerates_identical_bytes(name):
    w = WORKLOADS[name]
    first = w.render(w.generate(random.Random(3)))
    assert first == w.render(w.generate(random.Random(3)))
    assert first != w.render(w.generate(random.Random(4)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_byte_change_is_a_failure(name, tmp_path):
    w, rankings, result = small_run(name, tmp_path)
    rset = ranking_set(w.cli_view(rankings))
    assert check_output(result.out, rset, w.args, seed=0) > 0

    changed = flip_one_byte(result.out)
    assert len(changed) == len(result.out) and changed != result.out
    with pytest.raises(CheckError):
        check_output(changed, rset, w.args, seed=0)
    mutated = run.Invocation(0, 0.0, 0.0, hashlib.sha256(changed).hexdigest(), None)
    usage_error = run_cli(["no-such-command"])
    assert usage_error.status == 1
    assert run.failures([result, mutated, usage_error], result.digest) == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_total(name, tmp_path):
    _, _, result = small_run(name, tmp_path, Tracer())
    metrics = layer_metrics(result)
    own = sum(metrics[f"{n}.self_s"][0] for n in SELF_TIMED)
    assert own == pytest.approx(metrics["cli.total_s"][0], rel=0, abs=1e-9)
    assert all(metrics[f"{n}.self_s"][0] >= 0 for n in SELF_TIMED)
    assert metrics["scores.score.calls"][0] == {"election": 2, "retrieval": 1, "sweep": 12}[name]


def test_benchmark_json_names_these_workloads_and_layer_metrics(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    _, _, result = small_run("retrieval", tmp_path, Tracer())
    metrics = layer_metrics(result)
    metrics["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def test_traced_output_matches_untraced(tmp_path):
    _, _, plain = small_run("election", tmp_path)
    _, _, traced = small_run("election", tmp_path, Tracer())
    assert traced.digest == plain.digest


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert not (tmp_path / ".perfbench").exists()
