"""Tests of the benchmark's own oracle, checks and workloads.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import oracle
import run
import workloads

# two_tube(0.1, 0.05, 1, 4): a cot pole meets a tan pole at 1750 Hz
SEED_ANSWER = [762.832, 2737.168, 4262.832, 6237.168]
TRUE_ANSWER = [762.832, 1750.0, 2737.168, 4262.832]


def test_oracle_finds_the_resonance_at_coincident_poles():
    (roots,) = oracle.two_tube_resonances([0.1], [0.05], [1.0], [4.0])
    assert np.allclose(roots[:4], TRUE_ANSWER, atol=0.01)
    assert oracle.compare(TRUE_ANSWER, roots, 4) == "ok"
    assert oracle.compare(SEED_ANSWER, roots, 4) == "dropped"


def test_oracle_matches_the_quarter_wave_series():
    # equal areas make one uniform closed-open tube: f_n = (2n - 1) c / 4L
    (roots,) = oracle.two_tube_resonances([0.09], [0.08], [3.0], [3.0], f_max=5000.0)
    expected = [(2 * n - 1) * 350.0 / (4 * 0.17) for n in range(1, 6)]
    assert np.allclose(roots, expected, atol=0.01)


def test_oracle_rejects_a_value_that_is_no_resonance():
    (roots,) = oracle.two_tube_resonances([0.1], [0.05], [1.0], [4.0])
    assert oracle.compare([700.0, 1750.0, 2737.168, 4262.832], roots, 4) == "wrong"
    assert oracle.compare(TRUE_ANSWER[:3], roots, 4) == "wrong"
    # true resonances, but one twice or out of order, are not a dropped root
    assert oracle.compare([762.832, 762.832, 2737.168, 4262.832], roots, 4) == "wrong"
    assert oracle.compare([762.832, 2737.168, 1750.0, 4262.832], roots, 4) == "wrong"


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, pytest.approx(100 * 9 / 19))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.fixture
def program():
    return run.import_program()


def test_corrupted_manifest_digest_fails_the_check(program, tmp_path):
    corpus = workloads.csv_corpus(3, tmp_path, speakers=30, vowels=3)
    out = tmp_path / "out"
    check = run.PipelineCheck(out)
    assert check(corpus, run.cli_call(program, corpus.argv)[0])
    assert check(corpus, run.cli_call(program, corpus.argv)[0])

    manifest = json.loads((out / "manifest.json").read_text())
    manifest["artifacts"][1]["sha256"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert not check(corpus, 0)
    assert (check.attempted, check.failed) == (3, 1)
    assert "digest" in check.problems[0]
    assert not check(corpus, 2)


def test_estimate_check_compares_with_the_injected_betas(program, tmp_path):
    corpus = workloads.csv_corpus(4, tmp_path, speakers=200, vowels=4)
    assert run.cli_call(program, corpus.argv)[0] == 0
    out = tmp_path / "out"
    err, problems = run.check_estimate(out, corpus)
    assert problems == [] and err < corpus.beta_tol

    scale = json.loads((out / "scale.json").read_text())
    scale["betas"][0] += 0.5
    (out / "scale.json").write_text(json.dumps(scale))
    err, problems = run.check_estimate(out, corpus)
    assert err > 0.4 and "beta_max_abs_err" in problems[0]


def test_synth_check_catches_an_output_that_changes(program, tmp_path):
    call = workloads.synth_plan(5, tmp_path / "s.csv", speakers=3)[0]
    check = run.SynthCheck(tmp_path / "s.csv")
    check(call, run.cli_call(program, call.argv)[0])
    check(call, run.cli_call(program, call.argv)[0])
    assert check.problems == []
    (tmp_path / "s.csv").write_text((tmp_path / "s.csv").read_text().replace("s00", "s01", 1))
    check(call, 0)
    assert "differs" in check.problems[0]


def tiny_inputs(workload, seed, work):
    if workload == "synth":
        return workloads.synth_plan(seed, work / "synth.csv", speakers=4)
    if workload == "pipeline-csv-large":
        return workloads.csv_corpus(seed, work, speakers=60, vowels=3)
    # a sixth of the speakers estimates the betas less tightly
    groups = tuple((g, max(count // 6, 2), c) for g, count, c in workloads.HILLENBRAND_GROUPS)
    return dataclasses.replace(workloads.table_corpus(seed, work, groups=groups), beta_tol=0.3)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_reports_every_metric(workload, trace):
    out = run.run(workload, 7, 0.2, trace, make=tiny_inputs)
    result = out["result"]
    assert result["correct"], out["report"]["problems"]
    assert result["attempted"] >= 1
    declared = run.declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    assert set(out["layers"]) <= set(declared)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace and workload != "synth":
        assert out["report"]["span_coverage"] > 0.9
    if workload != "synth":
        assert result["failed"] == 0
