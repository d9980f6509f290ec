"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they pass).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from helpers import QuadraticLogWarp
from speechscale import (
    IdentityWarp,
    LogWarp,
    BandPartition,
    ShiftMatrix,
    TubeConfig,
    align_population,
    best_translation,
    build_piecewise,
    estimate_scale,
    fit_mel,
    formants,
    rank1_factor,
)
from speechscale.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(num: int, name: str, elapsed: float, bound: float) -> None:
    assert elapsed < bound, f"criterion {num} exceeded its {bound:.0f}s budget"
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.2f}s < {bound:.0f}s)")


def test_criterion_1_two_tube_degeneracy():
    start = time.perf_counter()
    config = TubeConfig.two_tube(0.0875, 0.0875, 1.0, 1.0, speed_of_sound=350.0)
    got = formants(config, 3, 8000.0).formants
    assert np.allclose(got, [500.0, 1500.0, 2500.0], atol=0.1)
    _report(1, "two-tube degeneracy", time.perf_counter() - start, 1.0)


def test_criterion_2_log_warp_shift_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    warp = LogWarp()
    for _ in range(20):
        kappa = rng.uniform(0.5, 2.0)
        f = np.sort(rng.uniform(150.0, 4000.0, rng.integers(2, 6)))
        shift = warp(f * kappa) - warp(f)
        assert np.max(np.abs(shift - math.log(kappa))) < 1e-12
    _report(2, "log-warp shift identity", time.perf_counter() - start, 1.0)


def test_criterion_3_estimator_recovery():
    start = time.perf_counter()
    betas = np.array([1.2, 1.0, 0.8])

    noiseless = helpers.injected_beta_records(betas=betas, n_speakers=20)
    est = estimate_scale(noiseless)
    assert np.max(np.abs(np.asarray(est.betas) - betas)) < 1e-6
    assert est.residual_rms < 1e-10

    noisy = helpers.injected_beta_records(
        betas=betas, n_speakers=20, noise_sigma=0.01, seed=0
    )
    est_noisy = estimate_scale(noisy)
    assert np.max(np.abs(np.asarray(est_noisy.betas) - betas)) < 0.05
    _report(3, "estimator recovery", time.perf_counter() - start, 5.0)


def test_criterion_4_alignment_collapse():
    start = time.perf_counter()
    records = helpers.injected_beta_records(n_speakers=20)
    est = estimate_scale(records)

    warped = align_population(records, est.warp, "aa")
    assert np.max(warped.spread_after) < 1e-6

    raw = align_population(records, IdentityWarp(), "aa")
    assert np.max(raw.improvement_ratio) > 10.0
    # and the warped alignment beats raw-Hz alignment outright
    assert np.min(raw.spread_after) / np.max(warped.spread_after) > 10.0
    _report(4, "alignment collapse", time.perf_counter() - start, 5.0)


def test_criterion_5_mel_fit_machinery():
    start = time.perf_counter()
    f = np.geomspace(1.0, 8000.0, 50)
    eta = 2595.0 * np.log10(1.0 + f / 700.0)

    fit = fit_mel(np.column_stack([f, eta]), calibrate=False)
    assert abs(fit.params.a - 2595.0) / 2595.0 < 0.01
    assert abs(fit.params.b - 700.0) / 700.0 < 0.01
    assert fit.r_squared > 0.9999

    calibrated = fit_mel(np.column_stack([f, 2.0 * eta + 5.0]), calibrate=True)
    assert abs(calibrated.params.b - 700.0) / 700.0 < 0.01
    _report(5, "mel-fit machinery", time.perf_counter() - start, 2.0)


def test_criterion_6_real_corpus_headline(tmp_path):
    corpus = os.environ.get("SPEECHSCALE_CORPUS", str(REPO_ROOT / "data" / "bigdata.dat"))
    if not Path(corpus).exists():
        pytest.skip(
            "real corpus file not present (set SPEECHSCALE_CORPUS or place "
            "data/bigdata.dat); the published headline numbers are not "
            "reproducible without it"
        )
    start = time.perf_counter()
    out = tmp_path / "run"
    code = cli_main(
        [
            "pipeline",
            "--corpus", corpus,
            "--format", "table",
            "--column-map", str(REPO_ROOT / "configs" / "hillenbrand_bigdata.json"),
            "--align-vowel", "aw",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "melfit_report.json").read_text())
    assert report["r_squared"] >= 0.99
    assert 400.0 <= report["params"]["b"] <= 1000.0
    _report(6, "real-corpus headline", time.perf_counter() - start, 60.0)


def test_criterion_7_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    corpus = tmp_path / "corpus.csv"
    assert cli_main(["synth", "--speakers", "12", "--seed", "11",
                     "--oral-range", "0.064:0.096", "--vary", "all",
                     "--out", str(corpus)]) == 0
    out = tmp_path / "run"

    digests = []
    for _ in range(2):
        assert cli_main(["pipeline", "--corpus", str(corpus), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append([a["sha256"] for a in manifest["artifacts"]])
        assert all(a["status"] == "ok" for a in manifest["artifacts"])
    assert digests[0] == digests[1]
    _report(7, "pipeline determinism", time.perf_counter() - start, 10.0)


class TestCriterion8InvariantSuites:
    """Seeded property suites, 1000 cases each."""

    CASES = 1000

    def _random_warp(self, rng):
        kind = rng.integers(0, 3)
        if kind == 0:
            return LogWarp(), 1e-2, 1e5
        if kind == 1:
            return QuadraticLogWarp(), 1.0, 1e5
        n_bands = int(rng.integers(1, 5))
        bounds = np.exp(np.sort(rng.uniform(np.log(50.0), np.log(9000.0), n_bands + 1)))
        if np.min(np.diff(bounds)) < 1e-6:
            return LogWarp(), 1e-2, 1e5
        betas = rng.uniform(0.3, 3.0, n_bands)
        warp = build_piecewise(betas, BandPartition(tuple(bounds)))
        return warp, bounds[0], bounds[-1]

    def test_warp_monotonicity_and_round_trip(self):
        start = time.perf_counter()
        rng = np.random.default_rng(81)
        for _ in range(self.CASES):
            warp, lo, hi = self._random_warp(rng)
            f1 = np.exp(rng.uniform(np.log(lo), np.log(hi) - 1e-6))
            f2 = f1 * np.exp(rng.uniform(1e-6, np.log(hi) - np.log(f1)))
            assert warp(f1) < warp(f2)
            for f in (f1, f2):
                assert abs(warp.inverse(warp(f)) - f) / f < 1e-9
        _report(8, "warp monotonicity/round-trip x1000", time.perf_counter() - start, 30.0)

    def test_piecewise_continuity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(82)
        checked = 0
        while checked < self.CASES:
            n_bands = int(rng.integers(2, 6))
            bounds = np.exp(np.sort(rng.uniform(np.log(50.0), np.log(9000.0), n_bands + 1)))
            if np.min(np.diff(bounds)) < 1e-6:
                continue
            warp = build_piecewise(rng.uniform(0.3, 3.0, n_bands), BandPartition(tuple(bounds)))
            log_b = np.log(warp.partition.boundaries)
            for l in range(1, n_bands):
                left = warp._offsets[l - 1] + warp._slopes[l - 1] * (log_b[l] - log_b[l - 1])
                assert left == warp._offsets[l]
            assert warp(warp.partition.f_min) == 0.0
            checked += 1
        _report(8, "piecewise continuity x1000", time.perf_counter() - start, 30.0)

    def test_als_objective_monotone(self):
        start = time.perf_counter()
        rng = np.random.default_rng(83)
        checked = 0
        while checked < self.CASES:
            rows = int(rng.integers(3, 9))
            cols = int(rng.integers(2, 6))
            values = np.outer(rng.normal(0, 0.2, rows), rng.uniform(0.5, 1.5, cols))
            values = values + rng.normal(0, 0.05, (rows, cols))
            mask = rng.uniform(size=(rows, cols)) > 0.25
            mask[:, 0] = True
            mask[0, :] = True
            shifts = ShiftMatrix(
                tuple(f"s{i}" for i in range(rows)),
                tuple(f"b{j}" for j in range(cols)),
                values,
                mask,
            )
            try:
                fit = rank1_factor(shifts)
            except Exception:
                continue
            hist = np.asarray(fit.objective_history)
            assert np.all(np.diff(hist) <= 1e-12 * hist[0] + 1e-300)
            assert fit.residual_rms <= shifts.observed_rms() + 1e-15
            checked += 1
        _report(8, "ALS objective monotone x1000", time.perf_counter() - start, 60.0)

    def test_reference_invariance_of_betas(self):
        start = time.perf_counter()
        rng = np.random.default_rng(84)
        for _ in range(self.CASES):
            n_speakers = int(rng.integers(4, 8))
            betas = rng.uniform(0.6, 1.6, 3)
            betas = betas / betas.mean()
            cs = rng.uniform(-0.15, 0.15, n_speakers)
            cs[0] = 0.15  # guarantee signal
            records = helpers.injected_beta_records(
                betas=betas, c_values=cs, means=(500.0, 1500.0, 2500.0)
            )
            grand = estimate_scale(records)
            ref = f"s{rng.integers(0, n_speakers):02d}"
            alt = estimate_scale(records, reference=ref)
            assert np.max(np.abs(np.asarray(alt.betas) - np.asarray(grand.betas))) < 1e-9
            diff = np.array(
                [
                    alt.speaker_factors[s] - grand.speaker_factors[s]
                    for s in grand.speaker_factors
                ]
            )
            assert np.max(np.abs(diff - diff.mean())) < 1e-9
        _report(8, "reference invariance x1000", time.perf_counter() - start, 120.0)

    def test_translation_optimality(self):
        start = time.perf_counter()
        rng = np.random.default_rng(85)
        for _ in range(self.CASES):
            n_speakers = int(rng.integers(2, 8))
            n_formants = int(rng.integers(1, 5))
            warped = rng.normal(0.0, 1.0, (n_speakers, n_formants))
            target = warped.mean(axis=0)
            alphas = best_translation(warped, target)
            base = np.sum((warped + alphas[:, None] - target[None, :]) ** 2)
            i = int(rng.integers(0, n_speakers))
            for delta in (0.01, -0.01):
                bumped = alphas.copy()
                bumped[i] += delta
                cost = np.sum((warped + bumped[:, None] - target[None, :]) ** 2)
                assert cost >= base
        _report(8, "translation optimality x1000", time.perf_counter() - start, 30.0)
