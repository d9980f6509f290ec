import math

import numpy as np
import pytest

import helpers
from speechscale import (
    STANDARD_MEL,
    BandPartition,
    MelParams,
    build_piecewise,
    compare_scales,
    fit_mel,
    mel_eval,
)


def mel_samples(params=STANDARD_MEL, n=50, lo=1.0, hi=8000.0):
    f = np.geomspace(lo, hi, n)
    return np.column_stack([f, mel_eval(params, f)])


class TestMelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MelParams(a=2595.0, b=0.0)
        with pytest.raises(ValueError):
            MelParams(a=0.0, b=700.0)

    def test_standard_constants(self):
        assert STANDARD_MEL.a == 2595.0
        assert STANDARD_MEL.b == 700.0


class TestMelEval:
    def test_zero_frequency_is_zero(self):
        assert mel_eval(STANDARD_MEL, 0.0) == 0.0

    def test_value_at_corner(self):
        assert mel_eval(STANDARD_MEL, 700.0) == pytest.approx(
            2595.0 * math.log10(2.0), rel=1e-12
        )

    def test_value_at_1000(self):
        # direct evaluation of the standard constants
        expected = 2595.0 * math.log10(1.0 + 1000.0 / 700.0)
        assert expected == pytest.approx(999.9855, abs=5e-4)
        assert mel_eval(STANDARD_MEL, 1000.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            mel_eval(STANDARD_MEL, -1.0)

    def test_monotone_for_positive_a(self):
        rng = np.random.default_rng(9)
        f = rng.uniform(0.0, 10000.0, (1000, 2))
        lo, hi = f.min(axis=1), f.max(axis=1)
        keep = hi > lo
        assert np.all(
            mel_eval(STANDARD_MEL, lo[keep]) < mel_eval(STANDARD_MEL, hi[keep])
        )


class TestFitMel:
    def test_exact_recovery_uncalibrated(self):
        fit = fit_mel(mel_samples(lo=1.0, hi=8000.0), calibrate=False)
        assert fit.params.a == pytest.approx(2595.0, rel=0.01)
        assert fit.params.b == pytest.approx(700.0, rel=0.01)
        assert fit.r_squared > 0.999999
        assert fit.affine == (1.0, 0.0)

    def test_affine_construction_recovers_corner(self):
        samples = mel_samples()
        samples[:, 1] = 2.0 * samples[:, 1] + 5.0
        fit = fit_mel(samples, calibrate=True)
        assert fit.params.b == pytest.approx(700.0, rel=0.01)
        assert fit.r_squared > 0.999999
        # the reported affine maps inputs onto the fitted curve
        f, nu = samples[:, 0], samples[:, 1]
        gain, offset = fit.affine
        assert np.allclose(gain * nu + offset, mel_eval(fit.params, f), atol=1e-6)

    def test_r_squared_is_one_on_exact_model(self):
        fit = fit_mel(mel_samples(), calibrate=False)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        # the corner is located to a relative 1e-6, which bounds the rms floor
        assert fit.rms_error < 1e-4

    def test_affine_invariance_of_corner(self):
        base = fit_mel(mel_samples(), calibrate=True).params.b
        for gain, offset in ((2.0, 5.0), (0.1, -3.0)):
            samples = mel_samples()
            samples[:, 1] = gain * samples[:, 1] + offset
            b = fit_mel(samples, calibrate=True).params.b
            assert abs(b - base) / base < 1e-6

    def test_golden_section_finds_local_minimum(self):
        samples = mel_samples()
        samples[:, 1] = samples[:, 1] + np.sin(np.arange(50))  # roughen the data
        fit = fit_mel(samples, calibrate=True)

        def sse_at(b):
            # independent closed-form regression at a pinned corner
            x = np.log10(1.0 + samples[:, 0] / b)
            design = np.column_stack([x, np.ones_like(x)])
            coef, *_ = np.linalg.lstsq(design, samples[:, 1], rcond=None)
            resid = samples[:, 1] - design @ coef
            return float(resid @ resid)

        best = sse_at(fit.params.b)
        assert best <= sse_at(fit.params.b * 1.001) + 1e-9
        assert best <= sse_at(fit.params.b * 0.999) + 1e-9
        assert best == pytest.approx(fit.rms_error**2 * 50, rel=1e-6)

    def test_rejects_few_or_degenerate_samples(self):
        with pytest.raises(ValueError):
            fit_mel([(100.0, 1.0), (200.0, 2.0)])
        with pytest.raises(ValueError):
            fit_mel([(100.0, 1.0), (100.0, 2.0), (100.0, 3.0)])
        with pytest.raises(ValueError):
            fit_mel([(100.0, 1.0), (200.0, 1.0), (300.0, 1.0)])

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            fit_mel(mel_samples(), b_range=(5000.0, 50.0))

    @pytest.mark.parametrize("warp, b, flag", [
        (np.log, 50.0000175, "lower"),  # the log warp is the b -> 0 limit
        (lambda f: f, 4999.998, "upper"),  # no warp is the b -> infinity limit
        (lambda f: mel_eval(STANDARD_MEL, f), 700.0, None),
    ])
    def test_corner_at_a_range_end_is_flagged(self, warp, b, flag):
        f = np.geomspace(100.0, 8000.0, 200)
        fit = fit_mel(np.column_stack([f, warp(f)]))
        assert fit.params.b == pytest.approx(b, rel=1e-6)
        assert fit.b_at_bound == flag
        assert fit.to_dict()["b_at_bound"] == flag


class TestCompareScales:
    def test_chord_warp_matches_generating_curve(self):
        warp = helpers.mel_chord_warp(STANDARD_MEL)
        grid = np.geomspace(100.0, 4000.0, 200)
        result = compare_scales(warp, STANDARD_MEL, grid)
        assert result.rms_deviation < 0.5
        assert result.max_deviation < 1.0

    def test_narrow_band_log_warp_is_locally_mel_shaped(self):
        warp = build_piecewise((1.0,), BandPartition((900.0, 1100.0)))
        grid = np.linspace(900.0, 1100.0, 60)
        result = compare_scales(warp, STANDARD_MEL, grid)
        assert result.rms_deviation < 1.0

    def test_calibration_is_least_squares_optimal(self):
        warp = helpers.mel_chord_warp(STANDARD_MEL, n_bands=6)
        grid = np.geomspace(100.0, 4000.0, 50)
        result = compare_scales(warp, STANDARD_MEL, grid)
        nu = np.asarray(warp(grid))
        eta = mel_eval(STANDARD_MEL, grid)
        base = np.sum(result.deviations**2)
        for dg, do in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 0.1), (0.0, -0.1)):
            perturbed = (result.gain + dg) * nu + (result.offset + do) - eta
            assert np.sum(perturbed**2) >= base

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            compare_scales(helpers.mel_chord_warp(STANDARD_MEL), STANDARD_MEL, [])

    def test_table_schema(self):
        warp = helpers.mel_chord_warp(STANDARD_MEL, n_bands=4)
        grid = np.geomspace(100.0, 4000.0, 5)
        table = compare_scales(warp, STANDARD_MEL, grid).to_dict()["table"]
        assert len(table) == 5
        assert set(table[0]) == {"f", "nu_calibrated", "eta_mel", "deviation"}
