import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from speechscale import (
    FormantSet,
    IncompleteScanWarning,
    TubeConfig,
    TubeSection,
    characteristic,
    formants,
    synth_population,
)

UNIFORM = TubeConfig.two_tube(0.0875, 0.0875, 1.0, 1.0)
AA_LIKE = TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0)


class TestTypes:
    def test_section_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TubeSection(0.0, 1.0)
        with pytest.raises(ValueError):
            TubeSection(0.1, -2.0)

    def test_config_needs_sections(self):
        with pytest.raises(ValueError):
            TubeConfig(sections=())

    def test_config_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            TubeConfig(sections=(TubeSection(0.1, 1.0),), speed_of_sound=0.0)

    def test_formant_set_must_ascend(self):
        for formants in [(500.0, 400.0), (400.0, 400.0), (300.0, np.float64(700.0), 700)]:
            with pytest.raises(ValueError, match="strictly ascending"):
                FormantSet("x", "aa", formants)
        token = FormantSet("x", "aa", (np.float64(300.5), 700, np.int64(2500)))
        assert token.formants == (300.5, 700.0, 2500.0)
        assert all(type(f) is float for f in token.formants)
        assert FormantSet("x", "aa", ()).formants == ()

    def test_formant_set_must_be_positive(self):
        for formants in [(-1.0, 400.0), (float("nan"),), (float("inf"),), (400.0, float("inf")),
                         (float("-inf"), 400.0), (0.0, 400.0), (-0.0,), (np.float64(-1.0),),
                         (0,), (400.0, float("nan"), 300.0)]:
            with pytest.raises(ValueError, match="positive and finite"):
                FormantSet("x", "aa", formants)


class TestCharacteristic:
    def test_equal_area_quarter_wave_zero_at_500(self):
        # equal areas degenerate to a uniform 0.175 m tube: 350/(4*0.175) = 500
        assert abs(characteristic(UNIFORM, 500.0)) < 1e-9

    def test_sign_change_brackets_500(self):
        assert characteristic(UNIFORM, 250.0) > 0
        assert characteristic(UNIFORM, 750.0) < 0

    def test_rejects_wrong_section_count(self):
        one = TubeConfig(sections=(TubeSection(0.17, 1.0),))
        with pytest.raises(ValueError):
            characteristic(one, 500.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            characteristic(UNIFORM, 0.0)
        with pytest.raises(ValueError):
            characteristic(UNIFORM, np.array([100.0, -5.0]))

    def test_vectorized_matches_scalar(self):
        grid = np.array([100.0, 333.0, 900.0])
        vec = characteristic(AA_LIKE, grid)
        assert vec == pytest.approx([characteristic(AA_LIKE, f) for f in grid])

    def test_roots_match_transfer_matrix_physics(self):
        # chain-matrix eigenfrequencies are a fully independent derivation
        expected = helpers.transfer_matrix_resonances(AA_LIKE, 4000.0)
        got = formants(AA_LIKE, len(expected), 4000.0).formants
        assert np.allclose(got, expected, atol=0.1)


class TestFormants:
    def test_uniform_degenerates_to_quarter_wave_series(self):
        got = formants(UNIFORM, 5, 8000.0).formants
        series = [(2 * n - 1) * 350.0 / (4 * 0.175) for n in range(1, 6)]
        assert np.allclose(got, series, atol=0.1)

    def test_matches_grid_scan_oracle(self):
        oracle = helpers.grid_scan_roots(AA_LIKE, 4, 8000.0)
        got = formants(AA_LIKE, 4, 8000.0).formants
        assert np.allclose(got, oracle, atol=0.1)

    def test_reported_roots_have_small_residual(self):
        got = formants(AA_LIKE, 3, 8000.0).formants
        grid = np.arange(0.1, 8000.0, 0.1)
        scale = np.max(np.abs(characteristic(AA_LIKE, grid)))
        for f in got:
            res = abs(characteristic(AA_LIKE, f))
            assert res < 1e-6 * scale
            # slope near a root is ~(2*pi/c)*(A2*L1 + A1*L2) per Hz; with the
            # 0.01 Hz bisection tolerance that bounds the residual well below 1e-3
            assert res < 1e-3

    def test_root_brackets_contain_no_pole(self):
        got = formants(AA_LIKE, 4, 8000.0).formants
        poles = helpers.tube_poles(AA_LIKE, 8000.0)
        for f in got:
            lo, hi = f - 0.1, f + 0.1
            assert characteristic(AA_LIKE, lo) * characteristic(AA_LIKE, hi) < 0
            assert not any(lo <= p <= hi for p in poles)

    def test_output_strictly_ascending(self):
        got = formants(AA_LIKE, 4, 8000.0).formants
        assert np.all(np.diff(got) > 0)

    def test_low_ceiling_warns_and_truncates(self):
        with pytest.warns(IncompleteScanWarning):
            got = formants(UNIFORM, 3, 1600.0)
        assert len(got.formants) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            formants(UNIFORM, 0, 8000.0)
        with pytest.raises(ValueError):
            formants(UNIFORM, 3, -1.0)

    @pytest.mark.parametrize("kappa", [0.5, 0.8, 1.25, 2.0])
    def test_homogeneity_under_uniform_scaling(self, kappa):
        base = formants(AA_LIKE, 3, 16000.0).formants
        scaled = formants(helpers.scaled_tract(AA_LIKE, kappa), 3, 16000.0).formants
        assert np.allclose(np.asarray(scaled), np.asarray(base) / kappa, atol=0.1)


def check_against_transfer_matrix(config, count=4, f_max=8000.0):
    """Every root is a true resonance, one per bracket, bit-equal to the
    earlier grid scan wherever that scan was right."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteScanWarning)
        got = formants(config, count, f_max).formants
    truth = np.array(helpers.transfer_matrix_resonances(config, f_max + 1.0))
    assert np.allclose(got, truth[: len(got)], atol=0.05)
    assert np.all(truth[len(got) : count] > f_max - 0.05)  # only roots above f_max go
    # exactly one resonance in each (f_{n-1}, f_n) with f_n = n*c/(2*(L1+L2))
    period = config.speed_of_sound / (2.0 * config.total_length)
    edges = period * np.arange(int(f_max // period) + 1)
    assert np.all(np.histogram(truth, bins=edges)[0] == 1)
    n = np.arange(1, len(got) + 1)
    assert np.all(((n - 1) * period < np.asarray(got)) & (np.asarray(got) < n * period))
    reference = helpers.reference_formants(config, count, f_max)
    # a root on a point the bisection evaluates (a multiple of 2**-7 Hz) lands on
    # either side of it by rounding, in the old residual as in the new one
    ticks = truth[: len(got)] * 2.0**7
    on_tick = np.any(np.abs(ticks - np.round(ticks)) < 1e-3)
    agrees = len(reference) == len(got) and np.allclose(reference, truth[: len(got)], atol=0.05)
    if agrees and not on_tick:
        assert got == reference


class TestAgainstTransferMatrix:
    @settings(max_examples=80, deadline=None)
    @given(
        back=st.floats(0.02, 0.2),
        front=st.floats(0.02, 0.2),
        area_ratio=st.floats(0.1, 10.0),
    )
    def test_random_tracts(self, back, front, area_ratio):
        check_against_transfer_matrix(TubeConfig.two_tube(back, front, 1.0, area_ratio))

    @pytest.mark.parametrize(
        "geometry",
        [
            # a cot pole on a tan pole: L1/L2 = 2n/(2m+1)
            (0.1, 0.05, 1.0, 4.0),
            (0.09, 0.0675, 1.0, 4.0),
            (0.04, 0.06, 3.0, 1.0),
            (0.16, 0.04, 1.0, 0.2),
            (0.12, 0.1, 1.0, 10.0),
            # the same poles a hair apart
            (0.1, 0.05 * (1 + 1e-9), 1.0, 4.0),
            (0.1, 0.05 * (1 - 1e-6), 1.0, 4.0),
            (0.09 * (1 + 1e-4), 0.0675, 1.0, 4.0),
            # equal areas: a uniform quarter-wave tube
            (0.0875, 0.0875, 1.0, 1.0),
            (0.1, 0.05, 2.0, 2.0),
        ],
    )
    def test_pole_coincidences_and_equal_areas(self, geometry):
        check_against_transfer_matrix(TubeConfig.two_tube(*geometry))

    def test_coincident_poles_keep_their_resonance(self):
        # the earlier grid scan dropped these roots and shifted later formants down
        got = formants(TubeConfig.two_tube(0.1, 0.05, 1.0, 4.0), 4).formants
        assert round(got[1], 1) == 1750.0
        got = formants(TubeConfig.two_tube(0.09, 0.0675, 1.0, 4.0), 4).formants
        assert round(got[3], 1) == 3888.9

    def test_population_matches_one_tract_at_a_time(self):
        pop = synth_population(AA_LIKE, 6, (0.045, 0.11), 4, seed=4, vary="all")
        kappas = np.random.default_rng(4).uniform(0.045, 0.11, 6) / AA_LIKE.sections[1].length
        for fs, kappa in zip(pop, kappas):
            assert fs.formants == formants(helpers.scaled_tract(AA_LIKE, kappa), 4).formants


class TestSynthPopulation:
    def test_zero_width_range_gives_identical_speakers(self):
        pop = synth_population(AA_LIKE, 4, (0.08, 0.08), 3, seed=1)
        assert len(pop) == 4
        assert len({fs.formants for fs in pop}) == 1

    def test_same_seed_is_bit_identical(self):
        a = synth_population(AA_LIKE, 4, (0.06, 0.10), 3, seed=7)
        b = synth_population(AA_LIKE, 4, (0.06, 0.10), 3, seed=7)
        assert a == b

    def test_different_seed_differs(self):
        a = synth_population(AA_LIKE, 4, (0.06, 0.10), 3, seed=7)
        b = synth_population(AA_LIKE, 4, (0.06, 0.10), 3, seed=8)
        assert a != b

    def test_every_formant_satisfies_characteristic(self):
        pop = synth_population(AA_LIKE, 6, (0.06, 0.10), 3, seed=3)
        rng = np.random.default_rng(3)
        lengths = rng.uniform(0.06, 0.10, 6)
        for fs, length in zip(pop, lengths):
            cfg = TubeConfig(
                (AA_LIKE.sections[0], TubeSection(float(length), AA_LIKE.sections[1].area)),
                AA_LIKE.speed_of_sound,
            )
            for f in fs.formants:
                assert abs(characteristic(cfg, f)) < 1e-3

    def test_vary_all_is_pure_homothety(self):
        pop = synth_population(AA_LIKE, 5, (0.06, 0.10), 3, seed=2, vary="all")
        rng = np.random.default_rng(2)
        kappas = rng.uniform(0.06, 0.10, 5) / AA_LIKE.sections[1].length
        products = np.array([np.asarray(fs.formants) * k for fs, k in zip(pop, kappas)])
        assert np.allclose(products, products[0], rtol=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            synth_population(AA_LIKE, 1, (0.06, 0.10))
        with pytest.raises(ValueError):
            synth_population(AA_LIKE, 4, (0.10, 0.06))
        with pytest.raises(ValueError):
            synth_population(AA_LIKE, 4, (0.06, 0.10), formant_count=1)
        with pytest.raises(ValueError):
            synth_population(AA_LIKE, 4, (0.06, 0.10), vary="somehow")
