import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import QuadraticLogWarp
from speechscale import (
    BandPartition,
    DomainError,
    FormantSet,
    IdentityWarp,
    LogWarp,
    PiecewiseWarp,
    build_piecewise,
)


def pw_example():
    return build_piecewise((1.0, 0.8), BandPartition((100.0, 1000.0, 4000.0)))


class TestLogWarp:
    def test_ln_e_is_one(self):
        assert LogWarp()(math.e) == pytest.approx(1.0)

    def test_invert_zero_is_one(self):
        assert LogWarp().inverse(0.0) == pytest.approx(1.0)

    def test_formant_mapping(self):
        fs = FormantSet("x", "aa", (500.0, 1500.0, 2500.0))
        out = LogWarp()(fs.formants)
        assert out == pytest.approx([math.log(500), math.log(1500), math.log(2500)])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            LogWarp()(0.0)
        with pytest.raises(DomainError):
            LogWarp()(np.array([10.0, -1.0]))


class TestQuadraticLogWarp:
    def test_value_at_1000(self):
        u = math.log(1000.0)
        assert QuadraticLogWarp()(1000.0) == pytest.approx(0.9 * u + 0.6 * u * u, rel=1e-12)

    def test_round_trip(self):
        w = QuadraticLogWarp()
        for f in np.geomspace(1.0, 10000.0, 25):
            assert w.inverse(w(f)) == pytest.approx(f, rel=1e-9)

    def test_domain_floor(self):
        w = QuadraticLogWarp()
        assert w.f_min == pytest.approx(math.exp(-0.9 / 1.2))
        with pytest.raises(DomainError):
            w(w.f_min * 0.99)

    def test_scale_range_floor(self):
        with pytest.raises(DomainError):
            QuadraticLogWarp().inverse(-1.0)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            QuadraticLogWarp(linear_coeff=-1.0)


class TestBandPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandPartition((100.0,))
        with pytest.raises(ValueError):
            BandPartition((100.0, 90.0))
        with pytest.raises(ValueError):
            BandPartition((-1.0, 100.0))

    def test_band_index(self):
        part = BandPartition((100.0, 1000.0, 4000.0))
        assert part.band_index(100.0) == 0
        assert part.band_index(999.0) == 0
        assert part.band_index(1000.0) == 1
        assert part.band_index(4000.0) == 1
        assert list(part.band_index(np.array([200.0, 2000.0]))) == [0, 1]

    def test_contains(self):
        part = BandPartition((100.0, 4000.0))
        assert part.contains(100.0) and part.contains(4000.0)
        assert not part.contains(99.0) and not part.contains(4001.0)


class TestPiecewiseWarp:
    def test_single_band_unit_slope_is_shifted_log(self):
        w = build_piecewise((1.0,), BandPartition((100.0, 8000.0)))
        for f in np.geomspace(100.0, 8000.0, 20):
            assert w(f) == pytest.approx(math.log(f) - math.log(100.0), rel=1e-12, abs=1e-12)

    def test_worked_example_values(self):
        w = build_piecewise((1.0, 2.0), BandPartition((100.0, 1000.0, 10000.0)))
        assert w(1000.0) == pytest.approx(math.log(10.0), rel=1e-12)
        assert w(10000.0) == pytest.approx(1.5 * math.log(10.0), rel=1e-12)

    def test_anchor_is_zero(self):
        assert pw_example()(100.0) == 0.0

    def test_continuity_is_exact_at_interior_boundaries(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_bands = rng.integers(2, 6)
            bounds = np.sort(rng.uniform(50.0, 8000.0, n_bands + 1))
            if np.any(np.diff(bounds) <= 0):
                continue
            betas = rng.uniform(0.3, 3.0, n_bands)
            w = build_piecewise(betas, BandPartition(tuple(bounds)))
            log_b = np.log(bounds)
            for l in range(1, n_bands):
                left = w._offsets[l - 1] + w._slopes[l - 1] * (log_b[l] - log_b[l - 1])
                assert left == w._offsets[l]  # exact: offsets are chained sums

    def test_invert_at_boundary_images_is_exact(self):
        w = pw_example()
        for b in w.partition.boundaries:
            assert w.inverse(w(b)) == b

    def test_out_of_domain_raises(self):
        w = pw_example()
        with pytest.raises(DomainError):
            w(99.0)
        with pytest.raises(DomainError):
            w(4001.0)
        with pytest.raises(DomainError):
            w.inverse(w.nu_max + 1.0)

    def test_extrapolation_extends_edge_slopes(self):
        w = pw_example()
        we = w.with_extrapolation()
        # below: first band slope continues
        assert we(50.0) == pytest.approx(1.0 * (math.log(50.0) - math.log(100.0)), rel=1e-12)
        # above: last band slope continues from the last boundary value
        expected = w(4000.0) + (1.0 / 0.8) * (math.log(8000.0) - math.log(4000.0))
        assert we(8000.0) == pytest.approx(expected, rel=1e-12)
        assert we.inverse(we(50.0)) == pytest.approx(50.0, rel=1e-9)

    def test_build_validations(self):
        part = BandPartition((100.0, 1000.0, 4000.0))
        with pytest.raises(ValueError):
            build_piecewise((1.0,), part)
        with pytest.raises(ValueError):
            build_piecewise((1.0, -0.5), part)

    def test_serialization_round_trip(self):
        w = pw_example()
        data = w.to_dict()
        assert data == {
            "boundaries_hz": [100.0, 1000.0, 4000.0],
            "betas": [1.0, 0.8],
            "anchor_hz": 100.0,
        }
        again = PiecewiseWarp.from_dict(data)
        assert again == w

    def test_anchor_mismatch_rejected(self):
        data = pw_example().to_dict()
        data["anchor_hz"] = 123.0
        with pytest.raises(ValueError):
            PiecewiseWarp.from_dict(data)


class TestWarpFormants:
    def test_empty_list(self):
        assert LogWarp()(np.array([])).size == 0

    def test_preserves_order(self):
        out = pw_example()(np.array([200.0, 900.0, 3000.0]))
        assert np.all(np.diff(out) > 0)

    def test_rejects_out_of_domain_formant(self):
        with pytest.raises(DomainError):
            pw_example()(np.array([50.0, 200.0]))


class TestRoundTripContract:
    @pytest.mark.parametrize(
        "warp",
        [
            IdentityWarp(),
            LogWarp(),
            QuadraticLogWarp(),
            build_piecewise((1.1, 0.9, 0.75), BandPartition((100.0, 900.0, 2500.0, 8000.0))),
        ],
        ids=lambda w: w.kind,
    )
    def test_relative_error_under_1e9(self, warp):
        grid = np.geomspace(100.0, 8000.0, 100)
        back = warp.inverse(warp(grid))
        assert np.max(np.abs(back - grid) / grid) < 1e-9


class TestShiftIdentity:
    def test_log_warp_turns_scaling_into_translation(self):
        rng = np.random.default_rng(11)
        w = LogWarp()
        for _ in range(20):
            kappa = rng.uniform(0.5, 2.0)
            f = np.sort(rng.uniform(200.0, 4000.0, 4))
            shift = w(f * kappa) - w(f)
            assert np.max(np.abs(shift - math.log(kappa))) < 1e-12


@st.composite
def warp_and_pair(draw):
    kind = draw(st.sampled_from(["identity", "log", "quadratic", "piecewise"]))
    if kind == "identity":
        warp, lo, hi = IdentityWarp(), 1.0, 1e5
    elif kind == "log":
        warp, lo, hi = LogWarp(), 1e-3, 1e5
    elif kind == "quadratic":
        warp, lo, hi = QuadraticLogWarp(), 1.0, 1e5
    else:
        warp, lo, hi = pw_example(), 100.0, 4000.0
    f1 = draw(st.floats(min_value=lo, max_value=hi * 0.99))
    # keep a real gap: adjacent doubles can map to the same scale value
    ratio = draw(st.floats(min_value=1e-9, max_value=hi / f1 - 1.0))
    return warp, f1, min(f1 * (1.0 + ratio), hi)


class TestMonotonicity:
    @given(warp_and_pair())
    def test_strictly_increasing(self, case):
        warp, f1, f2 = case
        assert warp(f1) < warp(f2)
