import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from speechscale import (
    GRAND_MEAN,
    BandPartition,
    DegenerateDataError,
    EstimationError,
    FormantSet,
    LogWarp,
    PiecewiseWarp,
    ShiftMatrix,
    SpeakerRecord,
    align_population,
    choose_partition,
    compute_shifts,
    estimate_scale,
    rank1_factor,
)


def single_token_records(formant_rows, vowel="aa"):
    records = []
    for i, row in enumerate(formant_rows):
        sid = f"s{i:02d}"
        records.append(
            SpeakerRecord(sid, None, (FormantSet(sid, vowel, tuple(row)),))
        )
    return records


class TestSpeakerRecord:
    def test_needs_tokens(self):
        with pytest.raises(ValueError):
            SpeakerRecord("a", None, ())

    def test_token_speaker_must_match(self):
        token = FormantSet("b", "aa", (500.0,))
        with pytest.raises(ValueError):
            SpeakerRecord("a", None, (token,))


class TestChoosePartition:
    def test_geometric_midpoints(self):
        records = single_token_records([[500.0, 1500.0, 2500.0]] * 3)
        part = choose_partition(records)
        expected = [
            250.0,
            math.sqrt(500.0 * 1500.0),
            math.sqrt(1500.0 * 2500.0),
            5000.0,
        ]
        assert np.allclose(part.boundaries, expected, rtol=1e-12)

    def test_single_formant_outer_rule(self):
        records = single_token_records([[800.0]] * 3)
        part = choose_partition(records)
        assert np.allclose(part.boundaries, [400.0, 1600.0], rtol=1e-12)

    def test_explicit_passthrough(self):
        records = single_token_records([[500.0, 1500.0]] * 2)
        part = choose_partition(records, mode="explicit", boundaries=(100.0, 1000.0, 4000.0))
        assert part.boundaries == (100.0, 1000.0, 4000.0)

    def test_explicit_unordered_rejected(self):
        records = single_token_records([[500.0, 1500.0]] * 2)
        with pytest.raises(ValueError):
            choose_partition(records, mode="explicit", boundaries=(1000.0, 100.0))

    def test_inconsistent_formant_counts_rejected(self):
        a = SpeakerRecord("a", None, (FormantSet("a", "aa", (500.0, 1500.0)),))
        b = SpeakerRecord("b", None, (FormantSet("b", "aa", (500.0, 1500.0, 2500.0)),))
        with pytest.raises(ValueError):
            choose_partition([a, b])

    def test_unknown_mode_rejected(self):
        records = single_token_records([[500.0]] * 2)
        with pytest.raises(ValueError):
            choose_partition(records, mode="sideways")


class TestComputeShifts:
    def test_identical_speakers_give_zero_matrix(self):
        records = single_token_records([[500.0, 1500.0, 2500.0]] * 4)
        shifts = compute_shifts(records)
        assert shifts.mask.all()
        assert np.allclose(shifts.values, 0.0, atol=1e-15)

    def test_pure_ratio_pair_gives_log_kappa(self):
        base = np.array([500.0, 1500.0, 2500.0])
        records = single_token_records([base, base * 1.2])
        shifts = compute_shifts(records, reference="s00")
        assert np.allclose(shifts.values[0], 0.0, atol=1e-15)  # reference row
        assert np.allclose(shifts.values[1], math.log(1.2), rtol=1e-12)

    def test_grand_mean_columns_sum_to_zero(self):
        records = helpers.injected_beta_records()
        shifts = compute_shifts(records)
        assert shifts.mask.all()
        assert np.allclose(shifts.values.mean(axis=0), 0.0, atol=1e-12)

    def test_injected_structure_recovered_exactly(self):
        betas = np.array([1.2, 1.0, 0.8])
        cs = np.linspace(-0.2, 0.2, 12)
        records = helpers.injected_beta_records(betas=betas, c_values=cs)
        shifts = compute_shifts(records)
        expected = np.outer(cs - cs.mean(), betas)
        assert np.max(np.abs(shifts.values - expected)) < 1e-9

    def test_empty_vowel_selection_rejected(self):
        records = single_token_records([[500.0]] * 2)
        with pytest.raises(ValueError):
            compute_shifts(records, vowels=[])

    def test_unknown_vowel_rejected(self):
        records = single_token_records([[500.0]] * 2)
        with pytest.raises(ValueError):
            compute_shifts(records, vowels=["iy"])

    def test_missing_reference_rejected(self):
        records = single_token_records([[500.0]] * 2)
        with pytest.raises(ValueError):
            compute_shifts(records, reference="nobody")

    def test_speaker_without_requested_vowel_rejected(self):
        a = SpeakerRecord("a", None, (FormantSet("a", "aa", (500.0,)),))
        b = SpeakerRecord("b", None, (FormantSet("b", "iy", (300.0,)),))
        with pytest.raises(ValueError):
            compute_shifts([a, b], vowels=["aa"], partition=BandPartition((100.0, 1000.0)))

    def test_band_membership_follows_reference_frequency(self):
        # one speaker's second formant drifts into band 3, but membership is
        # decided by the reference (grand-mean) frequency, so the entry stays
        # attributed to band 2
        betas = np.array([1.0, 1.0, 1.0])
        cs = np.array([-0.45, 0.0, 0.45])
        records = helpers.injected_beta_records(betas=betas, c_values=cs)
        part = choose_partition(records)
        shifts = compute_shifts(records, partition=part)
        assert shifts.mask.all()
        expected = np.outer(cs - cs.mean(), betas)
        assert np.max(np.abs(shifts.values - expected)) < 1e-12


class TestRank1Factor:
    def exact_matrix(self):
        betas = np.array([1.2, 1.0, 0.8])
        cs = np.array([0.0, 0.1, -0.05, 0.2])
        values = np.outer(cs, betas)
        return ShiftMatrix(
            speaker_ids=("a", "b", "c", "d"),
            band_labels=("b1", "b2", "b3"),
            values=values,
            mask=np.ones_like(values, dtype=bool),
        ), betas, cs

    def test_exact_rank1_recovery(self):
        shifts, betas, cs = self.exact_matrix()
        fit = rank1_factor(shifts)
        assert np.max(np.abs(fit.betas - betas)) < 1e-9
        assert np.max(np.abs(fit.speaker_factors - cs)) < 1e-9
        assert fit.residual_rms < 1e-12
        assert fit.converged

    def test_normalization_mean_one(self):
        shifts, _, _ = self.exact_matrix()
        fit = rank1_factor(shifts)
        assert abs(np.mean(fit.betas) - 1.0) < 1e-12

    def test_normalization_preserves_reconstruction(self):
        shifts, betas, cs = self.exact_matrix()
        fit = rank1_factor(shifts)
        recon = np.outer(fit.speaker_factors, fit.betas)
        assert np.max(np.abs(recon - shifts.values)) < 1e-12

    def test_all_zero_matrix_is_degenerate(self):
        values = np.zeros((3, 3))
        shifts = ShiftMatrix(("a", "b", "c"), ("x", "y", "z"), values, np.ones_like(values, bool))
        with pytest.raises(DegenerateDataError):
            rank1_factor(shifts)

    def test_masked_entries_are_ignored(self):
        shifts, betas, cs = self.exact_matrix()
        mask = np.array(shifts.mask)
        mask[1, 2] = False
        mask[3, 0] = False
        values = np.array(shifts.values)
        values[~mask] = 99.0  # garbage where masked; must not matter
        masked = ShiftMatrix(shifts.speaker_ids, shifts.band_labels, values, mask)
        fit = rank1_factor(masked)
        assert np.max(np.abs(fit.betas - betas)) < 1e-9
        assert fit.residual_rms < 1e-12

    def test_noisy_recovery_within_tolerance(self):
        betas = np.array([1.2, 1.0, 0.8])
        cs = np.linspace(-0.2, 0.2, 20)
        rng = np.random.default_rng(0)
        values = np.outer(cs, betas) + rng.normal(0.0, 0.01, (20, 3))
        shifts = ShiftMatrix(
            tuple(f"s{i}" for i in range(20)),
            ("b1", "b2", "b3"),
            values,
            np.ones_like(values, bool),
        )
        fit = rank1_factor(shifts)
        assert np.max(np.abs(fit.betas - betas)) < 0.05

    def test_objective_history_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rows, cols = rng.integers(3, 9), rng.integers(2, 6)
            values = np.outer(rng.normal(0, 0.2, rows), rng.uniform(0.5, 1.5, cols))
            values += rng.normal(0, 0.05, (rows, cols))
            mask = rng.uniform(size=(rows, cols)) > 0.2
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
            except EstimationError:
                continue
            hist = np.array(fit.objective_history)
            assert np.all(np.diff(hist) <= 1e-12 * hist[0] + 1e-300)

    def test_nonconvergence_is_flagged(self):
        betas = np.array([1.2, 1.0, 0.8])
        rng = np.random.default_rng(1)
        values = np.outer(rng.normal(0, 0.2, 10), betas) + rng.normal(0, 0.05, (10, 3))
        shifts = ShiftMatrix(
            tuple(f"s{i}" for i in range(10)),
            ("b1", "b2", "b3"),
            values,
            np.ones_like(values, bool),
        )
        fit = rank1_factor(shifts, max_iters=1)
        assert not fit.converged
        assert fit.iterations == 1

    def test_rejects_bad_iteration_controls(self):
        shifts, _, _ = self.exact_matrix()
        with pytest.raises(ValueError):
            rank1_factor(shifts, max_iters=0)
        with pytest.raises(ValueError):
            rank1_factor(shifts, tol=-1.0)

    def test_empty_band_is_named_before_iterating(self):
        shifts, _, _ = self.exact_matrix()
        mask = np.array(shifts.mask)
        mask[:, 1] = False
        empty = ShiftMatrix(shifts.speaker_ids, shifts.band_labels, shifts.values, mask, "c")
        with pytest.raises(EstimationError, match=r"band\(s\) b2 against reference 'c'"):
            rank1_factor(empty)

    def test_needs_two_rows_and_columns(self):
        values = np.array([[0.1, 0.2]])
        with pytest.raises(EstimationError):
            rank1_factor(ShiftMatrix(("a",), ("x", "y"), values, np.ones_like(values, bool)))
        values = np.array([[0.1], [0.2]])
        with pytest.raises(EstimationError):
            rank1_factor(ShiftMatrix(("a", "b"), ("x",), values, np.ones_like(values, bool)))


class TestEstimateScale:
    def test_uniform_scaling_population_gives_unit_betas(self):
        records = helpers.kappa_scaled_records()
        est = estimate_scale(records)
        assert np.max(np.abs(np.asarray(est.betas) - 1.0)) < 1e-6
        # the warp is then the log warp up to the anchor constant
        grid = np.geomspace(est.partition.f_min, est.partition.f_max, 50)
        log = LogWarp()
        expected = log(grid) - log(est.partition.f_min)
        assert np.max(np.abs(est.warp(grid) - expected)) < 1e-9

    def test_injected_beta_recovery(self):
        betas = (1.2, 1.0, 0.8)
        records = helpers.injected_beta_records(betas=betas)
        est = estimate_scale(records)
        assert np.max(np.abs(np.asarray(est.betas) - np.asarray(betas))) < 1e-6
        assert est.residual_rms < 1e-10
        assert est.provenance["converged"]

    def test_two_identical_speakers_degenerate(self):
        records = single_token_records([[500.0, 1500.0, 2500.0]] * 2)
        with pytest.raises(DegenerateDataError):
            estimate_scale(records)

    def test_non_monotone_scale_rejected(self):
        # a negative band exponent cannot produce a strictly increasing warp
        records = helpers.injected_beta_records(betas=(1.5, 1.0, -0.5), c_values=np.linspace(-0.1, 0.1, 8))
        with pytest.raises(EstimationError, match="non-monotone"):
            estimate_scale(records)

    def test_reference_invariance(self):
        records = helpers.injected_beta_records()
        grand = estimate_scale(records)
        for ref in ("s00", "s07"):
            alt = estimate_scale(records, reference=ref)
            assert np.max(np.abs(np.asarray(alt.betas) - np.asarray(grand.betas))) < 1e-9
            diff = np.array(
                [alt.speaker_factors[sid] - grand.speaker_factors[sid] for sid in grand.speaker_factors]
            )
            assert np.std(diff) < 1e-9  # common additive constant only

    def test_self_consistency_alignment_collapse(self):
        records = helpers.injected_beta_records()
        est = estimate_scale(records)
        result = align_population(records, est.warp, "aa")
        assert np.max(result.spread_after) < 1e-6

    def test_serialization_round_trip(self):
        est = estimate_scale(helpers.injected_beta_records())
        data = est.to_dict()
        assert tuple(data["betas"]) == est.betas
        assert data["speaker_factors"] == est.speaker_factors
        assert BandPartition(tuple(data["partition"])) == est.partition
        assert PiecewiseWarp.from_dict(data["warp"]) == est.warp

    def test_pooled_vowels_share_bands(self):
        # two vowels whose formants land in the same three bands; the model is
        # still exactly rank one and recovery is exact
        betas = np.array([1.2, 1.0, 0.8])
        cs = np.linspace(-0.1, 0.1, 10)
        means = {"aa": np.array([600.0, 1400.0, 2600.0]), "iy": np.array([500.0, 1600.0, 2400.0])}
        records = []
        for i, c in enumerate(cs):
            sid = f"s{i:02d}"
            tokens = tuple(
                FormantSet(sid, v, tuple(m * np.exp(betas * c))) for v, m in means.items()
            )
            records.append(SpeakerRecord(sid, None, tokens))
        est = estimate_scale(records)
        assert np.max(np.abs(np.asarray(est.betas) - betas)) < 1e-6


RAGGED_VOWELS = ("uw", "aa", "iy", "eh")
RAGGED_PARTITION = BandPartition((80.0, 700.0, 1800.0, 7000.0))


@st.composite
def ragged_records(draw, uniform: bool):
    """Speakers with a random subset of vowels, 1-9 tokens per (speaker,
    vowel) in shuffled order, and 1-4 formants per token (one count for
    every token when ``uniform``)."""
    width = draw(st.integers(1, 4))
    # unrounded frequencies; round ones would hide rounding differences
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for i in range(draw(st.integers(2, 6))):
        sid = f"s{i}"
        tokens = []
        for vowel in draw(st.lists(st.sampled_from(RAGGED_VOWELS), min_size=1, unique=True)):
            for _ in range(draw(st.integers(1, 9))):
                n = width if uniform else draw(st.integers(1, width))
                tokens.append(FormantSet(sid, vowel, tuple(np.sort(rng.uniform(100.0, 6000.0, n)))))
        records.append(SpeakerRecord(sid, None, tuple(draw(st.permutations(tokens)))))
    return records


def drawn_vowels(data, records):
    """A non-empty selection of the vowels present, in drawn (unsorted) order."""
    present = sorted({t.vowel for r in records for t in r.tokens})
    return data.draw(st.lists(st.sampled_from(present), min_size=1, unique=True))


def assert_matches(got, want, records):
    """Equal bits when no (speaker, vowel) has 8 tokens; within 1e-12 otherwise.

    np.mean adds 8 or more values pairwise and the array path adds them in
    sequence, so only then may the last bits differ. 1e-12, also absolute for
    shifts that cancel to about 0, is far above that and far below any real
    difference.
    """
    tokens = Counter((r.speaker_id, t.vowel) for r in records for t in r.tokens)
    if max(tokens.values()) < 8:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestArraysMatchPerTokenReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_partition(self, data):
        records = data.draw(ragged_records(uniform=True))
        vowels = drawn_vowels(data, records)
        got = choose_partition(records, vowels)
        # the same means over the same values in the same order
        assert got == helpers.reference_partition(records, vowels)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_shifts(self, data):
        records = data.draw(ragged_records(uniform=False))
        vowels = drawn_vowels(data, records)
        reference = data.draw(st.sampled_from([GRAND_MEAN] + [r.speaker_id for r in records]))
        try:
            ids, values, mask = helpers.reference_shifts(
                records, vowels, RAGGED_PARTITION, reference)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                compute_shifts(records, vowels, RAGGED_PARTITION, reference)
            assert str(raised.value) == str(exc)
            return
        got = compute_shifts(records, vowels, RAGGED_PARTITION, reference)
        assert got.speaker_ids == ids
        np.testing.assert_array_equal(got.mask, mask)
        assert_matches(got.values, values, records)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_alignment(self, data):
        records = data.draw(ragged_records(uniform=True))
        vowel = drawn_vowels(data, records)[0]
        warp = PiecewiseWarp(RAGGED_PARTITION, (1.2, 0.9, 1.0))
        ids, raw, warped = helpers.reference_alignment(records, warp, vowel)
        got = align_population(records, warp, vowel)
        assert got.speaker_ids == ids
        assert_matches(got.formants_raw_hz, raw, records)
        assert_matches(got.formants_warped, warped, records)
