import json
import math

import numpy as np
import pytest

import helpers
from speechscale import (
    ColumnMap,
    CorpusError,
    PiecewiseWarp,
    canonical_json,
    estimate_scale,
    load_scale_estimate,
    load_warp,
    parse_csv,
    parse_table,
    records_from_tokens,
    synth_population,
    write_bundle,
    write_canonical_csv,
    TubeConfig,
)

CSV_OK = """speaker_id,group,vowel,f1_hz,f2_hz,f3_hz
s01,man,aa,700,1200,2500
s02,woman,aa,800,1400,2700
s01,man,iy,300,2200,3000
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCsv:
    def test_well_formed_file(self, tmp_path):
        corpus = parse_csv(write(tmp_path, "c.csv", CSV_OK))
        assert corpus.speaker_ids == ("s01", "s02")
        assert corpus.vowels == ("aa", "iy")
        assert corpus.n_tokens() == 3
        assert corpus.diagnostics == ()
        assert corpus.records[0].group == "man"

    def test_sentinel_row_excluded_with_diagnostic(self, tmp_path):
        text = CSV_OK + "s03,man,aa,700,0,2500\n"
        corpus = parse_csv(write(tmp_path, "c.csv", text))
        assert corpus.speaker_ids == ("s01", "s02")
        assert len(corpus.diagnostics) == 1
        assert corpus.diagnostics[0].line == 5
        assert "sentinel" in corpus.diagnostics[0].reason

    def test_non_ascending_row_rejected(self, tmp_path):
        text = CSV_OK + "s03,man,aa,1300,1200,2500\n"
        corpus = parse_csv(write(tmp_path, "c.csv", text))
        assert "non-ascending" in corpus.diagnostics[0].reason

    def test_non_numeric_row_rejected(self, tmp_path):
        text = CSV_OK + "s03,man,aa,seven,1200,2500\n"
        corpus = parse_csv(write(tmp_path, "c.csv", text))
        assert "non-numeric" in corpus.diagnostics[0].reason

    def test_short_row_rejected(self, tmp_path):
        text = CSV_OK + "s03,man\n"
        corpus = parse_csv(write(tmp_path, "c.csv", text))
        assert "too short" in corpus.diagnostics[0].reason

    def test_missing_column_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv", CSV_OK)
        with pytest.raises(CorpusError):
            parse_csv(path, ColumnMap(id_column="nope"))

    def test_no_formant_columns_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv", "speaker_id,vowel\ns01,aa\n")
        with pytest.raises(CorpusError):
            parse_csv(path)

    def test_zero_valid_rows_rejected(self, tmp_path):
        path = write(
            tmp_path, "c.csv", "speaker_id,group,vowel,f1_hz,f2_hz\ns01,man,aa,0,1200\n"
        )
        with pytest.raises(CorpusError):
            parse_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            parse_csv(tmp_path / "nope.csv")

    def test_parse_is_deterministic(self, tmp_path):
        text = CSV_OK + "s03,man,aa,700,0,2500\ns04,man,aa,900,800,2500\n"
        path = write(tmp_path, "c.csv", text)
        a = parse_csv(path)
        b = parse_csv(path)
        assert a.records == b.records
        assert a.diagnostics == b.diagnostics
        assert a.provenance == b.provenance


class TestParseTable:
    def test_legacy_line_splitting(self, tmp_path):
        path = write(tmp_path, "t.dat", "m01ae 250 600 1800 2500\n")
        corpus = parse_table(path, ColumnMap.legacy_table())
        record = corpus.records[0]
        assert record.speaker_id == "m01"
        assert record.tokens[0].vowel == "ae"
        assert record.tokens[0].formants == (600.0, 1800.0, 2500.0)

    def test_group_rule_labels(self, tmp_path):
        path = write(tmp_path, "t.dat", "m01ae 250 600 1800 2500\nw02ae 250 650 1900 2600\n")
        corpus = parse_table(
            path,
            ColumnMap.legacy_table(group_rule={"m": "man", "w": "woman"}),
        )
        assert corpus.records[0].group == "man"
        assert corpus.records[1].group == "woman"

    def test_garbage_line_skipped_with_diagnostic(self, tmp_path):
        path = write(
            tmp_path,
            "t.dat",
            "m01ae 250 600 1800 2500\n### comment row\nm02ae 250 650 1900 2600\n",
        )
        corpus = parse_table(path, ColumnMap.legacy_table())
        assert len(corpus.records) == 2
        assert len(corpus.diagnostics) == 1
        assert corpus.diagnostics[0].line == 2

    def test_skip_lines_hides_header(self, tmp_path):
        path = write(tmp_path, "t.dat", "HEADER A B C\nm01ae 250 600 1800 2500\n")
        corpus = parse_table(path, ColumnMap.legacy_table(skip_lines=1))
        assert corpus.diagnostics == ()
        assert len(corpus.records) == 1

    def test_header_only_file_rejected(self, tmp_path):
        path = write(tmp_path, "t.dat", "HEADER A B C\n")
        with pytest.raises(CorpusError):
            parse_table(path, ColumnMap.legacy_table())

    def test_short_line_diagnosed(self, tmp_path):
        path = write(tmp_path, "t.dat", "m01ae 250 600 1800 2500\nm02ae 250\n")
        corpus = parse_table(path, ColumnMap.legacy_table())
        assert "too short" in corpus.diagnostics[0].reason

    def test_needs_integer_columns(self, tmp_path):
        path = write(tmp_path, "t.dat", "m01ae 250 600 1800 2500\n")
        with pytest.raises(CorpusError):
            parse_table(path, ColumnMap())


class TestColumnMap:
    def test_round_trip(self):
        cmap = ColumnMap.legacy_table(group_rule={"m": "man"})
        again = ColumnMap.from_dict(json.loads(json.dumps(cmap.to_dict())))
        assert again == cmap
        assert again.digest() == cmap.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(CorpusError):
            ColumnMap.from_dict({"id_col": "x"})

    def test_needs_vowel_source(self):
        with pytest.raises(ValueError):
            ColumnMap(vowel_column=None, id_regex=None)

    def test_regex_needs_named_groups(self):
        with pytest.raises(ValueError):
            ColumnMap(vowel_column=None, id_regex=r"^\w+$")

    def test_duplicate_formant_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnMap(formant_columns=("f1_hz", "f1_hz"))


class TestCanonicalJson:
    def test_floats_at_nine_significant_digits(self):
        assert canonical_json({"x": math.pi}) == '{\n  "x": 3.14159265\n}'

    def test_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}).index('"a"') < canonical_json(
            {"b": 1, "a": 2}
        ).index('"b"')

    def test_numpy_values_accepted(self):
        data = {"arr": np.array([1.5, 2.5]), "n": np.int64(3), "x": np.float64(0.1)}
        text = canonical_json(data)
        assert json.loads(text) == {"arr": [1.5, 2.5], "n": 3, "x": 0.1}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": object()})


class TestBundles:
    def test_scale_estimate_round_trip(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        path = tmp_path / "scale.json"
        write_bundle(est, path)
        again = load_scale_estimate(path)
        assert np.allclose(again.betas, est.betas, rtol=1e-8)
        assert set(again.speaker_factors) == set(est.speaker_factors)
        assert np.allclose(again.partition.boundaries, est.partition.boundaries, rtol=1e-8)

    def test_rewrite_is_byte_identical(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_bundle(est, a)
        write_bundle(est, b)
        assert a.read_bytes() == b.read_bytes()

    def test_reload_then_rewrite_is_byte_identical(self, tmp_path):
        # canonical form is a fixed point: load(write(x)) rewrites identically
        est = estimate_scale(helpers.injected_beta_records())
        a = tmp_path / "a.json"
        write_bundle(est, a)
        again = load_scale_estimate(a)
        b = tmp_path / "b.json"
        write_bundle(again, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises_with_context(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        target = tmp_path / "missing-dir" / "scale.json"
        with pytest.raises(OSError, match="missing-dir"):
            write_bundle(est, target)

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        target = tmp_path / "scale.json"
        target.mkdir()  # a file cannot replace a directory
        with pytest.raises(OSError, match="scale.json"):
            write_bundle(est, target)
        assert [p.name for p in tmp_path.iterdir()] == ["scale.json"]

    def test_load_warp_from_either_document(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        scale_path = tmp_path / "scale.json"
        warp_path = tmp_path / "warp.json"
        write_bundle(est, scale_path)
        write_bundle(est.warp, warp_path)
        assert load_warp(scale_path) == load_warp(warp_path)
        assert isinstance(load_warp(warp_path), PiecewiseWarp)

    def test_load_warp_rejects_garbage(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"nope": 1}', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_warp(path)


class TestCanonicalCsv:
    def test_round_trip_through_parser(self, tmp_path):
        base = TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0)
        population = synth_population(base, 5, (0.06, 0.10), 3, seed=4)
        records = records_from_tokens(population, group="synth")
        path = tmp_path / "corpus.csv"
        write_canonical_csv(records, path)
        corpus = parse_csv(path)
        assert corpus.speaker_ids == tuple(r.speaker_id for r in records)
        for record, again in zip(records, corpus.records):
            got = np.asarray(again.tokens[0].formants)
            assert np.allclose(got, record.tokens[0].formants, rtol=1e-8)

    def test_rewrite_is_byte_identical(self, tmp_path):
        base = TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0)
        records = records_from_tokens(
            synth_population(base, 4, (0.06, 0.10), 3, seed=7), group="synth"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_canonical_csv(records, a)
        write_canonical_csv(records, b)
        assert a.read_bytes() == b.read_bytes()
