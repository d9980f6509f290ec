import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from speechscale import (
    ColumnMap,
    Corpus,
    CorpusError,
    FormantSet,
    PiecewiseWarp,
    canonical_json,
    estimate_scale,
    load_warp,
    parse_csv,
    parse_table,
    read_json,
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
        # a row that stops before the group column, the last one in the header
        text = "speaker_id,vowel,f1_hz,f2_hz,group\ns01,aa,700,1200\ns01,aa,700,1200,m\n"
        corpus = parse_csv(write(tmp_path, "g.csv", text))
        assert [(i.line, i.reason) for i in corpus.diagnostics] == [
            (2, "row too short for the mapped columns")
        ]
        assert corpus.records[0].group == "m"

    def test_line_numbers_follow_quoted_newlines(self, tmp_path):
        text = ("speaker_id,group,vowel,f1_hz,f2_hz,f3_hz\n"
                's01,"a\nb",aa,700,1200,2500\n'
                "s02,m,aa,0,1200,2500\n")
        corpus = parse_csv(write(tmp_path, "c.csv", text))
        assert [(i.line, i.reason) for i in corpus.diagnostics] == [
            (4, "missing formant (sentinel 0)")
        ]
        assert corpus.records[0].group == "a\nb"

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

    def test_undecodable_bytes_mid_file_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = b"s01,man,aa,700,1200,2500\n" * 4000  # past the first buffered read
        path.write_bytes(CSV_OK.encode() + rows + b"s03,man,aa,700,\xff,2500\n" + rows)
        with pytest.raises(CorpusError, match="cannot parse corpus"):
            parse_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusError):
            parse_csv(tmp_path / "nope.csv")

    def test_csv_reader_only_for_files_split_cannot_read(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        expected = parse_csv(write(tmp_path, "c.csv", CSV_OK))
        monkeypatch.setattr(csv, "reader", refuse)
        for newline in ("\n", "\r\n"):
            path = tmp_path / "split.csv"
            path.write_bytes(CSV_OK.replace("\n", newline).encode())
            corpus = parse_csv(path)
            assert corpus.records == expected.records
            assert corpus.diagnostics == expected.diagnostics
        crlf = CSV_OK.replace("\n", "\r\n")
        # a quoted field, mixed line ends, a lone carriage return, a blank header,
        # a NUL (which csv.reader rejects before Python 3.11)
        for text in (CSV_OK.replace("s02", '"s02"'), CSV_OK.replace("\n", "\r\n", 1),
                     crlf.replace("\r\ns02", "\rs02"), "\n" + CSV_OK,
                     CSV_OK.replace("woman", "wo\0man")):
            with pytest.raises(AssertionError, match="csv.reader called"):
                parse_csv(write(tmp_path, "other.csv", text))

    def test_long_unquoted_cell_rejected(self, tmp_path):
        text = CSV_OK + "s03,man,aa," + "9" * 131073 + ",1200,2500\n"
        with pytest.raises(CorpusError, match="cannot parse corpus"):
            parse_csv(write(tmp_path, "c.csv", text))

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
        # a line that stops before the vowel column, which lies past the formants
        path = write(tmp_path, "v.dat", "m01 600 1800 2500 ae\nm02 600 1800 2500\n")
        cmap = ColumnMap(id_column=0, vowel_column=4, group_column=None,
                         formant_columns=(1, 2, 3))
        corpus = parse_table(path, cmap)
        assert [(i.line, i.reason) for i in corpus.diagnostics] == [
            (2, "row too short for the mapped columns")
        ]
        assert corpus.speaker_ids == ("m01",)

    def test_needs_integer_columns(self, tmp_path):
        path = write(tmp_path, "t.dat", "m01ae 250 600 1800 2500\n")
        with pytest.raises(CorpusError):
            parse_table(path, ColumnMap())
        # a negative or bool index would read some other column, or none
        for columns in ((-9, 2, 3), (-1, 2, 3), (True, 2, 3)):
            with pytest.raises(CorpusError, match="'formant_columns'"):
                parse_table(path, ColumnMap.legacy_table(formant_columns=columns))
        with pytest.raises(CorpusError, match="'id_column'"):
            ColumnMap(id_column=False)


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

    def test_non_numeric_sentinel_rejected(self):
        for sentinel in ("0", None, [0.0, 1200.0, 2500.0]):
            with pytest.raises(ValueError, match="missing_sentinel"):
                ColumnMap.from_dict({"missing_sentinel": sentinel})
        assert ColumnMap(missing_sentinel=np.float32(-1)).missing_sentinel == -1


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_LEAVES = st.one_of(
    FINITE,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0.1, 1 / 3]),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["\u00e9", "\u2028", "\U0001f600", '"\\\n\t\x00\x7f', ""]),
)
# values canonical JSON rejects: non-finite floats and unsupported types
BAD_LEAVES = st.sampled_from([math.inf, -math.inf, math.nan, np.float32("inf"), object(),
                              {1, 2}, b"x", 1j, np.bool_(True)])
JSON_VALUES = st.recursive(
    st.one_of(JSON_LEAVES, JSON_LEAVES, JSON_LEAVES, BAD_LEAVES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(FINITE, max_size=5),
        st.lists(FINITE, max_size=4).map(np.array),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        # a key that is not a string
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3), st.none()), children,
                        max_size=3),
    ),
    max_leaves=24,
)

# Values shaped like artifact columns: floats that format without a "." or
# with an exponent, lists of dicts that share their keys, and a large dict.
COLUMN_FLOATS = st.one_of(FINITE, st.integers(-10**6, 10**6).map(float),
                          st.floats(1e9, 1e16), st.just(-0.0))
RECORDS = st.lists(st.fixed_dictionaries({
    "alpha": COLUMN_FLOATS, "id": st.text(max_size=3), "n": st.integers(),
    "hz": st.lists(COLUMN_FLOATS, max_size=4),
}), min_size=2, max_size=12)
# a bad or numpy value in the last record, where a column walk meets it last
LATE_VALUES = st.tuples(RECORDS, st.sampled_from(["alpha", "hz"]), st.sampled_from(
    [math.nan, math.inf, np.float64(2.5), np.float64("nan"), np.float64(1e12)])).map(
    lambda r: [*r[0][:-1], {**r[0][-1], r[1]: r[2] if r[1] == "alpha" else [1.0, r[2]]}])
COLUMN_VALUES = st.one_of(
    RECORDS,
    RECORDS.map(lambda records: {"per_speaker": records, "vowel": "aa"}),
    LATE_VALUES.map(lambda records: {"per_speaker": records}),
    st.lists(COLUMN_FLOATS, min_size=1, max_size=6).map(
        lambda v: {f"p{i:04d}": v[i % len(v)] for i in range(520)}),
)


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

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(JSON_VALUES, COLUMN_VALUES))
    @example(data={"a": [1.0, 2.0, float("nan")], "b": {1: 2}})
    @example(data=[{"é\n": -0.0, "z": (), "y": {}}, np.array([[5e-324, 1e16]]), np.float32(1e-7)])
    def test_one_walk_matches_json_dumps(self, data):
        def outcome(encode):
            try:
                return encode(data)
            except ValueError as exc:  # the path in the message names the bad value
                return f"ValueError: {exc}"

        assert outcome(canonical_json) == outcome(helpers.reference_canonical_json)


class TestBundles:
    def test_scale_estimate_round_trip(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        path = tmp_path / "scale.json"
        write_bundle(est, path)
        again = read_json(path)
        assert np.allclose(again["betas"], est.betas, rtol=1e-8)
        assert set(again["speaker_factors"]) == set(est.speaker_factors)
        assert np.allclose(again["partition"], est.partition.boundaries, rtol=1e-8)

    def test_rewrite_is_byte_identical(self, tmp_path):
        est = estimate_scale(helpers.injected_beta_records())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_bundle(est, a)
        write_bundle(est, b)
        assert a.read_bytes() == b.read_bytes()

    def test_reload_then_rewrite_is_byte_identical(self, tmp_path):
        # canonical form is a fixed point: read(write(x)) rewrites identically
        est = estimate_scale(helpers.injected_beta_records())
        a = tmp_path / "a.json"
        write_bundle(est, a)
        again = read_json(a)
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

    def test_nothing_or_mixed_counts_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        with pytest.raises(ValueError, match="no records to write"):
            write_canonical_csv([], path)
        records = records_from_tokens([FormantSet("s01", "aa", (700.0, 1200.0)),
                                       FormantSet("s02", "aa", (600.0, 1100.0, 2500.0))])
        with pytest.raises(ValueError, match=r"mixed formant counts \[2, 3\]"):
            write_canonical_csv(records, path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fault, raised", [
        (OSError(28, "No space left on device"), OSError),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, fault, raised):
        base = TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0)
        records = records_from_tokens(
            synth_population(base, 4, (0.06, 0.10), 3, seed=7), group="synth"
        )
        path = tmp_path / "corpus.csv"
        path.write_text("an earlier corpus\n", encoding="utf-8")

        class Failing:  # fails on the first row, with the temporary file open
            def __init__(self, handle):
                assert not handle.closed and handle.name != str(path)

            def writerows(self, rows):
                raise fault

        monkeypatch.setattr(csv, "writer", Failing)
        with pytest.raises(raised) as info:
            write_canonical_csv(records, path)
        if raised is OSError:
            assert "cannot write corpus" in str(info.value)
        assert path.read_text(encoding="utf-8") == "an earlier corpus\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.csv"]


HILLENBRAND_MAP = ColumnMap.from_dict(json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "hillenbrand_bigdata.json")
    .read_text(encoding="utf-8")))
CELLS = st.one_of(
    st.sampled_from(["", "0", "300", "700", "1200", "2500", "-1", "nan", "inf", "1e400",
                     "m01ae", "w12iy", '"', "aa"]),
    st.text(max_size=6),
)


class TestParsersRejectCleanly:
    """Whatever the bytes, a parser returns a Corpus or raises CorpusError."""

    @settings(max_examples=60, deadline=None)
    @given(
        header=st.sampled_from(["speaker_id,group,vowel,f1_hz,f2_hz,f3_hz", "f1_hz", ""]),
        rows=st.lists(st.lists(CELLS, max_size=8), max_size=6),
        trailing=st.binary(max_size=8),
    )
    # a quoted field beyond the csv module's field size limit
    @example(header="speaker_id,vowel,f1_hz", rows=[['"' + "9" * 131073 + '"']],
             trailing=b"")
    # the same field unquoted, a lone carriage return, a blank line, ragged rows
    @example(header="speaker_id,vowel,f1_hz", rows=[["s01", "aa", "9" * 131073]], trailing=b"")
    @example(header="speaker_id,vowel,f1_hz", rows=[["s01", "aa", "700\rs02", "aa", "800"]],
             trailing=b"\r")
    @example(header="speaker_id,vowel,f1_hz", rows=[["s01", "aa", "700"], [], ["s02", "aa", "800"]],
             trailing=b"\n")
    @example(header="speaker_id,vowel,f1_hz", rows=[["s01", "aa", "700"], ["s02", "aa"],
                                                    ["s03", "aa", "800", "x"]], trailing=b"")
    # one very wide row among narrow ones
    @example(header="speaker_id,vowel,f1_hz", rows=[["s01", "aa", "700"],
                                                    ["s02", "aa", "800", *["0"] * 100000]],
             trailing=b"")
    def test_arbitrary_input(self, header, rows, trailing):
        parsers = ((",", parse_csv), (" ", lambda path: parse_table(path, HILLENBRAND_MAP)))
        for separator, parse in parsers:
            data = "\n".join([header, *(separator.join(row) for row in rows)])
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "corpus"
                path.write_bytes(data.encode("utf-8") + trailing)
                try:
                    assert isinstance(parse(path), Corpus)
                except CorpusError:
                    pass

    @pytest.mark.parametrize("separator", [",", " "])
    def test_wide_row_costs_its_own_width(self, tmp_path, separator):
        # 1000 rows of 6 cells and one of 10006: the parse holds the cells it
        # was given, not 1001 rows padded to the widest row (80 MB of slots)
        row = separator.join(["m01ae", "man", "aa", "700", "1200", "2500"])
        text = "\n".join(["speaker_id,group,vowel,f1_hz,f2_hz,f3_hz", *[row] * 1000,
                          separator.join([row, *["0"] * 10000])]) + "\n"
        path = write(tmp_path, "wide", text)
        parse = parse_csv if separator == "," else lambda p: parse_table(p, HILLENBRAND_MAP)
        tracemalloc.start()
        try:
            corpus = parse(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.n_tokens() == 1001
        assert peak < 16e6


# Rows for the reference test: every class of row the parsers tell apart.
FORMANT_CELLS = ["300", "700", "700", "1200", "2500", "300.0", "1e400", "0", "-0", "-1",
                 "nan", "inf", "-inf", "abc", ""]
FORMANTS = st.one_of(
    st.sampled_from([["300", "1200", "2500"], ["700.0", " 1200 ", "2e3"], ["250", "900", "1e4"],
                     ["300", "1200", "1200"], ["300", "2500", "1200"]]),
    st.lists(st.sampled_from(FORMANT_CELLS), min_size=3, max_size=3),
)
SENTINELS = st.sampled_from([0.0, -1.0, 700.0])


def _outcome(parse):
    """What ``parse()`` returns, or the message of the CorpusError it raises."""
    try:
        corpus = parse()
    except CorpusError as exc:
        return str(exc)
    return corpus.records, corpus.vowels, corpus.diagnostics, corpus.provenance


class TestParsersMatchReference:
    """The block-validated parsers agree with ``helpers.reference_assemble``,
    which checks one row at a time, in records, vowels, diagnostics and errors."""

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.sampled_from([1, 3]),
        sentinel=SENTINELS,
        rows=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["s01", "s02", " s03 ", "s01", "", "a\nb"]),
                    st.sampled_from(["", "man", "woman"]),
                    st.sampled_from(["aa", "iy", "", " aa"]),
                    FORMANTS,
                ).map(lambda r: [*r[:3], *r[3]]),
                st.lists(st.sampled_from(["s01", "aa", "700"]), max_size=3),  # short
            ),
            min_size=1,
            max_size=12,
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
        ends=st.booleans(),
    )
    def test_csv(self, count, sentinel, rows, newline, ends):
        header = ["speaker_id", "group", "vowel"] + [f"f{i + 1}_hz" for i in range(count)]
        text = io.StringIO()
        csv.writer(text, lineterminator=newline).writerows([header, *rows])
        data = text.getvalue()
        if not ends and rows[-1]:  # a blank last row is there only with its terminator
            data = data[:-len(newline)]
        # reference rows, each numbered by the physical line it starts on
        reference_rows, line_no = [], 2
        for cells in rows:
            if len(cells) <= 2 + count:
                reference_rows.append((line_no, "", None, None, None))
            else:
                stripped = [c.strip() for c in cells]
                reference_rows.append(
                    (line_no, stripped[0], stripped[2], stripped[1], stripped[3:3 + count])
                )
            line_no += 1 + sum(c.count("\n") for c in cells)
        cmap = ColumnMap(missing_sentinel=sentinel)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.csv"
            path.write_bytes(data.encode("utf-8"))
            expected = _outcome(lambda: helpers.reference_assemble(reference_rows, cmap, str(path)))
            assert _outcome(lambda: parse_csv(path, cmap)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.sampled_from([1, 3]),
        sentinel=SENTINELS,
        skip=st.sampled_from([0, 1]),
        lines=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["m01ae", "w02iy", "b05aa", "m01ae", "m01", "###"]),
                    st.sampled_from(["120", "x"]),
                    FORMANTS,
                ).map(lambda r: [*r[:2], *r[2]]),
                st.lists(st.sampled_from(["m01ae", "700"]), max_size=4),  # short
                st.just([]),  # blank
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_table(self, count, sentinel, skip, lines):
        cmap = ColumnMap.from_dict({
            **HILLENBRAND_MAP.to_dict(),
            "formant_columns": list(range(2, 2 + count)),
            "missing_sentinel": sentinel,
            "skip_lines": skip,
        })
        text = [" ".join(cells) for cells in lines]
        reference_rows = []
        for line_no, cells in enumerate(map(str.split, text), 1):
            if line_no <= skip or not cells:
                continue
            formant_cells = cells[2:2 + count] if len(cells) > 1 + count else None
            reference_rows.append((line_no, cells[0], None, None, formant_cells))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.dat"
            path.write_text("\n".join(text), encoding="utf-8")
            expected = _outcome(lambda: helpers.reference_assemble(reference_rows, cmap, str(path)))
            assert _outcome(lambda: parse_table(path, cmap)) == expected
