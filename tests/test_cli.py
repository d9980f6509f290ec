import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
from speechscale import (
    ColumnMap,
    Corpus,
    FormantSet,
    IncompleteScanWarning,
    STANDARD_MEL,
    SpeakerRecord,
    TubeConfig,
    TubeSection,
    align_population,
    characteristic,
    estimate_scale,
    parse_csv,
    parse_table,
    read_json,
    records_from_tokens,
    synth_population,
    write_bundle,
    write_canonical_csv,
)
from speechscale.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def write_injected_corpus(path, **kwargs):
    records = helpers.injected_beta_records(**kwargs)
    write_canonical_csv(records, path)
    return records


class TestSynth:
    def test_same_seed_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("synth", "--speakers", 4, "--oral-range", "0.06:0.10", "--seed", 7)
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("synth", "--speakers", 4, "--seed", 7, "--out", a) == 0
        assert run("synth", "--speakers", 4, "--seed", 8, "--out", b) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_single_speaker_is_user_error(self, tmp_path, capsys):
        code = run("synth", "--speakers", 1, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("f_max, speaker", [(3000, "s00"), (3600, "s01")])
    def test_ceiling_below_a_requested_formant_writes_nothing(
        self, tmp_path, capsys, f_max, speaker
    ):
        # 3000 Hz cuts every speaker's F4, 3600 Hz only some speakers'
        out = tmp_path / "c.csv"
        with pytest.warns(IncompleteScanWarning):
            code = run("synth", "--formants", 4, "--f-max", f_max, "--out", out)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"speaker {speaker} has only 3 resonances" in err
        assert f"--f-max {f_max} Hz" in err
        assert "--formants 4" in err

    @pytest.mark.parametrize("vary, formants, speakers, vowel", [
        *itertools.product(("oral", "all"), (2, 3, 4, 5), (2, 10, 101), ("aa",)),
        ("oral", 3, 10, 'a,"b'), ("all", 4, 101, 'a,"b'),
    ])
    def test_output_is_what_the_records_api_writes(
        self, tmp_path, capsys, vary, formants, speakers, vowel
    ):
        out, expected = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert run("synth", "--vary", vary, "--formants", formants, "--speakers", speakers,
                   "--seed", 11, "--vowel", vowel, "--out", out) == 0
        population = synth_population(
            TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0), speakers, (0.06, 0.10), formants, 11,
            vary="all" if vary == "all" else "oral_only", vowel=vowel,
        )
        write_canonical_csv(records_from_tokens(population, group="synth"), expected)
        assert out.read_bytes() == expected.read_bytes()
        # the stdout the CLI printed when it built the tokens
        means = np.exp(np.mean(np.log([fs.formants for fs in population]), axis=0))
        assert capsys.readouterr().out == (
            f"wrote {out}: {speakers} speakers, vowel {vowel!r}\n"
            "mean formants (Hz): " + ", ".join(f"{m:.1f}" for m in means) + "\n"
        )

    def test_builds_no_token_objects(self, tmp_path, monkeypatch):
        expected = tmp_path / "api.csv"
        write_canonical_csv(records_from_tokens(synth_population(
            TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0), 20, (0.06, 0.10), 3, 5), group="synth"),
            expected)

        def refuse(*args, **kwargs):
            raise AssertionError("synth built a per-token object")

        monkeypatch.setattr(FormantSet, "_trusted", classmethod(refuse))
        monkeypatch.setattr(FormantSet, "__init__", refuse)
        monkeypatch.setattr(SpeakerRecord, "__init__", refuse)
        out = tmp_path / "cli.csv"
        assert run("synth", "--seed", 5, "--out", out) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_short_speakers_warn_as_the_population_api_does(self, tmp_path, capsys):
        # 3600 Hz cuts the fourth formant of some of the 20 speakers
        with warnings.catch_warnings(record=True) as api:
            warnings.simplefilter("always")
            synth_population(TubeConfig.two_tube(0.09, 0.08, 1.0, 8.0), 20, (0.06, 0.10), 4,
                             f_max=3600.0)
        with warnings.catch_warnings(record=True) as cli:
            warnings.simplefilter("always")
            code = run("synth", "--formants", 4, "--f-max", 3600, "--out", tmp_path / "c.csv")
        assert code == 2
        assert "speaker s01 has only 3 resonances" in capsys.readouterr().err
        assert 0 < len(api) < 20
        assert [(w.category, str(w.message)) for w in cli] == [
            (w.category, str(w.message)) for w in api]
        assert {(w.category, str(w.message)) for w in api} == {
            (IncompleteScanWarning, "only 3 of 4 resonances found below 3600.0 Hz")}
        assert {w.filename for w in api} == {__file__}  # the caller's line, as `formants` gives

    def test_default_output_satisfies_the_resonance_condition(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("synth", "--seed", 3, "--out", out) == 0
        corpus = parse_csv(out)
        rng = np.random.default_rng(3)
        lengths = rng.uniform(0.06, 0.10, 20)
        for record, length in zip(corpus.records, lengths):
            cfg = TubeConfig(
                (TubeSection(0.09, 1.0), TubeSection(float(length), 8.0)), 350.0
            )
            assert len(record.tokens[0].formants) == 3
            for f in record.tokens[0].formants:
                assert abs(characteristic(cfg, f)) < 1e-3


class TestEstimate:
    def test_uniform_scaling_corpus_gives_unit_betas(self, tmp_path):
        corpus = tmp_path / "c.csv"
        out = tmp_path / "scale.json"
        assert run("synth", "--vary", "all", "--speakers", 10, "--seed", 5,
                   "--oral-range", "0.064:0.096", "--out", corpus) == 0
        assert run("estimate", "--corpus", corpus, "--out", out) == 0
        est = read_json(out)
        assert np.max(np.abs(np.asarray(est["betas"]) - 1.0)) < 1e-2

    def test_injected_beta_corpus_recovery(self, tmp_path):
        corpus = tmp_path / "c.csv"
        out = tmp_path / "scale.json"
        write_injected_corpus(corpus)
        assert run("estimate", "--corpus", corpus, "--out", out) == 0
        est = read_json(out)
        # corpus floats are stored at 9 significant digits, so recovery is
        # limited by the file precision, not the estimator
        assert np.max(np.abs(np.asarray(est["betas"]) - (1.2, 1.0, 0.8))) < 1e-6

    def test_explicit_partition_and_reference(self, tmp_path):
        corpus = tmp_path / "c.csv"
        out = tmp_path / "scale.json"
        write_injected_corpus(corpus)
        code = run(
            "estimate", "--corpus", corpus, "--out", out,
            "--partition", "explicit:250,866,1936,5000", "--reference", "s00",
        )
        assert code == 0
        assert read_json(out)["partition"] == [250.0, 866.0, 1936.0, 5000.0]

    def test_reference_without_a_band_names_the_band(self, tmp_path, capsys):
        # s00's F4 lies below the lower edge of per-formant band 4, so no key
        # of the reference falls in that band
        corpus = tmp_path / "c.csv"
        assert run("synth", "--speakers", 10, "--seed", 5, "--formants", 4,
                   "--out", corpus) == 0
        code = run("estimate", "--corpus", corpus, "--reference", "s00",
                   "--out", tmp_path / "s.json")
        assert code == 2
        assert "band(s) 3152.88-7113.3Hz against reference 's00'" in capsys.readouterr().err

    def test_missing_corpus_is_user_error(self, tmp_path, capsys):
        assert run("estimate", "--corpus", tmp_path / "nope.csv") == 2
        assert "error" in capsys.readouterr().err

    def test_empty_corpus_is_user_error(self, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("speaker_id,group,vowel,f1_hz\n", encoding="utf-8")
        assert run("estimate", "--corpus", corpus, "--out", tmp_path / "s.json") == 2

    def test_degenerate_corpus_is_user_error(self, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            "speaker_id,group,vowel,f1_hz,f2_hz\n"
            "a,,aa,500,1500\nb,,aa,500,1500\n",
            encoding="utf-8",
        )
        assert run("estimate", "--corpus", corpus, "--out", tmp_path / "s.json") == 2

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"skip_lines": "2"}', "'skip_lines'"),
            ('{"id_regex": "("}', "id_regex '('"),
            ('{"formant_columns": 5}', "'formant_columns'"),
            ('{"group_rule": ["m"]}', "'group_rule'"),
            ('{"formant_columns": [-1, 3, 4]}', "'formant_columns'"),
            ("null", "a column map must be a JSON object"),
            ("[]", "a column map must be a JSON object"),
        ],
        ids=["skip_lines", "id_regex", "formant_columns", "group_rule", "negative_index", "null",
             "list"],
    )
    def test_mistyped_column_map_is_user_error(self, tmp_path, capsys, text, named):
        corpus, column_map = tmp_path / "c.csv", tmp_path / "m.json"
        corpus.write_text(
            "speaker_id,group,vowel,f1_hz,f2_hz\na,,aa,500,1500\nb,,aa,520,1550\n",
            encoding="utf-8",
        )
        column_map.write_text(text, encoding="utf-8")
        code = run("estimate", "--corpus", corpus, "--column-map", column_map,
                   "--out", tmp_path / "s.json")
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "internal error" not in err


class TestAlign:
    def make_inputs(self, tmp_path):
        corpus = tmp_path / "c.csv"
        scale = tmp_path / "scale.json"
        write_injected_corpus(corpus)
        assert run("estimate", "--corpus", corpus, "--out", scale) == 0
        return corpus, scale

    def test_end_to_end(self, tmp_path, capsys):
        corpus, scale = self.make_inputs(tmp_path)
        out = tmp_path / "alignment.json"
        assert run("align", "--corpus", corpus, "--vowel", "aa",
                   "--warp", scale, "--out", out) == 0
        bundle = json.loads(out.read_text())
        assert bundle["vowel"] == "aa"
        assert len(bundle["per_speaker"]) == 20
        assert max(bundle["spread_after"]) < 1e-6
        # the printed spreads come from the same bundle values
        printed = capsys.readouterr().out
        for value in bundle["spread_before"]:
            assert f"{value:.6g}" in printed

    def test_missing_vowel_is_user_error(self, tmp_path, capsys):
        corpus, scale = self.make_inputs(tmp_path)
        code = run("align", "--corpus", corpus, "--vowel", "iy",
                   "--warp", scale, "--out", tmp_path / "a.json")
        assert code == 2
        assert "iy" in capsys.readouterr().err


class TestFitMel:
    def test_mel_shaped_warp_recovers_corner(self, tmp_path):
        warp_path = tmp_path / "warp.json"
        out = tmp_path / "report.json"
        write_bundle(helpers.mel_chord_warp(STANDARD_MEL), warp_path)
        assert run("fit-mel", "--warp", warp_path, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["params"]["b"] == pytest.approx(700.0, rel=0.02)
        assert report["r_squared"] > 0.999
        assert {"params", "affine", "r_squared", "rms_error", "table"} <= set(report)

    def test_grid_outside_domain_is_user_error(self, tmp_path, capsys):
        warp_path = tmp_path / "warp.json"
        write_bundle(helpers.mel_chord_warp(STANDARD_MEL), warp_path)
        code = run("fit-mel", "--warp", warp_path, "--grid", "50:9000",
                   "--out", tmp_path / "r.json")
        assert code == 2
        assert "domain" in capsys.readouterr().err

    def test_extend_flag_allows_wide_grid(self, tmp_path):
        warp_path = tmp_path / "warp.json"
        write_bundle(helpers.mel_chord_warp(STANDARD_MEL), warp_path)
        assert run("fit-mel", "--warp", warp_path, "--grid", "50:9000",
                   "--extend", "--out", tmp_path / "r.json") == 0

    def test_missing_warp_file_is_user_error(self, tmp_path):
        assert run("fit-mel", "--warp", tmp_path / "nope.json",
                   "--out", tmp_path / "r.json") == 2


class TestPipeline:
    def test_full_run_manifest(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", corpus, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        artifacts = manifest["artifacts"]
        assert [a["name"] for a in artifacts] == [
            "corpus_summary", "scale", "alignment", "melfit_report",
        ]
        assert all(a["status"] == "ok" for a in artifacts)
        for a in artifacts:
            assert (out / a["path"]).exists()
            assert len(a["sha256"]) == 64

    def test_rerun_is_digest_identical(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", corpus, "--out", out) == 0
        first = (out / "manifest.json").read_bytes()
        assert run("pipeline", "--corpus", corpus, "--out", out) == 0
        assert (out / "manifest.json").read_bytes() == first

    def test_config_file_overrides_flags(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        config = tmp_path / "config.json"
        out = tmp_path / "run"
        # b_range and vowels take their flag's text or a JSON list; ints pass as floats
        for forms in ({"b_range": "60:4000", "vowels": "aa"},
                      {"b_range": [60, 4000], "vowels": ["aa"]}):
            config.write_text(
                json.dumps({"corpus": str(corpus), "out": str(out), "reference": "s00",
                            **forms}),
                encoding="utf-8",
            )
            # the flag points at a missing corpus; the config file wins
            assert run("pipeline", "--config", config, "--corpus",
                       tmp_path / "nope.csv", "--out", tmp_path / "ignored") == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["reference"] == "s00"
            assert json.dumps(manifest["config"]["b_range"]) == "[60.0, 4000.0]"
            assert manifest["config"]["vowels"] == ["aa"]

    def test_default_config_schema(self, tmp_path):
        # the benchmark's traced replay hard-codes these defaults
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", corpus, "--out", out) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        expected = {
            "align_vowel": None,
            "b_range": [50.0, 5000.0],
            "calibrate": True,
            "column_map": None,
            "corpus": str(corpus),
            "extend": False,
            "format": "csv",
            "grid_points": 200,
            "max_iters": 500,
            "out": str(out),
            "partition": "per-formant",
            "reference": "grand-mean",
            "tol": 1e-12,
            "vowels": None,
        }
        # json text tells 200 from 200.0 and True from 1
        assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("text, named", [
        ('{"calibrate": "no"}', "'calibrate'"),
        ('{"extend": "false"}', "'extend'"),
        ('{"grid_points": "200"}', "'grid_points'"),
        ('{"max_iters": 10.5}', "'max_iters'"),
        ('{"partition": 5}', "'partition'"),
        ('{"vowels": 5}', "'vowels'"),
        ('{"tol": "1e-9"}', "'tol'"),
        ('{"out": 5}', "'out'"),
        ('{"b_range": [50]}', "'b_range'"),
        ("null", "JSON object"),
    ])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, text, named):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "run"
        assert run("pipeline", "--config", config, "--corpus", corpus, "--out", out) == 2
        assert named in capsys.readouterr().err
        # no output directory, no manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "config.json"]

    def test_stage_failure_marks_downstream_skipped(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", corpus, "--out", out) == 0
        code = run("pipeline", "--corpus", corpus, "--out", out,
                   "--align-vowel", "iy")
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        status = {a["name"]: a["status"] for a in manifest["artifacts"]}
        assert status == {
            "corpus_summary": "ok",
            "scale": "ok",
            "alignment": "failed",
            "melfit_report": "skipped",
        }
        # the good run's files must not pass for outputs of the failed run
        assert not (out / "alignment.json").exists()
        assert not (out / "melfit_report.json").exists()
        assert sorted(p.name for p in out.iterdir()) == [
            "corpus_summary.json", "manifest.json", "scale.json"]

    def test_missing_corpus_fails_before_writing(self, tmp_path):
        assert run("pipeline", "--corpus", tmp_path / "nope.csv",
                   "--out", tmp_path / "run") == 2
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_unknown_config_keys_rejected(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        config = tmp_path / "config.json"
        # no stage reads a seed, so the pipeline has no such key
        for extra in ({"mystery": 1}, {"seed": 0}):
            config.write_text(json.dumps({"corpus": str(corpus), **extra}))
            assert run("pipeline", "--config", config, "--out", tmp_path / "run") == 2


class TestPipelineTableFormat:
    # miniature corpus in the layout of the public legacy vowel tables:
    # header prose, then "<group><speaker><vowel> dur f0 F1 F2 F3 ..." rows
    TABLE = """VOWEL TABLE example distribution
time and formant values follow
m01ae 260 120 660 1720 2410 660 1720 2410
m01aw 280 118 650 1020 2530 650 1020 2530
m01iy 240 122 270 2290 3010 270 2290 3010
m02ae 255 131 759 1978 2771 759 1978 2771
m02aw 270 125 747 1173 2909 747 1173 2909
m02iy 235 128 310 2633 3461 310 2633 3461
w03ae 250 210 825 2150 3012 825 2150 3012
w03aw 265 205 812 1275 3162 812 1275 3162
w03iy 230 215 337 2862 3762 337 2862 3762
b04ae 245 240 858 2236 3133 858 2236 3133
b04aw 260 235 845 1326 3289 845 1326 3289
b04iy 225 245 351 2977 3913 351 2977 3913
w05ae 250 208 792 0 2891 792 2064 2891
"""

    def test_pipeline_on_legacy_table(self, tmp_path):
        corpus = tmp_path / "bigdata.dat"
        corpus.write_text(self.TABLE, encoding="utf-8")
        column_map = (
            Path(__file__).resolve().parent.parent / "configs" / "hillenbrand_bigdata.json"
        )
        out = tmp_path / "run"
        code = run(
            "pipeline", "--corpus", corpus, "--format", "table",
            "--column-map", column_map, "--align-vowel", "aw", "--out", out,
        )
        assert code == 0
        summary = json.loads((out / "corpus_summary.json").read_text())
        assert summary["speakers"] == 4
        assert summary["vowels"] == ["ae", "aw", "iy"]
        # two header lines plus the sentinel row are excluded
        assert summary["rejected_rows"] == 3
        scale = json.loads((out / "scale.json").read_text())
        assert len(scale["betas"]) == 3
        alignment = json.loads((out / "alignment.json").read_text())
        assert alignment["vowel"] == "aw"
        groups = {r["id"] for r in alignment["per_speaker"]}
        assert groups == {"m01", "m02", "w03", "b04"}


@pytest.mark.parametrize("layout", ["csv", "table"])
def test_pipeline_builds_no_token_objects(tmp_path, monkeypatch, layout):
    """The CLI reads the parsed token table and never builds records or
    tokens, yet writes what the records API gives."""
    if layout == "csv":
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        flags = ()
        parsed = parse_csv(corpus)
    else:
        corpus = tmp_path / "bigdata.dat"
        corpus.write_text(TestPipelineTableFormat.TABLE, encoding="utf-8")
        column_map = Path(__file__).resolve().parent.parent / "configs" / "hillenbrand_bigdata.json"
        flags = ("--format", "table", "--column-map", column_map)
        parsed = parse_table(corpus, ColumnMap.from_dict(read_json(column_map)))
    estimate = estimate_scale(parsed.records)
    write_bundle(estimate, tmp_path / "scale.json")
    write_bundle(align_population(parsed.records, estimate.warp, parsed.vowels[0]),
                 tmp_path / "alignment.json")

    def refuse(*args):
        raise AssertionError("the pipeline built a per-token object")

    monkeypatch.setattr(Corpus, "records", property(refuse), raising=False)
    monkeypatch.setattr(FormantSet, "_trusted", classmethod(refuse))
    out = tmp_path / "run"
    assert run("pipeline", "--corpus", corpus, *flags, "--out", out) == 0
    for name in ("scale.json", "alignment.json"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


class TestParser:
    def test_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2
        # a malformed pair names its flag and the form it takes
        for argv in (
            ["fit-mel", "--warp", "w.json", "--b-range", "50:x"],
            ["fit-mel", "--warp", "w.json", "--grid", "50"],
            ["synth", "--oral-range", "0.06:0.08:0.10"],
            ["pipeline", "--b-range", ""],
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert f"argument {argv[-2]}: must look like LO:HI" in err

    def test_bad_partition_spec_is_user_error(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        assert run("estimate", "--corpus", corpus, "--partition", "fancy",
                   "--out", tmp_path / "s.json") == 2
