import json
from pathlib import Path

import numpy as np
import pytest

import helpers
from speechscale import (
    STANDARD_MEL,
    TubeConfig,
    TubeSection,
    characteristic,
    load_scale_estimate,
    parse_csv,
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
        est = load_scale_estimate(out)
        assert np.max(np.abs(np.asarray(est.betas) - 1.0)) < 1e-2

    def test_injected_beta_corpus_recovery(self, tmp_path):
        corpus = tmp_path / "c.csv"
        out = tmp_path / "scale.json"
        write_injected_corpus(corpus)
        assert run("estimate", "--corpus", corpus, "--out", out) == 0
        est = load_scale_estimate(out)
        # corpus floats are stored at 9 significant digits, so recovery is
        # limited by the file precision, not the estimator
        assert np.max(np.abs(np.asarray(est.betas) - (1.2, 1.0, 0.8))) < 1e-6

    def test_explicit_partition_and_reference(self, tmp_path):
        corpus = tmp_path / "c.csv"
        out = tmp_path / "scale.json"
        write_injected_corpus(corpus)
        code = run(
            "estimate", "--corpus", corpus, "--out", out,
            "--partition", "explicit:250,866,1936,5000", "--reference", "s00",
        )
        assert code == 0
        est = load_scale_estimate(out)
        assert est.partition.boundaries == (250.0, 866.0, 1936.0, 5000.0)

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
        config.write_text(
            json.dumps({"corpus": str(corpus), "out": str(out), "reference": "s00"}),
            encoding="utf-8",
        )
        # the flag points at a missing corpus; the config file wins
        assert run("pipeline", "--config", config, "--corpus",
                   tmp_path / "nope.csv", "--out", tmp_path / "ignored") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["reference"] == "s00"

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


class TestParser:
    def test_bad_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2

    def test_bad_partition_spec_is_user_error(self, tmp_path):
        corpus = tmp_path / "c.csv"
        write_injected_corpus(corpus)
        assert run("estimate", "--corpus", corpus, "--partition", "fancy",
                   "--out", tmp_path / "s.json") == 2
