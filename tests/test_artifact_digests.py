"""The benchmark's seed-1 artifacts, byte for byte, against pinned digests.

The pins are the sha256 values ``tests/artifact_digests.py`` printed for seed
1 before the parsers built a token table and the JSON writer made its text in
one walk, so a refactor that keeps the artifacts passes unchanged. A change
that alters an artifact on purpose updates the pins and says which keys moved.
"""

from pathlib import Path

import artifact_digests

PINNED = {
    "seed1/csv/alignment.json":
        "a2051e8f8db49c5a03b936f8a5c9ec46e74e2d29152db92c2ee1442c6afd3425",
    "seed1/csv/corpus_summary.json":
        "f036b0568c6a0e648bc676196abed5566aaf0c7441f5498fde9dbee360c13616",
    "seed1/csv/manifest.json":
        "34ce913f921d378233dccd345bcea419fb5738c2b2bd945548c3fb9adb219520",
    "seed1/csv/melfit_report.json":
        "72c11ff3aa9196c88a6a457a46213c9b3edb4ecaf0543d68da167b89601efe4e",
    "seed1/csv/scale.json":
        "af2dad88d4826fbf982a20c094fb336b9ede19ee96faaa3cc8996b5ece4ba9e3",
    "seed1/synth/0.csv":
        "410661afa59c63a97d10171b6bd11cfe7187bd916fa36e7643c462ae730d8a31",
    "seed1/synth/1.csv":
        "97a8eb0709df2891660c4b92deadfb15e2b91071361645d8b7a37977a3f8a268",
    "seed1/synth/2.csv":
        "465e795477e7c433c4072c7986eeea4e6b771155c983b4545eb578fdf036adfe",
    "seed1/synth/3.csv":
        "6d9e2fdd3e95f692515106faf16b36e7b196d17fba5f70ffd28cc5eea1283be5",
    "seed1/synth/4.csv":
        "fdcecd271a87cda407dc27b787ca9cb91b5a88870d74191b385a5ef3d4f7796a",
    "seed1/synth/5.csv":
        "77660b9dda5d87bf5a5fe30cb750c9fd1274067080e467168c3b5c57a0aef669",
    "seed1/table/alignment.json":
        "982a2b6dfadc2d3e91eb01bba104c1e2df9369601cb88b6ab684ced3d5385f1d",
    "seed1/table/corpus_summary.json":
        "cea1384e04c7d1a6a816ec51ea503d7ff53a15d439718c3734d39388b17bc387",
    "seed1/table/manifest.json":
        "28c5278fe2968a77e48af64246303c3c8de88c9535085fd133d1558afd498f61",
    "seed1/table/melfit_report.json":
        "cb68f29c1a898c7d84d5edf4fd48a4c6ed0e0fff9e58e41e18cfb9d5d4bddbf4",
    "seed1/table/scale.json":
        "61474f86f993fe28e1050e99cf8a0ff220a11198c4d9c584f49ec840e96eb91b",
}


def test_seed_1_artifacts_match_the_pins(tmp_path, monkeypatch):
    # relative paths, so the manifests record no location
    monkeypatch.chdir(tmp_path)
    assert artifact_digests.digests(Path("out"), seeds=(1,)) == PINNED
