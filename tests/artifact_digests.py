"""Print the sha256 of every file the benchmark's CLI calls write.

Usage: python tests/artifact_digests.py OUT_DIR

For seeds 1-3 this makes the inputs of ``bench/workloads.py`` under
``OUT_DIR/seed<n>`` and runs ``speechscale.cli.main`` (from this checkout's
``src``) on the argv of ``csv_corpus``, of ``table_corpus`` and of every
``synth_plan`` call. It prints one JSON object that maps each written file to
its sha256: per seed the six synth CSVs and each pipeline's artifacts and
``manifest.json``. A manifest records the corpus and column-map paths, so
the column map is copied under OUT_DIR too, and two checkouts compare only
when both run into the same OUT_DIR; equal output means byte-identical
artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from speechscale.cli import main  # noqa: E402

SEEDS = (1, 2, 3)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # keep stdout for the digests
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"speechscale {' '.join(argv)} exited {code}")


def digests(out_dir: Path, seeds=SEEDS) -> dict[str, str]:
    found = {}
    for seed in seeds:
        for name, make in (("csv", workloads.csv_corpus), ("table", workloads.table_corpus)):
            work = out_dir / f"seed{seed}" / name
            work.mkdir(parents=True, exist_ok=True)
            argv = list(make(seed, work).argv)
            if "--column-map" in argv:  # the manifest records its path too
                at = argv.index("--column-map") + 1
                copy = work / "column_map.json"
                copy.write_bytes(Path(argv[at]).read_bytes())
                argv[at] = str(copy)
            run(argv)
            out = Path(argv[argv.index("--out") + 1])
            for path in sorted(out.iterdir()):
                found[f"seed{seed}/{name}/{path.name}"] = sha256(path)
        work = out_dir / f"seed{seed}" / "synth"
        work.mkdir(parents=True, exist_ok=True)
        for i, call in enumerate(workloads.synth_plan(seed, work / "synth.csv")):
            run(call.argv)  # every call writes the same path
            found[f"seed{seed}/synth/{i}.csv"] = sha256(work / "synth.csv")
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print(json.dumps(digests(Path(sys.argv[1])), indent=2, sort_keys=True))
