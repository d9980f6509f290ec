"""Command-line pipeline: synthesize corpora, estimate the scale, align, fit.

Commands communicate only through files (CSV corpora in, canonical JSON
artifacts out), so every stage is reproducible and testable in isolation.
Exit codes: 0 success, 1 internal error, 2 user/input error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from .acoustic import TubeConfig, synth_population
from .align import align_population
from .dataio import (
    ColumnMap,
    CorpusError,
    load_warp,
    parse_csv,
    parse_table,
    read_json,
    records_from_tokens,
    write_bundle,
    write_canonical_csv,
)
from .estimate import GRAND_MEAN, EstimationError, estimate_scale
from .melfit import STANDARD_MEL, compare_scales, fit_mel
from .warp import DomainError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


def _parse_pair(text: str, name: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must look like LO:HI, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_partition(spec: str):
    """Returns (mode, boundaries) from 'per-formant' or 'explicit:b0,b1,...'."""
    if spec in ("per-formant", "per_formant_index"):
        return "per_formant_index", None
    if spec.startswith("explicit:"):
        try:
            boundaries = [float(x) for x in spec[len("explicit:"):].split(",")]
        except ValueError:
            raise ValueError(f"bad explicit partition {spec!r}") from None
        return "explicit", boundaries
    raise ValueError(
        f"--partition must be 'per-formant' or 'explicit:b0,b1,...', got {spec!r}"
    )


def _parse_vowels(text):
    if text in (None, "", "all"):
        return None
    return [v.strip() for v in text.split(",") if v.strip()]


def _reference(text: str) -> str:
    return GRAND_MEAN if text in ("grand-mean", GRAND_MEAN) else text


def _load_column_map(path) -> ColumnMap | None:
    if path is None:
        return None
    return ColumnMap.from_dict(read_json(path))


def _parse_corpus(path, fmt: str, column_map_path):
    column_map = _load_column_map(column_map_path)
    if fmt == "csv":
        return parse_csv(path, column_map)
    if fmt == "table":
        if column_map is None:
            raise CorpusError("table format requires --column-map")
        return parse_table(path, column_map)
    raise ValueError(f"unknown corpus format {fmt!r}")


def _print_diagnostics(corpus) -> None:
    if corpus.diagnostics:
        print(f"excluded {len(corpus.diagnostics)} rows:")
        for issue in corpus.diagnostics[:10]:
            print(f"  line {issue.line}: {issue.reason}")
        if len(corpus.diagnostics) > 10:
            print(f"  ... and {len(corpus.diagnostics) - 10} more")


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args) -> int:
    base = TubeConfig.two_tube(
        args.pharynx_length,
        args.oral_length,
        args.pharynx_area,
        args.oral_area,
        args.speed_of_sound,
    )
    vary = "all" if args.vary == "all" else "oral_only"
    population = synth_population(
        base,
        args.speakers,
        _parse_pair(args.oral_range, "--oral-range"),
        args.formants,
        args.seed,
        vary=vary,
        f_max=args.f_max,
        vowel=args.vowel,
    )
    records = records_from_tokens(population, group="synth")
    write_canonical_csv(records, args.out)
    means = np.exp(
        np.mean(np.log([fs.formants for fs in population]), axis=0)
    )
    print(f"wrote {args.out}: {len(records)} speakers, vowel {args.vowel!r}")
    print("mean formants (Hz): " + ", ".join(f"{m:.1f}" for m in means))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    corpus = _parse_corpus(args.corpus, args.format, args.column_map)
    _print_diagnostics(corpus)
    mode, boundaries = _parse_partition(args.partition)
    estimate = estimate_scale(
        corpus.records,
        vowels=_parse_vowels(args.vowels),
        partition_mode=mode,
        reference=_reference(args.reference),
        boundaries=boundaries,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    write_bundle(estimate, args.out)
    print(f"wrote {args.out}")
    for label, beta in zip(estimate.partition.band_labels(), estimate.betas):
        print(f"  band {label}: beta = {beta:.6g}")
    factors = np.array(list(estimate.speaker_factors.values()))
    print(f"  residual rms = {estimate.residual_rms:.6g} nepers")
    print(f"  speaker factors span [{factors.min():.6g}, {factors.max():.6g}]")
    if not estimate.provenance.get("converged", True):
        print("  warning: factorization hit the iteration cap before converging")
    return EXIT_OK


def _cmd_align(args) -> int:
    corpus = _parse_corpus(args.corpus, args.format, args.column_map)
    warp = load_warp(args.warp, extrapolate=args.extend)
    result = align_population(corpus.records, warp, args.vowel)
    write_bundle(result, args.out)
    print(f"wrote {args.out}: vowel {args.vowel!r}, {len(result.speaker_ids)} speakers")
    for k in range(result.spread_before.size):
        ratio = result.improvement_ratio[k]
        ratio_text = f"{ratio:.3g}x" if np.isfinite(ratio) else "inf"
        print(
            f"  formant {k + 1}: spread {result.spread_before[k]:.6g} -> "
            f"{result.spread_after[k]:.6g} ({ratio_text})"
        )
    return EXIT_OK


def _fit_mel_report(warp, grid, b_range, calibrate: bool) -> dict:
    samples = np.column_stack([grid, warp(grid)])
    fit = fit_mel(samples, b_range=b_range, calibrate=calibrate)
    comparison = compare_scales(warp, STANDARD_MEL, grid)
    report = fit.to_dict()
    # same curve in the natural-log convention: a*log10(1+f/b) = (a/ln10)*ln(1+f/b)
    report["params_natural_log"] = {
        "a": fit.params.a / np.log(10.0),
        "b": fit.params.b,
    }
    report["table"] = comparison.to_dict()["table"]
    report["rms_deviation"] = comparison.rms_deviation
    report["max_deviation"] = comparison.max_deviation
    report["reference_params"] = {"a": STANDARD_MEL.a, "b": STANDARD_MEL.b}
    return report


def _cmd_fit_mel(args) -> int:
    warp = load_warp(args.warp, extrapolate=args.extend)
    if args.grid:
        lo, hi = _parse_pair(args.grid, "--grid")
    else:
        lo, hi = warp.partition.f_min, warp.partition.f_max
    grid = np.geomspace(lo, hi, args.grid_points)
    report = _fit_mel_report(
        warp, grid, _parse_pair(args.b_range, "--b-range"), not args.no_calibrate
    )
    write_bundle(report, args.out)
    print(f"wrote {args.out}")
    print(
        f"  fitted corner form: a = {report['params']['a']:.6g}, "
        f"b = {report['params']['b']:.6g} Hz, R^2 = {report['r_squared']:.6f}"
    )
    print(
        f"  (natural-log convention: a = {report['params_natural_log']['a']:.6g})"
    )
    print(
        f"  vs standard curve (a={STANDARD_MEL.a:g}, b={STANDARD_MEL.b:g}): "
        f"rms deviation {report['rms_deviation']:.3f}, "
        f"max {report['max_deviation']:.3f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline

_CONFIG_KEYS = {
    "corpus": None,
    "format": "csv",
    "column_map": None,
    "vowels": None,
    "align_vowel": None,
    "partition": "per-formant",
    "reference": "grand-mean",
    "b_range": [50.0, 5000.0],
    "grid_points": 200,
    "calibrate": True,
    "extend": False,
    "out": "out",
    "max_iters": 500,
    "tol": 1e-12,
}


def _pipeline_config(args) -> dict:
    config = dict(_CONFIG_KEYS)
    config.update(
        corpus=args.corpus,
        format=args.format,
        column_map=args.column_map,
        vowels=_parse_vowels(args.vowels),
        align_vowel=args.align_vowel,
        partition=args.partition,
        reference=args.reference,
        b_range=list(_parse_pair(args.b_range, "--b-range")),
        grid_points=args.grid_points,
        calibrate=not args.no_calibrate,
        extend=args.extend,
        out=args.out,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    if args.config:
        overrides = read_json(args.config)
        unknown = set(overrides) - set(_CONFIG_KEYS)
        if unknown:
            raise CorpusError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(overrides.get("vowels"), str):
            overrides["vowels"] = _parse_vowels(overrides["vowels"])
        if isinstance(overrides.get("b_range"), str):
            overrides["b_range"] = list(_parse_pair(overrides["b_range"], "b_range"))
        config.update(overrides)  # the config file wins over flags

    if not config["corpus"]:
        raise CorpusError("no corpus given (flag --corpus or config key 'corpus')")
    if not isinstance(config["corpus"], str) or not Path(config["corpus"]).exists():
        raise CorpusError(f"corpus file not found: {config['corpus']}")
    if config["column_map"] is not None:
        if not isinstance(config["column_map"], str):
            raise CorpusError("column_map must be a path to a JSON file")
        if not Path(config["column_map"]).exists():
            raise CorpusError(f"column map file not found: {config['column_map']}")
    return config


def _stage_corpus(config: dict, state: dict):
    corpus = _parse_corpus(config["corpus"], config["format"], config["column_map"])
    state["corpus"] = corpus
    return {
        "source": str(config["corpus"]),
        "column_map_digest": corpus.provenance["column_map_digest"],
        "speakers": len(corpus.records),
        "tokens": corpus.n_tokens(),
        "vowels": list(corpus.vowels),
        "rejected_rows": len(corpus.diagnostics),
        "diagnostics": [{"line": i.line, "reason": i.reason} for i in corpus.diagnostics],
    }


def _stage_estimate(config: dict, state: dict):
    mode, boundaries = _parse_partition(config["partition"])
    estimate = estimate_scale(
        state["corpus"].records,
        vowels=config["vowels"],
        partition_mode=mode,
        reference=_reference(config["reference"]),
        boundaries=boundaries,
        max_iters=config["max_iters"],
        tol=config["tol"],
    )
    state["estimate"] = estimate
    return estimate


def _stage_align(config: dict, state: dict):
    corpus = state["corpus"]
    vowel = config["align_vowel"]
    if vowel is None:
        vowel = config["vowels"][0] if config["vowels"] else corpus.vowels[0]
    warp = state["estimate"].warp.with_extrapolation(config["extend"])
    return align_population(corpus.records, warp, vowel)


def _stage_fit_mel(config: dict, state: dict):
    warp = state["estimate"].warp.with_extrapolation(config["extend"])
    grid = np.geomspace(
        warp.partition.f_min, warp.partition.f_max, config["grid_points"]
    )
    return _fit_mel_report(warp, grid, tuple(config["b_range"]), config["calibrate"])


_STAGES = (
    ("corpus_summary", "corpus_summary.json", _stage_corpus),
    ("scale", "scale.json", _stage_estimate),
    ("alignment", "alignment.json", _stage_align),
    ("melfit_report", "melfit_report.json", _stage_fit_mel),
)


def _cmd_pipeline(args) -> int:
    config = _pipeline_config(args)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    state: dict = {}
    failure: Exception | None = None
    for name, filename, stage in _STAGES:
        path = out_dir / filename
        entry = {"name": name, "path": filename, "sha256": None, "status": "skipped"}
        if failure is None:
            try:
                write_bundle(stage(config, state), path)
                entry.update(sha256=hashlib.sha256(path.read_bytes()).hexdigest(), status="ok")
            except Exception as exc:
                failure = exc
                entry.update(status="failed", error=str(exc))
        if entry["status"] != "ok":
            # an earlier run's file would pass for this run's output
            path.unlink(missing_ok=True)
        entries.append(entry)

    manifest = {"config": config, "artifacts": entries}
    write_bundle(manifest, out_dir / "manifest.json")

    if failure is not None:
        raise failure
    print(f"pipeline complete: {out_dir}/manifest.json")
    for entry in entries:
        print(f"  {entry['name']}: {entry['sha256'][:12]}  {entry['path']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_corpus_flags(sub) -> None:
    sub.add_argument("--corpus", required=True, help="corpus file to read")
    sub.add_argument("--format", choices=("csv", "table"), default="csv",
                     help="corpus layout (default csv)")
    sub.add_argument("--column-map", default=None,
                     help="JSON file describing the corpus columns")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechscale",
        description="Estimate a universal frequency-warping scale from vowel formants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic two-tube formant corpus")
    synth.add_argument("--speakers", type=int, default=20)
    synth.add_argument("--oral-range", default="0.06:0.10",
                       help="oral cavity length range in meters, LO:HI")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--formants", type=int, default=3)
    synth.add_argument("--vary", choices=("oral", "all"), default="oral",
                       help="vary only the oral cavity or rescale the whole tract")
    synth.add_argument("--pharynx-length", type=float, default=0.09)
    synth.add_argument("--oral-length", type=float, default=0.08)
    synth.add_argument("--pharynx-area", type=float, default=1.0)
    synth.add_argument("--oral-area", type=float, default=8.0)
    synth.add_argument("--speed-of-sound", type=float, default=350.0)
    synth.add_argument("--f-max", type=float, default=8000.0)
    synth.add_argument("--vowel", default="aa")
    synth.add_argument("--out", default="corpus.csv")
    synth.set_defaults(handler=_cmd_synth)

    estimate = sub.add_parser("estimate", help="estimate the warping scale from a corpus")
    _add_corpus_flags(estimate)
    estimate.add_argument("--vowels", default=None,
                          help="comma-separated vowel selection (default: all)")
    estimate.add_argument("--partition", default="per-formant",
                          help="'per-formant' or 'explicit:b0,b1,...' in Hz")
    estimate.add_argument("--reference", default="grand-mean",
                          help="'grand-mean' or a speaker id")
    estimate.add_argument("--max-iters", type=int, default=500)
    estimate.add_argument("--tol", type=float, default=1e-12)
    estimate.add_argument("--out", default="scale.json")
    estimate.set_defaults(handler=_cmd_estimate)

    align = sub.add_parser("align", help="translation-align one vowel under a warp")
    _add_corpus_flags(align)
    align.add_argument("--vowel", required=True)
    align.add_argument("--warp", required=True,
                       help="warp JSON or scale-estimate bundle")
    align.add_argument("--extend", action="store_true",
                       help="extend the first/last warp slope beyond its domain")
    align.add_argument("--out", default="alignment.json")
    align.set_defaults(handler=_cmd_align)

    fitmel = sub.add_parser("fit-mel", help="fit the corner-frequency form to a warp")
    fitmel.add_argument("--warp", required=True,
                        help="warp JSON or scale-estimate bundle")
    fitmel.add_argument("--b-range", default="50:5000",
                        help="corner frequency search range in Hz, LO:HI")
    fitmel.add_argument("--grid", default=None,
                        help="sampling range LO:HI in Hz (default: warp domain)")
    fitmel.add_argument("--grid-points", type=int, default=200)
    fitmel.add_argument("--no-calibrate", action="store_true",
                        help="skip the affine calibration of the samples")
    fitmel.add_argument("--extend", action="store_true",
                        help="extend the first/last warp slope beyond its domain")
    fitmel.add_argument("--out", default="melfit_report.json")
    fitmel.set_defaults(handler=_cmd_fit_mel)

    pipeline = sub.add_parser(
        "pipeline", help="run parse -> estimate -> align -> fit-mel with a manifest"
    )
    pipeline.add_argument("--config", default=None,
                          help="JSON config; its values override the flags")
    pipeline.add_argument("--corpus", default=None)
    pipeline.add_argument("--format", choices=("csv", "table"), default="csv")
    pipeline.add_argument("--column-map", default=None)
    pipeline.add_argument("--vowels", default=None)
    pipeline.add_argument("--align-vowel", default=None,
                          help="vowel for the alignment stage (default: first)")
    pipeline.add_argument("--partition", default="per-formant")
    pipeline.add_argument("--reference", default="grand-mean")
    pipeline.add_argument("--b-range", default="50:5000")
    pipeline.add_argument("--grid-points", type=int, default=200)
    pipeline.add_argument("--no-calibrate", action="store_true")
    pipeline.add_argument("--extend", action="store_true")
    pipeline.add_argument("--max-iters", type=int, default=500)
    pipeline.add_argument("--tol", type=float, default=1e-12)
    pipeline.add_argument("--out", default="out")
    pipeline.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CorpusError, EstimationError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
