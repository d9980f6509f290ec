"""Command-line pipeline: synthesize corpora, estimate the scale, align, fit.

Commands communicate only through files (CSV corpora in, canonical JSON
artifacts out), so every stage is reproducible and testable in isolation.
Exit codes: 0 success, 1 internal error, 2 user/input error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from .acoustic import TubeConfig, _population, _warn_incomplete
from .align import _align
from .dataio import (
    ColumnMap,
    CorpusError,
    _read_csv,
    _read_table,
    _write_csv,
    load_warp,
    read_json,
    write_bundle,
)
from .estimate import GRAND_MEAN, EstimationError, _estimate
from .melfit import STANDARD_MEL, compare_scales, fit_mel
from .warp import DomainError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


def _pair(value) -> tuple[float, float]:
    """``LO:HI`` from a flag, or ``[LO, HI]`` from a config file, as two floats."""
    parts = value.split(":") if isinstance(value, str) else value
    if isinstance(value, str) or all(type(v) in (int, float) for v in parts):
        with contextlib.suppress(ValueError):
            lo, hi = map(float, parts)
            return lo, hi
    raise argparse.ArgumentTypeError(f"must look like LO:HI, got {value!r}")


def _vowels(value):
    """A comma list from a flag, or a list from a config file; None means all."""
    if isinstance(value, str):
        vowels = [v.strip() for v in value.split(",") if v.strip()]
        return None if value in ("", "all") else vowels
    if all(isinstance(v, str) for v in value):
        return value
    raise argparse.ArgumentTypeError(f"must list vowels as strings, got {value!r}")


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


def _print_diagnostics(corpus) -> None:
    if corpus.diagnostics:
        print(f"excluded {len(corpus.diagnostics)} rows:")
        for issue in corpus.diagnostics[:10]:
            print(f"  line {issue.line}: {issue.reason}")
        if len(corpus.diagnostics) > 10:
            print(f"  ... and {len(corpus.diagnostics) - 10} more")


# ---------------------------------------------------------------------------
# stages: each takes the options (a pipeline config, or a command's parsed
# flags under the same names) and the state the earlier stages left


def _stage_corpus(config: dict, state: dict):
    column_map = config["column_map"]
    if column_map is not None:
        column_map = ColumnMap.from_dict(read_json(column_map))
    if config["format"] == "table":
        if column_map is None:
            raise CorpusError("table format requires --column-map")
        corpus = _read_table(config["corpus"], column_map)
    else:
        corpus = _read_csv(config["corpus"], column_map)
    state["corpus"] = corpus
    return {
        "source": str(config["corpus"]),
        "column_map_digest": corpus.provenance["column_map_digest"],
        "speakers": len(corpus.speaker_ids),
        "tokens": corpus.n_tokens(),
        "vowels": list(corpus.vowels),
        "rejected_rows": len(corpus.diagnostics),
        "diagnostics": [{"line": i.line, "reason": i.reason} for i in corpus.diagnostics],
    }


def _stage_estimate(config: dict, state: dict):
    mode, boundaries = _parse_partition(config["partition"])
    reference = config["reference"]
    reference = GRAND_MEAN if reference in ("grand-mean", GRAND_MEAN) else reference
    estimate = _estimate(state["corpus"].table, config["vowels"], mode, reference, boundaries)
    state["estimate"] = estimate
    return estimate


def _warp(config: dict, state: dict):
    """The warp just estimated, else the one in the ``--warp`` file."""
    if "estimate" in state:
        return state["estimate"].warp.with_extrapolation(config["extend"])
    return load_warp(config["warp"], extrapolate=config["extend"])


def _stage_align(config: dict, state: dict):
    corpus = state["corpus"]
    # `align --vowel` names it; the pipeline's --align-vowel may be left out
    vowel = config.get("vowel", config.get("align_vowel"))
    if vowel is None:
        vowel = (config["vowels"] or corpus.vowels)[0]
    return _align(corpus.table, _warp(config, state), vowel)


def _stage_fit_mel(config: dict, state: dict):
    warp = _warp(config, state)
    lo, hi = config.get("grid") or (warp.partition.f_min, warp.partition.f_max)
    grid = np.geomspace(lo, hi, config["grid_points"])
    samples = np.column_stack([grid, warp(grid)])
    fit = fit_mel(samples, b_range=config["b_range"])
    comparison = compare_scales(warp, STANDARD_MEL, grid)
    return {
        **fit.to_dict(),
        # same curve in the natural-log convention: a*log10(1+f/b) = (a/ln10)*ln(1+f/b)
        "params_natural_log": {"a": fit.params.a / np.log(10.0), "b": fit.params.b},
        "table": comparison.to_dict()["table"],
        "rms_deviation": comparison.rms_deviation,
        "max_deviation": comparison.max_deviation,
        "reference_params": {"a": STANDARD_MEL.a, "b": STANDARD_MEL.b},
    }


_STAGES = (
    ("corpus_summary", "corpus_summary.json", _stage_corpus),
    ("scale", "scale.json", _stage_estimate),
    ("alignment", "alignment.json", _stage_align),
    ("melfit_report", "melfit_report.json", _stage_fit_mel),
)


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args) -> None:
    base = TubeConfig.two_tube(
        args.pharynx_length,
        args.oral_length,
        args.pharynx_area,
        args.oral_area,
        args.speed_of_sound,
    )
    vary = "all" if args.vary == "all" else "oral_only"
    ids, roots = _population(base, args.speakers, args.oral_range, args.formants, args.seed,
                             vary, args.f_max)
    found = _warn_incomplete(roots, args.f_max, 1)
    short = np.flatnonzero(found < args.formants)
    if short.size:
        raise ValueError(
            f"speaker {ids[short[0]]} has only {found[short[0]]} resonances below --f-max "
            f"{args.f_max:g} Hz, fewer than --formants {args.formants}; no corpus written"
        )
    # zero-padded ids: index order is speaker-id order
    _write_csv(args.out, [ids, ["synth"] * len(ids), [args.vowel] * len(ids), *roots.T.tolist()])
    means = np.exp(np.mean(np.log(roots), axis=0))
    print(f"wrote {args.out}: {len(ids)} speakers, vowel {args.vowel!r}")
    print("mean formants (Hz): " + ", ".join(f"{m:.1f}" for m in means))


def _cmd_estimate(args) -> None:
    config, state = vars(args), {}
    _stage_corpus(config, state)
    _print_diagnostics(state["corpus"])
    estimate = _stage_estimate(config, state)
    write_bundle(estimate, args.out)
    print(f"wrote {args.out}")
    for label, beta in zip(estimate.partition.band_labels(), estimate.betas):
        print(f"  band {label}: beta = {beta:.6g}")
    factors = np.array(list(estimate.speaker_factors.values()))
    print(f"  residual rms = {estimate.residual_rms:.6g} nepers")
    print(f"  speaker factors span [{factors.min():.6g}, {factors.max():.6g}]")
    if not estimate.provenance.get("converged", True):
        print("  warning: factorization hit the iteration cap before converging")


def _cmd_align(args) -> None:
    config, state = vars(args), {}
    _stage_corpus(config, state)
    result = _stage_align(config, state)
    write_bundle(result, args.out)
    print(f"wrote {args.out}: vowel {args.vowel!r}, {len(result.speaker_ids)} speakers")
    for k in range(result.spread_before.size):
        ratio = result.improvement_ratio[k]
        ratio_text = f"{ratio:.3g}x" if np.isfinite(ratio) else "inf"
        print(
            f"  formant {k + 1}: spread {result.spread_before[k]:.6g} -> "
            f"{result.spread_after[k]:.6g} ({ratio_text})"
        )


def _cmd_fit_mel(args) -> None:
    report = _stage_fit_mel(vars(args), {})
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
    if report["b_at_bound"]:
        lo, hi = args.b_range
        print(f"  warning: b is at the {report['b_at_bound']} end of --b-range {lo:g}:{hi:g}; "
              "the best fit may lie beyond it")


# the JSON types a config file may give for a flag of each type
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,),
               _pair: (str, list), _vowels: (str, list)}


def _config_value(key: str, value, flag: dict):
    """A config-file value as the flag of the same name would give it."""
    kind = bool if "action" in flag else flag.get("type", str)
    if value is None and flag.get("default") is None:
        return None
    if type(value) not in _JSON_TYPES[kind] or value not in flag.get("choices", [value]):
        expected = flag.get("choices") or " or ".join(t.__name__ for t in _JSON_TYPES[kind])
        raise CorpusError(f"config key {key!r} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except argparse.ArgumentTypeError as exc:
        raise CorpusError(f"config key {key!r} {exc}") from None


def _pipeline_config(args) -> dict:
    flags = {
        name[2:].replace("-", "_"): _kwargs(kw, "pipeline")
        for name, commands, kw in _OPTIONS
        if "pipeline" in commands.split() and name != "--config"
    }
    config = {key: getattr(args, key) for key in flags}
    if args.config:
        overrides = read_json(args.config)
        if not isinstance(overrides, dict):
            raise CorpusError(f"{args.config}: a config file must hold a JSON object")
        unknown = set(overrides) - set(flags)
        if unknown:
            raise CorpusError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overrides.items():  # the config file wins over flags
            config[key] = _config_value(key, value, flags[key])

    if not config["corpus"]:
        raise CorpusError("no corpus given (flag --corpus or config key 'corpus')")
    if not Path(config["corpus"]).exists():
        raise CorpusError(f"corpus file not found: {config['corpus']}")
    if config["column_map"] is not None and not Path(config["column_map"]).exists():
        raise CorpusError(f"column map file not found: {config['column_map']}")
    return config


def _cmd_pipeline(args) -> None:
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
                entry.update(sha256=write_bundle(stage(config, state), path), status="ok")
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


# ---------------------------------------------------------------------------
# parser: one row per flag, with the commands that take it and its argparse
# keywords. A keyword given as a dict holds one value per command. Each
# pipeline flag's dest is its config key.

_COMMANDS = {
    "synth": (_cmd_synth, "write a synthetic two-tube formant corpus"),
    "estimate": (_cmd_estimate, "estimate the warping scale from a corpus"),
    "align": (_cmd_align, "translation-align one vowel under a warp"),
    "fit-mel": (_cmd_fit_mel, "fit the corner-frequency form to a warp"),
    "pipeline": (
        _cmd_pipeline, "run parse -> estimate -> align -> fit-mel with a manifest"
    ),
}

_OPTIONS = (
    ("--speakers", "synth", dict(type=int, default=20)),
    ("--oral-range", "synth", dict(type=_pair, default="0.06:0.10",
                                   help="oral cavity length range in meters, LO:HI")),
    ("--seed", "synth", dict(type=int, default=0)),
    ("--formants", "synth", dict(type=int, default=3)),
    ("--vary", "synth", dict(choices=("oral", "all"), default="oral",
                             help="vary only the oral cavity or rescale the whole tract")),
    ("--pharynx-length", "synth", dict(type=float, default=0.09)),
    ("--oral-length", "synth", dict(type=float, default=0.08)),
    ("--pharynx-area", "synth", dict(type=float, default=1.0)),
    ("--oral-area", "synth", dict(type=float, default=8.0)),
    ("--speed-of-sound", "synth", dict(type=float, default=350.0)),
    ("--f-max", "synth", dict(type=float, default=8000.0)),
    ("--config", "pipeline", dict(help="JSON config; its values override the flags")),
    # the pipeline takes --corpus from its config file when the flag is absent
    ("--corpus", "estimate align pipeline", dict(
        required={"estimate": True, "align": True}, help="corpus file to read")),
    ("--format", "estimate align pipeline", dict(
        choices=("csv", "table"), default="csv", help="corpus layout (default csv)")),
    ("--column-map", "estimate align pipeline", dict(
        help="JSON file describing the corpus columns")),
    ("--vowels", "estimate pipeline", dict(
        type=_vowels, help="comma-separated vowel selection (default: all)")),
    ("--align-vowel", "pipeline", dict(
        help="vowel for the alignment stage (default: first)")),
    ("--partition", "estimate pipeline", dict(
        default="per-formant", help="'per-formant' or 'explicit:b0,b1,...' in Hz")),
    ("--reference", "estimate pipeline", dict(
        default="grand-mean", help="'grand-mean' or a speaker id")),
    ("--vowel", "synth align", dict(default={"synth": "aa"}, required={"align": True})),
    ("--warp", "align fit-mel", dict(
        required=True, help="warp JSON or scale-estimate bundle")),
    ("--b-range", "fit-mel pipeline", dict(
        type=_pair, default="50:5000", help="corner frequency search range in Hz, LO:HI")),
    ("--grid", "fit-mel", dict(
        type=_pair, help="sampling range LO:HI in Hz (default: warp domain)")),
    ("--grid-points", "fit-mel pipeline", dict(type=int, default=200)),
    ("--extend", "align fit-mel pipeline", dict(
        action="store_true", help="extend the first/last warp slope beyond its domain")),
    ("--out", "synth estimate align fit-mel pipeline", dict(default={
        "synth": "corpus.csv", "estimate": "scale.json", "align": "alignment.json",
        "fit-mel": "melfit_report.json", "pipeline": "out"})),
)


def _kwargs(kw: dict, command: str) -> dict:
    return {
        key: value[command] if isinstance(value, dict) else value
        for key, value in kw.items()
        if not isinstance(value, dict) or command in value
    }


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``. Every command is listed, for ``--help``, but
    only the one ``argv`` names (its first word not an option) gets its flags."""
    parser = argparse.ArgumentParser(
        prog="speechscale",
        description="Estimate a universal frequency-warping scale from vowel formants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for command, (handler, summary) in _COMMANDS.items():
        options = sub.add_parser(command, help=summary)
        for name, commands, kw in _OPTIONS if command == named else ():
            if command in commands.split():
                options.add_argument(name, **_kwargs(kw, command))
        options.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        args.handler(args)
    except (CorpusError, EstimationError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
