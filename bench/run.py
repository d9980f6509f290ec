"""speechscale benchmark: one workload per process, closed loop, one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload pipeline-csv-large --seed 1 --seconds 20 --trace 0

``--trace 0`` times ``speechscale.cli.main([...])`` in-process and reports
the end-to-end metrics; ``--trace 1`` also replays the stages through the
package's public functions with a span around each call and reports the
per-layer metrics. The last line of stdout is the result object; the line
before it is a report with the environment, input sizes and sample counts.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import oracle
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("synth", "pipeline-csv-large", "pipeline-table-small")
SETUP_REPS = 11
# The CLI defaults that the pipeline replay passes on, as the CLI does.
MAX_ITERS, TOL, B_RANGE, GRID_POINTS = 500, 1e-12, (50.0, 5000.0), 200


def declared(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: [replay id, name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.replay = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([self.replay, name, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][4] = time.perf_counter()
            self._open.pop()

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for _, name, _, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out


class NoTracer:
    """The replay with spans switched off."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


# ---------------------------------------------------------------------------
# program calls


def import_program():
    """Import ``speechscale`` from this checkout's ``src``, afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "speechscale"]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        ss = importlib.import_module("speechscale")
    except ModuleNotFoundError:
        raise SystemExit(f"speechscale not found in {SRC}") from None
    importlib.import_module("speechscale.cli")
    if Path(ss.__file__).resolve().parent != SRC / "speechscale":
        raise SystemExit(f"speechscale imported from {ss.__file__}, not from {SRC}")
    return ss


def cli_call(ss, argv) -> tuple[int, float]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = ss.cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, elapsed


def replay_synth(ss, call: workloads.SynthCall, path: Path, tr) -> dict:
    """``speechscale synth`` through public functions, as the CLI calls them."""
    back, front, back_area, front_area, oral_range = call.geometry
    with tr.span("replay"):
        base = ss.TubeConfig.two_tube(back, front, back_area, front_area,
                                      workloads.SPEED_OF_SOUND)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ss.IncompleteScanWarning)
            with tr.span("acoustic.synth_population"):
                population = ss.synth_population(
                    base, call.speakers, oral_range, workloads.SYNTH_FORMANTS, call.seed,
                    vary="all" if call.vary == "all" else "oral_only",
                    f_max=workloads.SYNTH_F_MAX, vowel="aa",
                )
        records = ss.records_from_tokens(population, group="synth")
        with tr.span("dataio.write_canonical_csv"):
            ss.write_canonical_csv(records, path)
    return {
        "acoustic.tracts": len(population),
        "acoustic.incomplete_scans": sum(
            issubclass(w.category, ss.IncompleteScanWarning) for w in caught),
    }


def replay_pipeline(ss, corpus: workloads.Corpus, out: Path, tr) -> dict:
    """``speechscale pipeline`` stage by stage through public functions, with
    the arguments the CLI passes, writing the artifacts the CLI writes.

    Returns the stage results, for ``pipeline_counts`` to read after timing.
    """
    with tr.span("replay"):
        with tr.span("dataio.parse"):
            if corpus.column_map is None:
                parsed = ss.parse_csv(corpus.path)
            else:
                column_map = ss.ColumnMap.from_dict(ss.read_json(corpus.column_map))
                parsed = ss.parse_table(corpus.path, column_map)
        records, vowels = parsed.records, parsed.vowels
        mode = "per_formant_index" if corpus.boundaries is None else "explicit"
        with tr.span("estimate.choose_partition"):
            partition = ss.choose_partition(records, vowels, mode,
                                            boundaries=corpus.boundaries)
        with tr.span("estimate.compute_shifts"):
            shifts = ss.compute_shifts(records, vowels, partition, ss.GRAND_MEAN)
        with tr.span("estimate.rank1_factor"):
            fit = ss.rank1_factor(shifts, max_iters=MAX_ITERS, tol=TOL)
        with tr.span("warp.build_piecewise"):
            warp = ss.build_piecewise(fit.betas, partition)
        bounded = warp.with_extrapolation(False)
        with tr.span("align.align_population"):
            alignment = ss.align_population(records, bounded, vowels[0])
        grid = np.geomspace(partition.f_min, partition.f_max, GRID_POINTS)
        with tr.span("melfit.fit_mel"):
            mel = ss.fit_mel(np.column_stack([grid, bounded(grid)]), b_range=B_RANGE,
                             calibrate=True)
        with tr.span("melfit.compare_scales"):
            comparison = ss.compare_scales(bounded, ss.STANDARD_MEL, grid)
        # the keys of each artifact are those the CLI writes
        melfit_report = mel.to_dict()
        melfit_report.update(
            params_natural_log={"a": mel.params.a / np.log(10.0), "b": mel.params.b},
            table=comparison.to_dict()["table"],
            rms_deviation=comparison.rms_deviation,
            max_deviation=comparison.max_deviation,
            reference_params={"a": ss.STANDARD_MEL.a, "b": ss.STANDARD_MEL.b},
        )
        boundaries = corpus.boundaries
        artifacts = {
            "corpus_summary": {
                "source": str(corpus.path),
                "column_map_digest": parsed.provenance["column_map_digest"],
                "speakers": len(records),
                "tokens": parsed.n_tokens(),
                "vowels": list(vowels),
                "rejected_rows": len(parsed.diagnostics),
                "diagnostics": [{"line": i.line, "reason": i.reason}
                                for i in parsed.diagnostics],
            },
            "scale": ss.ScaleEstimate(
                betas=tuple(float(b) for b in fit.betas),
                speaker_factors={sid: float(cv) for sid, cv
                                 in zip(shifts.speaker_ids, fit.speaker_factors)},
                residual_rms=fit.residual_rms,
                partition=partition,
                warp=warp,
                provenance={
                    "vowels": list(vowels),
                    "reference": ss.GRAND_MEAN,
                    "options": {
                        "partition_mode": mode,
                        "boundaries": None if boundaries is None
                        else [float(b) for b in boundaries],
                        "max_iters": MAX_ITERS,
                        "tol": TOL,
                    },
                    "iterations": fit.iterations,
                    "converged": fit.converged,
                },
            ),
            "alignment": alignment,
            "melfit_report": melfit_report,
        }
        with tr.span("dataio.write_bundle"):
            for name, artifact in artifacts.items():
                ss.write_bundle(artifact, out / f"{name}.json")
    return {"parsed": parsed, "shifts": shifts, "fit": fit, "warp": warp,
            "alignment": alignment, "artifacts": list(artifacts)}


def pipeline_counts(state: dict, out: Path) -> tuple[dict, np.ndarray]:
    """The layer counts of one pipeline replay, and the points that
    ``align_population`` warps; computed outside any timed region."""
    parsed, vowel = state["parsed"], state["parsed"].vowels[0]
    records = parsed.records
    counts = {
        "dataio.parse.rows": parsed.n_tokens() + len(parsed.diagnostics),
        "dataio.parse.rejected_rows": len(parsed.diagnostics),
        "dataio.write_bundle.bytes": sum((out / f"{name}.json").stat().st_size
                                         for name in state["artifacts"]),
        "estimate.rank1_factor.iterations": state["fit"].iterations,
        "estimate.mask_fill": float(state["shifts"].mask.mean()),
        "align.speakers": len(state["alignment"].speaker_ids),
        "align.tokens": sum(t.vowel == vowel for r in records for t in r.tokens),
    }
    points = np.array([t.formants for r in records for t in r.tokens if t.vowel == vowel])
    return counts, points


# ---------------------------------------------------------------------------
# checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class PipelineCheck:
    """One check per invocation: exit code 0, every manifest artifact ``ok``
    with the digest of the file on disk, and the digests of the first call."""

    def __init__(self, out: Path):
        self.out = out
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_written = 0

    def __call__(self, corpus, code: int) -> bool:
        self.attempted += 1
        problem = self._problem(code)
        if problem:
            self.failed += 1
            self.problems.append(problem)
        return problem is None

    def _problem(self, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        digests = {}
        written = (self.out / "manifest.json").stat().st_size
        for entry in manifest["artifacts"]:
            path = self.out / entry["path"]
            if entry["status"] != "ok":
                return f"{entry['name']}: status {entry['status']}"
            if entry["sha256"] != sha256(path):
                return f"{entry['name']}: manifest digest does not match the file"
            digests[entry["name"]] = entry["sha256"]
            written += path.stat().st_size
        self.bytes_written = written
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            return "artifact digests differ from the first invocation"
        return None


def check_estimate(out: Path, corpus: workloads.Corpus) -> tuple[float, list[str]]:
    """Compare the pipeline's outputs with the generator's ground truth.

    Returns max |beta_hat - beta_injected| and the problems found.
    """
    problems = []
    summary = json.loads((out / "corpus_summary.json").read_text(encoding="utf-8"))
    for key, want in (("tokens", corpus.tokens), ("rejected_rows", corpus.rejected),
                      ("speakers", corpus.speakers)):
        if summary[key] != want:
            problems.append(f"corpus_summary {key} = {summary[key]}, generated {want}")
    scale = json.loads((out / "scale.json").read_text(encoding="utf-8"))
    edges = np.asarray(scale["partition"], dtype=float)
    for key, (band, ref_log) in corpus.keys.items():
        ref = np.exp(ref_log)
        got = int(np.searchsorted(edges, ref, side="right")) - 1
        if not edges[0] <= ref <= edges[-1] or got != band:
            problems.append(f"key {key} at {ref:.1f} Hz is in band {got}, generated in {band}")
    beta_hat = np.asarray(scale["betas"], dtype=float)
    if beta_hat.shape != corpus.betas.shape:
        problems.append(f"{beta_hat.size} betas for {corpus.betas.size} bands")
        return float("inf"), problems
    err = float(np.max(np.abs(beta_hat - corpus.betas)))
    if err > corpus.beta_tol:
        problems.append(f"beta_max_abs_err {err:.4g} exceeds {corpus.beta_tol}")
    return err, problems


class SynthCheck:
    """Every invocation must exit 0 and repeat the first output of its call
    byte for byte; each distinct output is checked once against the oracle."""

    def __init__(self, path: Path):
        self.path = path
        self.digests: dict[workloads.SynthCall, str] = {}
        self.outputs: dict[workloads.SynthCall, np.ndarray] = {}
        self.problems: list[str] = []
        self.bytes_written = 0

    def __call__(self, call: workloads.SynthCall, code: int) -> None:
        if code != 0:
            self.problems.append(f"synth exit code {code}")
            return
        digest = sha256(self.path)
        self.bytes_written = self.path.stat().st_size
        if call in self.digests:
            if digest != self.digests[call]:
                self.problems.append(f"synth seed {call.seed}: output differs between calls")
            return
        self.digests[call] = digest
        with open(self.path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        order = [int(row[0][1:]) for row in rows]
        if sorted(order) != list(range(call.speakers)):
            self.problems.append(f"synth seed {call.seed}: speaker ids {order[:3]}...")
            return
        formants = np.empty((call.speakers, len(rows[0]) - 3))
        formants[order] = [[float(x) for x in row[3:]] for row in rows]
        self.outputs[call] = formants

    def verdicts(self) -> dict[str, int]:
        """Oracle verdict counts over every distinct tract; not timed."""
        counts = {"ok": 0, "dropped": 0, "wrong": 0}
        for call, formants in self.outputs.items():
            g = call.tracts()
            truth = oracle.two_tube_resonances(
                g["back_length"], g["front_length"], g["back_area"], g["front_area"],
                f_max=workloads.SYNTH_F_MAX, speed_of_sound=workloads.SPEED_OF_SOUND)
            for lib, ref in zip(formants, truth):
                counts[oracle.compare(lib, ref, workloads.SYNTH_FORMANTS)] += 1
        if counts["wrong"]:
            self.problems.append(f"{counts['wrong']} tracts have a formant that is "
                                 "not a resonance")
        return counts


# ---------------------------------------------------------------------------
# statistics and environment


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with >= 10 samples
    beyond it (the maximum when there are fewer than 11 samples)."""
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * index / max(len(ordered) - 1, 1)


def paired_median(a: list[float], b: list[float]) -> float:
    return statistics.median(x - y for x, y in zip(a, b))


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def make_inputs(workload: str, seed: int, work: Path):
    if workload == "synth":
        return workloads.synth_plan(seed, work / "synth.csv")
    if workload == "pipeline-csv-large":
        return workloads.csv_corpus(seed, work)
    return workloads.table_corpus(seed, work)


def time_calls(ss, items, seconds: float, check, setup, replay=None) -> dict:
    """Closed loop of CLI calls over ``items`` until ``seconds`` have passed.

    Whole rounds of ``items`` are run, so every run weighs each item the same.
    With a ``replay(item, tracer)``, each call is paired with the replay with
    spans off and with spans on, in an order that flips every round so that
    a drift in machine speed does not bias the paired differences.
    ``setup()`` is timed ``SETUP_REPS - 1`` times, at round boundaries spread
    evenly over the run, so that set-up meets the same machine states as the
    calls; no call's time includes it.
    """
    tracer = Tracer()
    timed = {"calls": [], "plain": [], "traced": [], "setup": []}
    last = None
    began = time.perf_counter()
    deadline = began + seconds
    i = 0
    while i % len(items) or time.perf_counter() < deadline:
        due = began + (len(timed["setup"]) + 1) * seconds / SETUP_REPS
        if not i % len(items) and len(timed["setup"]) < SETUP_REPS - 1 \
                and time.perf_counter() >= due:
            timed["setup"].append(setup())
        item = items[i % len(items)]
        steps = ["calls", "plain", "traced"] if replay else ["calls"]
        if (i // len(items)) % 2:
            steps.reverse()
        for step in steps:
            start = time.perf_counter()
            if step == "calls":
                code, elapsed = cli_call(ss, item.argv)
                check(item, code)
            else:
                if step == "traced":
                    tracer.replay += 1
                    last = replay(item, tracer)
                else:
                    replay(item, NoTracer())
                elapsed = time.perf_counter() - start
            timed[step].append(elapsed)
        i += 1
    timed["peak_rss_mb"] = peak_rss_mb()
    while len(timed["setup"]) < SETUP_REPS - 1:
        timed["setup"].append(setup())
    timed["tracer"], timed["last"] = tracer, last
    return timed


def layer_metrics(timed: dict, counts: dict, self_name: str) -> tuple[dict, float]:
    """Median span times, the counts and the CLI's self time; also the share
    of the replay's time that its stage spans cover."""
    durations = timed["tracer"].durations()
    replay = statistics.median(durations.pop("replay"))
    layers = {f"{name}.s": statistics.median(d) for name, d in durations.items()}
    layers.update(counts)
    layers[self_name] = paired_median(timed["calls"], timed["plain"])
    layers["trace.overhead_s"] = paired_median(timed["traced"], timed["plain"])
    stages = sum(v for k, v in layers.items() if k.endswith(".s") and k != "warp.eval.s")
    return layers, stages / replay


def run_synth(ss, plan, seconds: float, trace: bool, work: Path, setup) -> dict:
    path = Path(plan[0].argv[plan[0].argv.index("--out") + 1])
    check = SynthCheck(path)
    replay_path = work / "replay.csv"

    def replay(call, tr):
        counts = replay_synth(ss, call, replay_path, tr)
        if call in check.digests and sha256(replay_path) != check.digests[call]:
            check.problems.append(f"synth seed {call.seed}: replay output differs")
        return counts

    check(plan[0], cli_call(ss, plan[0].argv)[0])  # warm-up
    timed = time_calls(ss, plan, seconds, check, setup, replay if trace else None)
    verdicts = check.verdicts()
    tracts = sum(c.speakers for c in check.outputs)
    result = {
        **timed,
        "tokens_per_call": plan[0].speakers,
        "attempted": tracts,
        "failed": verdicts["dropped"] + verdicts["wrong"],
        "problems": check.problems,
        "bytes_written": check.bytes_written,
        "report": {"oracle": verdicts, "tracts": tracts},
    }
    if trace:
        result["layers"], result["report"]["span_coverage"] = layer_metrics(
            timed, timed["last"], "cli.synth.self_s")
    return result


def run_pipeline(ss, corpus: workloads.Corpus, seconds: float, trace: bool,
                 work: Path, setup) -> dict:
    out = Path(corpus.argv[corpus.argv.index("--out") + 1])
    check = PipelineCheck(out)
    replay_out = work / "replay"
    replay_out.mkdir(exist_ok=True)

    def replay(corpus, tr):
        return replay_pipeline(ss, corpus, replay_out, tr)

    problems: list[str] = []
    beta_err = None
    if check(corpus, cli_call(ss, corpus.argv)[0]):  # warm-up
        beta_err, problems = check_estimate(out, corpus)
        timed = time_calls(ss, [corpus], seconds, check, setup, replay if trace else None)
    else:
        timed = {"calls": [], "setup": [], "peak_rss_mb": peak_rss_mb()}
    result = {
        **timed,
        "tokens_per_call": corpus.tokens,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems + problems,
        "bytes_written": check.bytes_written,
        "report": {"beta_max_abs_err": beta_err},
    }
    if trace and timed["calls"]:
        for name in timed["last"]["artifacts"]:
            if sha256(replay_out / f"{name}.json") != check.first.get(name):
                result["problems"].append(f"replayed {name}.json differs from the CLI's")
        counts, points = pipeline_counts(timed["last"], replay_out)
        # the floor for align: one array call over the points it warps
        warp = timed["last"]["warp"]
        for _ in timed["traced"]:
            with timed["tracer"].span("warp.eval"):
                warp(points)
        counts["warp.eval.points"] = points.size
        result["layers"], result["report"]["span_coverage"] = layer_metrics(
            timed, counts, "cli.pipeline.self_s")
    return result


def setup_once(workload: str, seed: int, work: Path, make):
    """Import the program afresh and write the inputs; returns both and the
    time taken."""
    start = time.perf_counter()
    ss = import_program()
    inputs = make(workload, seed, work)
    return ss, inputs, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool, make=make_inputs) -> dict:
    """One benchmark run; returns the result object and the report."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        ss, inputs, first_setup = setup_once(workload, seed, work, make)
        # later set-ups import a second copy of the package; the calls keep
        # using the first, which has no imports made inside functions
        def again() -> float:
            return setup_once(workload, seed, work, make)[2]

        if workload == "synth":
            res = run_synth(ss, inputs, seconds, trace, work, again)
            sizes = {"tracts": res["report"]["tracts"], "bytes_in": 0}
        else:
            res = run_pipeline(ss, inputs, seconds, trace, work, again)
            sizes = {"tokens": inputs.tokens, "rows": inputs.rows,
                     "rejected_rows": inputs.rejected, "speakers": inputs.speakers,
                     "bytes_in": inputs.bytes}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_times = [first_setup] + res["setup"]
    calls = res["calls"]
    tail_s, tail_pct = tail(calls) if calls else (0.0, None)
    if trace:
        metrics = res.get("layers", {})
    elif calls:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "tokens_per_s": res["tokens_per_call"] * len(calls) / sum(calls),
            "call_p50_s": statistics.median(calls),
            "call_tail_s": tail_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    else:
        metrics = {}
    attempted, failed = res["attempted"], res["failed"]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": {**sizes, "bytes_written_per_call": res["bytes_written"]},
        "samples": {"setup_s": len(setup_times), "calls": len(calls),
                    "call_tail_percentile": tail_pct},
        "failed_ratio": failed / attempted,
        "problems": res["problems"],
        **res["report"],
    }
    result = {
        "correct": not res["problems"] and bool(calls),
        "attempted": attempted,
        "failed": failed,
        # a layer that a workload does not run (or a failed run) reports 0
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in declared("per_layer" if trace else "end_to_end").items()},
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = res["tracer"].spans if trace and "tracer" in res else []
    (OUT / f"{name}.json").write_text(json.dumps(
        {"report": report, "result": result, "spans": spans}) + "\n")
    return {"report": report, "result": result, "layers": res.get("layers", {})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
