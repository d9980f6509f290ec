"""Seeded inputs for the three benchmark workloads.

Everything here is numpy and the stdlib: the program under test is imported
only by ``run.py``, so generating inputs never depends on it. The program
receives only the files written here and CLI flags; no value names the
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HILLENBRAND_MAP = ROOT / "configs" / "hillenbrand_bigdata.json"

# (pharynx length m, oral length m, pharynx area, oral area, oral range m).
# The first is the CLI's default /aa/. In the second, L1/L2 = 2 puts a cot
# pole on a tan pole at 1750 Hz, where the seed's pole screening drops a true
# resonance (ROADMAP item 2); with --vary all every tract keeps that ratio.
# The third is a front-constricted /iy/-like tract.
SYNTH_GEOMETRIES = (
    (0.09, 0.08, 1.0, 8.0, (0.06, 0.10)),
    (0.10, 0.05, 1.0, 4.0, (0.045, 0.055)),
    (0.08, 0.09, 6.0, 1.0, (0.07, 0.11)),
)
SYNTH_FORMANTS = 4
SYNTH_F_MAX = 8000.0
SPEED_OF_SOUND = 350.0

# Hillenbrand et al. (1995) vowel codes with rounded adult F1-F3 means in Hz.
HILLENBRAND_VOWELS = {
    "ae": (588, 1952, 2601), "ah": (768, 1333, 2522), "aw": (652, 997, 2538),
    "eh": (580, 1799, 2605), "ei": (476, 2089, 2691), "er": (474, 1379, 1710),
    "ih": (427, 2034, 2684), "iy": (342, 2322, 3000), "oa": (497, 910, 2459),
    "oo": (469, 1122, 2434), "uh": (623, 1200, 2550), "uw": (378, 997, 2343),
}
# speakers per group in the Hillenbrand database and each group's mean
# log-frequency factor (longer tracts, lower formants)
HILLENBRAND_GROUPS = (("m", 45, -0.12), ("w", 48, 0.03), ("b", 27, 0.10), ("g", 19, 0.14))
TABLE_BOUNDARIES = (150.0, 400.0, 560.0, 800.0, 1250.0, 1900.0, 2450.0, 5000.0)
# no key's mean frequency sits closer than this (nepers) to a band edge, so the
# reference frequency the estimator sees stays in the band the data were made for
BAND_MARGIN = 0.06
# shares of the table's speaker-vowel cells with no line, and of its lines
# with a sentinel 0 formant
MISSING_CELLS = 0.10
SENTINEL_LINES = 0.05


@dataclass(frozen=True)
class SynthCall:
    """One ``speechscale synth`` invocation and the geometry it implies."""

    argv: tuple[str, ...]
    geometry: tuple
    vary: str
    speakers: int
    seed: int

    def tracts(self) -> dict[str, np.ndarray]:
        """Per-tract section lengths and areas, in output (speaker id) order.

        Restates ``synth_population``'s documented sampling: oral lengths are
        drawn uniformly with ``numpy.random.default_rng(seed)``.
        """
        back, front, back_area, front_area, (lo, hi) = self.geometry
        lengths = np.random.default_rng(self.seed).uniform(lo, hi, self.speakers)
        if self.vary == "oral":
            back_lengths = np.full(self.speakers, back)
        else:
            kappa = lengths / front
            back_lengths, lengths = back * kappa, front * kappa
        return {
            "back_length": back_lengths,
            "front_length": lengths,
            "back_area": np.full(self.speakers, back_area),
            "front_area": np.full(self.speakers, front_area),
        }


@dataclass
class Corpus:
    """A generated corpus file plus the ground truth it was made from."""

    path: Path
    argv: tuple[str, ...]
    column_map: Path | None
    boundaries: tuple[float, ...] | None
    # largest |beta_hat - beta| the estimator may miss by on this much data
    beta_tol: float
    betas: np.ndarray
    rows: int
    tokens: int
    rejected: int
    speakers: int
    # (vowel, formant index) -> (band injected, mean log frequency of the
    # valid tokens, which is the estimator's grand-mean reference)
    keys: dict = field(default_factory=dict)
    bytes: int = 0


def synth_plan(seed: int, out: Path, speakers: int = 100) -> list[SynthCall]:
    """One call per geometry and ``--vary`` mode, each with its own seed."""
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, 2 * len(SYNTH_GEOMETRIES))
    calls = []
    for i, geometry in enumerate(SYNTH_GEOMETRIES):
        back, front, back_area, front_area, (lo, hi) = geometry
        for j, vary in enumerate(("oral", "all")):
            call_seed = int(seeds[2 * i + j])
            argv = (
                "synth", "--speakers", str(speakers), "--formants", str(SYNTH_FORMANTS),
                "--vary", vary, "--seed", str(call_seed),
                "--pharynx-length", repr(back), "--oral-length", repr(front),
                "--pharynx-area", repr(back_area), "--oral-area", repr(front_area),
                "--oral-range", f"{lo!r}:{hi!r}", "--out", str(out),
            )
            calls.append(SynthCall(argv, geometry, vary, speakers, call_seed))
    return calls


def _normalized_betas(rng, n_bands: int) -> np.ndarray:
    # the estimator reports betas scaled to mean 1, so inject them that way
    betas = rng.uniform(0.75, 1.3, n_bands)
    return betas / betas.mean()


def _ascending(hz: np.ndarray) -> np.ndarray:
    # the parser rejects a row whose formants do not strictly ascend
    return np.all(np.diff(hz, axis=2) > 0, axis=2)


def _keys(log_f, valid, vowels, bands) -> dict:
    return {
        (v, k): (int(bands[j, k]), float(log_f[valid[:, j], j, k].mean()))
        for j, v in enumerate(vowels)
        for k in range(log_f.shape[2])
    }


def csv_corpus(seed: int, work: Path, speakers: int = 800, vowels: int = 12) -> Corpus:
    """Canonical CSV with one token per speaker and vowel, three formants.

    The pipeline runs with its default per-formant-index partition, so band k
    holds formant k of every vowel; vowel means are drawn in ranges that keep
    each formant index well inside its own band.
    """
    rng = np.random.default_rng(seed)
    betas = _normalized_betas(rng, 3)
    labels = [f"v{j:02d}" for j in range(vowels)]
    ranges = np.log([[300.0, 700.0], [1000.0, 1700.0], [2300.0, 3000.0]])
    means = rng.uniform(ranges[:, 0], ranges[:, 1], (vowels, 3))
    c = rng.uniform(-0.2, 0.2, speakers)
    c -= c.mean()
    log_f = means[None] + betas[None, None, :] * c[:, None, None]
    log_f += rng.normal(0.0, 0.02, log_f.shape)
    groups = rng.choice(["man", "woman", "child"], speakers)

    lines = ["speaker_id,group,vowel,f1_hz,f2_hz,f3_hz"]
    hz = np.exp(log_f)
    for i in range(speakers):
        for j, v in enumerate(labels):
            f1, f2, f3 = hz[i, j]
            lines.append(f"p{i:04d},{groups[i]},{v},{f1:.3f},{f2:.3f},{f3:.3f}")
    path = work / "corpus.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bands = np.broadcast_to(np.arange(3), (vowels, 3))
    valid = _ascending(hz)
    return Corpus(
        path=path,
        argv=("pipeline", "--corpus", str(path), "--out", str(work / "out")),
        column_map=None,
        boundaries=None,
        beta_tol=0.02,
        betas=betas,
        rows=speakers * vowels,
        tokens=int(valid.sum()),
        rejected=int((~valid).sum()),
        speakers=int(valid.any(axis=1).sum()),
        keys=_keys(log_f, valid, labels, bands),
        bytes=path.stat().st_size,
    )


def _away_from_edges(log_means: np.ndarray, edges: np.ndarray) -> np.ndarray:
    out = log_means.copy()
    for e in edges:
        near = np.abs(out - e) < BAND_MARGIN
        out[near] = np.where(out[near] < e, e - BAND_MARGIN, e + BAND_MARGIN)
    return out


def table_corpus(seed: int, work: Path, groups=HILLENBRAND_GROUPS) -> Corpus:
    """Hillenbrand-shaped whitespace table, read with ``--format table``.

    Lines look like ``m01ae  253  132   588  1952  2601  3384`` (id, duration,
    F0, F1-F4 as integers). About ``MISSING_CELLS`` of the speaker-vowel
    cells have no line and about ``SENTINEL_LINES`` of the lines carry a 0
    formant, which the parser rejects, as it does the rare line whose noisy
    formants cross.
    Betas are injected per band of an explicit 7-band partition, by the band
    of each key's mean frequency.
    """
    rng = np.random.default_rng(seed)
    edges = np.log(TABLE_BOUNDARIES)
    betas = _normalized_betas(rng, len(TABLE_BOUNDARIES) - 1)
    vowels = sorted(HILLENBRAND_VOWELS)
    base = np.log([HILLENBRAND_VOWELS[v] for v in vowels], dtype=float)
    means = _away_from_edges(base + rng.uniform(-0.04, 0.04, base.shape), edges)
    bands = np.searchsorted(edges, means, side="right") - 1

    ids, c = [], []
    for letter, count, offset in groups:
        ids += [f"{letter}{n:02d}" for n in range(1, count + 1)]
        c += list(offset + rng.normal(0.0, 0.04, count))
    c = np.asarray(c) - np.mean(c)
    log_f = means[None] + betas[bands][None] * c[:, None, None]
    log_f += rng.normal(0.0, 0.03, log_f.shape)
    hz = np.rint(np.exp(log_f)).astype(int)
    present = rng.random((len(ids), len(vowels))) >= MISSING_CELLS
    zeroed = present & (rng.random(present.shape) < SENTINEL_LINES)
    zero_at = rng.integers(0, 3, present.shape)

    lines = []
    for i, sid in enumerate(ids):
        for j, v in enumerate(vowels):
            if not present[i, j]:
                continue
            f = hz[i, j].tolist()
            if zeroed[i, j]:
                f[zero_at[i, j]] = 0
            f4 = int(np.rint(np.exp(means[j, 2] + 0.3)))
            lines.append(f"{sid + v:<7}{rng.integers(180, 400):>5}"
                         f"{rng.integers(90, 280):>5}{f[0]:>6}{f[1]:>6}{f[2]:>6}{f4:>6}")
    path = work / "corpus.dat"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    partition = "explicit:" + ",".join(f"{b:g}" for b in TABLE_BOUNDARIES)
    valid = present & ~zeroed & _ascending(hz)
    return Corpus(
        path=path,
        argv=("pipeline", "--corpus", str(path), "--format", "table",
              "--column-map", str(HILLENBRAND_MAP), "--partition", partition,
              "--out", str(work / "out")),
        column_map=HILLENBRAND_MAP,
        boundaries=TABLE_BOUNDARIES,
        beta_tol=0.1,
        betas=betas,
        rows=int(present.sum()),
        tokens=int(valid.sum()),
        rejected=int((present & ~valid).sum()),
        speakers=int(valid.any(axis=1).sum()),
        keys=_keys(log_f, valid, vowels, bands),
        bytes=path.stat().st_size,
    )
