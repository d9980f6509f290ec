"""Shared oracles and data builders for the test suite.

The oracles here are deliberately independent of the library's own search
logic: the transfer-matrix resonance solver knows nothing about the
closed-form characteristic, and the grid-scan root finder uses analytic pole
locations instead of the library's magnitude screening. The per-token
references walk tokens one at a time through dicts and lists, as the library
did before it reduced whole arrays.
"""

from __future__ import annotations

import numpy as np

from speechscale import (
    GRAND_MEAN,
    BandPartition,
    FormantSet,
    SpeakerRecord,
    TubeConfig,
    build_piecewise,
    characteristic,
    mel_eval,
)


def tube_poles(config: TubeConfig, f_max: float) -> list[float]:
    """Analytic pole frequencies of the two-tube characteristic below f_max."""
    back, front = config.sections
    c = config.speed_of_sound
    poles = []
    n = 1
    while n * c / (2.0 * back.length) <= f_max:
        poles.append(n * c / (2.0 * back.length))
        n += 1
    n = 0
    while (2 * n + 1) * c / (4.0 * front.length) <= f_max:
        poles.append((2 * n + 1) * c / (4.0 * front.length))
        n += 1
    return sorted(poles)


def grid_scan_roots(config: TubeConfig, count: int, f_max: float, step: float = 0.1):
    """Dense-grid sign-change scan with analytic pole exclusion and own bisection."""
    poles = tube_poles(config, f_max + 1.0)
    grid = np.arange(step, f_max + 0.5 * step, step)
    vals = characteristic(config, grid)
    signs = np.sign(vals)
    roots: list[float] = []
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
        lo, hi = float(grid[i]), float(grid[i + 1])
        if any(lo <= p <= hi for p in poles):
            continue
        flo = characteristic(config, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = characteristic(config, mid)
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
        if len(roots) == count:
            break
    return roots


def transfer_matrix_resonances(config: TubeConfig, f_max: float, step: float = 0.25):
    """Physics oracle: eigenfrequencies via chain-matrix propagation.

    Starts from the open lip end (p=0, U=1) and propagates section by section
    back to the glottis; resonance is where the glottis volume velocity
    crosses zero. Completely independent of the closed-form characteristic.
    """

    def u_glottis(f: float) -> float:
        k = 2.0 * np.pi * f / config.speed_of_sound
        p, u = 0.0 + 0.0j, 1.0 + 0.0j
        for section in reversed(config.sections):
            kl = k * section.length
            m = np.array(
                [
                    [np.cos(kl), 1j * np.sin(kl) / section.area],
                    [1j * section.area * np.sin(kl), np.cos(kl)],
                ]
            )
            p, u = m @ np.array([p, u])
        # one of the components is identically zero (parity of the chain);
        # the sum keeps the signed nonzero one
        return float(u.real + u.imag)

    grid = np.arange(step, f_max, step)
    vals = np.array([u_glottis(f) for f in grid])
    signs = np.sign(vals)
    roots = []
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = u_glottis(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = u_glottis(mid)
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def injected_beta_records(
    betas=(1.2, 1.0, 0.8),
    means=(500.0, 1500.0, 2500.0),
    c_values=None,
    n_speakers: int = 20,
    noise_sigma: float = 0.0,
    seed: int = 0,
    vowel: str = "aa",
):
    """Records with log-formants ln(m_k) + beta_k * c_A (+ optional noise).

    The default speaker factors stay within +-0.2 nepers so every formant
    remains inside its own per-index frequency band.
    """
    betas = np.asarray(betas, dtype=float)
    means = np.asarray(means, dtype=float)
    if c_values is None:
        c_values = np.linspace(-0.2, 0.2, n_speakers)
    rng = np.random.default_rng(seed)
    records = []
    for i, c in enumerate(np.asarray(c_values, dtype=float)):
        logf = np.log(means) + betas * c
        if noise_sigma:
            logf = logf + rng.normal(0.0, noise_sigma, means.size)
        sid = f"s{i:02d}"
        token = FormantSet(sid, vowel, tuple(np.exp(logf)))
        records.append(SpeakerRecord(sid, None, (token,)))
    return records


def kappa_scaled_records(
    base=(500.0, 1500.0, 2500.0),
    kappas=(0.85, 0.9, 1.0, 1.1, 1.2),
    vowel: str = "aa",
):
    """Records whose formants are exact multiples of a base set (uniform scaling)."""
    base = np.asarray(base, dtype=float)
    records = []
    for i, kappa in enumerate(kappas):
        sid = f"s{i:02d}"
        token = FormantSet(sid, vowel, tuple(base * kappa))
        records.append(SpeakerRecord(sid, None, (token,)))
    return records


def mel_chord_warp(params, f_lo: float = 100.0, f_hi: float = 4000.0, n_bands: int = 40):
    """Piecewise-log warp whose segments are chords of the corner-frequency curve."""
    bounds = np.geomspace(f_lo, f_hi, n_bands + 1)
    eta = mel_eval(params, bounds)
    slopes = np.diff(eta) / np.diff(np.log(bounds))
    return build_piecewise(1.0 / slopes, BandPartition(tuple(bounds)))


def reference_partition(records, vowels) -> BandPartition:
    """Per-formant-index partition from per-token lists of log frequencies."""
    log_sums: dict[int, list[float]] = {}
    counts: set[int] = set()
    for record in records:
        for token in record.tokens:
            if token.vowel not in vowels:
                continue
            counts.add(len(token.formants))
            for k, f in enumerate(token.formants):
                log_sums.setdefault(k, []).append(np.log(f))
    if len(counts) > 1:
        raise ValueError(
            f"per-formant-index bands need a uniform formant count, got {sorted(counts)}"
        )
    means = np.exp([np.mean(log_sums[k]) for k in sorted(log_sums)])
    interior = np.sqrt(means[:-1] * means[1:])
    return BandPartition(tuple(np.concatenate([[means[0] / 2.0], interior, [2.0 * means[-1]]])))


def _mean_log_formants(record, vowels) -> dict[tuple[str, int], float]:
    sums: dict[tuple[str, int], list[float]] = {}
    for token in record.tokens:
        if token.vowel not in vowels:
            continue
        for k, f in enumerate(token.formants):
            sums.setdefault((token.vowel, k), []).append(np.log(f))
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


def reference_shifts(records, vowels, partition: BandPartition, reference=GRAND_MEAN):
    """``compute_shifts`` key by key and speaker by speaker.

    Returns the speaker ids, the speakers-by-bands values and their mask.
    """
    ids = [r.speaker_id for r in records]
    per_speaker = {r.speaker_id: _mean_log_formants(r, vowels) for r in records}
    for sid, table in per_speaker.items():
        if not table:
            raise ValueError(f"speaker {sid!r} has no tokens for vowels {list(vowels)}")
    keys = sorted({key for table in per_speaker.values() for key in table})
    if reference == GRAND_MEAN:
        ref_log = {
            key: float(np.mean([t[key] for t in per_speaker.values() if key in t]))
            for key in keys
        }
    else:
        ref_log = dict(per_speaker[reference])
        keys = [key for key in keys if key in ref_log]
    sums = np.zeros((len(ids), partition.n_bands))
    counts = np.zeros((len(ids), partition.n_bands), dtype=int)
    for key in keys:
        ref_hz = float(np.exp(ref_log[key]))
        if not partition.contains(ref_hz):
            continue
        band = partition.band_index(ref_hz)
        for row, sid in enumerate(ids):
            if key in per_speaker[sid]:
                sums[row, band] += per_speaker[sid][key] - ref_log[key]
                counts[row, band] += 1
    mask = counts > 0
    return tuple(ids), np.divide(sums, counts, out=np.zeros_like(sums), where=mask), mask


def reference_alignment(records, warp, vowel):
    """Per-speaker aggregates of ``align_population``, one warp call per token.

    Returns the ids of the speakers with the vowel, their geometric-mean
    formants in Hz and their mean warped formants.
    """
    ids, raw, warped = [], [], []
    for record in records:
        tokens = [t for t in record.tokens if t.vowel == vowel]
        if tokens:
            ids.append(record.speaker_id)
            raw.append(np.exp(np.mean(np.log([t.formants for t in tokens]), axis=0)))
            warped.append(np.mean([warp(t.formants) for t in tokens], axis=0))
    return tuple(ids), np.array(raw), np.array(warped)
