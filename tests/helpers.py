"""Shared oracles and data builders for the test suite.

The oracles here are deliberately independent of the library's own search
logic: the transfer-matrix resonance solver knows nothing about the
closed-form characteristic, and the grid-scan root finder uses analytic pole
locations instead of bracketing the pole-free residual. ``reference_formants``
is the library's earlier 1 Hz scan of the characteristic with magnitude
screening of poles. The per-token references walk tokens one at a time through
dicts and lists, as the library did before it reduced whole arrays, and
``reference_assemble`` checks corpus rows one at a time with numpy, as the
parsers did before they validated one block per file.
``reference_canonical_json`` copies a value into canonical form and hands it
to ``json.dumps``, as the writer did before it wrote the text itself.
``scaled_tract`` and ``QuadraticLogWarp`` are test tools: a whole tract
rescaled on its own, and a warp with a domain floor.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from speechscale import (
    GRAND_MEAN,
    BandPartition,
    Corpus,
    CorpusError,
    DomainError,
    FormantSet,
    RowIssue,
    SpeakerRecord,
    TubeConfig,
    Warp,
    build_piecewise,
    characteristic,
    mel_eval,
)
from speechscale.dataio import _group_from_rule
from speechscale.estimate import _token_table


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
    Vectorized over frequency; every sign change is bisected 60 times.
    """

    def u_glottis(f):
        k = 2.0 * np.pi * f / config.speed_of_sound
        p = np.zeros(np.shape(f), dtype=complex)
        u = np.ones(np.shape(f), dtype=complex)
        for section in reversed(config.sections):
            kl = k * section.length
            cos, sin = np.cos(kl), np.sin(kl)
            p, u = cos * p + 1j * sin / section.area * u, 1j * section.area * sin * p + cos * u
        # one of the components is identically zero (parity of the chain);
        # the sum keeps the signed nonzero one
        return u.real + u.imag

    grid = np.arange(step, f_max, step)
    vals = u_glottis(grid)
    cells = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    lo, hi = grid[cells], grid[cells + 1]
    flo = vals[cells]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = u_glottis(mid)
        same = (fmid < 0.0) == (flo < 0.0)
        lo, flo, hi = np.where(same, mid, lo), np.where(same, fmid, flo), np.where(same, hi, mid)
    # a grid point that is an exact zero is a root with no sign change
    return sorted((0.5 * (lo + hi)).tolist() + grid[vals == 0.0].tolist())


def _bisect(func, lo: float, hi: float, tol: float) -> float:
    """Refine a bracketed sign change down to width ``tol``."""
    flo = func(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _is_zero_crossing(func, x: float, tol: float) -> bool:
    # Poles of cot/tan also flip the sign. Near a pole the magnitude grows
    # toward the crossing; near a root it shrinks.
    probe = 10.0 * tol
    mid = abs(func(x))
    near = max(abs(func(max(x - probe, 0.5 * probe))), abs(func(x + probe)))
    return mid < near


def reference_formants(config: TubeConfig, count: int, f_max: float = 8000.0,
                       scan_step: float = 1.0, tol: float = 0.01) -> tuple[float, ...]:
    """The library's earlier ``formants``: a ``scan_step`` grid scan of the
    characteristic, sign changes screened for cot/tan poles by magnitude and
    refined by bisection. Where a pole shares a grid cell with a root, or
    coincides with one, the root is missed and later formants shift down.
    """

    def func(f):
        return characteristic(config, f)

    grid = np.arange(scan_step, f_max + 0.5 * scan_step, scan_step)
    vals = characteristic(config, grid)
    signs = np.sign(vals)
    roots: list[float] = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0)):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        else:
            x = _bisect(func, float(grid[i]), float(grid[i + 1]), tol)
            if _is_zero_crossing(func, x, tol):
                roots.append(x)
        if len(roots) >= count:
            break
    if vals[-1] == 0.0 and len(roots) < count:
        roots.append(float(grid[-1]))
    return tuple(roots)


def scaled_tract(config: TubeConfig, kappa: float) -> TubeConfig:
    """``config`` with both section lengths multiplied by ``kappa``; areas kept."""
    back, front = config.sections
    return TubeConfig.two_tube(back.length * kappa, front.length * kappa, back.area,
                               front.area, config.speed_of_sound)


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


@dataclass(frozen=True)
class QuadraticLogWarp(Warp):
    """Warp ``nu = p*ln(f) + q*ln(f)**2``, a test warp with a domain floor.

    Increasing only for ``ln f > -p/(2q)``, so the domain floor is
    ``exp(-p/(2q))``.
    """

    linear_coeff: float = 0.9
    quadratic_coeff: float = 0.6

    kind = "quadratic_log"

    def __post_init__(self):
        if self.linear_coeff <= 0 or self.quadratic_coeff <= 0:
            raise ValueError("both coefficients must be > 0")

    @property
    def f_min(self) -> float:
        return float(np.exp(-self.linear_coeff / (2.0 * self.quadratic_coeff)))

    def _forward(self, arr):
        u = np.log(arr)
        return self.linear_coeff * u + self.quadratic_coeff * u * u

    def _backward(self, arr):
        # positive branch of the quadratic in ln f
        p, q = self.linear_coeff, self.quadratic_coeff
        u = (-p + np.sqrt(p * p + 4.0 * q * arr)) / (2.0 * q)
        return np.exp(u)

    def _check_frequency(self, arr):
        super()._check_frequency(arr)
        if arr.size and np.any(arr <= self.f_min):
            raise DomainError(f"frequencies must exceed {self.f_min:.6g} Hz for this warp")

    def _check_scale(self, arr):
        super()._check_scale(arr)
        nu_min = -self.linear_coeff**2 / (4.0 * self.quadratic_coeff)
        if arr.size and np.any(arr <= nu_min):
            raise DomainError(f"scale values must exceed {nu_min:.6g} for this warp")


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


def _split_id(column_map, token: str):
    """Returns (speaker_id, vowel, group_or_None) from one id cell by ``id_regex``."""
    match = re.match(column_map.id_regex, token)
    if match is None:
        return None, None, None
    parts = match.groupdict()
    group = parts.get("group")
    speaker = (group or "") + parts["speaker"]
    return speaker, parts["vowel"], group


def reference_assemble(rows, column_map, source: str) -> Corpus:
    """The parsers' row validation, one row at a time.

    ``rows`` holds (line_no, id_cell, vowel_cell, group_cell, formant_cells)
    per row in file order, with ``formant_cells`` None for a row too short for
    the mapped columns. Each row's formants are checked with numpy reductions
    and each kept token is a validated ``FormantSet``.
    """
    issues: list[RowIssue] = []
    tokens: dict[str, list[FormantSet]] = {}
    groups: dict[str, str | None] = {}

    for line_no, id_cell, vowel_cell, group_cell, formant_cells in rows:
        if formant_cells is None:
            issues.append(RowIssue(line_no, "row too short for the mapped columns"))
            continue
        speaker_id, id_vowel, id_group = (
            _split_id(column_map, id_cell) if column_map.id_regex else (id_cell, None, None)
        )
        if speaker_id is None:
            issues.append(RowIssue(line_no, f"id {id_cell!r} does not match id_regex"))
            continue
        if not speaker_id:
            issues.append(RowIssue(line_no, "row has no speaker id"))
            continue
        vowel = vowel_cell if vowel_cell is not None else id_vowel
        if not vowel:
            issues.append(RowIssue(line_no, "row has no vowel label"))
            continue

        values = []
        bad = None
        for cell in formant_cells:
            try:
                values.append(float(cell))
            except (TypeError, ValueError):
                bad = f"non-numeric formant value {cell!r}"
                break
        if bad:
            issues.append(RowIssue(line_no, bad))
            continue
        if any(v == column_map.missing_sentinel for v in values):
            issues.append(
                RowIssue(line_no, f"missing formant (sentinel {column_map.missing_sentinel:g})")
            )
            continue
        arr = np.asarray(values)
        if not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            issues.append(RowIssue(line_no, f"non-positive formant in {values}"))
            continue
        if not np.all(np.diff(arr) > 0):
            issues.append(RowIssue(line_no, f"non-ascending formants {values}"))
            continue

        group = group_cell if group_cell is not None else _group_from_rule(
            column_map, speaker_id, id_group
        )
        tokens.setdefault(speaker_id, []).append(
            FormantSet(speaker_id=speaker_id, vowel=vowel, formants=tuple(values))
        )
        if speaker_id not in groups or groups[speaker_id] in (None, ""):
            groups[speaker_id] = group or None

    if not tokens:
        raise CorpusError(f"{source}: no valid rows")

    records = tuple(
        SpeakerRecord(speaker_id=sid, group=groups[sid], tokens=tuple(tokens[sid]))
        for sid in sorted(tokens)
    )
    corpus = Corpus(
        _token_table(records),
        tuple(r.group for r in records),
        provenance={"source": source, "column_map_digest": column_map.digest()},
        diagnostics=tuple(issues),
    )
    corpus.__dict__["records"] = records  # the records built here, not the table's view
    return corpus


def _canonicalize(value, path="$"):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite float at {path}")
        return float(format(value, ".9g"))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return _canonicalize(value.tolist(), path)
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ValueError(f"non-string key {key!r} at {path}")
            out[key] = _canonicalize(value[key], f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v, f"{path}[{i}]") for i, v in enumerate(value)]
    raise ValueError(f"cannot serialize {type(value).__name__} at {path}")


def reference_canonical_json(data) -> str:
    """``canonical_json`` by way of a canonical copy of ``data`` and ``json.dumps``."""
    return json.dumps(_canonicalize(data), sort_keys=True, indent=2, allow_nan=False)
