"""Band-exponent estimation from multi-speaker formant data.

The model: within frequency band ``l`` the formants of speaker A are those of
the reference scaled by ``gamma_A ** beta_l``. In the log domain this makes
the speakers-by-bands shift matrix rank one, ``delta[A, l] = beta_l * c_A``,
which is fit by masked alternating least squares. Slopes ``1/beta_l`` then
define a continuous piecewise-log warp under which speakers differ only by
translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acoustic import FormantSet
from .warp import BandPartition, PiecewiseWarp, build_piecewise

GRAND_MEAN = "grand_mean"

DEGENERATE_RMS = 1e-12


class EstimationError(ValueError):
    """The estimator cannot produce a valid scale from the given data."""


class DegenerateDataError(EstimationError):
    """Input carries no usable speaker variation."""


@dataclass(frozen=True)
class SpeakerRecord:
    """All formant tokens of one speaker, optionally tagged with a group label."""

    speaker_id: str
    group: str | None = None
    tokens: tuple[FormantSet, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError(f"speaker {self.speaker_id!r} has no tokens")
        for token in self.tokens:
            if len(token.formants) < 1:
                raise ValueError(f"speaker {self.speaker_id!r} has an empty token")
            if token.speaker_id != self.speaker_id:
                raise ValueError(
                    f"token speaker {token.speaker_id!r} does not match record "
                    f"{self.speaker_id!r}"
                )

    def vowels(self) -> tuple[str, ...]:
        return tuple(sorted({t.vowel for t in self.tokens}))


@dataclass(frozen=True, eq=False)
class ShiftMatrix:
    """Per-speaker, per-band mean log-frequency shifts (nepers) vs. a reference.

    ``mask`` is True where a shift could be computed; ``values`` is undefined
    (zero-filled) elsewhere.
    """

    speaker_ids: tuple[str, ...]
    band_labels: tuple[str, ...]
    values: np.ndarray
    mask: np.ndarray
    reference: str = GRAND_MEAN

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if values.shape != (len(self.speaker_ids), len(self.band_labels)):
            raise ValueError(f"values shape {values.shape} does not match labels")
        if mask.shape != values.shape:
            raise ValueError("mask shape must match values")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def observed_rms(self) -> float:
        if not self.mask.any():
            return 0.0
        return float(np.sqrt(np.mean(self.values[self.mask] ** 2)))


@dataclass(frozen=True, eq=False)
class Rank1Result:
    """Masked rank-1 factorization output with its convergence trace."""

    betas: np.ndarray
    speaker_factors: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    objective_history: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ScaleEstimate:
    """Estimated band exponents, speaker factors, and the resulting warp."""

    betas: tuple[float, ...]
    speaker_factors: dict[str, float]
    residual_rms: float
    partition: BandPartition
    warp: PiecewiseWarp
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "betas": list(self.betas),
            "speaker_factors": dict(self.speaker_factors),
            "residual_rms": self.residual_rms,
            "partition": list(self.partition.boundaries),
            "warp": self.warp.to_dict(),
            "provenance": self.provenance,
        }


def _select_vowels(table, vowels):
    """The selected vowels (default: all) and the ``_subset`` of their tokens."""
    selected = table[1] if vowels is None else tuple(dict.fromkeys(vowels))  # order kept, no dups
    if not selected:
        raise ValueError("empty vowel selection")
    missing = [v for v in selected if v not in table[1]]
    if missing:
        raise ValueError(f"vowels not present in any record: {missing}")
    return selected, _subset(table, selected)


def _token_table(records, vowels=None):
    """The tokens of ``vowels`` (default: every vowel, sorted) as a table.

    The table is ``(speaker_ids, vowels, rows, vowel_index, hz)``: the id of
    each record, the vowels, and per token in record and token order the row
    of its speaker, the index of its vowel and its formants in Hz, padded
    with NaN to the largest count.
    """
    if vowels is None:
        vowels = sorted({t.vowel for r in records for t in r.tokens})
    column = {v: j for j, v in enumerate(vowels)}
    tokens = [(row, t) for row, r in enumerate(records) for t in r.tokens if t.vowel in column]
    rows = np.fromiter((row for row, _ in tokens), int, len(tokens))
    vowel_index = np.fromiter((column[t.vowel] for _, t in tokens), int, len(tokens))
    counts = np.fromiter((len(t.formants) for _, t in tokens), int, len(tokens))
    hz = np.full((len(tokens), counts.max(initial=0)), np.nan)
    hz[np.arange(hz.shape[1]) < counts[:, np.newaxis]] = np.fromiter(
        (f for _, t in tokens for f in t.formants), float, counts.sum()
    )
    return tuple(r.speaker_id for r in records), tuple(vowels), rows, vowel_index, hz


def _subset(table, vowels):
    """The tokens of ``vowels`` in a ``_token_table`` whose vowels are sorted,
    as a table over the sorted ``vowels``, in the same token order."""
    ids, available, rows, vowel_index, hz = table
    vowels = tuple(sorted(vowels))
    if vowels == available:
        return table
    at = [available.index(v) for v in vowels if v in available]
    keep = np.isin(vowel_index, at)
    hz = hz[keep][:, ~np.isnan(hz[keep]).all(axis=0)]  # no padding that no token needs
    return ids, vowels, rows[keep], np.searchsorted(at, vowel_index[keep]), hz


def choose_partition(
    records,
    vowels=None,
    mode: str = "per_formant_index",
    *,
    boundaries=None,
) -> BandPartition:
    """Frequency-band boundaries for shift estimation.

    ``per_formant_index`` mode builds one band per formant index: interior
    boundaries sit at the geometric midpoints of adjacent grand-mean formant
    frequencies (log-domain means), outer boundaries at half the first mean
    and twice the last. ``explicit`` mode validates and returns ``boundaries``
    unchanged.
    """
    table = None
    if mode == "per_formant_index":
        if not records:
            raise ValueError("no records given")
        table = _select_vowels(_token_table(records), vowels)[1]
    return _partition(table, mode, boundaries)


def _partition(table, mode: str, boundaries) -> BandPartition:
    """``choose_partition`` from a ``_token_table`` of the selected vowels."""
    if mode == "explicit":
        if boundaries is None:
            raise ValueError("explicit mode requires boundaries")
        return BandPartition(tuple(float(b) for b in boundaries))
    if mode != "per_formant_index":
        raise ValueError(f"unknown partition mode {mode!r}")
    hz = table[4]
    if not len(hz):
        raise ValueError("no tokens match the vowel selection")
    counts = np.count_nonzero(~np.isnan(hz), axis=1)
    if np.any(counts != counts[0]):
        raise ValueError(
            "per-formant-index bands need a uniform formant count, "
            f"got {np.unique(counts).tolist()}"
        )
    # contiguous rows, so each mean adds the tokens up as a mean of a list does
    means = np.exp(np.mean(np.log(hz.T.copy()), axis=1))
    interior = np.sqrt(means[:-1] * means[1:])
    bounds = np.concatenate([[means[0] / 2.0], interior, [2.0 * means[-1]]])
    return BandPartition(tuple(bounds))


def compute_shifts(
    records,
    vowels=None,
    partition: BandPartition | None = None,
    reference: str = GRAND_MEAN,
) -> ShiftMatrix:
    """Speakers-by-bands matrix of mean log-frequency shifts vs. the reference.

    Token frequencies are first aggregated to a mean log frequency per
    (speaker, vowel, formant index). The reference value per key is either the
    mean over speakers (grand-mean reference) or one speaker's own value. A
    key's band is decided by the *reference* frequency, so a shifted speaker
    cannot change its own band assignment. Entries with no contributing keys
    are masked out.
    """
    records = list(records)
    if not records:
        raise ValueError("no records given")
    selected, table = _select_vowels(_token_table(records), vowels)
    if partition is None:
        partition = _partition(table, "per_formant_index", None)
    return _shifts(table, selected, partition, reference)


def _shifts(table, selected, partition: BandPartition, reference: str) -> ShiftMatrix:
    """``compute_shifts`` from a ``_token_table`` of the ``selected`` vowels."""
    ids, vowels, rows, vowel_index, hz = table
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate speaker ids")

    # mean ln(frequency) per speaker (row) and key (column); a key is a
    # (vowel, formant index) pair, and the columns are in sorted key order
    cells = ((rows * len(vowels) + vowel_index)[:, np.newaxis] * hz.shape[1]
             + np.arange(hz.shape[1])).ravel()
    n_obs, log_sum = (np.bincount(cells, w.ravel(), len(ids) * len(vowels) * hz.shape[1])
                      .reshape(len(ids), -1) for w in (~np.isnan(hz), np.nan_to_num(np.log(hz))))
    has = n_obs > 0
    lacking = ~has.any(axis=1)
    if lacking.any():
        sid = ids[np.argmax(lacking)]
        raise ValueError(f"speaker {sid!r} has no tokens for vowels {list(selected)}")
    table = np.divide(log_sum, n_obs, out=np.zeros_like(log_sum), where=has)

    if reference == GRAND_MEAN:
        ref_log = np.array([
            np.mean(column[hit]) if hit.any() else np.nan
            for column, hit in zip(table.T, has.T)
        ])
    else:
        if reference not in ids:
            raise ValueError(f"reference speaker {reference!r} not in records")
        row = ids.index(reference)
        ref_log = np.where(has[row], table[row], np.nan)

    used = partition.contains(np.exp(ref_log))  # False for keys without a reference
    bands = partition.band_index(np.exp(ref_log[used]))
    # each (speaker, band) sum adds the speaker's shifts in sorted key order
    cells = (np.arange(len(ids))[:, np.newaxis] * partition.n_bands + bands).ravel()
    sums, counts = (np.bincount(cells, w[:, used].ravel(), len(ids) * partition.n_bands)
                    .reshape(len(ids), -1) for w in (np.where(has, table - ref_log, 0.0), has))

    mask = counts > 0
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=mask)
    return ShiftMatrix(
        speaker_ids=tuple(ids),
        band_labels=partition.band_labels(),
        values=values,
        mask=mask,
        reference=reference,
    )


def rank1_factor(
    shifts: ShiftMatrix,
    max_iters: int = 500,
    tol: float = 1e-12,
) -> Rank1Result:
    """Masked rank-1 least squares: find beta, c minimizing the observed
    squared error of ``delta[A, l] ~= beta_l * c_A``.

    Alternating least squares from an all-ones beta; each update is the exact
    per-row/per-column solve, so the objective never increases. Afterwards the
    factors are rescaled to mean(beta) = 1 (with the compensating change to c)
    and sign-flipped so the betas sum positive.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    delta = shifts.values
    mask = shifts.mask
    n_rows, n_cols = delta.shape
    if np.count_nonzero(mask.any(axis=0)) < 2:
        raise EstimationError("need at least 2 bands with data")
    if np.count_nonzero(mask.any(axis=1)) < 2:
        raise EstimationError("need at least 2 speakers with data")
    empty = [label for label, seen in zip(shifts.band_labels, mask.any(axis=0)) if not seen]
    if empty:
        raise EstimationError(
            f"no speaker has a shift in band(s) {', '.join(empty)} against reference "
            f"{shifts.reference!r}; no key of the reference has its mean frequency there"
        )
    if shifts.observed_rms() < DEGENERATE_RMS:
        raise DegenerateDataError("no speaker variation: shift matrix is numerically zero")

    masked = np.where(mask, delta, 0.0)
    beta = np.ones(n_cols)
    c = np.zeros(n_rows)

    def objective() -> float:
        resid = masked - np.where(mask, np.outer(c, beta), 0.0)
        return float(np.sum(resid * resid))

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        denom_c = mask @ (beta * beta)
        if np.any(denom_c <= 0):
            raise EstimationError("a speaker row lost all usable bands")
        c = (masked @ beta) / denom_c

        denom_b = (c * c) @ mask
        if not np.all(denom_b > 0):
            raise DegenerateDataError("factorization collapsed: no speaker signal left")
        beta = (c @ masked) / denom_b

        obj = objective()
        history.append(obj)
        if len(history) > 1:
            prev = history[-2]
            if prev - obj <= tol * max(prev, np.finfo(float).tiny):
                converged = True
                break
        if obj == 0.0:
            converged = True
            break

    if np.sum(beta) < 0:
        beta, c = -beta, -c
    scale = float(np.mean(beta))
    if scale == 0.0:
        raise DegenerateDataError("mean band exponent is zero; scale is unidentifiable")
    beta = beta / scale
    c = c * scale

    residual_rms = float(np.sqrt(history[-1] / np.count_nonzero(mask)))
    return Rank1Result(
        betas=beta,
        speaker_factors=c,
        residual_rms=residual_rms,
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
    )


def estimate_scale(
    records,
    vowels=None,
    partition_mode: str = "per_formant_index",
    reference: str = GRAND_MEAN,
    *,
    boundaries=None,
    max_iters: int = 500,
    tol: float = 1e-12,
) -> ScaleEstimate:
    """Full estimation pipeline: partition, shift matrix, rank-1 fit, warp.

    Fails if any estimated band exponent is non-positive, since the warp
    would then not be strictly increasing.
    """
    return _estimate(_token_table(list(records)), vowels, partition_mode, reference, boundaries,
                     max_iters, tol)


def _estimate(table, vowels, partition_mode, reference, boundaries, max_iters, tol):
    """``estimate_scale`` from a ``_token_table`` of every vowel."""
    selected, table = _select_vowels(table, vowels)
    partition = _partition(table, partition_mode, boundaries)
    shifts = _shifts(table, selected, partition, reference)
    fit = rank1_factor(shifts, max_iters=max_iters, tol=tol)
    if np.any(fit.betas <= 0):
        raise EstimationError(
            f"non-monotone scale: estimated band exponents {fit.betas.tolist()} "
            "contain non-positive values"
        )
    warp = build_piecewise(fit.betas, partition)
    return ScaleEstimate(
        betas=tuple(float(b) for b in fit.betas),
        speaker_factors={
            sid: float(cv) for sid, cv in zip(shifts.speaker_ids, fit.speaker_factors)
        },
        residual_rms=fit.residual_rms,
        partition=partition,
        warp=warp,
        provenance={
            "vowels": list(selected),
            "reference": reference,
            "options": {
                "partition_mode": partition_mode,
                "boundaries": None if boundaries is None else [float(b) for b in boundaries],
                "max_iters": max_iters,
                "tol": tol,
            },
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
    )
