"""Per-speaker translation alignment of warped formants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import _subset, _token_table
from .warp import Warp


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Warped-domain alignment of one vowel across a speaker population.

    ``translations`` are the least-squares per-speaker offsets against the
    grand-mean target; ``spread_before``/``spread_after`` are per-formant
    standard deviations across speakers before and after translating.
    """

    vowel: str
    speaker_ids: tuple[str, ...]
    formants_raw_hz: np.ndarray
    formants_warped: np.ndarray
    translations: np.ndarray
    spread_before: np.ndarray
    spread_after: np.ndarray
    warp_descriptor: dict

    @property
    def improvement_ratio(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.spread_after > 0, self.spread_before / self.spread_after, np.inf)

    def to_dict(self) -> dict:
        ratio = [r if np.isfinite(r) else None for r in self.improvement_ratio.tolist()]
        return {
            "vowel": self.vowel,
            "warp_ref": self.warp_descriptor,
            "per_speaker": [
                {"id": sid, "formants_raw_hz": raw, "formants_warped": warped, "alpha": alpha}
                for sid, raw, warped, alpha in zip(
                    self.speaker_ids, self.formants_raw_hz.tolist(),
                    self.formants_warped.tolist(), self.translations.tolist())
            ],
            "spread_before": self.spread_before.tolist(),
            "spread_after": self.spread_after.tolist(),
            "improvement_ratio": ratio,
        }


def best_translation(warped, target) -> np.ndarray:
    """Least-squares translation per speaker onto the target formant values.

    ``warped`` is a speakers-by-formants array of scale values, ``target`` a
    per-formant-index vector. The optimal single offset per speaker is the
    mean of the per-formant differences. With the grand-mean target the
    translations sum to zero.
    """
    arr = np.asarray(warped, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if arr.size == 0:
        raise ValueError("no warped formants given")
    if arr.ndim != 2:
        raise ValueError("warped must be speakers x formants")
    if tgt.shape != (arr.shape[1],):
        raise ValueError(
            f"target has {tgt.shape} values for {arr.shape[1]} formant indices"
        )
    return np.mean(tgt[np.newaxis, :] - arr, axis=1)


def align_population(records, warp: Warp, vowel: str) -> AlignmentResult:
    """Warp one vowel's formants for every speaker and align by translation.

    Each speaker's tokens are aggregated to mean warped values per formant
    index; the alignment target is the grand mean across speakers. Speakers
    lacking the vowel are left out; it is an error if none carry it or if
    formant counts disagree.
    """
    return _align(_token_table(list(records), (vowel,)), warp, vowel)


def _align(table, warp: Warp, vowel: str) -> AlignmentResult:
    """``align_population`` from a ``_token_table``."""
    ids, _, rows, _, hz = _subset(table, (vowel,))
    if not rows.size:
        raise ValueError(f"vowel {vowel!r} is absent from all records")
    counts = np.count_nonzero(~np.isnan(hz), axis=1)
    if np.any(counts != counts[0]):
        raise ValueError(f"formant counts disagree across tokens: {np.unique(counts).tolist()}")

    nu = np.asarray(warp(hz), dtype=float)
    speakers, speaker_of_token = np.unique(rows, return_inverse=True)
    n_tokens = np.bincount(speaker_of_token)[:, np.newaxis]
    # aggregate across repeated tokens: geometric mean in Hz, plain mean in nu
    cells = (speaker_of_token[:, np.newaxis] * hz.shape[1] + np.arange(hz.shape[1])).ravel()
    log_sum, nu_sum = (np.bincount(cells, w.ravel(), speakers.size * hz.shape[1])
                       .reshape(speakers.size, -1) for w in (np.log(hz), nu))
    raw = np.exp(log_sum / n_tokens)
    warped = nu_sum / n_tokens

    target = np.mean(warped, axis=0)
    alphas = best_translation(warped, target)
    aligned = warped + alphas[:, np.newaxis]
    return AlignmentResult(
        vowel=vowel,
        speaker_ids=tuple(ids[row] for row in speakers),
        formants_raw_hz=raw,
        formants_warped=warped,
        translations=alphas,
        spread_before=np.std(warped, axis=0),
        spread_after=np.std(aligned, axis=0),
        warp_descriptor=warp.descriptor(),
    )
