"""Concatenated-tube vocal tract models: resonance condition and formant synthesis."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_SPEED_OF_SOUND = 350.0
# the root search: a 1 Hz grid scan, then 7 halvings of its cell to a 0.01 Hz bracket
SCAN_STEP_HZ = 1.0
BRACKET_HZ = 0.01


class IncompleteScanWarning(UserWarning):
    """Fewer resonances than requested were found below the scan ceiling."""


@dataclass(frozen=True)
class TubeSection:
    """A uniform tube segment: ``length`` in meters, ``area`` in cm^2."""

    length: float
    area: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"section length must be > 0, got {self.length!r}")
        if not (np.isfinite(self.area) and self.area > 0):
            raise ValueError(f"section area must be > 0, got {self.area!r}")


@dataclass(frozen=True)
class TubeConfig:
    """Tube sections ordered from glottis to lips, plus the speed of sound in m/s.

    Areas only ever enter the resonance condition as a ratio, so the cm^2
    unit cancels; lengths are in meters.
    """

    sections: tuple[TubeSection, ...]
    speed_of_sound: float = DEFAULT_SPEED_OF_SOUND

    def __post_init__(self) -> None:
        object.__setattr__(self, "sections", tuple(self.sections))
        if not self.sections:
            raise ValueError("config needs at least one tube section")
        if not (np.isfinite(self.speed_of_sound) and self.speed_of_sound > 0):
            raise ValueError(f"speed of sound must be > 0, got {self.speed_of_sound!r}")

    @classmethod
    def two_tube(
        cls,
        back_length: float,
        front_length: float,
        back_area: float = 1.0,
        front_area: float = 1.0,
        speed_of_sound: float = DEFAULT_SPEED_OF_SOUND,
    ) -> "TubeConfig":
        """Back (pharyngeal) cavity followed by front (oral) cavity."""
        return cls(
            sections=(
                TubeSection(back_length, back_area),
                TubeSection(front_length, front_area),
            ),
            speed_of_sound=speed_of_sound,
        )

    @property
    def total_length(self) -> float:
        return sum(s.length for s in self.sections)


@dataclass(frozen=True)
class FormantSet:
    """One speaker's resonant frequencies (Hz, strictly ascending) for one vowel token."""

    speaker_id: str
    vowel: str
    formants: tuple[float, ...]

    def __post_init__(self) -> None:
        formants = tuple(map(float, self.formants))
        object.__setattr__(self, "formants", formants)
        if not all(0.0 < f < np.inf for f in formants):
            raise ValueError(f"formants must be positive and finite, got {formants}")
        if not all(a < b for a, b in zip(formants, formants[1:])):
            raise ValueError(f"formants must be strictly ascending, got {formants}")

    @classmethod
    def _trusted(cls, speaker_id: str, vowel: str, formants: tuple[float, ...]) -> "FormantSet":
        """A token whose formants the caller has checked: floats, positive, finite, ascending."""
        token = object.__new__(cls)
        object.__setattr__(token, "speaker_id", speaker_id)
        object.__setattr__(token, "vowel", vowel)
        object.__setattr__(token, "formants", formants)
        return token

    def __len__(self) -> int:
        return len(self.formants)


def _two_sections(config: TubeConfig) -> tuple[TubeSection, ...]:
    if len(config.sections) != 2:
        raise ValueError(f"the model needs exactly two sections, got {len(config.sections)}")
    return config.sections


def characteristic(config: TubeConfig, f):
    """Signed resonance residual of a two-section tube at frequency ``f`` in Hz.

    The residual is the series impedance balance at the junction,
    ``A2*cot(x1) - A1*tan(x2)`` with ``x_i = 2*pi*f*L_i/c`` (glottis end
    closed, lip end open; a wide lip section therefore raises the first
    resonance). Multiplied by ``sin(x1)*cos(x2)`` it becomes the pole-free
    residual ``g = (A2-A1)/2*cos(x1-x2) + (A2+A1)/2*cos(x1+x2)`` with the same
    zeros, which is what ``formants`` solves. Accepts a scalar or an array of
    frequencies.
    """
    back, front = _two_sections(config)
    arr = np.asarray(f, dtype=float)
    if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
        raise ValueError("frequencies must be positive and finite")
    k = 2.0 * np.pi * arr / config.speed_of_sound
    x1 = k * back.length
    x2 = k * front.length
    res = front.area * (np.cos(x1) / np.sin(x1)) - back.area * np.tan(x2)
    return float(res) if np.ndim(f) == 0 else res


def _resonances(back_length, front_length, back_area, front_area, speed_of_sound,
                count, f_max) -> np.ndarray:
    """Resonances 1..``count`` of a batch of tracts, one row per tract.

    Lengths are (tracts, 1) columns or scalars; a resonance above the last
    grid point below ``f_max`` is NaN. See ``formants``.
    """
    if not (np.isfinite(f_max) and f_max > 0):
        raise ValueError(f"f_max must be > 0, got {f_max!r}")
    n = np.arange(1, count + 1)
    low_sign = (-1.0) ** (n - 1)  # the sign g(f_{n-1}) keeps up to root n

    def residual(f):
        # g times low_sign: > 0 below root n and < 0 above it, inside its bracket
        k = 2.0 * np.pi * f / speed_of_sound
        x1, x2 = k * back_length, k * front_length
        return low_sign * (0.5 * (front_area - back_area) * np.cos(x1 - x2)
                           + 0.5 * (front_area + back_area) * np.cos(x1 + x2))

    grid = np.arange(0.0, f_max + 0.5 * SCAN_STEP_HZ, SCAN_STEP_HZ)
    period = speed_of_sound / (2.0 * (back_length + front_length))
    # grid[lo] lies below root n and grid[hi] above it (hi == grid.size: above f_max)
    lo = np.searchsorted(grid, (n - 1) * period, side="right") - 1
    hi = np.searchsorted(grid, n * period)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        above = (residual(grid[mid]) <= 0.0) & (hi - lo > 1)
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)

    active = found = hi < grid.size
    lo_f, hi_f = grid[lo], grid[np.minimum(hi, grid.size - 1)]
    while (active := active & (hi_f - lo_f >= BRACKET_HZ)).any():
        mid = 0.5 * (lo_f + hi_f)
        res = residual(mid)
        active = active & (res != 0.0)
        lo_f = np.where(active & (res > 0.0), mid, lo_f)
        hi_f = np.where(active & (res < 0.0), mid, hi_f)
    return np.where(found, 0.5 * (lo_f + hi_f), np.nan)


def _warn_incomplete(roots, f_max, stacklevel):
    """Each row's count of roots found (NaNs, roots above the scan, trail them),
    with a warning ``stacklevel`` frames above the caller for each short row."""
    found = np.count_nonzero(~np.isnan(roots), axis=1)
    for n in found[found < roots.shape[1]].tolist():
        warnings.warn(f"only {n} of {roots.shape[1]} resonances found below {f_max} Hz",
                      IncompleteScanWarning, stacklevel=stacklevel + 1)
    return found


def formants(
    config: TubeConfig,
    count: int = 3,
    f_max: float = 8000.0,
    *,
    speaker_id: str = "tube",
    vowel: str = "aa",
) -> FormantSet:
    """Lowest ``count`` resonances of the two-section model below ``f_max``.

    The roots are the zeros of the pole-free residual ``g`` (see
    ``characteristic``). With ``f_n = n*c/(2*(L1+L2))``, ``g(f_n)`` has the
    sign of ``(-1)**n`` because ``|A2-A1| < A2+A1``, so resonance ``n`` is the
    one root in ``(f_{n-1}, f_n)``. All roots are bisected at once: first over
    the points of a 1 Hz grid to the grid cell holding the root, then
    inside that cell until the bracket is narrower than 0.01 Hz or
    ``g`` is exactly zero, returning the bracket's midpoint. A root above the
    grid's last point is not reported: the partial ascending list is returned
    and an ``IncompleteScanWarning`` is issued.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    back, front = _two_sections(config)
    roots = _resonances(np.array([[back.length]]), np.array([[front.length]]), back.area,
                        front.area, config.speed_of_sound, count, f_max)
    found = _warn_incomplete(roots, f_max, 2)[0]
    return FormantSet._trusted(speaker_id, vowel, tuple(roots[0, :found].tolist()))


def synth_population(
    base: TubeConfig,
    speaker_count: int,
    oral_length_range: tuple[float, float],
    formant_count: int = 3,
    seed: int = 0,
    *,
    vary: str = "oral_only",
    f_max: float = 8000.0,
    vowel: str = "aa",
) -> list[FormantSet]:
    """Formant sets for a seeded population of tracts differing in cavity length.

    Lip-end cavity lengths are drawn uniformly from ``oral_length_range``
    (meters). With ``vary="oral_only"`` the glottis-end section and all areas
    stay fixed; with ``vary="all"`` the whole tract is rescaled so the lip-end
    section hits the sampled length (pure homothety, formants scale inversely).
    The same seed always reproduces the same population. One lockstep
    bisection (see ``formants``) solves every tract, so each speaker's formants
    equal ``formants`` of its own tract, short ones with a warning each.
    """
    ids, roots = _population(base, speaker_count, oral_length_range, formant_count, seed,
                             vary, f_max)
    found = _warn_incomplete(roots, f_max, 2)
    return [FormantSet._trusted(speaker_id, vowel, tuple(row[:n]))
            for speaker_id, row, n in zip(ids, roots.tolist(), found.tolist())]


def _population(base, speaker_count, oral_length_range, formant_count, seed, vary, f_max):
    """``synth_population`` as the speaker ids and a (speakers, formants) root
    matrix, NaN where a resonance lies above the scan, with no warning."""
    lo, hi = float(oral_length_range[0]), float(oral_length_range[1])
    if speaker_count < 2:
        raise ValueError(f"a population needs at least 2 speakers, got {speaker_count}")
    if not (0 < lo <= hi) or not np.isfinite(hi):
        raise ValueError(f"invalid oral length range [{lo}, {hi}]")
    if formant_count < 2:
        raise ValueError(f"formant_count must be >= 2, got {formant_count}")
    if vary not in ("oral_only", "all"):
        raise ValueError(f"vary must be 'oral_only' or 'all', got {vary!r}")

    back, front = _two_sections(base)
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(lo, hi, (speaker_count, 1))  # the flat draws, as one column
    if vary == "oral_only":
        back_length, front_length = back.length, lengths
    else:
        kappa = lengths / front.length  # every length * kappa, kappa = sampled/front
        back_length, front_length = back.length * kappa, front.length * kappa
    roots = _resonances(back_length, front_length, back.area, front.area,
                        base.speed_of_sound, formant_count, f_max)
    width = max(2, len(str(speaker_count - 1)))
    return [f"s{i:0{width}d}" for i in range(speaker_count)], roots
