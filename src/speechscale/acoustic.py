"""Concatenated-tube vocal tract models: resonance condition and formant synthesis."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_SPEED_OF_SOUND = 350.0


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
        formants = tuple(float(f) for f in self.formants)
        object.__setattr__(self, "formants", formants)
        arr = np.asarray(formants, dtype=float)
        if arr.size:
            if not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
                raise ValueError(f"formants must be positive and finite, got {formants}")
            if not np.all(np.diff(arr) > 0):
                raise ValueError(f"formants must be strictly ascending, got {formants}")

    def __len__(self) -> int:
        return len(self.formants)


def characteristic(config: TubeConfig, f):
    """Signed resonance residual of a two-section tube at frequency ``f`` in Hz.

    The residual is the series impedance balance at the junction,
    ``A2*cot(k*L1) - A1*tan(k*L2)`` with ``k = 2*pi*f/c`` (glottis end closed,
    lip end open; a wide lip section therefore raises the first resonance).
    Its zero crossings, excluding the poles of cot/tan, are the model's
    resonances. Accepts a scalar or an array of frequencies.
    """
    if len(config.sections) != 2:
        raise ValueError(
            f"characteristic is defined for exactly two sections, got {len(config.sections)}"
        )
    arr = np.asarray(f, dtype=float)
    if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
        raise ValueError("frequencies must be positive and finite")
    back, front = config.sections
    k = 2.0 * np.pi * arr / config.speed_of_sound
    x1 = k * back.length
    x2 = k * front.length
    res = front.area * (np.cos(x1) / np.sin(x1)) - back.area * np.tan(x2)
    return float(res) if np.ndim(f) == 0 else res


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


def formants(
    config: TubeConfig,
    count: int = 3,
    f_max: float = 8000.0,
    *,
    speaker_id: str = "tube",
    vowel: str = "aa",
    scan_step: float = 1.0,
    tol: float = 0.01,
) -> FormantSet:
    """Lowest ``count`` resonances of the two-section model below ``f_max``.

    Scans the characteristic on a ``scan_step`` Hz grid, keeps the sign
    changes that are actual zero crossings (crossings across a cot/tan pole
    are screened out), and refines each root by bisection to an absolute
    tolerance of ``tol`` Hz. If the ceiling cuts the list short, the partial
    ascending list is returned and an ``IncompleteScanWarning`` is issued.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not (np.isfinite(f_max) and f_max > 0):
        raise ValueError(f"f_max must be > 0, got {f_max!r}")
    if scan_step <= 0 or tol <= 0:
        raise ValueError("scan_step and tol must be > 0")

    def func(f):
        return characteristic(config, f)

    grid = np.arange(scan_step, f_max + 0.5 * scan_step, scan_step)
    vals = characteristic(config, grid)
    signs = np.sign(vals)

    roots: list[float] = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0)):
        if vals[i] == 0.0:
            # A finite value of exactly zero can only be a root; poles blow up.
            roots.append(float(grid[i]))
        else:
            x = _bisect(func, float(grid[i]), float(grid[i + 1]), tol)
            if _is_zero_crossing(func, x, tol):
                roots.append(x)
        if len(roots) >= count:
            break
    if vals[-1] == 0.0 and len(roots) < count:
        roots.append(float(grid[-1]))

    if len(roots) < count:
        warnings.warn(
            f"only {len(roots)} of {count} resonances found below {f_max} Hz",
            IncompleteScanWarning,
            stacklevel=2,
        )
    return FormantSet(speaker_id=speaker_id, vowel=vowel, formants=tuple(roots))


def scale_tract(config: TubeConfig, kappa: float, which: str = "all") -> TubeConfig:
    """Copy of ``config`` with selected section lengths multiplied by ``kappa``.

    ``which="all"`` rescales the whole tract, ``"oral_only"`` rescales just
    the lip-end section. Areas are never touched.
    """
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be > 0, got {kappa!r}")
    if which not in ("all", "oral_only"):
        raise ValueError(f"which must be 'all' or 'oral_only', got {which!r}")
    sections = list(config.sections)
    targets = range(len(sections)) if which == "all" else [len(sections) - 1]
    for i in targets:
        sections[i] = TubeSection(sections[i].length * kappa, sections[i].area)
    return TubeConfig(tuple(sections), config.speed_of_sound)


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
    tol: float = 0.01,
) -> list[FormantSet]:
    """Formant sets for a seeded population of tracts differing in cavity length.

    Lip-end cavity lengths are drawn uniformly from ``oral_length_range``
    (meters). With ``vary="oral_only"`` the glottis-end section and all areas
    stay fixed; with ``vary="all"`` the whole tract is rescaled so the lip-end
    section hits the sampled length (pure homothety, formants scale inversely).
    The same seed always reproduces the same population.
    """
    lo, hi = float(oral_length_range[0]), float(oral_length_range[1])
    if speaker_count < 2:
        raise ValueError(f"a population needs at least 2 speakers, got {speaker_count}")
    if not (0 < lo <= hi) or not np.isfinite(hi):
        raise ValueError(f"invalid oral length range [{lo}, {hi}]")
    if formant_count < 2:
        raise ValueError(f"formant_count must be >= 2, got {formant_count}")
    if vary not in ("oral_only", "all"):
        raise ValueError(f"vary must be 'oral_only' or 'all', got {vary!r}")

    rng = np.random.default_rng(seed)
    lengths = rng.uniform(lo, hi, speaker_count)
    width = max(2, len(str(speaker_count - 1)))

    population: list[FormantSet] = []
    for i, length in enumerate(lengths):
        if vary == "oral_only":
            sections = base.sections[:-1] + (TubeSection(float(length), base.sections[-1].area),)
            cfg = TubeConfig(sections, base.speed_of_sound)
        else:
            cfg = scale_tract(base, float(length) / base.sections[-1].length, "all")
        population.append(
            formants(
                cfg,
                formant_count,
                f_max,
                speaker_id=f"s{i:0{width}d}",
                vowel=vowel,
                tol=tol,
            )
        )
    return population
