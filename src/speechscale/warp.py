"""Frequency-warping functions: identity, log, and piecewise-log maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """A frequency or scale value falls outside a warp's valid domain."""


def _restore(out: np.ndarray, template):
    return float(out) if np.ndim(template) == 0 else out


class Warp:
    """Strictly increasing map between frequency in Hz and scale units.

    Subclasses implement ``_forward``/``_backward`` on float arrays and the
    domain checks. ``warp(f)`` evaluates the scale, ``warp.inverse(nu)`` maps
    back; both accept scalars or arrays and round-trip to within a relative
    1e-9.
    """

    kind = ""

    def __call__(self, f):
        arr = np.asarray(f, dtype=float)
        self._check_frequency(arr)
        return _restore(self._forward(arr), f)

    def inverse(self, nu):
        arr = np.asarray(nu, dtype=float)
        self._check_scale(arr)
        return _restore(self._backward(arr), nu)

    def descriptor(self) -> dict:
        """JSON-ready summary of the warp (kind plus parameters)."""
        return {"kind": self.kind}

    # subclass hooks
    def _forward(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _backward(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_frequency(self, arr: np.ndarray) -> None:
        if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            raise DomainError("frequencies must be positive and finite")

    def _check_scale(self, arr: np.ndarray) -> None:
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError("scale values must be finite")


@dataclass(frozen=True)
class IdentityWarp(Warp):
    """No-op warp (scale value is the raw frequency in Hz)."""

    kind = "identity"

    def _forward(self, arr):
        return arr.copy()

    def _backward(self, arr):
        return arr.copy()

    def _check_scale(self, arr):
        if arr.size and not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            raise DomainError("identity warp takes positive scale values")


@dataclass(frozen=True)
class LogWarp(Warp):
    """Natural-log warp; frequency ratios become additive shifts."""

    kind = "log"

    def _forward(self, arr):
        return np.log(arr)

    def _backward(self, arr):
        return np.exp(arr)


@dataclass(frozen=True)
class BandPartition:
    """Ascending frequency-band boundaries in Hz; band ``l`` is [b_l, b_{l+1})."""

    boundaries: tuple[float, ...]

    def __post_init__(self):
        boundaries = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", boundaries)
        arr = np.asarray(boundaries, dtype=float)
        if arr.size < 2:
            raise ValueError("a partition needs at least two boundaries")
        if not (np.all(np.isfinite(arr)) and arr[0] > 0):
            raise ValueError(f"boundaries must be positive and finite, got {boundaries}")
        if not np.all(np.diff(arr) > 0):
            raise ValueError(f"boundaries must be strictly ascending, got {boundaries}")

    @property
    def n_bands(self) -> int:
        return len(self.boundaries) - 1

    @property
    def f_min(self) -> float:
        return self.boundaries[0]

    @property
    def f_max(self) -> float:
        return self.boundaries[-1]

    def contains(self, f) -> np.ndarray:
        arr = np.asarray(f, dtype=float)
        return (arr >= self.f_min) & (arr <= self.f_max)

    def band_index(self, f):
        """Band number (0-based) per frequency; endpoints clamp into the edge bands."""
        arr = np.asarray(f, dtype=float)
        idx = np.searchsorted(self.boundaries, arr, side="right") - 1
        idx = np.clip(idx, 0, self.n_bands - 1)
        return int(idx) if np.ndim(f) == 0 else idx

    def band_labels(self) -> tuple[str, ...]:
        b = self.boundaries
        return tuple(f"{b[i]:g}-{b[i + 1]:g}Hz" for i in range(self.n_bands))


@dataclass(frozen=True)
class PiecewiseWarp(Warp):
    """Continuous piecewise-log warp with per-band slope ``1/beta_l``.

    Within band ``l``: ``nu(f) = offset_l + (1/beta_l) * (ln f - ln b_l)``,
    with offsets chained so the map is continuous and anchored at
    ``nu(b_0) = 0``. Evaluation outside [b_0, b_L] raises DomainError unless
    ``extrapolate`` is set, which extends the first/last slope.
    """

    partition: BandPartition
    betas: tuple[float, ...]
    extrapolate: bool = False
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _offsets: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _boundary_nu: tuple[float, ...] = field(init=False, repr=False, compare=False)

    kind = "piecewise"

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        if len(betas) != self.partition.n_bands:
            raise ValueError(
                f"{len(betas)} betas for {self.partition.n_bands} bands"
            )
        arr = np.asarray(betas, dtype=float)
        if not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            raise ValueError(f"betas must be positive and finite, got {betas}")
        slopes = 1.0 / arr
        log_b = np.log(self.partition.boundaries)
        # chain offsets so the value at each interior boundary agrees from both sides
        boundary_nu = np.concatenate([[0.0], np.cumsum(slopes * np.diff(log_b))])
        object.__setattr__(self, "_slopes", tuple(slopes))
        object.__setattr__(self, "_offsets", tuple(boundary_nu[:-1]))
        object.__setattr__(self, "_boundary_nu", tuple(boundary_nu))

    @property
    def nu_min(self) -> float:
        return self._boundary_nu[0]

    @property
    def nu_max(self) -> float:
        return self._boundary_nu[-1]

    def with_extrapolation(self, extrapolate: bool = True) -> "PiecewiseWarp":
        return PiecewiseWarp(self.partition, self.betas, extrapolate)

    def descriptor(self) -> dict:
        return {"kind": self.kind, **self.to_dict()}

    def to_dict(self) -> dict:
        """Canonical JSON form; slopes and offsets are always recomputed on load."""
        return {
            "boundaries_hz": list(self.partition.boundaries),
            "betas": list(self.betas),
            "anchor_hz": self.partition.f_min,
        }

    @classmethod
    def from_dict(cls, data: dict, extrapolate: bool = False) -> "PiecewiseWarp":
        try:
            boundaries = tuple(data["boundaries_hz"])
            betas = tuple(data["betas"])
            anchor = float(data["anchor_hz"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed piecewise warp document: {exc}") from exc
        partition = BandPartition(boundaries)
        if not np.isclose(anchor, partition.f_min, rtol=1e-9, atol=0.0):
            raise ValueError(
                f"anchor_hz {anchor} does not match first boundary {partition.f_min}"
            )
        return cls(partition, betas, extrapolate)

    def _forward(self, arr):
        idx = self.partition.band_index(arr)
        b = np.asarray(self.partition.boundaries)
        s = np.asarray(self._slopes)
        off = np.asarray(self._offsets)
        return off[idx] + s[idx] * (np.log(arr) - np.log(b[idx]))

    def _backward(self, arr):
        bnu = np.asarray(self._boundary_nu)
        b = np.asarray(self.partition.boundaries)
        s = np.asarray(self._slopes)
        idx = np.clip(np.searchsorted(bnu, arr, side="right") - 1, 0, self.partition.n_bands - 1)
        f = b[idx] * np.exp((arr - bnu[idx]) / s[idx])
        # keep boundary images exact, including the top one
        return np.where(arr == bnu[-1], b[-1], f)

    def _check_frequency(self, arr):
        super()._check_frequency(arr)
        if self.extrapolate or not arr.size:
            return
        if np.any(arr < self.partition.f_min) or np.any(arr > self.partition.f_max):
            raise DomainError(
                f"frequency outside warp domain [{self.partition.f_min:g}, "
                f"{self.partition.f_max:g}] Hz (use extrapolate to extend)"
            )

    def _check_scale(self, arr):
        super()._check_scale(arr)
        if self.extrapolate or not arr.size:
            return
        if np.any(arr < self.nu_min) or np.any(arr > self.nu_max):
            raise DomainError(
                f"scale value outside warp range [{self.nu_min:g}, {self.nu_max:g}]"
            )


def build_piecewise(betas, partition: BandPartition) -> PiecewiseWarp:
    """Piecewise-log warp with slopes ``1/beta_l``, continuous and anchored at 0."""
    return PiecewiseWarp(partition=partition, betas=tuple(betas))
