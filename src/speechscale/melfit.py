"""Corner-frequency curve fitting: the a*log10(1 + f/b) family and scale comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .warp import Warp

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

DEFAULT_B_RANGE = (50.0, 5000.0)


@dataclass(frozen=True)
class MelParams:
    """Parameters of ``eta = a * log10(1 + f/b)``; ``b`` is the corner in Hz."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.b) and self.b > 0):
            raise ValueError(f"corner frequency b must be > 0, got {self.b!r}")
        if not (np.isfinite(self.a) and self.a != 0):
            raise ValueError(f"scale coefficient a must be nonzero, got {self.a!r}")


#: The formula most commonly used for the perceptual pitch scale.
STANDARD_MEL = MelParams(a=2595.0, b=700.0)


@dataclass(frozen=True)
class MelFitResult:
    """Fit of the corner-frequency form to (frequency, scale-value) samples.

    ``affine`` is the (gain, offset) map applied to the input scale values so
    that ``gain*nu + offset ~= a*log10(1 + f/b)``; it is the identity when the
    fit ran uncalibrated.
    """

    params: MelParams
    affine: tuple[float, float]
    r_squared: float
    rms_error: float

    def to_dict(self) -> dict:
        return {
            "params": {"a": self.params.a, "b": self.params.b},
            "affine": {"gain": self.affine[0], "offset": self.affine[1]},
            "r_squared": self.r_squared,
            "rms_error": self.rms_error,
        }


@dataclass(frozen=True, eq=False)
class ScaleComparison:
    """Affine-calibrated deviation of a warp from a corner-frequency curve."""

    gain: float
    offset: float
    rms_deviation: float
    max_deviation: float
    frequencies: np.ndarray
    nu_calibrated: np.ndarray
    eta_mel: np.ndarray

    @property
    def deviations(self) -> np.ndarray:
        return self.nu_calibrated - self.eta_mel

    def to_dict(self) -> dict:
        table = [
            {"f": f, "nu_calibrated": nu, "eta_mel": eta, "deviation": deviation}
            for f, nu, eta, deviation in zip(self.frequencies.tolist(),
                                             self.nu_calibrated.tolist(),
                                             self.eta_mel.tolist(), self.deviations.tolist())
        ]
        return {
            "gain": self.gain,
            "offset": self.offset,
            "rms_deviation": self.rms_deviation,
            "max_deviation": self.max_deviation,
            "table": table,
        }


def mel_eval(params: MelParams, f):
    """Evaluate ``a * log10(1 + f/b)`` at nonnegative frequencies."""
    arr = np.asarray(f, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ValueError("frequencies must be >= 0 and finite")
    out = params.a * np.log10(1.0 + arr / params.b)
    return float(out) if np.ndim(f) == 0 else out


def _affine_lstsq(x: np.ndarray, y: np.ndarray):
    """Closed-form least squares ``y ~= a*x + c``; None when ``x`` is constant."""
    n = x.size
    sxx = float(x @ x)
    sx = float(np.sum(x))
    sxy = float(x @ y)
    sy = float(np.sum(y))
    det = n * sxx - sx * sx
    if det <= 0:
        return None
    a = (n * sxy - sx * sy) / det
    return a, (sy - a * sx) / n


def _solve_for_b(f: np.ndarray, nu: np.ndarray, b: float, calibrate: bool):
    """Closed-form best (a, offset) at a fixed corner; returns (sse, a, offset)."""
    x = np.log10(1.0 + f / b)
    if calibrate:
        solution = _affine_lstsq(x, nu)
        if solution is None:
            return np.inf, 0.0, 0.0
        a, c = solution
    else:
        sxx = float(x @ x)
        if sxx <= 0:
            return np.inf, 0.0, 0.0
        a = float(x @ nu) / sxx
        c = 0.0
    resid = nu - a * x - c
    return float(resid @ resid), a, c


def _golden_min(fun, lo: float, hi: float, rtol: float = 1e-6) -> float:
    """Deterministic golden-section minimizer on [lo, hi]."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > rtol * 0.5 * (abs(lo) + abs(hi)):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fun(x2)
    return 0.5 * (lo + hi)


def fit_mel(samples, b_range=DEFAULT_B_RANGE, calibrate: bool = True) -> MelFitResult:
    """Fit the corner-frequency form to (f, nu) samples.

    For each candidate corner ``b`` the optimal coefficient ``a`` (and, when
    ``calibrate`` is set, an affine offset soaking up the samples' arbitrary
    anchor) has a closed-form linear least-squares solution; the corner itself
    is located by golden-section search on the residual over ``b_range`` to a
    relative tolerance of 1e-6. Calibration makes the fit invariant to affine
    transforms of the input scale values, whose units and zero point are
    arbitrary.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (f, nu) pairs")
    f, nu = arr[:, 0], arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if np.any(f < 0):
        raise ValueError("sample frequencies must be >= 0")
    if np.unique(f).size < 3:
        raise ValueError("need at least 3 samples with distinct frequencies")
    b_lo, b_hi = float(b_range[0]), float(b_range[1])
    if not (0 < b_lo < b_hi):
        raise ValueError(f"invalid corner search range [{b_lo}, {b_hi}]")
    sst = float(np.sum((nu - np.mean(nu)) ** 2))
    if sst == 0.0:
        raise ValueError("all scale values are equal; nothing to fit")

    b_star = _golden_min(lambda b: _solve_for_b(f, nu, b, calibrate)[0], b_lo, b_hi)
    sse, a, c = _solve_for_b(f, nu, b_star, calibrate)
    if not np.isfinite(sse) or a == 0.0:
        raise ValueError("fit is degenerate over the requested corner range")
    return MelFitResult(
        params=MelParams(a=a, b=b_star),
        affine=(1.0, -c),
        r_squared=1.0 - sse / sst,
        rms_error=float(np.sqrt(sse / f.size)),
    )


def compare_scales(warp: Warp, params: MelParams, grid) -> ScaleComparison:
    """Affinely calibrate warp samples to a corner-frequency curve and measure
    the leftover deviation in the curve's units.
    """
    f = np.asarray(grid, dtype=float)
    if f.size == 0:
        raise ValueError("comparison grid is empty")
    nu = np.asarray(warp(f), dtype=float)
    eta = mel_eval(params, f)

    solution = _affine_lstsq(nu, eta)
    if solution is None:
        raise ValueError("warp samples are constant; cannot calibrate")
    gain, offset = solution

    calibrated = gain * nu + offset
    dev = calibrated - eta
    return ScaleComparison(
        gain=float(gain),
        offset=float(offset),
        rms_deviation=float(np.sqrt(np.mean(dev * dev))),
        max_deviation=float(np.max(np.abs(dev))),
        frequencies=f,
        nu_calibrated=calibrated,
        eta_mel=eta,
    )
