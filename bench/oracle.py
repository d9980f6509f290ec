"""Independent resonance oracle for two-tube tracts.

Resonances are the zeros of the glottis volume velocity obtained by chain-matrix
propagation from the open lip end (p = 0, U = 1) back to the closed glottis.
That function has no poles, so a plain sign-change scan finds every root. The
code shares nothing with ``speechscale.acoustic``: it evaluates neither the
library's characteristic nor its root finder, and it is vectorized over
frequency (and over tracts).
"""

from __future__ import annotations

import numpy as np

SCAN_STEP_HZ = 1.0
ROOT_TOL_HZ = 0.01
#: Largest |library - oracle| in Hz that still counts as agreement. Both sides
#: bisect to 0.01 Hz and the CSV keeps 9 significant digits.
MATCH_TOL_HZ = 0.05
BATCH = 32


def glottis_volume_velocity(sections, speed_of_sound: float, f):
    """Signed glottis volume velocity for lips open, sections glottis to lips.

    ``sections`` is a sequence of ``(length_m, area)`` pairs whose entries may
    be arrays broadcastable against ``f`` (Hz).
    """
    k = 2.0 * np.pi * np.asarray(f, dtype=float) / speed_of_sound
    p = np.zeros(np.shape(k), dtype=complex)
    u = np.ones(np.shape(k), dtype=complex)
    for length, area in reversed(list(sections)):
        kl = k * length
        cos, sin = np.cos(kl), np.sin(kl)
        p, u = cos * p + 1j * sin / area * u, 1j * area * sin * p + cos * u
    # one component is identically zero by the parity of the chain
    return u.real + u.imag


def two_tube_resonances(back_length, front_length, back_area, front_area,
                        f_max: float = 8000.0,
                        speed_of_sound: float = 350.0) -> list[list[float]]:
    """Every resonance below ``f_max`` for each tract of a batch, ascending.

    Geometry arguments are equal-length 1-D arrays, one entry per tract.
    """
    geometry = [np.atleast_1d(np.asarray(g, dtype=float))
                for g in (back_length, front_length, back_area, front_area)]
    grid = np.arange(SCAN_STEP_HZ, f_max + 0.5 * SCAN_STEP_HZ, SCAN_STEP_HZ)
    out: list[list[float]] = []
    for start in range(0, geometry[0].size, BATCH):
        b1, b2, a1, a2 = (g[start:start + BATCH, None] for g in geometry)
        vals = glottis_volume_velocity([(b1, a1), (b2, a2)], speed_of_sound, grid[None, :])
        rows, cols = np.nonzero(np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)
        lo, hi = grid[cols], grid[cols + 1]
        sections = [(b1[rows, 0], a1[rows, 0]), (b2[rows, 0], a2[rows, 0])]
        f_lo = glottis_volume_velocity(sections, speed_of_sound, lo)
        while np.any(hi - lo > ROOT_TOL_HZ):
            mid = 0.5 * (lo + hi)
            f_mid = glottis_volume_velocity(sections, speed_of_sound, mid)
            same = (f_mid < 0) == (f_lo < 0)
            lo, f_lo = np.where(same, mid, lo), np.where(same, f_mid, f_lo)
            hi = np.where(same, hi, mid)
        roots = 0.5 * (lo + hi)
        # a grid point that is an exact zero is a root with no sign change
        zero_rows, zero_cols = np.nonzero(vals == 0.0)
        rows = np.concatenate([rows, zero_rows])
        roots = np.concatenate([roots, grid[zero_cols]])
        out.extend(sorted(roots[rows == t].tolist()) for t in range(b1.shape[0]))
    return out


def compare(library, resonances, count: int) -> str:
    """Classify one tract's ``count`` formants against its true resonances.

    Returns ``"ok"``; ``"dropped"`` when there are ``count`` values, each is
    a different true resonance and they ascend, but a lower one is missing,
    so later indices shift down (the known failure of screening poles by
    magnitude); or ``"wrong"``.
    """
    lib = np.asarray(library, dtype=float)
    ref = np.asarray(resonances, dtype=float)
    expected = ref[:count]
    if lib.shape != expected.shape:
        return "wrong"
    if np.all(np.abs(lib - expected) <= MATCH_TOL_HZ):
        return "ok"
    nearest = np.argmin(np.abs(lib[:, None] - ref[None, :]), axis=1)
    # lib must be a subsequence of ref: no resonance twice, none out of order
    if np.all(np.abs(lib - ref[nearest]) <= MATCH_TOL_HZ) and np.all(np.diff(nearest) > 0):
        return "dropped"
    return "wrong"
