"""Geometric channel generation for a RIS-assisted downlink hop.

Each scenario is a single TX -> RIS -> RX link without a direct path.  The
TX-RIS channel is the sum of a line-of-sight component and a diffuse
component contributed by scatterers near the TX; the RIS-RX channel is pure
line-of-sight.  Every channel draw combines three deterministic geometric
factors (element radiation pattern, free-space path loss, planar-array
response) with per-draw randomness (uniform phases, complex-normal scatterer
gains).  The geometric factors depend on the geometry alone, so each
:class:`ScenarioGeometry` computes them once, at construction, and every draw
reads them from ``ScenarioGeometry.paths``.

The scene around each RIS is fixed, and this module owns it: a
``RIS_ROWS`` x ``RIS_COLS`` array at the ``CARRIER_WAVELENGTH_M`` carrier,
and ``N_SCATTERERS`` scatterers drawn within ``SCATTER_CONE_DEG`` of the TX
direction, on paths 5% to 30% (``SCATTER_EXTRA_LO``, ``SCATTER_EXTRA_HI``)
longer than the TX path.  Workers differ only in element spacing and placements.

All generators are pure functions of (geometry, rng): callers own the rng
stream, so concurrent generation across workers is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Cosine-pattern exponent of a single reflective element.
Q0 = 0.285

TWO_PI = 2.0 * math.pi

# The 10x10 array's 100 elements give h and g, the MLP's 400 features.
RIS_ROWS = RIS_COLS = 10
NUM_ELEMENTS = RIS_ROWS * RIS_COLS
# The carrier (28 GHz) scales every path amplitude by one constant, so it
# sets only the rate, never a label or a standardized feature.
CARRIER_WAVELENGTH_M = 0.0107
N_SCATTERERS = 4
SCATTER_CONE_DEG = 15.0
SCATTER_EXTRA_LO, SCATTER_EXTRA_HI = 0.05, 0.30


@dataclass(frozen=True)
class Placement:
    """Polar coordinates of an object (TX, RX or scatterer) seen from the RIS.

    ``distance`` is the signal travel distance in meters; for scatterers it
    is the full TX->scatterer->RIS path length.  Angles are radians;
    elevation must lie in [-pi/2, pi/2] (the closed boundary is admitted so
    that grazing geometries, which radiate nothing, remain representable).
    """

    distance: float
    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        if not self.distance > 0.0:
            raise ValueError(f"distance must be > 0, got {self.distance}")
        if not abs(self.elevation) <= math.pi / 2:
            raise ValueError(f"elevation must lie in [-pi/2, pi/2], got {self.elevation}")


@dataclass(frozen=True)
class ScenarioGeometry:
    """Physical layout of one worker's scenario.

    The RIS is a ``RIS_ROWS`` x ``RIS_COLS`` uniform planar array with
    element spacing ``element_spacing`` (meters).  ``scatterers`` holds the
    per-worker scatterer placements; they are part of the worker profile and
    stay fixed across channel draws, which is what makes worker data
    distributions heterogeneous.

    ``paths`` is computed at construction and holds one read-only
    ``(amplitude, steering vector)`` pair per propagation path, in the order
    rx, tx, then each scatterer; the amplitude is
    sqrt(radiation_gain * path_loss).  It is derived from the other fields,
    so it takes no part in ``repr``, ``==`` or ``hash``.
    """

    element_spacing: float
    tx: Placement
    rx: Placement
    scatterers: tuple[Placement, ...]
    paths: tuple[tuple[float, np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.element_spacing > 0.0:
            raise ValueError("element_spacing must be > 0")
        if len(self.scatterers) < 1:
            raise ValueError("at least one scatterer is required")
        object.__setattr__(self, "paths", tuple(_path(p, self) for p in (self.rx, self.tx, *self.scatterers)))


def radiation_gain(elevation: float) -> float:
    """Element radiation pattern 2(2*Q0 + 1) * cos(b)^(2*Q0) of one elevation.

    Zero outside the front hemisphere (|b| >= pi/2) and at NaN.  ``math.cos`` and ``**`` give
    the bits of numpy's ``np.cos(b) ** (2 * Q0)`` on a 0-d array; ``np.power`` does not.
    """
    if not abs(elevation) < math.pi / 2:
        return 0.0
    return 2.0 * (2.0 * Q0 + 1.0) * math.cos(elevation) ** (2.0 * Q0)


def path_loss(distance: float) -> float:
    """Free-space power loss (wavelength / (4 pi d))^2 at the carrier."""
    if not distance > 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return (CARRIER_WAVELENGTH_M / (4.0 * math.pi * distance)) ** 2


def array_response(azimuth: float, elevation: float, geom: ScenarioGeometry) -> np.ndarray:
    """Unit-modulus steering vector of the RIS planar array.

    Element (row r, col c) carries phase
    (2 pi / wavelength) * spacing * (r sin b + c sin a cos b); the vector is
    flattened row-major, so element (0, 0) always has phase zero.
    """
    k = TWO_PI / CARRIER_WAVELENGTH_M
    rows = np.arange(RIS_ROWS)[:, None]
    cols = np.arange(RIS_COLS)[None, :]
    phase = k * geom.element_spacing * (
        rows * math.sin(elevation) + cols * math.sin(azimuth) * math.cos(elevation)
    )
    return np.exp(1j * phase).ravel()


def _path(placement: Placement, geom: ScenarioGeometry) -> tuple[float, np.ndarray]:
    """Amplitude sqrt(G(b) L(d)) and read-only steering vector of one path."""
    amp = math.sqrt(radiation_gain(placement.elevation) * path_loss(placement.distance))
    steering = array_response(placement.azimuth, placement.elevation, geom)
    steering.flags.writeable = False
    return amp, steering


def gen_channel_pairs(geom: ScenarioGeometry, rng: np.random.Generator, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw J CSI samples: the TX-RIS channels h and the RIS-RX channels g,
    each a (J, NUM_ELEMENTS) array.

    Per sample, in this order: (eta_g, eta_h) ~ U[0, 2pi) and the real then
    imaginary parts of gamma_s ~ CN(0, 1), one per scatterer.  Then

        g = sqrt(G(b_R) L(d_R)) exp(i eta_g) Omega(a_R, b_R)
        h = sqrt(G(b_T) L(d_T)) exp(i eta_h) Omega(a_T, b_T)
            + (1/S) sum_s gamma_s sqrt(G(b_s) L(d_s)) Omega(a_s, b_s)

    The draws are written in place into two (J, .) arrays, in the same
    order.  The draw order is part of the determinism contract: identical
    (geometry, rng state) yields bit-identical samples, whatever J the draws
    are split into.
    """
    if J <= 0:
        raise ValueError("J must be > 0")
    S = len(geom.scatterers)
    etas = np.empty((J, 2))
    parts = np.empty((J, 2 * S))
    for j in range(J):
        rng.random(out=etas[j])
        rng.standard_normal(out=parts[j])
    etas *= TWO_PI  # numpy's uniform(0, 2pi) is 0.0 + 2pi * U: the same bits and rng state
    eta_g, eta_h = etas.T
    gammas = (parts[:, :S] + 1j * parts[:, S:]) / math.sqrt(2.0)
    (amp_g, a_g), (amp_h, a_h), *scatter_paths = geom.paths
    g = (amp_g * np.exp(1j * eta_g))[:, None] * a_g
    h = np.zeros((J, NUM_ELEMENTS), dtype=complex)
    for gamma, (amp, a) in zip(gammas.T, scatter_paths):
        h += (gamma * amp)[:, None] * a
    h /= S
    h += (amp_h * np.exp(1j * eta_h))[:, None] * a_h
    return h, g


def gen_channel_pair(geom: ScenarioGeometry, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one CSI sample (h, g): :func:`gen_channel_pairs` with J = 1.  No command calls it;
    it is the tests' per-sample oracle and a perfbench tracer target."""
    h, g = gen_channel_pairs(geom, rng, 1)
    return h[0], g[0]


def make_worker_geometry(element_spacing: float, tx: Placement, rx: Placement,
                         rng: np.random.Generator) -> ScenarioGeometry:
    """Build a worker scenario, drawing its scatterer constellation once.

    ``N_SCATTERERS`` scatterers sit in a cone around the TX direction
    (azimuth/elevation offsets uniform in +-``SCATTER_CONE_DEG``) with travel
    distance d_T * (1 + U[``SCATTER_EXTRA_LO``, ``SCATTER_EXTRA_HI``]).  The
    constellation is fixed for the lifetime of the worker.
    """
    cone = math.radians(SCATTER_CONE_DEG)
    max_elev = math.pi / 2 - 1e-9
    scatterers = []
    for _ in range(N_SCATTERERS):
        az = tx.azimuth + rng.uniform(-cone, cone)
        el = float(np.clip(tx.elevation + rng.uniform(-cone, cone), -max_elev, max_elev))
        dist = tx.distance * (1.0 + rng.uniform(SCATTER_EXTRA_LO, SCATTER_EXTRA_HI))
        scatterers.append(Placement(distance=dist, azimuth=az, elevation=el))
    return ScenarioGeometry(element_spacing=element_spacing, tx=tx, rx=rx, scatterers=tuple(scatterers))
