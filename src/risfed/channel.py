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

    The RIS is a rows x cols uniform planar array with element spacing
    ``element_spacing`` (meters).  ``scatterers`` holds the per-worker
    scatterer placements; they are part of the worker profile and stay fixed
    across channel draws, which is what makes worker data distributions
    heterogeneous.

    ``paths`` is computed at construction and holds one read-only
    ``(amplitude, steering vector)`` pair per propagation path, in the order
    rx, tx, then each scatterer; the amplitude is
    sqrt(radiation_gain * path_loss).  It is derived from the other fields,
    so it takes no part in ``repr``, ``==`` or ``hash``.
    """

    ris_rows: int
    ris_cols: int
    element_spacing: float
    carrier_wavelength: float
    tx: Placement
    rx: Placement
    scatterers: tuple[Placement, ...]
    paths: tuple[tuple[float, np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ris_rows <= 0 or self.ris_cols <= 0:
            raise ValueError("RIS grid must have positive dimensions")
        if not self.element_spacing > 0.0:
            raise ValueError("element_spacing must be > 0")
        if not self.carrier_wavelength > 0.0:
            raise ValueError("carrier_wavelength must be > 0")
        if len(self.scatterers) < 1:
            raise ValueError("at least one scatterer is required")
        object.__setattr__(self, "paths", tuple(_path(p, self) for p in (self.rx, self.tx, *self.scatterers)))

    @property
    def num_elements(self) -> int:
        return self.ris_rows * self.ris_cols

    @property
    def num_scatterers(self) -> int:
        return len(self.scatterers)


@dataclass(frozen=True)
class ChannelSample:
    """One CSI draw, or J draws stacked on a leading axis: channel vectors
    plus the random draws that produced them.

    ``h`` is the TX-RIS channel (LoS + scatterer part), ``g`` the RIS-RX
    channel, both of length Q.  The retained draws (``eta_h``, ``eta_g``,
    ``gammas``) make every sample auditable.
    """

    h: np.ndarray
    g: np.ndarray
    eta_g: float | np.ndarray
    eta_h: float | np.ndarray
    gammas: np.ndarray


def radiation_gain(elevation) -> np.ndarray | float:
    """Element radiation pattern 2(2*Q0 + 1) * cos(b)^(2*Q0).

    Zero outside the front hemisphere (|b| >= pi/2).  Accepts scalars or
    arrays; total on the reals.
    """
    b = np.asarray(elevation, dtype=float)
    inside = np.abs(b) < math.pi / 2
    gain = np.where(inside, 2.0 * (2.0 * Q0 + 1.0) * np.cos(np.where(inside, b, 0.0)) ** (2.0 * Q0), 0.0)
    if np.ndim(elevation) == 0:
        return float(gain)
    return gain


def path_loss(distance: float, wavelength: float) -> float:
    """Free-space power loss (wavelength / (4 pi d))^2."""
    if not distance > 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return (wavelength / (4.0 * math.pi * distance)) ** 2


def array_response(azimuth: float, elevation: float, geom: ScenarioGeometry) -> np.ndarray:
    """Unit-modulus steering vector of the RIS planar array.

    Element (row r, col c) carries phase
    (2 pi / wavelength) * spacing * (r sin b + c sin a cos b); the vector is
    flattened row-major, so element (0, 0) always has phase zero.
    """
    k = TWO_PI / geom.carrier_wavelength
    rows = np.arange(geom.ris_rows)[:, None]
    cols = np.arange(geom.ris_cols)[None, :]
    phase = k * geom.element_spacing * (
        rows * math.sin(elevation) + cols * math.sin(azimuth) * math.cos(elevation)
    )
    return np.exp(1j * phase).ravel()


def _path(placement: Placement, geom: ScenarioGeometry) -> tuple[float, np.ndarray]:
    """Amplitude sqrt(G(b) L(d)) and read-only steering vector of one path."""
    amp = math.sqrt(radiation_gain(placement.elevation) * path_loss(placement.distance, geom.carrier_wavelength))
    steering = array_response(placement.azimuth, placement.elevation, geom)
    steering.flags.writeable = False
    return amp, steering


def gen_channel_pairs(geom: ScenarioGeometry, rng: np.random.Generator, J: int) -> ChannelSample:
    """Draw J CSI samples, stacked on a leading axis.

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
    S = geom.num_scatterers
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
    h = np.zeros((J, geom.num_elements), dtype=complex)
    for gamma, (amp, a) in zip(gammas.T, scatter_paths):
        h += (gamma * amp)[:, None] * a
    h /= S
    h += (amp_h * np.exp(1j * eta_h))[:, None] * a_h
    return ChannelSample(h=h, g=g, eta_g=eta_g, eta_h=eta_h, gammas=gammas)


def gen_channel_pair(geom: ScenarioGeometry, rng: np.random.Generator) -> ChannelSample:
    """Draw one CSI sample: :func:`gen_channel_pairs` with J = 1."""
    batch = gen_channel_pairs(geom, rng, 1)
    return ChannelSample(
        h=batch.h[0], g=batch.g[0], eta_g=float(batch.eta_g[0]), eta_h=float(batch.eta_h[0]), gammas=batch.gammas[0]
    )


def make_worker_geometry(
    ris_rows: int,
    ris_cols: int,
    element_spacing: float,
    carrier_wavelength: float,
    tx: Placement,
    rx: Placement,
    n_scatterers: int,
    rng: np.random.Generator,
    cone_halfwidth: float,
    extra_travel_lo: float,
    extra_travel_hi: float,
) -> ScenarioGeometry:
    """Build a worker scenario, drawing its scatterer constellation once.

    Scatterers sit in a cone around the TX direction (azimuth/elevation
    offsets uniform in +-cone_halfwidth) with travel distance
    d_T * (1 + U[extra_travel_lo, extra_travel_hi]).  The constellation is
    fixed for the lifetime of the worker.
    """
    max_elev = math.pi / 2 - 1e-9
    scatterers = []
    for _ in range(n_scatterers):
        az = tx.azimuth + rng.uniform(-cone_halfwidth, cone_halfwidth)
        el = float(np.clip(tx.elevation + rng.uniform(-cone_halfwidth, cone_halfwidth), -max_elev, max_elev))
        dist = tx.distance * (1.0 + rng.uniform(extra_travel_lo, extra_travel_hi))
        scatterers.append(Placement(distance=dist, azimuth=az, elevation=el))
    return ScenarioGeometry(
        ris_rows=ris_rows,
        ris_cols=ris_cols,
        element_spacing=element_spacing,
        carrier_wavelength=carrier_wavelength,
        tx=tx,
        rx=rx,
        scatterers=tuple(scatterers),
    )
