import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from risfed import harness, labeling
from risfed.channel import (
    CARRIER_WAVELENGTH_M,
    N_SCATTERERS,
    NUM_ELEMENTS,
    RIS_COLS,
    SCATTER_CONE_DEG,
    SCATTER_EXTRA_HI,
    SCATTER_EXTRA_LO,
    TWO_PI,
    Placement,
    ScenarioGeometry,
    array_response,
    gen_channel_pair,
    gen_channel_pairs,
    make_worker_geometry,
    path_loss,
    radiation_gain,
)
from risfed.harness import LINK

from conftest import small_geometry


class FixedGammaRng:
    """Stand-in rng that forces the scatterer gains and zeroes the phases.

    It answers the two calls a sample draws: ``random(out=)`` for the two
    uniforms behind (eta_g, eta_h) and ``standard_normal(out=)`` for the real
    then imaginary parts of the S gains.
    """

    def __init__(self, gamma_complex):
        self.gamma = complex(gamma_complex)

    def standard_normal(self, out):
        S = out.size // 2
        out[:S] = self.gamma.real * math.sqrt(2.0)
        out[S:] = self.gamma.imag * math.sqrt(2.0)

    def random(self, out):
        out[:] = 0.0


def without_los(geom):
    """The geometry with its TX at grazing elevation: the LoS part of h is
    exactly zero, so h is the scatterer sum alone."""
    return dataclasses.replace(geom, tx=Placement(geom.tx.distance, geom.tx.azimuth, math.pi / 2))


def test_radiation_gain_boresight():
    assert radiation_gain(0.0) == pytest.approx(2 * (2 * 0.285 + 1), abs=1e-12)


def test_radiation_gain_grazing_and_beyond():
    assert radiation_gain(math.pi / 2) == 0.0
    assert radiation_gain(-math.pi / 2) == 0.0
    assert radiation_gain(2.0) == 0.0


def test_radiation_gain_closed_form_at_60_degrees():
    assert radiation_gain(math.pi / 3) == pytest.approx(3.14 * 0.5 ** 0.57, rel=1e-10)


def array_radiation_gain(elevation):
    """The pattern as a numpy expression over a 0-d array, zero where |b| >= pi/2."""
    b = np.asarray(elevation, dtype=float)
    inside = np.abs(b) < math.pi / 2
    return float(np.where(inside, 2.0 * (2.0 * 0.285 + 1.0) * np.cos(np.where(inside, b, 0.0)) ** (2.0 * 0.285), 0.0))


@settings(max_examples=2000, deadline=None)
@given(elevation=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2))
@example(elevation=math.pi / 2)
@example(elevation=-math.pi / 2)
@example(elevation=math.pi / 2 - 1e-9)
@example(elevation=2.0)
@example(elevation=-2.0)
@example(elevation=math.nan)
@example(elevation=0.0)
@example(elevation=math.radians(2.0))
@example(elevation=math.radians(4.0))
def test_radiation_gain_matches_the_array_expression_bit_for_bit(elevation):
    gain = radiation_gain(elevation)
    assert type(gain) is float
    assert struct.pack("<d", gain) == struct.pack("<d", array_radiation_gain(elevation))


def test_path_loss_unit_distance():
    d = CARRIER_WAVELENGTH_M / (4 * math.pi)
    assert path_loss(d) == pytest.approx(1.0, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=1e4))
def test_path_loss_inverse_square(d):
    assert path_loss(2 * d) / path_loss(d) == pytest.approx(0.25, rel=1e-9)


def test_path_loss_50m_frozen_value():
    # (0.0107 / (4 pi 50))^2, evaluated independently
    assert path_loss(50.0) == pytest.approx(2.9001e-10, rel=1e-3)


def test_path_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_loss(0.0)
    with pytest.raises(ValueError):
        path_loss(-1.0)


def test_array_response_origin_element_and_broadside():
    geom = small_geometry()
    omega = array_response(0.7, -0.3, geom)
    assert omega[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert np.allclose(array_response(0.0, 0.0, geom), np.ones(NUM_ELEMENTS))


def test_array_response_indexing_row_major():
    geom = small_geometry()
    a, b = 0.5, 0.2
    omega = array_response(a, b, geom)
    k = 2 * math.pi / CARRIER_WAVELENGTH_M
    r, c = 3, 7
    phase = k * geom.element_spacing * (r * math.sin(b) + c * math.sin(a) * math.cos(b))
    assert omega[r * RIS_COLS + c] == pytest.approx(np.exp(1j * phase), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-1.5, max_value=1.5))
def test_array_response_unit_modulus(a, b):
    geom = small_geometry()
    assert np.max(np.abs(np.abs(array_response(a, b, geom)) - 1.0)) < 1e-12


def test_ris_rx_magnitude_flat():
    geom = small_geometry()
    _, g = gen_channel_pair(geom, np.random.default_rng(0))
    mags = np.abs(g)
    assert mags.max() - mags.min() < 1e-12


def test_ris_rx_zero_at_grazing_elevation():
    geom = small_geometry()
    grazing = ScenarioGeometry(
        element_spacing=geom.element_spacing,
        tx=geom.tx, rx=Placement(geom.rx.distance, geom.rx.azimuth, math.pi / 2),
        scatterers=geom.scatterers,
    )
    _, g = gen_channel_pair(grazing, np.random.default_rng(0))
    assert np.all(g == 0)


def test_ris_rx_phase_uniform_ks():
    geom = small_geometry()
    _, g = gen_channel_pairs(geom, np.random.default_rng(1234), 10_000)
    phases = np.angle(g[:, 0]) % (2 * math.pi)
    p = stats.kstest(phases / (2 * math.pi), "uniform").pvalue
    assert p > 0.01


def test_tx_ris_los_magnitude_flat_and_distance_scaling():
    geom = small_geometry()
    h, _ = gen_channel_pair(geom, FixedGammaRng(0.0))
    mags = np.abs(h)
    assert mags.max() - mags.min() < 1e-12

    doubled = ScenarioGeometry(
        element_spacing=geom.element_spacing,
        tx=Placement(2 * geom.tx.distance, geom.tx.azimuth, geom.tx.elevation),
        rx=geom.rx, scatterers=geom.scatterers,
    )
    h2, _ = gen_channel_pair(doubled, FixedGammaRng(0.0))
    assert np.abs(h2[0]) == pytest.approx(np.abs(h[0]) / 2.0, rel=1e-9)


def test_eta_h_eta_g_independent():
    # element (0, 0) has phase 0, so g[:, 0] carries eta_g; scatterers at
    # grazing elevation have zero gain, so h is its LoS term and h[:, 0] carries eta_h
    geom = small_geometry()
    grazing = tuple(Placement(sc.distance, sc.azimuth, math.pi / 2) for sc in geom.scatterers)
    h, g = gen_channel_pairs(dataclasses.replace(geom, scatterers=grazing), np.random.default_rng(77), 10_000)
    corr = np.corrcoef(np.angle(g[:, 0]), np.angle(h[:, 0]))[0, 1]
    assert abs(corr) < 0.05


def test_nlos_zero_when_gamma_zero():
    geom = small_geometry()
    h, _ = gen_channel_pair(without_los(geom), FixedGammaRng(0.0))
    assert np.all(h == 0)


def test_nlos_zero_mean():
    geom = small_geometry()
    draws, _ = gen_channel_pairs(without_los(geom), np.random.default_rng(5), 10_000)
    for part in (draws.real, draws.imag):
        mean = part.mean(axis=0)
        sd = part.std(axis=0)
        assert np.all(np.abs(mean) < 3 * sd / 100)


def test_nlos_power_matches_closed_form():
    geom = small_geometry()
    draws, _ = gen_channel_pairs(without_los(geom), np.random.default_rng(6), 10_000)
    measured = np.mean(np.abs(draws) ** 2)
    S = len(geom.scatterers)
    expected = sum(
        radiation_gain(sc.elevation) * path_loss(sc.distance)
        for sc in geom.scatterers
    ) / S ** 2
    assert measured == pytest.approx(expected, rel=0.05)


def test_channel_pair_deterministic_bytes():
    geom = small_geometry()
    h1, g1 = gen_channel_pair(geom, np.random.default_rng(42))
    h2, g2 = gen_channel_pair(geom, np.random.default_rng(42))
    assert h1.tobytes() == h2.tobytes()
    assert g1.tobytes() == g2.tobytes()
    h3, _ = gen_channel_pair(geom, np.random.default_rng(43))
    assert h3.tobytes() != h1.tobytes()


@pytest.mark.parametrize("J", [1, 7, 2000])
def test_batched_draw_consumes_the_rng_like_four_scalar_calls(J):
    geom = small_geometry()
    batch_rng, scalar_rng = np.random.default_rng(21), np.random.default_rng(21)
    h, g = gen_channel_pairs(geom, batch_rng, J)
    for j in range(J):
        h_j, g_j = reference_pair(geom, scalar_rng)
        assert h[j].tobytes() == h_j.tobytes()
        assert g[j].tobytes() == g_j.tobytes()
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_draws_do_not_depend_on_how_they_are_batched():
    geom = small_geometry()
    whole = gen_channel_pairs(geom, np.random.default_rng(22), 7)
    rng = np.random.default_rng(22)
    parts = [gen_channel_pairs(geom, rng, 3), gen_channel_pairs(geom, rng, 4)]
    rng = np.random.default_rng(22)
    singles = [gen_channel_pair(geom, rng) for _ in range(7)]
    for i, expected in enumerate(whole):  # h, then g
        assert np.concatenate([p[i] for p in parts]).tobytes() == expected.tobytes()
        assert np.array([s[i] for s in singles]).tobytes() == expected.tobytes()


def test_gen_channel_pairs_rejects_nonpositive_count():
    for J in (0, -1):
        with pytest.raises(ValueError):
            gen_channel_pairs(small_geometry(), np.random.default_rng(0), J)


def test_channel_pair_scatterers_on_los_direction():
    # scatterers co-located with the TX turn the NLoS sum into a scaled copy
    # of the LoS steering vector
    base = small_geometry()
    geom = ScenarioGeometry(
        element_spacing=base.element_spacing,
        tx=base.tx, rx=base.rx, scatterers=(base.tx,) * 4,
    )
    h, _ = gen_channel_pair(geom, FixedGammaRng(1.0))
    amp = math.sqrt(radiation_gain(geom.tx.elevation) * path_loss(geom.tx.distance))
    h_los = amp * array_response(geom.tx.azimuth, geom.tx.elevation, geom)  # FixedGammaRng zeroes eta_h
    assert np.allclose(h, 2.0 * h_los, atol=1e-15)


def test_los_power_scales_inverse_square_with_distance():
    geom = small_geometry()
    kappa = 3.0
    scaled = ScenarioGeometry(
        element_spacing=geom.element_spacing,
        tx=Placement(kappa * geom.tx.distance, geom.tx.azimuth, geom.tx.elevation),
        rx=geom.rx, scatterers=geom.scatterers,
    )
    h1, _ = gen_channel_pair(geom, FixedGammaRng(0.0))
    h2, _ = gen_channel_pair(scaled, FixedGammaRng(0.0))
    assert np.abs(h2[0]) ** 2 == pytest.approx(np.abs(h1[0]) ** 2 / kappa ** 2, rel=1e-9)


def test_placement_validation():
    with pytest.raises(ValueError):
        Placement(distance=0.0, azimuth=0.0, elevation=0.0)
    with pytest.raises(ValueError):
        Placement(distance=1.0, azimuth=0.0, elevation=2.0)
    Placement(distance=1.0, azimuth=0.0, elevation=math.pi / 2)  # boundary admitted


def test_geometry_validation():
    tx = Placement(10.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ScenarioGeometry(0.0, tx, tx, (tx,))
    with pytest.raises(ValueError):
        ScenarioGeometry(1e-3, tx, tx, ())


def test_make_worker_geometry_scatterer_cone():
    rng = np.random.default_rng(11)
    tx = Placement(30.0, -0.5, 0.05)
    rx = Placement(20.0, 0.4, 0.0)
    geom = make_worker_geometry(1e-3, tx, rx, rng)
    assert len(geom.scatterers) == N_SCATTERERS
    for sc in geom.scatterers:
        assert abs(sc.azimuth - tx.azimuth) <= math.radians(SCATTER_CONE_DEG) + 1e-12
        assert abs(sc.elevation - tx.elevation) <= math.radians(SCATTER_CONE_DEG) + 1e-12
        assert (1 + SCATTER_EXTRA_LO) * tx.distance <= sc.distance <= (1 + SCATTER_EXTRA_HI) * tx.distance


def fresh_path(placement, geom):
    amp = math.sqrt(radiation_gain(placement.elevation) * path_loss(placement.distance))
    return amp, array_response(placement.azimuth, placement.elevation, geom)


def test_paths_cache_equals_fresh_factors_bit_for_bit():
    geom = small_geometry()
    placements = (geom.rx, geom.tx, *geom.scatterers)
    assert len(geom.paths) == len(placements) == 2 + len(geom.scatterers)
    for (amp, a), placement in zip(geom.paths, placements):
        fresh_amp, fresh_a = fresh_path(placement, geom)
        assert amp == fresh_amp
        assert a.tobytes() == fresh_a.tobytes()


def test_paths_cache_is_read_only():
    geom = small_geometry()
    for _, a in geom.paths:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_replace_recomputes_paths():
    geom = small_geometry()
    wider = dataclasses.replace(geom, element_spacing=2 * geom.element_spacing)
    for (_, old), (amp, a), placement in zip(geom.paths, wider.paths, (wider.rx, wider.tx, *wider.scatterers)):
        fresh_amp, fresh_a = fresh_path(placement, wider)
        assert amp == fresh_amp and a.tobytes() == fresh_a.tobytes()
    assert wider.paths[0][1].tobytes() != geom.paths[0][1].tobytes()


def test_eq_hash_and_repr_ignore_paths():
    geom = small_geometry()
    twin = dataclasses.replace(geom)
    assert twin.paths[0][1] is not geom.paths[0][1]
    assert twin == geom and hash(twin) == hash(geom)
    assert "paths" not in repr(geom)


def reference_pair(geom, rng):
    """One draw (h, g) from four scalar rng calls, in the documented order,
    with every geometric factor recomputed."""
    eta_g = float(rng.uniform(0.0, TWO_PI))
    amp, a = fresh_path(geom.rx, geom)
    g = amp * np.exp(1j * eta_g) * a
    eta_h = float(rng.uniform(0.0, TWO_PI))
    amp, a = fresh_path(geom.tx, geom)
    h_los = amp * np.exp(1j * eta_h) * a
    S = len(geom.scatterers)
    gammas = (rng.standard_normal(S) + 1j * rng.standard_normal(S)) / math.sqrt(2.0)
    acc = np.zeros(NUM_ELEMENTS, dtype=complex)
    for gamma, sc in zip(gammas, geom.scatterers):
        amp, a = fresh_path(sc, geom)
        acc += gamma * amp * a
    return h_los + acc / S, g


def reference_dataset(profile, J, rng):
    """gen_dataset with every geometric factor recomputed on every draw."""
    geom, params = profile.geometry, profile.rate
    tx_a = array_response(geom.tx.azimuth, geom.tx.elevation, geom)
    codewords = []
    for offset_deg in labeling.CODEBOOK_OFFSETS_DEG:
        raw = np.conj(tx_a) * array_response(geom.rx.azimuth + math.radians(offset_deg), geom.rx.elevation, geom)
        codewords.append(raw / np.abs(raw))
    features, labels, rates = [], [], []
    for _ in range(J):
        h, g = reference_pair(geom, rng)
        r = [labeling.rate(cw, h, g, params) for cw in codewords]
        c = int(np.argmax(r))
        features.append(np.concatenate([h.real, h.imag, g.real, g.imag]))
        labels.append(c)
        rates.append(r[c])
    return np.array(features), np.array(labels, dtype=np.int64), np.array(rates)


def assert_matches_reference(profile, J, seed):
    ds = labeling.gen_dataset(profile, J, np.random.default_rng(seed))
    features, labels, rates = reference_dataset(profile, J, np.random.default_rng(seed))
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.rates.tobytes() == rates.tobytes()
    return ds


@pytest.mark.parametrize("worker", range(4))
def test_gen_dataset_matches_per_draw_reference(worker):
    profile = harness.build_profiles(harness.ExperimentConfig())[worker]
    for J in (1, 7, 500):
        assert_matches_reference(profile, J, np.random.SeedSequence(J, spawn_key=(worker,)))


# a scatterer as (extra travel over the TX path, azimuth offset, elevation offset) from the TX, offsets in degrees
SCATTERER_OFFSETS = st.tuples(st.floats(min_value=0.05, max_value=0.30), st.floats(min_value=-60.0, max_value=60.0),
                              st.floats(min_value=-60.0, max_value=60.0))


@settings(max_examples=30, deadline=None)
@given(
    offsets=st.lists(SCATTERER_OFFSETS, min_size=1, max_size=8),
    spacing_wl=st.floats(min_value=0.05, max_value=2.0),
    grazing_rx=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    J=st.integers(min_value=1, max_value=12),
)
def test_gen_dataset_matches_reference_over_scenario_geometry(offsets, spacing_wl, grazing_rx, seed, J):
    tx = Placement(30.0, math.radians(-22.0), 0.0)
    rx = Placement(20.0, math.radians(28.0), math.pi / 2 if grazing_rx else math.radians(2.0))
    scatterers = tuple(Placement(tx.distance * (1.0 + extra), tx.azimuth + math.radians(d_az),
                                 tx.elevation + math.radians(d_el)) for extra, d_az, d_el in offsets)
    geom = ScenarioGeometry(spacing_wl * CARRIER_WAVELENGTH_M, tx, rx, scatterers)
    ds = assert_matches_reference(labeling.WorkerProfile(0, geom, LINK), J, seed)
    if grazing_rx:
        # a grazing RX receives nothing: every codeword's rate is 0 and the tie goes to codeword 0
        assert np.all(ds.rates == 0.0) and np.all(ds.labels == 0)
