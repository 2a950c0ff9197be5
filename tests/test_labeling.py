import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risfed.channel import ChannelSample, array_response, gen_channel_pair, path_loss, radiation_gain
from risfed.harness import load_dataset, save_dataset
from risfed.labeling import (
    _rowwise_dot,
    CODEBOOK_OFFSETS_DEG,
    Codebook,
    FeatureScaler,
    RateParams,
    WorkerProfile,
    build_codebook,
    decode_features,
    fit_scaler,
    gen_dataset,
    label,
    rate,
    raw_features,
    split,
)

from conftest import RATE, small_geometry


def scalar_rate_oracle(phi, h, g, params):
    # independent scalar re-implementation: plain python complex loop
    acc = 0j
    for q in range(len(phi)):
        acc += complex(g[q]).conjugate() * complex(phi[q]) * complex(h[q])
    snr = abs(acc) ** 2 * params.tx_power / (params.bandwidth * params.noise_psd)
    return params.bandwidth * math.log2(1.0 + snr)


def pure_los_sample(geom, rx_azimuth):
    amp_h = math.sqrt(radiation_gain(geom.tx.elevation) * path_loss(geom.tx.distance, geom.carrier_wavelength))
    amp_g = math.sqrt(radiation_gain(geom.rx.elevation) * path_loss(geom.rx.distance, geom.carrier_wavelength))
    h = amp_h * array_response(geom.tx.azimuth, geom.tx.elevation, geom)
    g = amp_g * array_response(rx_azimuth, geom.rx.elevation, geom)
    return ChannelSample(h=h, g=g, eta_g=0.0, eta_h=0.0, gammas=np.zeros(geom.num_scatterers, dtype=complex))


def test_rate_zero_channel():
    phi = np.ones(4, dtype=complex)
    assert rate(phi, np.zeros(4, dtype=complex), np.ones(4, dtype=complex), RATE) == 0.0


def test_rate_unit_snr_gives_bandwidth():
    phi = np.ones(4, dtype=complex)
    g = np.array([1.0, 0, 0, 0], dtype=complex)
    x = math.sqrt(RATE.bandwidth * RATE.noise_psd / RATE.tx_power)
    h = np.array([x, 0, 0, 0], dtype=complex)
    assert rate(phi, h, g, RATE) == pytest.approx(RATE.bandwidth, rel=1e-12)


def test_rate_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        phi = np.exp(1j * rng.uniform(0, 2 * math.pi, 100))
        h = rng.standard_normal(100) * 1e-5 + 1j * rng.standard_normal(100) * 1e-5
        g = rng.standard_normal(100) * 1e-5 + 1j * rng.standard_normal(100) * 1e-5
        assert rate(phi, h, g, RATE) == pytest.approx(scalar_rate_oracle(phi, h, g, RATE), rel=1e-12)


def test_rate_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        rate(np.ones(3, dtype=complex), np.ones(4, dtype=complex), np.ones(4, dtype=complex), RATE)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1.01, max_value=10.0))
def test_rate_strictly_monotone_in_power(p, factor):
    phi = np.ones(2, dtype=complex)
    h = np.array([1e-6, 0], dtype=complex)
    g = np.array([1.0, 0], dtype=complex)
    lo = rate(phi, h, g, RateParams(RATE.bandwidth, p, RATE.noise_psd))
    hi = rate(phi, h, g, RateParams(RATE.bandwidth, p * factor, RATE.noise_psd))
    assert hi > lo


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams(bandwidth=0.0, tx_power=1.0, noise_psd=1e-20)


def test_codebook_unit_modulus_and_deterministic():
    geom = small_geometry()
    cb1 = build_codebook(geom)
    cb2 = build_codebook(geom)
    assert cb1.codewords.shape == (4, geom.num_elements)
    assert np.max(np.abs(np.abs(cb1.codewords) - 1.0)) < 1e-12
    assert np.array_equal(cb1.codewords, cb2.codewords)


@pytest.mark.parametrize("idx", range(4))
def test_codeword_optimal_for_matching_los_offset(idx):
    geom = small_geometry()
    cb = build_codebook(geom)
    offset = math.radians(CODEBOOK_OFFSETS_DEG[idx])
    sample = pure_los_sample(geom, geom.rx.azimuth + offset)
    rates = [rate(cb.codewords[c], sample.h, sample.g, RATE) for c in range(4)]
    assert int(np.argmax(rates)) == idx


def test_label_tie_breaks_to_lowest_index():
    geom = small_geometry()
    cb = build_codebook(geom)
    zero = ChannelSample(
        h=np.zeros(geom.num_elements, dtype=complex),
        g=np.zeros(geom.num_elements, dtype=complex),
        eta_g=0.0, eta_h=0.0, gammas=np.zeros(4, dtype=complex),
    )
    assert label(zero, cb, RATE) == 0


def test_label_matches_exhaustive_reevaluation():
    geom = small_geometry()
    cb = build_codebook(geom)
    rng = np.random.default_rng(8)
    for _ in range(25):
        sample = gen_channel_pair(geom, rng)
        got = label(sample, cb, RATE)
        rates = [scalar_rate_oracle(cb.codewords[c], sample.h, sample.g, RATE) for c in range(4)]
        assert got == int(np.argmax(rates))


def test_label_permutation_equivariance():
    geom = small_geometry()
    cb = build_codebook(geom)
    sample = gen_channel_pair(geom, np.random.default_rng(9))
    base = label(sample, cb, RATE)
    perm = [3, 2, 1, 0]
    permuted = Codebook(codewords=cb.codewords[perm])
    assert perm[label(sample, permuted, RATE)] == base


def test_raw_features_shape_and_zero_case():
    geom = small_geometry()
    zero = ChannelSample(
        h=np.zeros(100, dtype=complex), g=np.zeros(100, dtype=complex),
        eta_g=0.0, eta_h=0.0, gammas=np.zeros(4, dtype=complex),
    )
    feats = raw_features(zero)
    assert feats.shape == (400,)
    assert np.all(feats == 0)
    bad = ChannelSample(h=np.zeros(9, dtype=complex), g=np.zeros(9, dtype=complex),
                        eta_g=0.0, eta_h=0.0, gammas=np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        raw_features(bad)


def test_standardization_statistics_on_fitting_set():
    geom = small_geometry()
    profile = WorkerProfile(0, geom, RATE)
    ds = gen_dataset(profile, 300, np.random.default_rng(10))
    train, _ = split(ds, 0.8, np.random.default_rng(11))
    assert np.max(np.abs(train.features.mean(axis=0))) < 1e-10
    assert np.max(np.abs(train.features.std(axis=0) - 1.0)) < 1e-10


def test_feature_round_trip():
    geom = small_geometry()
    sample = gen_channel_pair(geom, np.random.default_rng(12))
    scaler = FeatureScaler(mean=np.full(400, 0.3), sd=np.full(400, 2.0))
    encoded = scaler.transform(raw_features(sample))
    h, g = decode_features(encoded, scaler)
    assert np.allclose(h, sample.h, atol=1e-9)
    assert np.allclose(g, sample.g, atol=1e-9)


def test_gen_dataset_and_split_contracts():
    geom = small_geometry()
    profile = WorkerProfile(3, geom, RATE)
    ds = gen_dataset(profile, 200, np.random.default_rng(13))
    ds_again = gen_dataset(profile, 200, np.random.default_rng(13))
    assert np.array_equal(ds.features, ds_again.features)
    assert np.array_equal(ds.labels, ds_again.labels)
    assert len(ds.labels) == 200 and set(ds.labels.tolist()) <= {0, 1, 2, 3}

    train, test = split(ds, 0.8, np.random.default_rng(14))
    assert len(train) + len(test) == 200
    assert len(train) == 160
    assert train.worker_id == test.worker_id == 3
    assert train.scaler is not None and train.scaler is test.scaler


def test_every_generated_label_is_rate_optimal():
    geom = small_geometry()
    profile = WorkerProfile(0, geom, RATE)
    cb = build_codebook(geom)
    ds = gen_dataset(profile, 150, np.random.default_rng(15))
    for j in range(len(ds)):
        h, g = decode_features(ds.features[j], None)
        rates = np.array([rate(cb.codewords[c], h, g, RATE) for c in range(4)])
        best = rates[ds.labels[j]]
        assert np.all(best >= rates - 1e-12)
        assert int(np.argmax(rates)) == ds.labels[j]


def test_split_standardizes_gathered_copies_and_leaves_its_input_unchanged():
    ds = gen_dataset(WorkerProfile(0, small_geometry(), RATE), 120, np.random.default_rng(17))
    raw = ds.features.tobytes()
    train, test = split(ds, 0.75, np.random.default_rng(18))
    assert ds.features.tobytes() == raw
    order = np.random.default_rng(18).permutation(120)
    for part, idx in ((train, order[:90]), (test, order[90:])):
        assert not np.shares_memory(part.features, ds.features)
        expected = (ds.features[idx] - train.scaler.mean) / train.scaler.sd
        assert part.features.tobytes() == expected.tobytes()


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(J=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(J=2500, seed=0)
def test_rowwise_dot_of_conjugate_equals_vdot_bit_for_bit(J, seed):
    rng = np.random.default_rng(seed)
    g, h, phi = complex_normal(rng, (J, 100)), complex_normal(rng, (J, 100)), complex_normal(rng, 100)
    x = phi * h
    expected = np.array([np.vdot(g[j], x[j]) for j in range(J)])
    assert _rowwise_dot(np.conjugate(g), x).tobytes() == expected.tobytes()


def test_split_rejects_bad_ratio():
    geom = small_geometry()
    ds = gen_dataset(WorkerProfile(0, geom, RATE), 50, np.random.default_rng(16))
    for ratio in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            split(ds, ratio, np.random.default_rng(0))


def test_dataset_save_load_round_trip(tmp_path):
    geom = small_geometry()
    ds = gen_dataset(WorkerProfile(2, geom, RATE), 60, np.random.default_rng(17))
    train, _ = split(ds, 0.8, np.random.default_rng(18))
    stem = str(tmp_path / "worker2_train")
    save_dataset(train, stem, extra_meta={"note": "test"})
    loaded = load_dataset(stem)
    assert loaded.worker_id == 2
    assert np.allclose(loaded.features, train.features)
    assert np.array_equal(loaded.labels, train.labels)
    assert np.allclose(loaded.rates, train.rates)
    assert np.allclose(loaded.scaler.mean, train.scaler.mean)
    assert np.allclose(loaded.scaler.sd, train.scaler.sd)


def test_load_rejects_unknown_format(tmp_path):
    stem = str(tmp_path / "bogus")
    with open(stem + ".meta", "w") as f:
        f.write("format = not-a-dataset\nworker_id = 0\n")
    with open(stem + ".csv", "w") as f:
        f.write("x\n1\n")
    with pytest.raises(ValueError):
        load_dataset(stem)


def test_fit_scaler_handles_constant_columns():
    X = np.zeros((10, 400))
    scaler = fit_scaler(X)
    assert np.all(scaler.sd == 1.0)
    assert np.all(scaler.transform(X) == 0.0)

