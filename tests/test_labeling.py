import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risfed.channel import NUM_ELEMENTS, array_response, gen_channel_pair, path_loss, radiation_gain
from risfed.harness import LINK
from risfed.labeling import (
    TIE_BAND,
    _labels_and_rates,
    _rates_of_moduli,
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
    train_count,
)

from conftest import small_geometry


def scalar_rate_oracle(phi, h, g, params):
    # independent scalar re-implementation: plain python complex loop
    acc = 0j
    for q in range(len(phi)):
        acc += complex(g[q]).conjugate() * complex(phi[q]) * complex(h[q])
    snr = abs(acc) ** 2 * params.tx_power / (params.bandwidth * params.noise_psd)
    return params.bandwidth * math.log2(1.0 + snr)


def pure_los_pair(geom, rx_azimuth):
    amp_h = math.sqrt(radiation_gain(geom.tx.elevation) * path_loss(geom.tx.distance))
    amp_g = math.sqrt(radiation_gain(geom.rx.elevation) * path_loss(geom.rx.distance))
    h = amp_h * array_response(geom.tx.azimuth, geom.tx.elevation, geom)
    g = amp_g * array_response(rx_azimuth, geom.rx.elevation, geom)
    return h, g


def test_rate_zero_channel():
    phi = np.ones(4, dtype=complex)
    assert rate(phi, np.zeros(4, dtype=complex), np.ones(4, dtype=complex), LINK) == 0.0


def test_rate_unit_snr_gives_bandwidth():
    phi = np.ones(4, dtype=complex)
    g = np.array([1.0, 0, 0, 0], dtype=complex)
    x = math.sqrt(LINK.bandwidth * LINK.noise_psd / LINK.tx_power)
    h = np.array([x, 0, 0, 0], dtype=complex)
    assert rate(phi, h, g, LINK) == pytest.approx(LINK.bandwidth, rel=1e-12)


def test_rate_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        phi = np.exp(1j * rng.uniform(0, 2 * math.pi, 100))
        h = rng.standard_normal(100) * 1e-5 + 1j * rng.standard_normal(100) * 1e-5
        g = rng.standard_normal(100) * 1e-5 + 1j * rng.standard_normal(100) * 1e-5
        assert rate(phi, h, g, LINK) == pytest.approx(scalar_rate_oracle(phi, h, g, LINK), rel=1e-12)


def test_rate_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        rate(np.ones(3, dtype=complex), np.ones(4, dtype=complex), np.ones(4, dtype=complex), LINK)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1.01, max_value=10.0))
def test_rate_strictly_monotone_in_power(p, factor):
    phi = np.ones(2, dtype=complex)
    h = np.array([1e-6, 0], dtype=complex)
    g = np.array([1.0, 0], dtype=complex)
    lo = rate(phi, h, g, RateParams(LINK.bandwidth, p, LINK.noise_psd))
    hi = rate(phi, h, g, RateParams(LINK.bandwidth, p * factor, LINK.noise_psd))
    assert hi > lo


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams(bandwidth=0.0, tx_power=1.0, noise_psd=1e-20)


def test_codebook_unit_modulus_and_deterministic():
    geom = small_geometry()
    cb1 = build_codebook(geom)
    cb2 = build_codebook(geom)
    assert cb1.codewords.shape == (4, NUM_ELEMENTS)
    assert np.max(np.abs(np.abs(cb1.codewords) - 1.0)) < 1e-12
    assert np.array_equal(cb1.codewords, cb2.codewords)


@pytest.mark.parametrize("idx", range(4))
def test_codeword_optimal_for_matching_los_offset(idx):
    geom = small_geometry()
    cb = build_codebook(geom)
    offset = math.radians(CODEBOOK_OFFSETS_DEG[idx])
    h, g = pure_los_pair(geom, geom.rx.azimuth + offset)
    rates = [rate(cb.codewords[c], h, g, LINK) for c in range(4)]
    assert int(np.argmax(rates)) == idx


def test_label_tie_breaks_to_lowest_index():
    geom = small_geometry()
    cb = build_codebook(geom)
    zero = np.zeros(NUM_ELEMENTS, dtype=complex)
    assert label(zero, zero, cb, LINK) == 0


def test_label_matches_exhaustive_reevaluation():
    geom = small_geometry()
    cb = build_codebook(geom)
    rng = np.random.default_rng(8)
    for _ in range(25):
        h, g = gen_channel_pair(geom, rng)
        got = label(h, g, cb, LINK)
        rates = [scalar_rate_oracle(cb.codewords[c], h, g, LINK) for c in range(4)]
        assert got == int(np.argmax(rates))


def test_label_permutation_equivariance():
    geom = small_geometry()
    cb = build_codebook(geom)
    h, g = gen_channel_pair(geom, np.random.default_rng(9))
    base = label(h, g, cb, LINK)
    perm = [3, 2, 1, 0]
    permuted = Codebook(codewords=cb.codewords[perm])
    assert perm[label(h, g, permuted, LINK)] == base


def test_raw_features_shape_and_zero_case():
    zero = np.zeros(100, dtype=complex)
    feats = raw_features(zero, zero)
    assert feats.shape == (400,)
    assert np.all(feats == 0)


def test_standardization_statistics_on_fitting_set():
    geom = small_geometry()
    profile = WorkerProfile(0, geom, LINK)
    ds = gen_dataset(profile, 300, np.random.default_rng(10))
    train, _ = split(ds, np.random.default_rng(11))
    assert np.max(np.abs(train.features.mean(axis=0))) < 1e-10
    assert np.max(np.abs(train.features.std(axis=0) - 1.0)) < 1e-10
    train_raw = ds.features[np.random.default_rng(11).permutation(300)[:train_count(300)]]
    assert train.scaler.mean.tobytes() == train_raw.mean(axis=0).tobytes()
    assert train.scaler.sd.tobytes() == train_raw.std(axis=0).tobytes()


def test_feature_round_trip():
    geom = small_geometry()
    h, g = gen_channel_pair(geom, np.random.default_rng(12))
    scaler = FeatureScaler(mean=np.full(400, 0.3), sd=np.full(400, 2.0))
    encoded = scaler.transform(raw_features(h, g))
    h2, g2 = decode_features(encoded, scaler)
    assert np.allclose(h2, h, atol=1e-9)
    assert np.allclose(g2, g, atol=1e-9)


def test_gen_dataset_and_split_contracts():
    geom = small_geometry()
    profile = WorkerProfile(3, geom, LINK)
    ds = gen_dataset(profile, 200, np.random.default_rng(13))
    ds_again = gen_dataset(profile, 200, np.random.default_rng(13))
    assert np.array_equal(ds.features, ds_again.features)
    assert np.array_equal(ds.labels, ds_again.labels)
    assert len(ds.labels) == 200 and set(ds.labels.tolist()) <= {0, 1, 2, 3}

    train, test = split(ds, np.random.default_rng(14))
    assert len(train) + len(test) == 200
    assert len(train) == 160
    assert train.worker_id == test.worker_id == 3
    assert train.scaler is not None and train.scaler is test.scaler


def test_every_generated_label_is_rate_optimal():
    geom = small_geometry()
    profile = WorkerProfile(0, geom, LINK)
    cb = build_codebook(geom)
    ds = gen_dataset(profile, 150, np.random.default_rng(15))
    for j in range(len(ds)):
        h, g = decode_features(ds.features[j], None)
        rates = np.array([rate(cb.codewords[c], h, g, LINK) for c in range(4)])
        best = rates[ds.labels[j]]
        assert np.all(best >= rates - 1e-12)
        assert int(np.argmax(rates)) == ds.labels[j]


def test_split_standardizes_gathered_copies_and_leaves_its_input_unchanged():
    ds = gen_dataset(WorkerProfile(0, small_geometry(), LINK), 120, np.random.default_rng(17))
    raw = ds.features.tobytes()
    train, test = split(ds, np.random.default_rng(18))
    assert ds.features.tobytes() == raw
    order = np.random.default_rng(18).permutation(120)
    for part, idx in ((train, order[:96]), (test, order[96:])):
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


def test_fit_scaler_handles_constant_columns():
    X = np.zeros((10, 400))
    scaler = fit_scaler(X)
    assert np.all(scaler.sd == 1.0)
    assert np.all(X == 0.0)

    raw = np.random.default_rng(19).standard_normal((37, 400)) * 3.0 + 0.7
    raw[:, 5] = 2.5
    X = raw.copy()
    scaler = fit_scaler(X)  # standardizes X in place
    sd = raw.std(axis=0)
    assert sd[5] == 0.0 and scaler.sd[5] == 1.0
    assert scaler.mean.tobytes() == raw.mean(axis=0).tobytes()
    assert scaler.sd.tobytes() == np.where(sd > 0.0, sd, 1.0).tobytes()
    assert X.tobytes() == ((raw - scaler.mean) / scaler.sd).tobytes()


def four_rate_reference(moduli, params):
    """The label as :func:`label` takes it: every codeword's rate, then the first argmax."""
    all_rates = np.array([_rates_of_moduli(row, params) for row in moduli.tolist()])
    labels = all_rates.argmax(axis=1)
    return labels, all_rates[np.arange(len(moduli)), labels]


PEAK = 0.5
# from 0 to past where the SNR overflows; a modulus of about 2.8e-7 has SNR 1 at LINK
PEAKS = st.floats(min_value=0.0, max_value=1e150)
MODULI = PEAKS | st.sampled_from([math.nan, math.inf])


def ulps_below(x, k):
    for _ in range(k):
        x = math.nextafter(x, 0.0)
    return x


def near(peak):
    """A modulus equal to ``peak``, a few ulp or up to twice the tie band below it, or any modulus."""
    return st.one_of(
        st.just(peak),
        st.integers(min_value=1, max_value=4).map(lambda k: ulps_below(peak, k)),
        st.floats(min_value=0.0, max_value=2.0 * TIE_BAND).map(lambda r: peak * (1.0 - r)),
        MODULI,
    )


ROWS = st.lists(PEAKS.flatmap(lambda peak: st.lists(near(peak), min_size=4, max_size=4)), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(rows=ROWS)
@example(rows=[[0.3, PEAK, PEAK, 0.1]])  # exact tie: the lowest index wins
@example(rows=[[PEAK, PEAK, PEAK, PEAK]])
@example(rows=[[math.nextafter(PEAK, 0.0), PEAK, 0.2, 0.1]])  # an earlier codeword 1 ulp below the peak
@example(rows=[[PEAK * (1.0 - TIE_BAND / 2), PEAK, 0.2, 0.1]])  # half the tie band below
@example(rows=[[0.0, 0.0, 0.0, 0.0]])
@example(rows=[[1e-17, 2e-17, 2.8e-17, 5e-18]])  # SNR about 1e-20: every rate 0.0, label 0
@example(rows=[[1e100, 2e100, 3e99, 0.0]])  # huge but finite rates
@example(rows=[[1e149, 1e150, 0.0, 0.0]])  # both rates overflow to inf: label 0
@example(rows=[[0.1, math.nan, 0.3, 0.2]])
@example(rows=[[0.1, math.inf, 0.3, math.inf]])
@example(rows=[[0.3, 0.1, 0.2, 0.05], [PEAK, PEAK, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.2, 0.4, 0.1, 0.3]])
def test_labels_and_rates_match_the_four_rate_reference_bit_for_bit(rows):
    moduli = np.array(rows)
    labels, rates = _labels_and_rates(moduli, LINK)
    expected_labels, expected_rates = four_rate_reference(moduli, LINK)
    assert labels.dtype == expected_labels.dtype
    assert labels.tobytes() == expected_labels.tobytes()
    assert rates.tobytes() == expected_rates.tobytes()
    # below 1e-15 a modulus has SNR < 1.3e-17 at LINK, so 1 + SNR rounds to 1: where every codeword's does,
    # every rate is 0.0 and the tie goes to codeword 0
    silent = np.all(moduli < 1e-15, axis=1)
    assert np.all(labels[silent] == 0) and np.all(rates[silent] == 0.0)

