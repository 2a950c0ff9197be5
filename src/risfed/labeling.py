"""Rate evaluation, configuration classes and per-worker dataset synthesis.

The discrete action space is a 4-codeword phase codebook.  Codeword c
conjugate-matches the TX steering phase and redirects the reflection toward
azimuth a_R + offset_c, so the label of a CSI draw (the rate-maximizing
codeword) is a deterministic, physically meaningful function of the channel
pair.  Datasets are synthesized by labeling i.i.d. channel draws with an
exhaustive codebook search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSample, ScenarioGeometry, array_response, gen_channel_pairs
from .channel import gen_channel_pair  # noqa: F401  (perfbench's tracer patches it through this module)

NUM_CLASSES = 4
FEATURE_DIM = 400

# Azimuth offsets (degrees) of the four steering codewords around the RX.
CODEBOOK_OFFSETS_DEG = (-20.0, -7.0, 7.0, 20.0)

@dataclass(frozen=True)
class RateParams:
    """Link constants of the rate expression: bandwidth (Hz), transmit power
    (W) and one-sided noise PSD (W/Hz)."""

    bandwidth: float
    tx_power: float
    noise_psd: float

    def __post_init__(self) -> None:
        for name in ("bandwidth", "tx_power", "noise_psd"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class WorkerProfile:
    """One worker's fixed scenario: geometry plus rate constants."""

    worker_id: int
    geometry: ScenarioGeometry
    rate: RateParams


@dataclass(frozen=True)
class Codebook:
    """The four feasible RIS configurations (rows of ``codewords``, each a
    unit-modulus complex vector of length Q)."""

    codewords: np.ndarray

    def __post_init__(self) -> None:
        if self.codewords.shape[0] != NUM_CLASSES:
            raise ValueError(f"expected {NUM_CLASSES} codewords, got {self.codewords.shape[0]}")
        if not np.allclose(np.abs(self.codewords), 1.0, atol=1e-9):
            raise ValueError("codewords must be unit modulus")


@dataclass(frozen=True)
class FeatureScaler:
    """Per-column affine standardization fitted on a worker's training split."""

    mean: np.ndarray
    sd: np.ndarray

    def transform(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(raw - mean) / sd; ``out=raw`` standardizes ``raw`` in place."""
        out = np.subtract(raw, self.mean, out=out)
        return np.divide(out, self.sd, out=out)

    def inverse(self, standardized: np.ndarray) -> np.ndarray:
        return standardized * self.sd + self.mean


def fit_scaler(raw_features: np.ndarray) -> FeatureScaler:
    """Column mean/sd on the fitting set; constant columns keep sd = 1."""
    mean = raw_features.mean(axis=0)
    sd = raw_features.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    return FeatureScaler(mean=mean, sd=sd)


@dataclass
class Dataset:
    """A worker's labeled samples, stored column-wise for fast batching.

    ``features`` is (J, 400); when ``scaler`` is set the rows are
    standardized with training-split statistics, otherwise they are raw
    channel encodings.
    """

    worker_id: int
    features: np.ndarray
    labels: np.ndarray
    rates: np.ndarray
    scaler: FeatureScaler | None = None

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("dataset must be nonempty")

    def __len__(self) -> int:
        return len(self.labels)


def rate(phi: np.ndarray, h: np.ndarray, g: np.ndarray, params: RateParams) -> float:
    """Downlink rate w * log2(1 + |g^H diag(phi) h|^2 p / (w N0)) in bit/s."""
    phi = np.asarray(phi)
    h = np.asarray(h)
    g = np.asarray(g)
    if not (phi.shape == h.shape == g.shape):
        raise ValueError(f"shape mismatch: phi {phi.shape}, h {h.shape}, g {g.shape}")
    cascade = np.vdot(g, phi * h)  # vdot conjugates its first argument
    return _rates_of_moduli([[float(abs(cascade))]], params)[0][0]


def _rates_of_moduli(rows: list[list[float]], params: RateParams) -> list[list[float]]:
    """:func:`rate` of each modulus |g^H diag(phi) h| in nested lists, in
    Python floats: numpy's array square and log2 can differ from these in
    the last bit."""
    w, p = params.bandwidth, params.tx_power
    noise = w * params.noise_psd
    return [[w * math.log2(1.0 + (m ** 2) * p / noise) for m in row] for row in rows]


def _rowwise_dot(g_conj: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise dot products sum_q g_conj[j, q] x[j, q] of two (J, Q) arrays.

    numpy evaluates each stacked 1xQ by Qx1 product with its 1-D complex dot
    (BLAS zdotu); given conj(g), that equals ``np.vdot(g[j], x[j])`` (zdotc)
    bit for bit, because only the signs of exact partial sums differ.
    """
    return np.matmul(g_conj[:, None, :], x[:, :, None])[:, 0, 0]


def build_codebook(geom: ScenarioGeometry) -> Codebook:
    """Four steering codewords fanned around the RX azimuth.

    Codeword c cancels the TX-side array phase and steers the reflection
    toward azimuth a_R + offset_c at the RX elevation:
    phi^c = conj(Omega(a_T, b_T)) * Omega(a_R + offset_c, b_R), renormalized
    to exactly unit modulus.  Deterministic per geometry.
    """
    tx_response = array_response(geom.tx.azimuth, geom.tx.elevation, geom)
    codewords = np.empty((NUM_CLASSES, geom.num_elements), dtype=complex)
    for c, offset_deg in enumerate(CODEBOOK_OFFSETS_DEG):
        steer = array_response(geom.rx.azimuth + math.radians(offset_deg), geom.rx.elevation, geom)
        raw = np.conj(tx_response) * steer
        codewords[c] = raw / np.abs(raw)
    return Codebook(codewords=codewords)


def label(sample: ChannelSample, codebook: Codebook, params: RateParams) -> int:
    """Index of the rate-maximizing codeword; ties resolve to the lowest index."""
    rates = [rate(codebook.codewords[c], sample.h, sample.g, params) for c in range(NUM_CLASSES)]
    return int(np.argmax(rates))


def raw_features(sample: ChannelSample) -> np.ndarray:
    """Unscaled 400-dim encoding [Re h, Im h, Re g, Im g] of a CSI sample,
    one row per draw when the sample is a stack of draws."""
    q = sample.h.shape[-1]
    if 4 * q != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM // 4} elements per channel vector, got {q}")
    return np.concatenate([sample.h.real, sample.h.imag, sample.g.real, sample.g.imag], axis=-1)


def decode_features(features: np.ndarray, scaler: FeatureScaler | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`raw_features` back to the channel pair (h, g); with a
    scaler, first undo its standardization."""
    raw = np.asarray(features, dtype=float)
    if raw.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM} features, got {raw.shape[-1]}")
    if scaler is not None:
        raw = scaler.inverse(raw)
    q = FEATURE_DIM // 4
    h = raw[..., 0:q] + 1j * raw[..., q : 2 * q]
    g = raw[..., 2 * q : 3 * q] + 1j * raw[..., 3 * q : 4 * q]
    return h, g


def gen_dataset(profile: WorkerProfile, J: int, rng: np.random.Generator) -> Dataset:
    """Draw J channel samples and label each by exhaustive codebook search.

    Each label is the first rate-maximizing codeword, and ``rates`` holds its
    rate.  The cascades are one stacked BLAS dot per codeword
    (:func:`_rowwise_dot`), bit-identical to ``np.vdot``, and every rate
    goes through :func:`_rates_of_moduli`, so the dataset is bit-identical to
    calling :func:`label` and :func:`rate` on each sample of
    :func:`gen_channel_pair`.
    Features are left raw; standardization happens in :func:`split`, on the
    training portion only.
    """
    batch = gen_channel_pairs(profile.geometry, rng, J)
    codebook = build_codebook(profile.geometry)
    features = raw_features(batch)  # copies g, so g can be conjugated in place
    h, g_conj = batch.h, np.conjugate(batch.g, out=batch.g)
    cascades = np.empty((J, NUM_CLASSES), dtype=complex)
    for c, phi in enumerate(codebook.codewords):
        cascades[:, c] = _rowwise_dot(g_conj, phi * h)
    moduli = np.hypot(cascades.real, cascades.imag)
    all_rates = np.array(_rates_of_moduli(moduli.tolist(), profile.rate))
    labels = all_rates.argmax(axis=1)
    rates = all_rates[np.arange(J), labels]
    return Dataset(worker_id=profile.worker_id, features=features, labels=labels, rates=rates)


def train_count(J: int, ratio: float) -> int:
    """Rows of a J-row dataset that :func:`split` puts in the training part;
    ``ratio`` (the train_fraction key) must leave both parts nonempty."""
    n_train = int(round(J * ratio))
    if not 0.0 < ratio < 1.0 or n_train in (0, J):
        raise ValueError(f"train_fraction={ratio!r} must split J={J} rows into nonempty train and test parts")
    return n_train


def split(ds: Dataset, ratio: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, partition at ``ratio``, then standardize both parts
    with statistics fitted on the training part alone.

    Each part's rows are gathered once, and that copy is standardized in
    place; ``ds`` is left unchanged.
    """
    J = len(ds)
    n_train = train_count(J, ratio)
    order = rng.permutation(J)
    tr, te = order[:n_train], order[n_train:]
    train_raw = ds.features[tr]
    scaler = fit_scaler(train_raw)
    make = lambda idx, raw: Dataset(
        worker_id=ds.worker_id,
        features=scaler.transform(raw, out=raw),
        labels=ds.labels[idx],
        rates=ds.rates[idx],
        scaler=scaler,
    )
    return make(tr, train_raw), make(te, ds.features[te])
