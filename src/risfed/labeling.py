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

from .channel import ChannelSample, ScenarioGeometry, array_response, gen_channel_pair

NUM_CLASSES = 4
FEATURE_DIM = 400

# Azimuth offsets (degrees) of the four steering codewords around the RX.
CODEBOOK_OFFSETS_DEG = (-20.0, -7.0, 7.0, 20.0)

DATASET_FORMAT_VERSION = "risfed-dataset-v1"


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

    def transform(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.mean) / self.sd

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

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=NUM_CLASSES)


def rate(phi: np.ndarray, h: np.ndarray, g: np.ndarray, params: RateParams) -> float:
    """Downlink rate w * log2(1 + |g^H diag(phi) h|^2 p / (w N0)) in bit/s."""
    phi = np.asarray(phi)
    h = np.asarray(h)
    g = np.asarray(g)
    if not (phi.shape == h.shape == g.shape):
        raise ValueError(f"shape mismatch: phi {phi.shape}, h {h.shape}, g {g.shape}")
    cascade = np.vdot(g, phi * h)  # vdot conjugates its first argument
    snr = (abs(cascade) ** 2) * params.tx_power / (params.bandwidth * params.noise_psd)
    return params.bandwidth * math.log2(1.0 + snr)


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
    """Unscaled 400-dim encoding [Re h, Im h, Re g, Im g] of a CSI sample."""
    if 4 * sample.h.size != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM // 4} elements per channel vector, got {sample.h.size}")
    return np.concatenate([sample.h.real, sample.h.imag, sample.g.real, sample.g.imag])


def encode_features(sample: ChannelSample, scaler: FeatureScaler | None = None) -> np.ndarray:
    """Encode a sample; standardize when a fitted scaler is supplied."""
    raw = raw_features(sample)
    return raw if scaler is None else scaler.transform(raw)


def decode_features(features: np.ndarray, scaler: FeatureScaler | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_features` back to the channel pair (h, g)."""
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

    Features are left raw; standardization happens in :func:`split`, on the
    training portion only.
    """
    if J <= 0:
        raise ValueError("J must be > 0")
    codebook = build_codebook(profile.geometry)
    features = np.empty((J, FEATURE_DIM))
    labels = np.empty(J, dtype=np.int64)
    rates = np.empty(J)
    for j in range(J):
        sample = gen_channel_pair(profile.geometry, rng)
        c = label(sample, codebook, profile.rate)
        features[j] = raw_features(sample)
        labels[j] = c
        rates[j] = rate(codebook.codewords[c], sample.h, sample.g, profile.rate)
    return Dataset(worker_id=profile.worker_id, features=features, labels=labels, rates=rates)


def split(ds: Dataset, ratio: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, partition at ``ratio``, then standardize both parts
    with statistics fitted on the training part alone."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    J = len(ds)
    order = rng.permutation(J)
    n_train = int(round(J * ratio))
    if n_train == 0 or n_train == J:
        raise ValueError(f"ratio {ratio} leaves an empty split for J={J}")
    tr, te = order[:n_train], order[n_train:]
    scaler = fit_scaler(ds.features[tr])
    make = lambda idx: Dataset(
        worker_id=ds.worker_id,
        features=scaler.transform(ds.features[idx]),
        labels=ds.labels[idx],
        rates=ds.rates[idx],
        scaler=scaler,
    )
    return make(tr), make(te)


def save_dataset(ds: Dataset, stem: str, extra_meta: dict[str, str] | None = None) -> tuple[str, str]:
    """Write ``<stem>.csv`` plus a ``<stem>.meta`` header file.

    CSV: header row, then one row per sample: f000..f399 (floats, shortest
    round-trip decimal), label (int), rate (float, diagnostic).  Meta file:
    flat ``key = value`` lines with the format version, worker id, sample
    count and the standardization vectors (comma-joined, empty when the
    dataset is unscaled).
    """
    csv_path, meta_path = stem + ".csv", stem + ".meta"
    cols = [f"f{i:03d}" for i in range(FEATURE_DIM)] + ["label", "rate"]
    with open(csv_path, "w") as f:
        f.write(",".join(cols) + "\n")
        for j in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[j]]
            row.append(str(int(ds.labels[j])))
            row.append(repr(float(ds.rates[j])))
            f.write(",".join(row) + "\n")
    meta = {
        "format": DATASET_FORMAT_VERSION,
        "worker_id": str(ds.worker_id),
        "num_samples": str(len(ds)),
        "scaler_mean": ",".join(repr(float(v)) for v in ds.scaler.mean) if ds.scaler else "",
        "scaler_sd": ",".join(repr(float(v)) for v in ds.scaler.sd) if ds.scaler else "",
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(meta_path, "w") as f:
        for k, v in meta.items():
            f.write(f"{k} = {v}\n")
    return csv_path, meta_path


def load_dataset(stem: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`."""
    meta: dict[str, str] = {}
    with open(stem + ".meta") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            k, _, v = line.partition("=")
            meta[k.strip()] = v.strip()
    if meta.get("format") != DATASET_FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format: {meta.get('format')!r}")
    data = np.loadtxt(stem + ".csv", delimiter=",", skiprows=1, ndmin=2)
    features = data[:, :FEATURE_DIM]
    labels = data[:, FEATURE_DIM].astype(np.int64)
    rates = data[:, FEATURE_DIM + 1]
    scaler = None
    if meta.get("scaler_mean"):
        mean = np.array([float(x) for x in meta["scaler_mean"].split(",")])
        sd = np.array([float(x) for x in meta["scaler_sd"].split(",")])
        scaler = FeatureScaler(mean=mean, sd=sd)
    return Dataset(
        worker_id=int(meta["worker_id"]),
        features=features,
        labels=labels,
        rates=rates,
        scaler=scaler,
    )
