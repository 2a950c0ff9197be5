"""Rate evaluation, configuration classes and per-worker dataset synthesis.

The discrete action space is a 4-codeword phase codebook.  Codeword c
conjugate-matches the TX steering phase and redirects the reflection toward
azimuth a_R + offset_c, so the label of a CSI draw (the rate-maximizing
codeword) is a deterministic, physically meaningful function of the channel
pair.  Datasets are synthesized by labeling i.i.d. channel draws with an
exhaustive codebook search, and each is split ``TRAIN_FRACTION`` to train
and the rest to test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NUM_ELEMENTS, ScenarioGeometry, array_response, gen_channel_pairs
from .channel import gen_channel_pair  # noqa: F401  (perfbench's tracer patches it through this module)

NUM_CLASSES = 4
FEATURE_DIM = 4 * NUM_ELEMENTS  # [Re h, Im h, Re g, Im g]
TRAIN_FRACTION = 0.8

# Azimuth offsets (degrees) of the four steering codewords around the RX.
CODEBOOK_OFFSETS_DEG = (-20.0, -7.0, 7.0, 20.0)
# A sample is labelled from all four rates when another codeword's cascade
# modulus is within this relative band of the peak's, or the peak SNR is
# below this floor (see _labels_and_rates).
TIE_BAND = 1e-6
SNR_FLOOR = 1e-3

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
        """Standardize ``raw`` in place, to (raw - mean) / sd, and return it."""
        np.subtract(raw, self.mean, out=raw)
        return np.divide(raw, self.sd, out=raw)

    def inverse(self, standardized: np.ndarray) -> np.ndarray:
        return standardized * self.sd + self.mean


def fit_scaler(raw_features: np.ndarray) -> FeatureScaler:
    """Fit column mean/sd on the fitting set and standardize it in place;
    constant columns keep sd = 1.

    The rows are centred once and the sd is taken from the centred rows with
    the operations of numpy's ``std(axis=0)`` (sum of squares over n, then
    sqrt), so mean, sd and the standardized rows are bit-identical to
    ``mean(axis=0)``, ``std(axis=0)`` and ``(raw - mean) / sd``.
    """
    mean = raw_features.mean(axis=0)
    centred = np.subtract(raw_features, mean, out=raw_features)
    sd = np.sqrt(np.add.reduce(np.square(centred), axis=0) / len(centred))
    sd = np.where(sd > 0.0, sd, 1.0)
    np.divide(centred, sd, out=centred)
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
    """Downlink rate w * log2(1 + |g^H diag(phi) h|^2 p / (w N0)) in bit/s; phi, h, g are arrays."""
    if not (phi.shape == h.shape == g.shape):
        raise ValueError(f"shape mismatch: phi {phi.shape}, h {h.shape}, g {g.shape}")
    cascade = np.vdot(g, phi * h)  # vdot conjugates its first argument
    return _rates_of_moduli([float(abs(cascade))], params)[0]


def _rates_of_moduli(moduli: list[float], params: RateParams) -> list[float]:
    """:func:`rate` of each modulus |g^H diag(phi) h| of a flat list, in
    Python floats: numpy's array square and log2 can differ from these in
    the last bit."""
    w, p = params.bandwidth, params.tx_power
    noise = w * params.noise_psd
    return [w * math.log2(1.0 + (m ** 2) * p / noise) for m in moduli]


def _labels_and_rates(moduli: np.ndarray, params: RateParams) -> tuple[np.ndarray, np.ndarray]:
    """First argmax and maximum of the :func:`_rates_of_moduli` rates of each
    row of (J, 4) non-negative cascade moduli, bit for bit, from one rate
    per row where that is exact.

    A row's label is the first argmax of its moduli, and only that
    codeword's rate is computed.  The Python-float rate m -> m**2 -> * p ->
    / (w N0) -> 1 + s -> log2 -> * w is a chain of steps that are each
    correctly rounded or within one ulp, so it is monotone in m up to a few
    ulp.  Suppose every other modulus is below (1 - TIE_BAND) times the
    peak, the peak SNR s is at least SNR_FLOOR and the peak's rate is
    finite.  Then the two arguments of log2 differ by a relative
    2 * TIE_BAND * s / (1 + s), at least about 2e-9 or some 10^7 ulp, and
    their log2 by at least 2.8e-9 against values of at most 1024 (ulp
    2.3e-13).  So the peak's rate is strictly the largest, and the first
    argmax of the four rates is the peak.

    Every other row takes all four rates, as :func:`label` does: a rival
    within the band (exact ties included), an SNR so small that 1 + s drops
    the difference, or a peak rate that is not finite.  The last two also
    catch every non-finite modulus: argmax takes a NaN as the peak, which
    fails the SNR floor, and an infinite peak has an infinite rate.
    """
    J = len(moduli)
    labels = moduli.argmax(axis=1)
    peak = moduli[np.arange(J), labels]
    with np.errstate(over="ignore"):
        snr = np.square(peak) * params.tx_power / (params.bandwidth * params.noise_psd)
        rivals = np.count_nonzero(moduli >= peak[:, None] * (1.0 - TIE_BAND), axis=1) > 1
    single = np.flatnonzero(~rivals & (snr >= SNR_FLOOR))
    rates = np.full(J, np.nan)  # NaN marks the rows still to be labelled from four rates
    rates[single] = _rates_of_moduli(peak[single].tolist(), params)
    redo = np.flatnonzero(~np.isfinite(rates))
    if redo.size:
        all_rates = np.array([_rates_of_moduli(row, params) for row in moduli[redo].tolist()])
        labels[redo] = all_rates.argmax(axis=1)
        rates[redo] = all_rates[np.arange(len(redo)), labels[redo]]
    return labels, rates


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
    codewords = np.empty((NUM_CLASSES, NUM_ELEMENTS), dtype=complex)
    for c, offset_deg in enumerate(CODEBOOK_OFFSETS_DEG):
        steer = array_response(geom.rx.azimuth + math.radians(offset_deg), geom.rx.elevation, geom)
        raw = np.conj(tx_response) * steer
        codewords[c] = raw / np.abs(raw)
    return Codebook(codewords=codewords)


# no command calls label: it is the tests' per-sample oracle and a perfbench tracer target
def label(h: np.ndarray, g: np.ndarray, codebook: Codebook, params: RateParams) -> int:
    """Index of the rate-maximizing codeword for the channel pair (h, g);
    ties resolve to the lowest index."""
    rates = [rate(codebook.codewords[c], h, g, params) for c in range(NUM_CLASSES)]
    return int(np.argmax(rates))


def raw_features(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unscaled 400-dim encoding [Re h, Im h, Re g, Im g] of a channel pair,
    one row per draw when h and g are stacks of draws."""
    return np.concatenate([h.real, h.imag, g.real, g.imag], axis=-1)


def decode_features(features: np.ndarray, scaler: FeatureScaler | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`raw_features` back to the channel pair (h, g); with a
    scaler, first undo its standardization."""
    raw = np.asarray(features, dtype=float)
    if raw.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected {FEATURE_DIM} features, got {raw.shape[-1]}")
    if scaler is not None:
        raw = scaler.inverse(raw)
    q = NUM_ELEMENTS
    h = raw[..., 0:q] + 1j * raw[..., q : 2 * q]
    g = raw[..., 2 * q : 3 * q] + 1j * raw[..., 3 * q : 4 * q]
    return h, g


def gen_dataset(profile: WorkerProfile, J: int, rng: np.random.Generator) -> Dataset:
    """Draw J channel samples and label each by exhaustive codebook search.

    Each label is the first rate-maximizing codeword, and ``rates`` holds its
    rate.  The cascades are one stacked BLAS dot per codeword
    (:func:`_rowwise_dot`), bit-identical to ``np.vdot``.  Each sample is
    labelled from its four cascade moduli by :func:`_labels_and_rates`,
    which computes one :func:`_rates_of_moduli` rate per sample and all four
    only on the rows where the rates could tie or change order, so the
    dataset is bit-identical to calling :func:`label` and :func:`rate` on
    each sample of :func:`gen_channel_pair`.
    Features are left raw; standardization happens in :func:`split`, on the
    training portion only.
    """
    h, g = gen_channel_pairs(profile.geometry, rng, J)
    codebook = build_codebook(profile.geometry)
    features = raw_features(h, g)  # copies g, so g can be conjugated in place
    g_conj = np.conjugate(g, out=g)
    cascades = np.empty((J, NUM_CLASSES), dtype=complex)
    for c, phi in enumerate(codebook.codewords):
        cascades[:, c] = _rowwise_dot(g_conj, phi * h)
    labels, rates = _labels_and_rates(np.hypot(cascades.real, cascades.imag), profile.rate)
    return Dataset(worker_id=profile.worker_id, features=features, labels=labels, rates=rates)


def train_count(J: int) -> int:
    """Rows of a J-row dataset that :func:`split` puts in the training part;
    J must leave both parts nonempty."""
    n_train = int(round(J * TRAIN_FRACTION))
    if n_train in (0, J):
        raise ValueError(f"J={J} rows split at ratio {TRAIN_FRACTION!r} leave the train or the test part empty")
    return n_train


def split(ds: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, partition at ``TRAIN_FRACTION``, then standardize both
    parts with statistics fitted on the training part alone.

    Each part's rows are gathered once, and that copy is standardized in
    place; ``ds`` is left unchanged.
    """
    J = len(ds)
    n_train = train_count(J)
    order = rng.permutation(J)
    tr, te = order[:n_train], order[n_train:]
    train_features = ds.features[tr]
    scaler = fit_scaler(train_features)
    test_features = ds.features[te]
    scaler.transform(test_features)
    make = lambda idx, features: Dataset(
        worker_id=ds.worker_id, features=features, labels=ds.labels[idx], rates=ds.rates[idx], scaler=scaler)
    return make(tr, train_features), make(te, test_features)
