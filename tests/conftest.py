import math

import pytest

from risfed.channel import CARRIER_WAVELENGTH_M, Placement, make_worker_geometry
from risfed.fed import substream
from risfed.harness import LINK, RX_DISTANCE_M, SCATTER_EXTRA_HI, SCATTER_EXTRA_LO, TX_DISTANCE_M
from risfed.labeling import WorkerProfile, gen_dataset, split


def small_geometry(spacing_wl=0.25, rx_az_deg=28.0, tx_az_deg=-22.0, rx_el_deg=2.0, seed=7, key=1):
    rng = substream(seed, key)
    tx = Placement(distance=TX_DISTANCE_M, azimuth=math.radians(tx_az_deg), elevation=0.0)
    rx = Placement(distance=RX_DISTANCE_M, azimuth=math.radians(rx_az_deg), elevation=math.radians(rx_el_deg))
    return make_worker_geometry(spacing_wl * CARRIER_WAVELENGTH_M, tx, rx, rng, SCATTER_EXTRA_LO, SCATTER_EXTRA_HI)


def small_worker_data(worker_id=0, J=240, dataset_seed=99, **geom_kw):
    profile = WorkerProfile(worker_id, small_geometry(key=worker_id + 1, **geom_kw), LINK)
    rng = substream(dataset_seed, worker_id)
    ds = gen_dataset(profile, J, rng)
    return split(ds, rng)


@pytest.fixture(scope="session")
def tiny_fleet():
    """Four small, quick worker datasets for federation-level unit tests."""
    angles = [(35.0, -30.0), (28.0, -22.0), (20.0, -35.0), (14.0, -25.0)]
    train_sets, test_sets = [], []
    for w, (rx, tx) in enumerate(angles):
        tr, te = small_worker_data(worker_id=w, J=240, rx_az_deg=rx, tx_az_deg=tx,
                                   spacing_wl=(0.125, 0.25, 0.5, 1.0)[w])
        train_sets.append(tr)
        test_sets.append(te)
    return train_sets, test_sets
