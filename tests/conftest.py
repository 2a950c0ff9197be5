import math

import pytest

from risfed import harness
from risfed.channel import CARRIER_WAVELENGTH_M, Placement, make_worker_geometry
from risfed.fed import substream
from risfed.harness import RX_DISTANCE_M, TX_DISTANCE_M


def small_geometry(spacing_wl=0.25, rx_az_deg=28.0, tx_az_deg=-22.0, rx_el_deg=2.0, seed=7, key=1):
    rng = substream(seed, key)
    tx = Placement(distance=TX_DISTANCE_M, azimuth=math.radians(tx_az_deg), elevation=0.0)
    rx = Placement(distance=RX_DISTANCE_M, azimuth=math.radians(rx_az_deg), elevation=math.radians(rx_el_deg))
    return make_worker_geometry(spacing_wl * CARRIER_WAVELENGTH_M, tx, rx, rng)


@pytest.fixture(scope="session")
def tiny_fleet():
    """The default fleet's train and test splits at J=240: the four workers the program trains, shrunk."""
    train_sets, test_sets, _ = harness.generate_data(harness.ExperimentConfig(J=240, dataset_seed=99))
    return train_sets, test_sets
