import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import relclock as rc


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20110730)


@pytest.fixture(scope="session")
def ideal_clock():
    return rc.build_ideal_clock(48, tau=4.0)


@pytest.fixture(scope="session")
def free_clock():
    return rc.build_free_particle_clock(128, mass=30.0, sigma0=0.4, delta_c=0.35, tau=4.0)


@pytest.fixture(scope="session")
def small_clock():
    # 40 nodes, 3 in a reading window: small enough for the full-space oracles at d = 4
    return rc.build_free_particle_clock(40, mass=30.0, sigma0=0.5, delta_c=0.35, tau=1.5)


@pytest.fixture(scope="session")
def h_z():
    return rc.Observable.from_matrix(rc.SIGMA_Z)


@pytest.fixture(scope="session")
def h_x():
    return rc.Observable.from_matrix(rc.SIGMA_X)
