import numpy as np
import pytest

from dnet import (Grid, NetFile, Signature, guichard_generate, omega_edge_labels,
                  omega_from_darboux_pair, random_isothermic, standard_lie_frame)


@pytest.fixture(scope="session")
def net41():
    rng = np.random.default_rng(7)
    return random_isothermic(Grid([6, 6]), Signature(4, 1), rng)


@pytest.fixture(scope="session")
def net42():
    rng = np.random.default_rng(7)
    return random_isothermic(Grid([6, 6]), Signature(4, 2), rng)


@pytest.fixture(scope="session")
def omega_net(net42):
    rng = np.random.default_rng(5)
    return omega_from_darboux_pair(net42, rng=rng)


@pytest.fixture(scope="session")
def guichard():
    return guichard_generate([5, 5], seed=1)


@pytest.fixture(scope="session")
def lie_frame():
    return standard_lie_frame()


@pytest.fixture(scope="session")
def edgeless_omega():
    """The Omega-net file of one vertex, as `gen omega --dims 1x1 --seed 1`
    wrote it before that command refused a grid without an edge: its
    ``eta`` and ``m`` are empty."""
    frame, rng = standard_lie_frame(), np.random.default_rng(1)
    om = omega_from_darboux_pair(random_isothermic(Grid([1, 1]), frame.signature, rng,
                                                   frame=frame), rng=rng)
    return NetFile(signature=(4, 2), dims=(1, 1), frame=NetFile.frame_section(frame),
                   vertex_fields={"mu_plus": om.mu_plus, "mu_minus": om.mu_minus,
                                  "y": om.y, "t": om.t},
                   form1_fields={"eta": om.eta}, edge_fields={"m": omega_edge_labels(om)},
                   metadata={"generator": "omega", "seed": 1, "params": {}})
