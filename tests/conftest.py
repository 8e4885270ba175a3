import numpy as np
import pytest

from dfsqc.encoding import LogicalRegister

#: X(pi/2) on logical qubit 0, then the CNOT (0, 1): it maps the four
#: logical basis inputs onto the four Bell states.
BELL_CIRCUIT = [("x", 0, np.pi / 2), ("cnot", 0, 1)]


def random_density_matrix(dim, rng, rank=None):
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(dim, rng):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def register2():
    return LogicalRegister(2)


@pytest.fixture
def register1():
    return LogicalRegister(1)
