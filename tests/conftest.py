import numpy as np
import pytest

from neumann_lab import norms
from neumann_lab.domain import DomainSpec, build_mesh


@pytest.fixture(autouse=True)
def cold_kernel_memo():
    """Every test starts with the Holder kernel's node-set memo empty, so
    that no test depends on the ones run before it."""
    norms._node_set.cache_clear()


@pytest.fixture(scope="session")
def disk_mesh_small():
    return build_mesh(DomainSpec.disk(), (16, 32))


@pytest.fixture(scope="session")
def disk_mesh():
    return build_mesh(DomainSpec.disk(), (32, 64))


@pytest.fixture(scope="session")
def disk_mesh_fine():
    return build_mesh(DomainSpec.disk(), (64, 128))


@pytest.fixture(scope="session")
def star_mesh():
    return build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (16, 32))


@pytest.fixture(scope="session")
def interval_mesh():
    return build_mesh(DomainSpec.interval(0.0, 1.0), 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
