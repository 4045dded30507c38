import contextlib
import resource

import numpy as np
import pytest

from heatctrl.biorthogonal import build_multiplier_family, gram_minimal_family
from heatctrl.spectral import build_interval_basis


@pytest.fixture(scope="session")
def basis64():
    return build_interval_basis("DD", np.pi, 64)


@pytest.fixture(scope="session")
def basis45():
    return build_interval_basis("DD", np.pi, 45)


@pytest.fixture(scope="session")
def families(basis64):
    """Multiplier families on lambda_n = n^2 for the window lengths the
    acceptance suite keeps coming back to; built once."""
    return {T: build_multiplier_family(basis64, T, 12, eps=0.05, tol=1e-9)
            for T in (0.5, 1.0, 2.0)}


@pytest.fixture(scope="session")
def gram12(basis64):
    return {T: gram_minimal_family(basis64.lambdas[:12], 12, T)
            for T in (0.5, 1.0, 2.0)}


@contextlib.contextmanager
def _address_space_cap(extra: int):
    """This process's RLIMIT_AS at its current size plus extra bytes, restored on exit."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        cap = int(fh.read().split()[0]) * resource.getpagesize() + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
