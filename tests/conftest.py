import pytest

from pstchain.pipeline import STANDARD_FAMILIES, design_standard

SEED = 20260809


@pytest.fixture(scope="session")
def chains31():
    """The five standard designed chains at N = 31, max coupling normalized."""
    return {name: design_standard(name, 31) for name in STANDARD_FAMILIES}


@pytest.fixture(scope="session")
def chains1001():
    """Designed chains at N = 1001, max coupling normalized: linear (closed form
    known) and the two families whose full-chain weights underflowed there."""
    return {name: design_standard(name, 1001) for name in ("linear", "quadratic", "sqrt_boundary")}
