import numpy as np
import pytest

from vajrakit.selftest import rand_bn, randomize  # noqa: F401  (re-exported to the test modules)
from vajrakit.tensor import DTYPE, BNParams

U = 2.0 ** -24  # float32 unit roundoff
TANH_ULPS = 4  # numpy's float32 tanh, assumed accurate to 4 ulp
EXP_ULPS = 4  # numpy's float32 exp, assumed accurate to 4 ulp


def gamma(n: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): the relative error bound of n
    float32 roundings (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return n * U / (1.0 - n * U)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def identity_bn(c: int) -> BNParams:
    """Identity statistics with eps 0: batchnorm is then exactly the identity."""
    ones, zeros = np.ones(c, DTYPE), np.zeros(c, DTYPE)
    return BNParams(ones, zeros, zeros, ones, eps=0.0)


def rand_input(rng, n, c, h, w):
    return rng.standard_normal((n, c, h, w)).astype(DTYPE)
