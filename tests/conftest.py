import numpy as np
import pytest

from vajrakit.selftest import rand_bn  # noqa: F401  (re-exported to the test modules)
from vajrakit.tensor import DTYPE, BNParams

U = 2.0 ** -24  # float32 unit roundoff
TANH_ULPS = 4  # numpy's float32 tanh, assumed accurate to 4 ulp


def gamma(n: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): the relative error bound of n
    float32 roundings (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return n * U / (1.0 - n * U)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def randomize(block, rng, scale=0.3, with_bn=False):
    """Set a block's parameters to fresh random arrays: kernels always,
    biases always, batchnorm statistics only when with_bn."""
    for name, owner, attr, is_stat in block.slots("t"):
        shape = getattr(owner, attr).shape
        new = None
        if is_stat:
            if with_bn:
                if name.endswith(".mean"):
                    new = rng.normal(0, 0.2, shape)
                else:  # .var
                    new = rng.uniform(0.25, 1.5, shape)
        elif len(shape) == 4:
            new = rng.standard_normal(shape) * scale
        elif name.endswith(".b"):
            new = rng.normal(0, 0.1, shape)
        elif with_bn and name.endswith(".gamma"):
            new = rng.uniform(0.8, 1.25, shape)
        elif with_bn and name.endswith(".beta"):
            new = rng.normal(0, 0.1, shape)
        if new is not None:
            setattr(owner, attr, new.astype(DTYPE))
    return block


def identity_bn(c: int) -> BNParams:
    """Identity statistics with eps 0: batchnorm is then exactly the identity."""
    ones, zeros = np.ones(c, DTYPE), np.zeros(c, DTYPE)
    return BNParams(ones, zeros, zeros, ones, eps=0.0)


def rand_input(rng, n, c, h, w):
    return rng.standard_normal((n, c, h, w)).astype(DTYPE)
