import numpy as np
import pytest

from vajrakit.tensor import DTYPE, BNParams

U = 2.0 ** -24  # float32 unit roundoff


def gamma(n: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): the relative error bound of n
    float32 roundings (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return n * U / (1.0 - n * U)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_bn(rng, c, eps=1e-3) -> BNParams:
    """Well-conditioned random statistics: positive var, moderate gain."""
    return BNParams(
        rng.uniform(0.5, 1.5, c).astype(DTYPE),
        rng.normal(0, 0.2, c).astype(DTYPE),
        rng.normal(0, 0.5, c).astype(DTYPE),
        rng.uniform(0.25, 2.0, c).astype(DTYPE),
        eps,
    )


def randomize(block, rng, scale=0.3, with_bn=False):
    """Fill a block's parameters in place: kernels always, biases always,
    batchnorm statistics only when with_bn."""
    for name, arr, is_stat in block.named_arrays("t"):
        if is_stat:
            if with_bn:
                if name.endswith(".mean"):
                    arr[...] = rng.normal(0, 0.2, arr.shape).astype(DTYPE)
                else:  # .var
                    arr[...] = rng.uniform(0.25, 1.5, arr.shape).astype(DTYPE)
        elif arr.ndim == 4:
            arr[...] = (rng.standard_normal(arr.shape) * scale).astype(DTYPE)
        elif name.endswith(".b"):
            arr[...] = rng.normal(0, 0.1, arr.shape).astype(DTYPE)
        elif with_bn and name.endswith(".gamma"):
            arr[...] = rng.uniform(0.8, 1.25, arr.shape).astype(DTYPE)
        elif with_bn and name.endswith(".beta"):
            arr[...] = rng.normal(0, 0.1, arr.shape).astype(DTYPE)
    return block


def rand_input(rng, n, c, h, w):
    return rng.standard_normal((n, c, h, w)).astype(DTYPE)
