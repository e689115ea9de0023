"""vajrakit: a from-scratch VajraV1 block engine.

Dense NCHW tensor ops, every VajraV1 computational block, a numerically
verified structural-reparameterization pass, an analytic MAC/parameter cost
model with a brute-force counting oracle, config-driven model assembly across
five scales, and a CLI (describe / cost / reparam-check / forward / selftest).
"""

from .tensor import (
    BNParams,
    ConvSpec,
    ShapeError,
    activation,
    add,
    batchnorm_infer,
    concat_channels,
    conv2d,
    conv_out_hw,
    global_avg_pool,
    matmul_batched,
    pool2d,
    softmax_lastdim,
    split_channels,
    tensor4,
    upsample_nearest,
)
from . import blocks, cost, oracle, reparam
from .cost import adown_cost, conv_cost, graph_cost
from .graph import ConfigError, Model, ModelGraph, ScaleConfig, forward_graph, parse_config, serialize_config
from .presets import REFERENCE_TOTALS, SCALES, load_preset, preset_text
from .reparam import fuse_block, fuse_conv_bn, fuse_repvgg, embed_kernel, reparam_graph, verify_equivalence
from .weights import WeightFormatError, WeightStore, init_weights

__version__ = "0.1.0"
