"""Correctness gate: every hooked primitive of a small forward pass, run on
the float64-accumulating oracle and on the fast float32 path, must agree
within a bound derived from float32 rounding error.

The pass runs under ``oracle.reference()``, so the network flows on oracle
outputs and the oracle's executed multiply-accumulate count is available;
that count must equal ``graph_cost`` exactly. At each primitive the gate
backend also runs the fast default path on the same inputs and compares.

Bounds (u = 2**-24 is the float32 unit roundoff, gamma_n = n*u / (1 - n*u),
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3):

- conv2d / matmul: a float32 dot product of length K, in any summation
  order, is within gamma_K * sum|w||x| of the exact value (Higham eq. 3.5).
  One more rounding for the bias add, one for rounding the oracle's float64
  result to float32 and one to cover the oracle's own float64 accumulation
  give |fast - ref| <= gamma_{K+3} * (sum|w||x| + |b|). sum|w||x| is
  evaluated with the fast path on |x| and |w|; all its terms are
  nonnegative, so it is low by at most a factor (1 - gamma_K), which the
  bound undoes by inflating it by (1 + 2 gamma_K).
- avg pool: a float32 mean of K = k*k values is within gamma_{K+1} * mean|x|
  of the exact mean; with the oracle's rounding and the same slack the bound
  is gamma_{K+3} * mean|x|, mean|x| inflated as above.
- max pool: taking a maximum rounds nothing, so the outputs must be equal.
- softmax over K entries, first order in u: the shift m - max(m) is rounded
  once, which exp turns into a relative error of |m - max(m)| * u; numpy's
  float32 exp is assumed accurate to EXP_ULPS ulp (relative 2 * EXP_ULPS * u);
  the sum of K positive terms adds gamma_{K-1}; the division and the oracle's
  rounding add u each. Each output's error is bounded by twice the largest
  per-entry exp error in its row (numerator and sum) plus gamma_{K+1},
  relative to the output, times 1.01 for the second-order terms.

Every bound also carries an absolute (K + 3) * smallest-subnormal term for
gradual underflow.
"""
from __future__ import annotations

import time

import numpy as np

from vajrakit import oracle
from vajrakit import tensor as T
from vajrakit.cost import graph_cost
from vajrakit.graph import propagate_shapes

U = 2.0 ** -24
TINY = float(np.finfo(np.float32).smallest_subnormal)
EXP_ULPS = 4


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def _inflate(acc: np.ndarray, k: int) -> np.ndarray:
    return acc.astype(np.float64) * (1.0 + 2.0 * gamma(k))


class GateBackend:
    """Returns oracle results; records the worst |fast - ref| / bound."""

    def __init__(self, ref: oracle.ReferenceBackend):
        self.ref = ref
        self.checked = 0
        self.worst = 0.0
        self.failures = []

    def _compare(self, name, fast, ref, bound):
        self.checked += 1
        err = np.abs(fast.astype(np.float64) - ref.astype(np.float64))
        exact = bound <= 0
        if np.any(err[exact] > 0):
            self.failures.append(f"{name}: exact op differs by {float(err[exact].max()):.3e}")
            self.worst = float("inf")
            return
        if np.any(~exact):
            ratio = float((err[~exact] / bound[~exact]).max())
            self.worst = max(self.worst, ratio)
            if not ratio <= 1.0:
                self.failures.append(f"{name}: error {ratio:.3g}x its float32 bound")

    def conv2d(self, x, spec, weights, bias=None):
        ref = self.ref.conv2d(x, spec, weights, bias)
        with T.override_backend(None):
            fast = T.conv2d(x, spec, weights, bias)
            acc = T.conv2d(np.abs(x), spec, np.abs(weights))
        k = spec.k * spec.k * (spec.c_in // spec.groups)
        total = _inflate(acc, k)
        if bias is not None:
            total += np.abs(np.asarray(bias, np.float64))[None, :, None, None]
        self._compare(f"conv2d k={spec.k} s={spec.stride} g={spec.groups}", fast, ref,
                      gamma(k + 3) * total + (k + 3) * TINY)
        return ref

    def pool2d(self, x, kind, k, stride, padding=0, include_pad=True):
        ref = self.ref.pool2d(x, kind, k, stride, padding, include_pad)
        with T.override_backend(None):
            fast = T.pool2d(x, kind, k, stride, padding, include_pad)
            if kind == "max":
                bound = np.zeros(ref.shape)
            else:
                acc = T.pool2d(np.abs(x), kind, k, stride, padding, include_pad)
                bound = gamma(k * k + 3) * _inflate(acc, k * k) + (k * k + 3) * TINY
        self._compare(f"pool2d {kind} k={k} s={stride}", fast, ref, bound)
        return ref

    def matmul_batched(self, a, b):
        ref = self.ref.matmul_batched(a, b)
        k = a.shape[-1]
        with T.override_backend(None):
            fast = T.matmul_batched(a, b)
            acc = T.matmul_batched(np.abs(a), np.abs(b))
        self._compare(f"matmul_batched K={k}", fast, ref,
                      gamma(k + 3) * _inflate(acc, k) + (k + 3) * TINY)
        return ref

    def softmax_lastdim(self, m):
        ref = self.ref.softmax_lastdim(m)
        k = m.shape[-1]
        with T.override_backend(None):
            fast = T.softmax_lastdim(m)
        m64 = np.asarray(m, np.float64)
        shift = (m64.max(axis=-1, keepdims=True) - m64.min(axis=-1, keepdims=True)) * U
        rel = 2.0 * (shift + 2 * EXP_ULPS * U) + gamma(k + 1)
        bound = 1.01 * rel * np.abs(ref.astype(np.float64)) + (k + 3) * TINY
        self._compare(f"softmax_lastdim K={k}", fast, ref, bound)
        return ref


def run_gate(model, x: np.ndarray) -> dict:
    """One forward pass of `model` on the small input `x` on the oracle,
    comparing every primitive with the fast path; returns the gate summary."""
    n, c, h, w = x.shape
    t0 = time.perf_counter()
    with oracle.reference() as ref:
        gate = GateBackend(ref)
        with T.override_backend(gate):
            outs = model.stage_outputs(x)
    seconds = time.perf_counter() - t0
    failures = list(gate.failures)
    cost_macs = graph_cost(model.graph, (c, h, w)).totals["macs"] * n
    if ref.macs != cost_macs:
        failures.append(f"oracle counted {ref.macs} MACs, graph_cost predicts {cost_macs}")
    failures += check_outputs(outs, expected_shapes(model.graph, x.shape))
    return {
        "ok": not failures,
        "failures": failures[:8],
        "seconds": seconds,
        "ops_checked": gate.checked,
        "max_err_over_bound": gate.worst,
        "oracle_macs": ref.macs,
        "cost_macs": cost_macs,
    }


def expected_shapes(graph, shape) -> dict:
    """Stage tag -> output shape, as ``Model.stage_outputs`` keys them."""
    n, c, h, w = shape
    shapes = propagate_shapes(graph, c, h, w)
    tagged = {node.stage: node.id for node in graph.nodes if node.stage is not None}
    if not tagged:
        last = graph.nodes[-1].id
        tagged = {last: last}
    return {tag: (n, *shapes[nid]) for tag, nid in tagged.items()}


def check_outputs(outs: dict, shapes: dict) -> list:
    """Failure messages for wrong keys, wrong shapes or non-finite values."""
    if set(outs) != set(shapes):
        return [f"outputs {sorted(outs)} != expected {sorted(shapes)}"]
    bad = []
    for tag, want in shapes.items():
        arr = outs[tag]
        if arr.shape != want:
            bad.append(f"{tag}: shape {arr.shape} != {want}")
        elif not np.isfinite(arr).all():
            bad.append(f"{tag}: non-finite values")
    return bad
