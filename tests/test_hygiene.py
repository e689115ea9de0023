"""Source hygiene: every imported name in the package is used, thread
pools are built and the image-run count is set in one place, one function
reaches the BLAS library, no op or block writes into an input except
through out=, MetaBackend defines every hooked op, and no new test gates on
a bare absolute tolerance."""
import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import vajrakit
from vajrakit import blocks as B
from vajrakit import tensor as T
from vajrakit.cost import MetaBackend
from vajrakit.graph import Model
from vajrakit.presets import load_preset
from vajrakit.reparam import reparam_graph
from vajrakit.weights import init_weights

MODULES = sorted(p for p in Path(vajrakit.__file__).parent.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text("utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused {unused}"


def _pool_refs(tree) -> int:
    return sum((isinstance(n, ast.Name) and n.id == "ThreadPoolExecutor")
               or (isinstance(n, ast.Attribute) and n.attr == "ThreadPoolExecutor") for n in ast.walk(tree))


def test_thread_pools_are_built_only_in_run_spans():
    # weights.run_spans joins every worker and raises a worker's error in the
    # caller; a pool built anywhere else would have to restate both
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in Path(vajrakit.__file__).parent.rglob("*.py")}
    helper = next(n for n in trees["weights.py"].body if isinstance(n, ast.FunctionDef) and n.name == "run_spans")
    assert _pool_refs(helper) == 1
    assert {name: n for name, tree in trees.items() if (n := _pool_refs(tree))} == {"weights.py": 1}


def _calls_into(fn, name) -> int:
    """References to `name` in fn, as a bare name or an attribute."""
    return sum((isinstance(n, ast.Name) and n.id == name) or (isinstance(n, ast.Attribute) and n.attr == name)
               for n in ast.walk(fn))


def test_blas_library_is_reached_only_through_one_function():
    # weights._openblas is the one function that looks into the BLAS library
    # (ctypes is imported in weights.py alone), and weights.one_blas_thread,
    # whose hold restores the caller's thread count, the one that uses it;
    # another caller would have to restate that hold
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in Path(vajrakit.__file__).parent.rglob("*.py")}
    assert {name for name, tree in trees.items() if "ctypes" in set(_imported_names(tree))} == {"weights.py"}
    functions = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert [f.name for f in functions if _calls_into(f, "ctypes")] == ["_openblas"]
    assert [f.name for f in functions if _calls_into(f, "_openblas")] == ["one_blas_thread"]
    assert _calls_into(trees["weights.py"], "ctypes") == _calls_into(
        next(f for f in functions if f.name == "_openblas"), "ctypes")


def _run_count_sets(tree) -> int:
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "set"
               and _calls_into(n.func.value, "RUNS") > 0 for n in ast.walk(tree))


def test_run_count_is_set_only_in_run_spans():
    # weights.run_spans makes the image runs of a batched pass, so it alone
    # knows how many there are; a caller setting tensor.RUNS would predict it
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in Path(vajrakit.__file__).parent.rglob("*.py")}
    helper = next(n for n in trees["weights.py"].body if isinstance(n, ast.FunctionDef) and n.name == "run_spans")
    assert _run_count_sets(helper) == 1
    assert {name: n for name, tree in trees.items() if (n := _run_count_sets(tree))} == {"weights.py": 1}


def _read_only(shape, seed=0):
    a = np.random.default_rng(seed).standard_normal(shape).astype(T.DTYPE)
    a.flags.writeable = False
    return a


def _hooked_calls():
    """(op name, call) pairs running each hooked op's fast path on read-only arrays."""
    x, y = _read_only((2, 4, 6, 6), 1), _read_only((2, 4, 6, 6), 2)
    bn = T.BNParams(*(np.abs(_read_only((4,), s)) for s in range(3, 7)))
    calls = [("conv2d", lambda s=s: T.conv2d(x, s, _read_only(s.weight_shape), _read_only((4,))))
             for s in (T.ConvSpec(4, 4, 3, 1, 1), T.ConvSpec(4, 4, 1, 2, 0), T.ConvSpec(4, 4, 3, 2, 1, 4))]
    calls += [("pool2d", lambda: T.pool2d(x, "max", 3, 2, 1)), ("pool2d", lambda: T.pool2d(x, "avg", 2, 1, 0)),
              ("batchnorm_infer", lambda: T.batchnorm_infer(x, bn))]
    calls += [("activation", lambda k=k: T.activation(x, k)) for k in ("silu", "sigmoid", "identity")]
    calls += [("add", lambda: T.add(x, y)), ("mul", lambda: T.mul(x, y)),
              ("split_channels", lambda: T.split_channels(x, 2)),
              ("concat_channels", lambda: T.concat_channels([x, y])),
              ("upsample_nearest", lambda: T.upsample_nearest(x)),
              ("global_avg_pool", lambda: T.global_avg_pool(x)),
              ("matmul_batched", lambda: T.matmul_batched(x, y)),
              ("softmax_lastdim", lambda: T.softmax_lastdim(x))]
    return calls


def _hooked_ops() -> set:
    """Names of the ops that dispatch through tensor._hooked."""
    dispatch = T.conv2d.__code__
    return {name for name, f in vars(T).items() if getattr(f, "__code__", None) is dispatch}


def test_every_hooked_op_runs_on_read_only_inputs():
    # numpy raises on any write into a read-only array, so an op that wrote
    # into an input other than through out= fails here
    seen = set()
    for name, call in _hooked_calls():
        call()
        seen.add(name)
    assert seen == _hooked_ops()


def test_meta_backend_defines_every_hooked_op():
    # static_walk runs forwards on zero views under MetaBackend; an op it
    # lacked would run its fast path on them
    assert _hooked_ops() - set(dir(MetaBackend)) == set()


def _block_classes(cls=B.Block):
    for sub in cls.__subclasses__():
        yield sub
        yield from _block_classes(sub)


def _read_only_view(x):
    """A read-only view of x; of a concat view, a concat view of read-only
    views of its parts."""
    if type(x) is T.ConcatView:
        return T.ConcatView([_read_only_view(part) for part in x.parts])
    view = x.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("form", ["train", "fused"])
@pytest.mark.parametrize("scale", ["N", "M", "X"])
def test_no_block_writes_into_its_input(scale, form, monkeypatch):
    # every block's forward is handed a read-only view of its input (of a
    # concat view's every part), so a block that wrote into its input, or
    # into a split part of it, raises;
    # writes into buffers the block got from its own ops still succeed
    graph, _ = load_preset(scale)
    store = init_weights(graph, 0)
    if form == "fused":
        graph, store = reparam_graph(graph, store)
    model = Model(graph).bind(store)
    x = _read_only((2, 3, 64, 64))
    want = model.stage_outputs(x)
    for cls in _block_classes():
        if "forward" in vars(cls):
            def forward(self, x, *args, _forward=cls.forward, **kwargs):
                return _forward(self, _read_only_view(x), *args, **kwargs)
            monkeypatch.setattr(cls, "forward", forward)
    got = model.stage_outputs(x)
    assert list(got) == list(want)
    assert all(np.array_equal(got[tag], want[tag]) for tag in want)


# Tests that gate on `<= 1e-N` with no derived bound asserted beside it, and
# how many such gates each holds. Auditing one (deriving its bound from
# float32 rounding and asserting it in the same test) removes it here; a new
# unaudited gate fails.
UNAUDITED_GATES = {
    "test_blocks.py::TestAttentionV2::test_row_stochastic_64x64": 2,
    "test_blocks.py::TestAttentionV2::test_single_site_degenerate": 1,
    "test_blocks.py::TestAttentionV2::test_uniform_logits_average_v": 2,
    "test_blocks.py::TestMerudandaDW::test_matches_oracle_composition": 1,
}
_TINY = re.compile(r"\d*\.?\d*e-\d+")


def _reads(fn, names) -> bool:
    return any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(fn))


def _test_functions(tree):
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in methods:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test"):
                yield (f"{node.name}::{fn.name}" if fn is not node else fn.name), fn


def _unaudited_gates() -> Counter:
    """Per test function outside test_acceptance.py (which restates the
    acceptance criteria's own numbers): its `<= 1e-N` comparisons, unless it
    derives a bound from float32 rounding, by reading `gamma`, `U` or a
    module helper that reads `gamma`."""
    found = Counter()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name == "test_acceptance.py":
            continue
        text = path.read_text("utf-8")
        tree = ast.parse(text)
        derived = {"gamma", "U"} | {f.name for f in tree.body
                                    if isinstance(f, ast.FunctionDef) and _reads(f, {"gamma"})}
        for name, fn in _test_functions(tree):
            if _reads(fn, derived):
                continue
            found[f"{path.name}::{name}"] += sum(
                isinstance(op, ast.LtE) and bool(_TINY.fullmatch(ast.get_source_segment(text, c)))
                for n in ast.walk(fn) if isinstance(n, ast.Compare) for op, c in zip(n.ops, n.comparators))
    return +found


def test_no_new_absolute_gate_without_a_derived_bound():
    assert dict(_unaudited_gates()) == UNAUDITED_GATES
