"""Weight ownership and the VJW1 reader.

VJW1 bytes are untrusted: WeightStore.load must reject a damaged file with
a WeightFormatError, never another exception. The store is the one owner
of weight arrays: bound models share them read-only, and building a model
from config text allocates none."""
import hashlib
import os
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_reparam import SMALL_CFG
from vajrakit import blocks as B
from vajrakit import reparam as reparam_module
from vajrakit import tensor as T
from vajrakit import weights as weights_module
from vajrakit.cost import graph_cost
from vajrakit.graph import Model, parse_config
from vajrakit.presets import SCALES, load_preset, preset_text
from vajrakit.reparam import reparam_graph
from vajrakit.tensor import DTYPE, BNParams
from vajrakit.weights import WeightFormatError, WeightStore, init_weights


@pytest.fixture(scope="module")
def small_vjw(tmp_path_factory):
    """The bytes of a two-tensor VJW1 file."""
    store = WeightStore()
    store.add("conv.w", np.arange(6, dtype=DTYPE).reshape(2, 3, 1, 1))
    store.add("bn.gamma", np.ones(4, DTYPE))
    path = tmp_path_factory.mktemp("vjw") / "small.vjw"
    store.save(path)
    return path.read_bytes()


# one to three edits: a byte flipped by a nonzero xor, the tail cut, bytes appended
EDITS = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
), min_size=1, max_size=3)


def _apply(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, *args in edits:
        if op == "flip" and buf:
            pos, mask = args
            buf[pos % len(buf)] ^= mask
        elif op == "cut":
            del buf[args[0] % (len(buf) + 1):]
        elif op == "append":
            buf += args[0]
    return bytes(buf)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_load_raises_only_weight_format_error(small_vjw, tmp_path, edits):
    path = tmp_path / "mutated.vjw"
    path.write_bytes(_apply(small_vjw, edits))
    try:
        WeightStore.load(path)
    except WeightFormatError:
        pass


def test_non_utf8_name_is_a_format_error(small_vjw, tmp_path):
    data = bytearray(small_vjw)
    data[10] ^= 0x80  # first byte of the first name: a lone continuation byte
    path = tmp_path / "bad_name.vjw"
    path.write_bytes(bytes(data))
    with pytest.raises(WeightFormatError, match="UTF-8"):
        WeightStore.load(path)


def test_huge_declared_tensor_rejected_before_allocating(tmp_path):
    # one tensor declaring 65535 x 65535 x 4 floats (68 GB) and carrying none
    header = b"VJW1" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"x"
    path = tmp_path / "huge.vjw"
    path.write_bytes(header + struct.pack("<B3I", 3, 65535, 65535, 4))
    tracemalloc.start()
    try:
        with pytest.raises(WeightFormatError, match="truncated"):
            WeightStore.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rejected_save_leaves_the_file_untouched(small_vjw, tmp_path):
    path = tmp_path / "good.vjw"
    path.write_bytes(small_vjw)
    store = WeightStore()
    store.add("a", np.ones((2, 2), DTYPE))
    store.add("n" * 70000, np.ones(1, DTYPE))  # longer than a u16 name length
    with pytest.raises(WeightFormatError, match="name too long"):
        store.save(path)
    assert path.read_bytes() == small_vjw


class TestOwnership:
    """The store is the one owner of weight arrays and holds them read-only."""

    def test_add_adopts_only_arrays_nothing_else_can_write(self):
        frozen = np.arange(6, dtype=DTYPE)
        frozen.flags.writeable = False
        writeable = np.arange(6, dtype=DTYPE)
        view = frozen[::2]
        wide = np.arange(6, dtype=np.float64)
        wide.flags.writeable = False
        store = WeightStore()
        for name, arr in (("frozen", frozen), ("writeable", writeable), ("view", view),
                          ("wide", wide), ("list", [1.0, 2.0])):
            store.add(name, arr)
        assert store["frozen"] is frozen
        for name in ("writeable", "view", "wide", "list"):
            got = store[name]
            assert got.dtype == DTYPE and got.flags.c_contiguous and got.flags.owndata, name
        writeable[0] = 99.0
        assert store["writeable"][0] == 0.0
        assert not np.shares_memory(store["view"], frozen)

    def test_every_stored_array_is_read_only(self, small_vjw, tmp_path):
        store = WeightStore()
        store.add("a", np.zeros(3, DTYPE))
        path = tmp_path / "w.vjw"
        path.write_bytes(small_vjw)
        loaded = WeightStore.load(path)
        for s in (store, loaded):
            for name, arr in s.items():
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[...] = 1.0

    def test_loaded_arrays_own_aligned_memory(self, small_vjw, tmp_path):
        path = tmp_path / "w.vjw"
        path.write_bytes(small_vjw)
        for name, arr in WeightStore.load(path).items():
            assert arr.dtype == DTYPE and arr.flags.owndata and arr.flags.aligned, name

    @pytest.mark.parametrize("scale", SCALES)
    def test_bound_arrays_are_the_store_arrays(self, scale):
        graph, _ = parse_config(preset_text(scale))
        store = init_weights(graph, 0)
        fused_graph, fused_store = reparam_graph(graph, store)
        for g, s in ((graph, store), (fused_graph, fused_store)):
            for name, arr, _ in Model(g).bind(s).named_arrays():
                assert np.shares_memory(arr, s[name]) and not arr.flags.writeable, name

    def test_forward_leaves_the_store_unchanged(self):
        graph, _ = load_preset("N")
        store = init_weights(graph, 0)
        before = _store_sha(store)
        x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(DTYPE)
        Model(graph).bind(store).forward(x)
        assert _store_sha(store) == before


def _compile_digests(graph):
    """Digests of the init, fused and reloaded stores and the VJW1 bytes."""
    store = init_weights(graph, 9)
    fused = reparam_graph(graph, store)[1]
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "w.vjw"
        fused.save(path)
        raw = hashlib.sha256(path.read_bytes()).hexdigest()
        loaded = WeightStore.load(path)
    return _store_sha(store), _store_sha(fused), raw, _store_sha(loaded)


def _store_sha(store) -> str:
    h = hashlib.sha256()
    for name, arr in store.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _parse_peak(text: str) -> int:
    return _peak(parse_config, text)


class TestParseAllocatesNoWeights:
    def test_preset_x(self):
        assert _parse_peak(preset_text("X")) < 1 << 20

    def test_wide_large_kernel_line(self):
        # a zero-filled kernel would be 4096 * 4096 * 49 floats, 3.3 GB
        assert _parse_peak("block a type=conv_bn_act in=4096 out=4096 k=7 from=input") < 1 << 20

    def test_sppf_under_deep_concat_chain(self):
        lines = ["block c0 type=conv_bn_act in=3 out=8 from=input"]
        lines += [f"block c{i} type=concat from=c{i - 1},c{i - 1}" for i in range(1, 15)]
        lines.append(f"block s type=sppf in={8 << 14} out=8 from=c14")
        graph, _ = parse_config("\n".join(lines))
        assert graph.nodes[-1].attrs["in"] == 131072


class TestIdentityStatisticsAllocateNothing:
    """Unbound batchnorm holds identity statistics that bind replaces:
    read-only views of one shared element each, as zero views are; each
    BNParams stays its own object."""

    def test_read_only_views_distinct_params(self):
        a, b = BNParams.identity(8), BNParams.identity(8)
        assert a is not b
        for arr in (a.gamma, a.beta, a.mean, a.var):
            assert arr.strides == (0,) and not arr.flags.writeable
        assert a.gamma.tolist() == a.var.tolist() == [1.0] * 8
        assert a.beta.tolist() == a.mean.tolist() == [0.0] * 8

    def test_identity_skips_post_init_but_given_statistics_are_checked(self, monkeypatch):
        def refuse(self):
            raise AssertionError("identity statistics re-validated")

        with monkeypatch.context() as m:
            m.setattr(BNParams, "__post_init__", refuse)
            bn = BNParams.identity(4)
        assert bn.eps == 1e-3 and bn.channels == 4
        ones, zeros = np.ones(4, DTYPE), np.zeros(4, DTYPE)
        with pytest.raises(ValueError, match="var"):
            BNParams(ones, zeros, zeros, -ones)
        with pytest.raises(ValueError, match="one length"):
            BNParams(ones, zeros, zeros, np.ones(3, DTYPE))

    def test_train_x_model_and_cost(self):
        graph, _ = parse_config(preset_text("X"))
        # what four arrays of their own per batchnorm would hold: 0.94 MB
        own = sum(arr.nbytes for name, arr, _ in Model(graph).named_arrays()
                  if name.endswith((".gamma", ".beta", ".mean", ".var")))
        assert _peak(Model, graph) < own / 4
        assert _peak(graph_cost, graph, (3, 640, 640)) < own / 4


class TestFusedBuildAllocatesNoWeights:
    """A fused build from config states structure only: it folds nothing."""

    def test_preset_x_model_and_cost(self):
        graph, _ = parse_config("fused=1\n" + preset_text("X"))
        assert _peak(Model, graph) < 1 << 20
        assert _peak(graph_cost, graph, (3, 640, 640)) < 1 << 20

    @pytest.mark.parametrize("scale", ["N", "X"])
    @pytest.mark.parametrize("header", ["", "fused=1\n"], ids=["train", "fused"])
    def test_cost_run_allocates_no_feature_map(self, scale, header):
        # the cost walk runs every forward on zero views: a raw numpy op left
        # in a block would allocate a feature map and grow with the input
        graph, _ = parse_config(header + preset_text(scale))
        small, large = (_peak(graph_cost, graph, (3, s, s)) for s in (320, 1280))
        assert small < 1 << 20 and large < 1 << 20
        assert abs(large - small) <= 16 << 10

    def test_fused_structure_holds_only_read_only_arrays(self):
        fused = B.MerudandaX(64, 64, 2).fuse()
        for name, arr, _ in fused.named_arrays("m"):
            assert not arr.flags.writeable, name


class TestSpans:
    """Fold and load cut their arrays into runs (weights.run_spans): the bytes
    do not depend on the split, a worker's error reaches the caller and no
    worker outlives the call."""

    @pytest.fixture(scope="class")
    def train_n(self):
        graph, _ = load_preset("N")
        return graph, init_weights(graph, 3)

    @pytest.fixture(scope="class")
    def one_span(self):
        graph = parse_config(SMALL_CFG)[0]  # far under 2^20 elements: one run on the caller
        return graph, _compile_digests(graph)

    def test_fold_and_load_bytes_do_not_depend_on_parts(self, train_n, tmp_path, monkeypatch):
        graph, store = train_n
        split = []
        for module in (reparam_module, weights_module):
            def spy(work, sizes, run=module.run_spans):
                runs = []
                run(lambda i, j: (runs.append((i, j)), work(i, j)), sizes)
                cuts = [0] + [j for _, j in sorted(runs)]
                assert sorted(runs) == list(zip(cuts, cuts[1:])) and cuts[-1] == len(sizes)  # every item in one run
                split.append(len(runs))
            monkeypatch.setattr(module, "run_spans", spy)
        monkeypatch.setattr(weights_module, "_MIN_SPAN", 1 << 12)
        digests, kept = set(), []  # kept alive, so no load can find their bytes in reused memory
        for cpus in (1, 2, 3):
            monkeypatch.setattr(weights_module, "_usable_cpus", lambda: cpus)
            split.clear()
            fused = reparam_graph(graph, store)[1]
            path = tmp_path / f"{cpus}.vjw"
            fused.save(path)
            loaded = WeightStore.load(path)
            assert split == [cpus, cpus]  # fold, then load
            assert loaded.names() == fused.names()
            digests.add((_store_sha(fused), _store_sha(loaded), path.read_bytes()))
            kept.append((fused, loaded))
        assert len(digests) == 1

    @pytest.mark.parametrize("step", ["fold", "load"])
    def test_worker_error_propagates_and_no_worker_outlives_the_call(self, step, train_n, tmp_path,
                                                                    monkeypatch):
        graph, store = train_n  # N: over 2^21 elements train and fused, so two spans
        path = tmp_path / "n.vjw"
        reparam_graph(graph, store)[1].save(path)
        workers = []

        def failing(*args):
            workers.append(threading.current_thread())
            raise RuntimeError("span failed")

        module, name, call = {"fold": (reparam_module, "_fold_leaf", lambda: reparam_graph(graph, store)),
                              "load": (weights_module, "_read_span", lambda: WeightStore.load(path))}[step]
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(module, name, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="span failed"):
            call()
        assert len(workers) == 2 and threading.main_thread() not in workers
        assert not any(t.is_alive() for t in workers)
        assert threading.active_count() == before

    def test_short_reads_are_resumed_and_no_data_is_a_format_error(self, train_n, tmp_path, monkeypatch):
        graph, store = train_n
        path = tmp_path / "n.vjw"
        fused = reparam_graph(graph, store)[1]
        fused.save(path)
        preadv = os.preadv
        monkeypatch.setattr(os, "preadv", lambda fd, bufs, pos: preadv(fd, [bufs[0][:4093]], pos))
        assert _store_sha(WeightStore.load(path)) == _store_sha(fused)
        monkeypatch.setattr(os, "preadv", lambda fd, bufs, pos: 0)  # the file shrank after its headers were read
        with pytest.raises(WeightFormatError, match="truncated"):
            WeightStore.load(path)

    def test_workers_run_in_the_callers_context(self, monkeypatch):
        monkeypatch.setattr(weights_module, "_MIN_SPAN", 1)
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: 3)
        seen, threads = [], []
        backend = object()

        def record(i, j):
            seen.append((i, j, T._BACKEND.get()))
            threads.append(threading.current_thread())

        with T.override_backend(backend):
            weights_module.run_spans(record, [1, 1, 1])
        assert sorted(seen) == [(0, 1, backend), (1, 2, backend), (2, 3, backend)]
        assert threading.main_thread() not in threads

    @pytest.mark.parametrize("sizes, cpus, want", [
        ([2, 6], 2, [(0, 1), (1, 2)]),  # middles 1 and 5 either side of the cut at 4
        ([1, 1, 6], 2, [(0, 2), (2, 3)]),
        ([10, 1, 1], 3, [(0, 1), (1, 3)]),  # no middle between the cuts at 4 and 8: two runs
        ([1, 1], 2, [(0, 2)]),  # under two spans' worth of elements: one run, on the caller
    ])
    def test_each_item_runs_whole_in_the_run_holding_its_middle(self, sizes, cpus, want, monkeypatch):
        monkeypatch.setattr(weights_module, "_MIN_SPAN", 2)
        monkeypatch.setattr(weights_module, "_usable_cpus", lambda: cpus)
        seen = []
        weights_module.run_spans(lambda i, j: seen.append((i, j, threading.current_thread())), sizes)
        assert sorted((i, j) for i, j, _ in seen) == want
        assert any(t is threading.main_thread() for *_, t in seen) == (len(want) == 1)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_init_fold_and_load_bytes_do_not_depend_on_array_boundary_cuts(self, one_span, data):
        # each step's runs, cut at random item boundaries, are run in a random
        # order on the calling thread; every cut gives the one-span bytes
        graph, want = one_span

        def cut_runs(work, sizes):
            cuts = sorted(data.draw(st.lists(st.integers(0, len(sizes)), max_size=4)))
            runs = list(zip([0, *cuts], [*cuts, len(sizes)]))
            for i, j in data.draw(st.permutations(runs)):
                work(i, j)

        with pytest.MonkeyPatch.context() as m:
            for module in (reparam_module, weights_module):
                m.setattr(module, "run_spans", cut_runs)
            assert _compile_digests(graph) == want
