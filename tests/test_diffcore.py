from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from condctc import diffcore as dc
from condctc.diffcore import ContractError, FormatError, ParamStore, ShapeError, Tensor


RNG = np.random.default_rng(42)


def weighted_mean(node: Tensor, weights: Tensor) -> Tensor:
    """Scalar objective that keeps gradients non-degenerate."""
    return dc.mean_reduce(dc.mul(node, weights))


def make(shape):
    return Tensor(RNG.normal(size=shape))


class TestOpGradients:
    """Every registered op must agree with central finite differences."""

    def check(self, build, params, tol=1e-4):
        err = dc.grad_check(build, params, eps=1e-5)
        assert err < tol, f"grad check failed: {err}"

    def test_multi_head_attention(self):
        q, k, v = make((7, 6)), make((7, 6)), make((7, 6))
        w = make((7, 6))
        for lengths in (None, [7], [3, 1, 3]):
            self.check(
                lambda: weighted_mean(dc.multi_head_attention(q, k, v, 2, lengths), w), [q, k, v]
            )

    def test_add_and_mul(self):
        a, b = make((4, 4)), make((4, 4))
        w = make((4, 4))
        self.check(lambda: weighted_mean(dc.add(a, b), w), [a, b])
        self.check(lambda: weighted_mean(dc.mul(a, b), w), [a, b])

    def test_scale(self):
        a = make((3, 3))
        w = make((3, 3))
        self.check(lambda: weighted_mean(dc.scale(a, -1.7), w), [a])

    def test_affine_rows(self):
        x, g, b = make((5, 4)), make((4,)), make((4,))
        w = make((5, 4))
        self.check(lambda: weighted_mean(dc.affine_rows(x, g, b), w), [x, g, b])

    def test_linear(self):
        x, wgt, b = make((5, 4)), make((4, 6)), make((6,))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.linear(x, wgt, b), w), [x, wgt, b])

    def test_softmax_rows(self):
        x = make((5, 6))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.softmax_rows(x), w), [x])

    def test_log_softmax_rows(self):
        x = make((5, 6))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.log_softmax_rows(x), w), [x])

    def test_layer_norm_rows(self):
        x = make((5, 6))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.layer_norm_rows(x), w), [x])

    def test_swish(self):
        x = make((5, 6))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.swish(x), w), [x])

    def test_depthwise_conv_rows(self):
        x, k = make((7, 5)), make((3, 5))
        w = make((7, 5))
        self.check(lambda: weighted_mean(dc.depthwise_conv_rows(x, k), w), [x, k])

    def test_depthwise_conv_rows_segments(self):
        # segments shorter than the kernel, including a one-row segment
        x, k = make((9, 5)), make((5, 5))
        w = make((9, 5))
        self.check(lambda: weighted_mean(dc.depthwise_conv_rows(x, k, [4, 1, 2, 2]), w), [x, k])

    def test_mean_reduce(self):
        x = make((4, 5))
        w = make((4, 5))
        self.check(lambda: dc.mean_reduce(dc.mul(x, w)), [x, w])

    def test_random_shapes_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(2, 9))
            x = Tensor(rng.normal(size=(rows, cols)))
            w = Tensor(rng.normal(size=(rows, cols)))
            self.check(lambda: weighted_mean(dc.swish(dc.layer_norm_rows(x)), w), [x])


class TestBackwardSemantics:
    def test_square(self):
        x = Tensor(np.float64(3.0))
        dc.backward(dc.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_product(self):
        x, y = Tensor(np.float64(2.0)), Tensor(np.float64(5.0))
        dc.backward(dc.mul(x, y))
        assert x.grad == pytest.approx(5.0)
        assert y.grad == pytest.approx(2.0)

    def test_swish_derivative_at_zero(self):
        x = Tensor(np.zeros(()))
        dc.backward(dc.swish(x))
        assert float(x.grad) == pytest.approx(0.5)

    def test_repeated_backward_is_identical(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        w = Tensor(RNG.normal(size=(3, 3)))
        loss = dc.mean_reduce(dc.mul(dc.softmax_rows(x), w))
        dc.backward(loss)
        first = x.grad.copy()
        dc.backward(loss)
        assert np.array_equal(first, x.grad)

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(3, 2)))
        b = store.add("b", np.zeros(2))
        x = Tensor(rng.normal(size=(4, 3)))
        with dc.no_grad():
            gain = dc.scale(Tensor(np.ones((4, 2))), 2.0)
        hidden = dc.swish(dc.linear(x, w, b))
        scaled = dc.mul(hidden, gain)
        loss = dc.mean_reduce(scaled)
        dc.backward(loss)
        assert all(t.grad is not None for t in (w, b, x, gain))
        assert all(t.grad is None for t in (hidden, hidden.parents[0], scaled, loss))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            dc.backward(Tensor(np.ones((2, 2))))

    def test_unused_parameters_keep_zero_grads(self):
        store = ParamStore()
        used = store.add("used", np.array([[1.0, 2.0]]))
        unused = store.add("unused", np.array([[3.0, 4.0]]))
        store.zero_grad()
        dc.backward(dc.mean_reduce(dc.mul(used, used)))
        assert np.array_equal(unused.grad, np.zeros((1, 2)))
        assert np.any(used.grad != 0.0)

    def test_shared_node_accumulates_both_paths(self):
        x = Tensor(np.float64(3.0))
        # f = x*x + x*x = 2x^2, f' = 4x
        loss = dc.add(dc.mul(x, x), dc.mul(x, x))
        dc.backward(loss)
        assert float(x.grad) == pytest.approx(12.0)

    def test_softmax_symmetry_forward(self):
        out = dc.softmax_rows(Tensor(np.zeros((1, 2))))
        assert np.allclose(out.value, [[0.5, 0.5]])

    def test_layer_norm_constant_row_is_zero(self):
        out = dc.layer_norm_rows(Tensor(np.full((1, 4), 3.7)))
        assert np.allclose(out.value, 0.0)

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="add"):
            dc.add(make((2, 3)), make((3, 2)))
        with pytest.raises(ShapeError, match="depthwise"):
            dc.depthwise_conv_rows(make((4, 3)), make((2, 3)))
        with pytest.raises(ShapeError, match="multi_head_attention"):
            dc.multi_head_attention(make((2, 3)), make((2, 3)), make((2, 3)), 2)
        with pytest.raises(ShapeError, match="depthwise"):
            dc.depthwise_conv_rows(make((4, 3)), make((3, 3)), [2, 1])

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(6, 6)))
            w = Tensor(dc.glorot_uniform(rng, (6, 6)))
            b = Tensor(np.zeros(6))
            loss = dc.mean_reduce(dc.mul(dc.swish(dc.linear(x, w, b)), x))
            dc.backward(loss)
            return loss.value.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestSegments:
    """Rows packed from several segments: each segment's output is bitwise
    the output of that segment alone."""

    def test_conv_and_attention_keep_segments_apart(self):
        lengths = [4, 1, 2, 6]
        x, k = make((13, 6)), make((5, 6))
        conv = dc.depthwise_conv_rows(x, k, lengths).value
        att = dc.multi_head_attention(x, x, x, 3, lengths).value
        start = 0
        for n in lengths:
            alone = Tensor(x.value[start : start + n])
            assert np.array_equal(conv[start : start + n], dc.depthwise_conv_rows(alone, k).value)
            assert np.array_equal(
                att[start : start + n], dc.multi_head_attention(alone, alone, alone, 3).value
            )
            start += n

    def test_bad_lengths_rejected(self):
        x, k = make((5, 4)), make((3, 4))
        for lengths in ([2, 2], [3, 0, 2], []):
            with pytest.raises(ShapeError, match="segment lengths"):
                dc.depthwise_conv_rows(x, k, lengths)
            with pytest.raises(ShapeError, match="segment lengths"):
                dc.multi_head_attention(x, x, x, 2, lengths)


class TestNoGrad:
    def test_outputs_are_leaves(self):
        a, b, kernel = make((5, 4)), make((5, 4)), make((3, 4))
        with dc.no_grad():
            outs = [dc.add(a, b), dc.depthwise_conv_rows(a, kernel, [2, 3]),
                    dc.multi_head_attention(a, b, a, 2, [4, 1]), dc.mean_reduce(a)]
        for out in outs:
            assert out.parents == () and out._backward is None, out.op

    def test_values_match_recorded_ops(self):
        q, k, v = make((6, 4)), make((6, 4)), make((6, 4))
        taped = dc.softmax_rows(dc.multi_head_attention(q, k, v, 2, [2, 4]))
        with dc.no_grad():
            free = dc.softmax_rows(dc.multi_head_attention(q, k, v, 2, [2, 4]))
        assert np.array_equal(free.value, taped.value)

    def test_recording_resumes_after_exception(self):
        a, b = make((2, 2)), make((3, 3))
        with pytest.raises(ShapeError):
            with dc.no_grad():
                dc.add(a, a)
                dc.add(a, b)
        out = dc.add(a, a)
        assert out.parents == (a, a) and out._backward is not None

    def test_nested_blocks_restore_the_outer_state(self):
        a = make((2, 2))
        with dc.no_grad():
            with dc.no_grad():
                pass
            assert dc.scale(a, 2.0).parents == ()
        assert dc.scale(a, 2.0).parents == (a,)


class TestGradCheckHarness:
    def test_quadratic_form(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        err = dc.grad_check(lambda: dc.mean_reduce(dc.mul(x, x)), [x], eps=1e-5)
        assert err < 1e-8

    def test_softmax_cross_entropy_closed_form(self):
        # d(mean CE)/d(logits) has closed form (softmax - onehot) / rows
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(4, 5)))
        onehot = np.zeros((4, 5))
        onehot[np.arange(4), [0, 2, 1, 4]] = 1.0

        def loss():
            return dc.scale(dc.mean_reduce(dc.mul(dc.log_softmax_rows(logits), Tensor(onehot))), -5.0)

        err = dc.grad_check(loss, [logits], eps=1e-5)
        assert err < 1e-6
        dc.backward(loss())
        shifted = logits.value - logits.value.max(axis=1, keepdims=True)
        soft = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert np.allclose(logits.grad, (soft - onehot) / 4.0, atol=1e-12)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(3))
        with pytest.raises(ContractError):
            store.add("w", np.ones(3))

    def test_moment_shapes_match(self):
        store = ParamStore()
        store.add("w", np.ones((2, 3)))
        m, v = store.moments("w")
        assert m.shape == v.shape == (2, 3)
        assert not m.any() and not v.any()

    def test_clone_is_independent(self):
        store = ParamStore()
        t = store.add("w", np.ones(3))
        copy = store.clone()
        t.value[0] = 99.0
        assert copy["w"].value[0] == 1.0

    def test_save_load_roundtrip(self, tmp_path):
        store = ParamStore()
        store.add("layer.w", RNG.normal(size=(3, 4)))
        store.add("layer.b", RNG.normal(size=4))
        store.add("scalarish", np.float64(2.5))
        path = tmp_path / "params.ntc"
        store.save(path, meta={"note": "test"})
        loaded, meta = ParamStore.load(path)
        assert meta == {"note": "test"}
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded[name].value, store[name].value)

    def test_save_is_byte_deterministic(self, tmp_path):
        store = ParamStore()
        store.add("w", RNG.normal(size=(5, 5)))
        a, b = tmp_path / "a.ntc", tmp_path / "b.ntc"
        store.save(a)
        store.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_damaged_files(self, tmp_path):
        store = ParamStore()
        store.add("w", RNG.normal(size=(3, 4)))
        store.add("b", RNG.normal(size=4))
        good = tmp_path / "good.ntc"
        store.save(good)
        data = good.read_bytes()
        damaged = {
            "truncated": (data[:-1], "truncated"),
            "trailing": (data + b"\0", "trailing bytes"),
            "magic": (b"XTC1" + data[4:], "not a named-tensor container"),
            "index": (data.replace(b'"shape"', b'"shapo"', 1), "unreadable index"),
            "payload": (data[:-1] + bytes([data[-1] ^ 1]), "checksum mismatch for 'w'"),
        }
        for name, (payload, message) in damaged.items():
            path = tmp_path / f"{name}.ntc"
            path.write_bytes(payload)
            with pytest.raises(FormatError, match=message):
                ParamStore.load(path)

    def test_index_records_carry_payload_checksums(self, tmp_path):
        store = ParamStore()
        store.add("b", RNG.normal(size=4))
        store.add("w", RNG.normal(size=(3, 4)))
        path = tmp_path / "params.ntc"
        store.save(path)
        with open(path, "rb") as fh:
            fh.readline()
            records = json.loads(fh.readline())["tensors"]
        assert [rec["crc32"] for rec in records] == [
            zlib.crc32(store[name].value.tobytes()) for name in ("b", "w")
        ]

    def test_records_without_checksum_still_load(self, tmp_path):
        # The layout written before index records carried a checksum.
        values = {"b": RNG.normal(size=4), "w": RNG.normal(size=(3, 4))}
        index = {"meta": {"note": "old"},
                 "tensors": [{"name": n, "shape": list(v.shape), "dtype": "float64"}
                             for n, v in values.items()]}
        path = tmp_path / "old.ntc"
        path.write_bytes(b"NTC1\n" + json.dumps(index, sort_keys=True).encode() + b"\n"
                         + b"".join(v.tobytes() for v in values.values()))
        loaded, meta = ParamStore.load(path)
        assert meta == {"note": "old"}
        for name, value in values.items():
            assert np.array_equal(loaded[name].value, value)

    def test_failed_save_leaves_old_file(self, tmp_path):
        class Unwritable:
            shape = (2,)

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        store = ParamStore()
        store.add("a", np.arange(3.0))
        store.add("b", np.ones(2))
        path = tmp_path / "params.ntc"
        store.save(path)
        before = path.read_bytes()
        with pytest.raises(TypeError):  # fails after the magic is written
            store.save(path, meta={"bad": object()})
        assert path.read_bytes() == before
        store["b"].value = Unwritable()  # fails while the payloads are read
        with pytest.raises(OSError, match="disk full"):
            store.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["params.ntc"]

    def test_load_values_validates(self):
        store = ParamStore()
        store.add("w", np.ones((2, 2)))
        with pytest.raises(ContractError):
            store.load_values({"x": np.ones((2, 2))})
        with pytest.raises(ContractError):
            store.load_values({"w": np.ones(3)})
