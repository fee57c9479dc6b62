from __future__ import annotations

import json
import math
import re
import weakref
import zlib
from collections import Counter, defaultdict

import numpy as np
import pytest

from condctc import diffcore as dc
from condctc.diffcore import ContractError, FormatError, ParamStore, ShapeError, Tensor
from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig
from condctc.trainer import average_checkpoints, batch_loss, ctc_node


RNG = np.random.default_rng(42)


def weighted_mean(node: Tensor, weights: Tensor) -> Tensor:
    """Scalar objective that keeps gradients non-degenerate."""
    return dc.mean_reduce(dc.mul(node, weights))


def make(shape):
    return Tensor(RNG.normal(size=shape))


def store_of(values: dict) -> ParamStore:
    """A store holding copies of the named `values`."""
    store = ParamStore({name: np.shape(value) for name, value in values.items()})
    for name, value in values.items():
        store[name].value[...] = value
    return store


class TestOpGradients:
    """Every registered op must agree with central finite differences."""

    def check(self, build, params, tol=1e-4):
        err = dc.grad_check(build, params, eps=1e-5)
        assert err < tol, f"grad check failed: {err}"

    def test_multi_head_attention(self):
        q, k, v = make((7, 6)), make((7, 6)), make((7, 6))
        w = make((7, 6))
        for lengths in ([7], [3, 1, 3]):
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

    def test_layer_norm_affine(self):
        x, g, b = make((5, 4)), make((4,)), make((4,))
        w = make((5, 4))
        self.check(lambda: weighted_mean(dc.layer_norm_affine(x, g, b), w), [x, g, b])

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

    def test_swish(self):
        x = make((5, 6))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.swish(x), w), [x])

    def test_swish_linear(self):
        # linear's weight gradient reads the swish output's rebuild
        x, wgt, b = make((5, 4)), make((4, 6)), make((6,))
        w = make((5, 6))
        self.check(lambda: weighted_mean(dc.linear(dc.swish(x), wgt, b), w), [x, wgt, b])

    def test_depthwise_conv_rows(self):
        x, k = make((7, 5)), make((3, 5))
        w = make((7, 5))
        self.check(lambda: weighted_mean(dc.depthwise_conv_rows(x, k, [7]), w), [x, k])

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
            cols, hidden = (int(n) for n in rng.integers(2, 9, size=2))
            x = Tensor(rng.normal(size=(rows, cols)))
            gain, bias = Tensor(rng.normal(size=cols)), Tensor(rng.normal(size=cols))
            w1, b1 = Tensor(rng.normal(size=(cols, hidden))), Tensor(rng.normal(size=hidden))
            w2, b2 = Tensor(rng.normal(size=(hidden, cols))), Tensor(rng.normal(size=cols))
            w = Tensor(rng.normal(size=(rows, cols)))

            def ffn():  # the encoder's feed-forward: both linears read a rebuild
                h = dc.swish(dc.linear(dc.layer_norm_affine(x, gain, bias), w1, b1))
                return weighted_mean(dc.linear(h, w2, b2), w)

            self.check(ffn, [x, gain, bias, w1, b1, w2, b2])


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

    def test_graphs_of_the_same_inputs_give_identical_gradients(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        w = Tensor(RNG.normal(size=(3, 3)))
        grads = []
        for _ in range(2):
            dc.backward(dc.mean_reduce(dc.mul(dc.softmax_rows(x), w)))
            grads.append((x.grad.copy(), w.grad.copy()))
        assert all(np.array_equal(a, b) for a, b in zip(*grads))

    def test_second_backward_raises(self):
        x = Tensor(RNG.normal(size=(4, 3)))
        w = Tensor(RNG.normal(size=(4, 3)))
        hidden = dc.swish(x)
        loss = dc.mean_reduce(dc.mul(hidden, w))
        dc.backward(loss)
        first = x.grad.copy(), w.grad.copy()
        with pytest.raises(ContractError, match="once"):
            dc.backward(loss)
        # ... also through a new node on top of a node already run
        with pytest.raises(ContractError, match="once"):
            dc.backward(dc.mean_reduce(hidden))
        assert np.array_equal(x.grad, first[0]) and np.array_equal(w.grad, first[1])

    def test_backward_drops_every_backward_function(self):
        rng = np.random.default_rng(6)
        logits = dc.scale(Tensor(rng.normal(size=(7, 4))), 2.0)
        loss, _ = ctc_node([logits.node], [dc.log_softmax(logits.value)], [4, 3],
                           [[[1, 2], [3]]], [1.0])
        order = dc._topo_order(loss.node)
        kept = reachable_arrays(loss.node._backward)
        # the log-softmax and the occupancies
        assert [a.shape for a in kept] == [(7, 4), (7, 4)]
        kept = [weakref.ref(a) for a in kept]
        dc.backward(loss)
        assert all(node._backward is None for node in order)
        assert all(node.grad is None for node in order if node.parents)
        assert [ref() for ref in kept] == [None, None]  # freed by the CTC node's backward

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(5)
        store = store_of({"w": rng.normal(size=(3, 2)), "b": np.zeros(2)})
        w, b = store["w"], store["b"]
        x = Tensor(rng.normal(size=(4, 3)))
        with dc.no_grad():
            gain = dc.scale(Tensor(np.ones((4, 2))), 2.0)
        inner = dc.linear(x, w, b)
        hidden = dc.swish(inner)
        scaled = dc.mul(hidden, gain)
        loss = dc.mean_reduce(scaled)
        dc.backward(loss)
        assert all(t.grad is not None for t in (w, b, x, gain))
        assert all(t.grad is None for t in (inner, hidden, scaled, loss))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            dc.backward(Tensor(np.ones((2, 2))))

    def test_unused_parameters_keep_zero_grads(self):
        store = store_of({"used": np.array([[1.0, 2.0]]), "unused": np.array([[3.0, 4.0]])})
        used, unused = store["used"], store["unused"]
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
        # the normalized row is zero, so the output is exactly the bias
        bias = np.array([0.5, -1.25, 3.0, 0.0])
        out = dc.layer_norm_affine(Tensor(np.full((1, 4), 3.7)), Tensor(np.full(4, 2.0)),
                                   Tensor(bias))
        assert np.array_equal(out.value, bias[None, :])

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="add"):
            dc.add(make((2, 3)), make((3, 2)))
        with pytest.raises(ShapeError, match="depthwise"):
            dc.depthwise_conv_rows(make((4, 3)), make((2, 3)), [4])
        with pytest.raises(ShapeError, match="multi_head_attention"):
            dc.multi_head_attention(make((2, 3)), make((2, 3)), make((2, 3)), 2, [2])
        with pytest.raises(ShapeError, match="depthwise"):
            dc.depthwise_conv_rows(make((4, 3)), make((3, 3)), [2, 1])
        for shapes in [((3, 4), (5, 2), (2,)), ((3, 4), (4, 2), (3,)), ((3, 4), (4, 2), (1, 2))]:
            with pytest.raises(ShapeError, match=re.escape("linear: shapes {} @ {} + {}".format(*shapes))):
                dc.linear(*(make(shape) for shape in shapes))

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(6, 6)))
            w = Tensor(dc.glorot_uniform(rng, (6, 6)))
            b = Tensor(np.zeros(6))
            loss = dc.mean_reduce(dc.mul(dc.linear(dc.swish(x), w, b), x))
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
            assert np.array_equal(conv[start : start + n],
                                  dc.depthwise_conv_rows(alone, k, [n]).value)
            assert np.array_equal(
                att[start : start + n], dc.multi_head_attention(alone, alone, alone, 3, [n]).value
            )
            start += n

    def test_bad_lengths_rejected(self):
        x, k = make((5, 4)), make((3, 4))
        for lengths in ([2, 2], [3, 0, 2], []):
            with pytest.raises(ShapeError, match="segment lengths"):
                dc.depthwise_conv_rows(x, k, lengths)
            with pytest.raises(ShapeError, match="segment lengths"):
                dc.multi_head_attention(x, x, x, 2, lengths)


def reference_normalize_rows(x: Tensor, eps: float) -> Tensor:
    """Rowwise normalization from np.mean and np.var, as its own node."""
    inv = 1.0 / np.sqrt(x.value.var(axis=1, keepdims=True) + eps)
    y = (x.value - x.value.mean(axis=1, keepdims=True)) * inv
    out = Tensor(y, (x,), "normalize_rows")

    def _bwd(g):
        dc._acc(x, inv * (g - g.mean(axis=1, keepdims=True) - y * (g * y).mean(axis=1, keepdims=True)))

    return dc._record(out, _bwd)


def reference_affine_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """x * gain + bias per row as its own node: the step `layer_norm_affine`
    fuses into the normalization."""
    out = Tensor(x.value * gain.value + bias.value, (x, gain, bias), "affine_rows")

    def _bwd(g):
        dc._acc(x, g * gain.value)
        dc._acc(gain, (g * x.value).sum(axis=0))
        dc._acc(bias, g.sum(axis=0))

    return dc._record(out, _bwd)


def reference_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, lengths) -> Tensor:
    """Attention one segment at a time, scaling the (heads, T, T) scores and
    merging each segment's heads back into its rows."""
    rows, d = q.value.shape
    d_head = d // n_heads
    factor = 1.0 / np.sqrt(d_head)
    stops = np.cumsum(lengths).tolist()
    bounds = list(zip([0, *stops[:-1]], stops))

    def heads(a, start, stop):
        return a[start:stop].reshape(stop - start, n_heads, d_head).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(a.shape[1], d)

    y, weights = np.empty((rows, d)), []
    for start, stop in bounds:
        qh, kh, vh = (heads(t.value, start, stop) for t in (q, k, v))
        s = qh @ kh.transpose(0, 2, 1) * factor
        e = np.exp(s - s.max(axis=2, keepdims=True))
        w = e / e.sum(axis=2, keepdims=True)
        weights.append(w)
        y[start:stop] = merge(w @ vh)
    out = Tensor(y, (q, k, v), "attention")

    def _bwd(g):
        grads = [np.empty((rows, d)) for _ in range(3)]
        for (start, stop), w in zip(bounds, weights):
            qh, kh, vh = (heads(t.value, start, stop) for t in (q, k, v))
            gh = heads(g, start, stop)
            gw = gh @ vh.transpose(0, 2, 1)
            gs = w * (gw - (gw * w).sum(axis=2, keepdims=True)) * factor
            grads[0][start:stop] = merge(gs @ kh)
            grads[1][start:stop] = merge(gs.transpose(0, 2, 1) @ qh)
            grads[2][start:stop] = merge(w.transpose(0, 2, 1) @ gh)
        for t, grad in zip((q, k, v), grads):
            dc._acc(t, grad)

    return dc._record(out, _bwd)


def row_underflow_inputs():
    """q, k, v, n_heads and lengths of attention whose segment [1, 6) needs
    the shift per row.  There row 1's scores lie about 3,000 below row 2's
    in head 0: shifted by the head's maximum, row 1's exponentials are all
    zero, so only the shift per row gives finite, accurate values."""
    d_head, n_heads, lengths = 4, 2, [1, 5, 3]
    rng = np.random.default_rng(11)
    q, k, v = (0.5 * rng.normal(size=(9, d_head * n_heads)) for _ in range(3))
    u = np.array([1.0, 1.0, 0.0, 0.0])
    k[1:6, :d_head] += 40.0 * u
    q[1, :d_head] = -37.5 * u
    q[2, :d_head] = 37.5 * u
    scores = q[1:6, :d_head] @ k[1:6, :d_head].T / np.sqrt(d_head)
    assert scores[1].max() - scores[0].max() > 2900
    return q, k, v, n_heads, lengths


def kept_weights_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, lengths) -> Tensor:
    """`multi_head_attention` as it was when its forward kept every
    segment's normalized weights and its backward read q, k and v's values:
    the form whose value and gradients the rebuilt weights must give
    bitwise."""
    rows, d = q.value.shape
    d_head = d // n_heads
    factor = 1.0 / math.sqrt(d_head)
    bounds = dc._segment_bounds("kept_weights_attention", rows, lengths)

    def heads(a):
        return a.reshape(rows, n_heads, d_head).transpose(1, 0, 2)

    qh, kh, vh = heads(q.value * factor), heads(k.value), heads(v.value)
    v1 = np.empty((n_heads, rows, d_head + 1))
    v1[:, :, :d_head] = vh
    v1[:, :, d_head] = 1.0
    y = np.empty((rows, d))
    yh = heads(y)
    weights = []
    for start, stop in bounds:
        seg = slice(start, stop)
        for shift_axes in ((1, 2), 2):
            w = qh[:, seg] @ kh[:, seg].transpose(0, 2, 1)
            w -= w.max(axis=shift_axes, keepdims=True)
            np.exp(w, out=w)
            wv = w @ v1[:, seg]
            sums = wv[:, :, d_head:]
            if not sums.min() < dc._MIN_ROW_SUM:
                break
        np.divide(wv[:, :, :d_head], sums, out=yh[:, seg])
        w /= sums
        weights.append(w)
    qv = q.value

    def _bwd(g):
        gq, gk, gv = np.empty((rows, d)), np.empty((rows, d)), np.empty((rows, d))
        gh, gqh, gkh, gvh = heads(g), heads(gq), heads(gk), heads(gv)
        qh = heads(qv)
        for (start, stop), w in zip(bounds, weights):
            seg = slice(start, stop)
            gs = gh[:, seg] @ vh[:, seg].transpose(0, 2, 1)
            gs -= (gs * w).sum(axis=2, keepdims=True)
            gs *= w
            np.matmul(gs, kh[:, seg], out=gqh[:, seg])
            np.matmul(gs.transpose(0, 2, 1), qh[:, seg], out=gkh[:, seg])
            np.matmul(w.transpose(0, 2, 1), gh[:, seg], out=gvh[:, seg])
        gq *= factor
        gk *= factor
        for t, grad in zip((q, k, v), (gq, gk, gv)):
            dc._acc(t.node, grad)

    return dc._record(Tensor(y, (q, k, v), "kept_weights_attention"), _bwd)


def value_and_grads(build, inputs, weights):
    out = build(*inputs)
    dc.backward(weighted_mean(out, weights))
    return [out.value] + [t.grad.copy() for t in inputs]


class TestFusedKernels:
    """Ops that do their work in fewer array passes match the plain formulas
    they replace: bitwise where the arithmetic is the same."""

    def test_layer_norms_are_bitwise_the_plain_formulas(self):
        rng = np.random.default_rng(7)
        for rows, cols in ((1, 4), (6, 5), (30, 64)):
            x = Tensor(3.0 * rng.normal(size=(rows, cols)) + 1.5)
            gain, bias = Tensor(rng.normal(size=cols)), Tensor(rng.normal(size=cols))
            w = Tensor(rng.normal(size=(rows, cols)))
            fused = value_and_grads(lambda a, g, b: dc.layer_norm_affine(a, g, b),
                                    [x, gain, bias], w)
            apart = value_and_grads(
                lambda a, g, b: reference_affine_rows(reference_normalize_rows(a, 1e-5), g, b),
                [x, gain, bias], w)
            for got, want in zip(fused, apart):
                assert np.array_equal(got, want)

    @staticmethod
    def assert_attention_matches_the_formula(qkv, n_heads, lengths, rng):
        """Values and q/k/v gradients within 1e-12 relative of
        `reference_attention`: the softmax's sums and shift differ."""
        w = Tensor(rng.normal(size=qkv[0].shape))
        got = value_and_grads(lambda q, k, v: dc.multi_head_attention(q, k, v, n_heads, lengths),
                              qkv, w)
        want = value_and_grads(lambda q, k, v: reference_attention(q, k, v, n_heads, lengths),
                               qkv, w)
        for a, b in zip(got, want):
            assert np.isfinite(a).all()
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("d_head,n_heads,pow2_scale",
                             [(4, 2, True), (16, 4, True), (8, 3, False)])
    @pytest.mark.parametrize("lengths", [[9], [5, 1, 12, 3], [1, 1, 7, 1]])
    def test_attention_matches_the_per_segment_formula(self, d_head, n_heads, pow2_scale,
                                                       lengths):
        # The scale on q is bitwise the scale on the scores only when
        # 1 / sqrt(d_head) is a power of two; the other case adds the
        # scale's rounding and meets the same gate.
        assert pow2_scale == (np.log2(d_head) % 2 == 0)
        rng = np.random.default_rng(d_head + len(lengths))
        shape = (sum(lengths), d_head * n_heads)
        qkv = [Tensor(2.0 * rng.normal(size=shape)) for _ in range(3)]
        self.assert_attention_matches_the_formula(qkv, n_heads, lengths, rng)

    def test_attention_shifts_per_row_when_a_row_sum_underflows(self):
        q, k, v, n_heads, lengths = row_underflow_inputs()
        self.assert_attention_matches_the_formula([Tensor(a) for a in (q, k, v)], n_heads,
                                                  lengths, np.random.default_rng(11))

    def test_layer_norm_affine_rejects_misfit_gain(self):
        with pytest.raises(ShapeError, match="layer_norm_affine"):
            dc.layer_norm_affine(make((3, 4)), make((3,)), make((4,)))


class TestAttentionRebuild:
    """Attention keeps no weights and no q, k or v value: backward makes each
    segment's weights again, from q, k and v made again when they carry a
    `rebuild`.  Its value and gradients are bitwise those of
    `kept_weights_attention`."""

    @staticmethod
    def assert_bitwise_the_kept_weights_form(arrays, n_heads, lengths, rebuilt):
        g = np.random.default_rng(3).normal(size=arrays[0].shape)
        results = []
        for op in (dc.multi_head_attention, kept_weights_attention):
            qkv = [Tensor(a.copy()) for a in arrays]
            if rebuilt:
                for t in qkv:
                    t.rebuild = t.value.copy
            out = op(*qkv, n_heads, lengths)
            out.node._backward(g)
            results.append([out.value] + [t.grad for t in qkv])
        for got, want in zip(*results):
            assert np.isfinite(got).all()
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rebuilt", [False, True], ids=["kept", "rebuilt"])
    @pytest.mark.parametrize("d_head,n_heads", [(4, 2), (16, 4), (8, 3)])
    @pytest.mark.parametrize("lengths", [[9], [5, 1, 12, 3], [1, 1, 7, 1]])
    def test_matches_the_kept_weights_form(self, d_head, n_heads, lengths, rebuilt):
        rng = np.random.default_rng(d_head + len(lengths))
        shape = (sum(lengths), d_head * n_heads)
        arrays = [2.0 * rng.normal(size=shape) for _ in range(3)]
        self.assert_bitwise_the_kept_weights_form(arrays, n_heads, lengths, rebuilt)

    @pytest.mark.parametrize("rebuilt", [False, True], ids=["kept", "rebuilt"])
    def test_rebuilds_the_weights_of_a_row_shifted_segment(self, rebuilt):
        q, k, v, n_heads, lengths = row_underflow_inputs()
        self.assert_bitwise_the_kept_weights_form([q, k, v], n_heads, lengths, rebuilt)

    @pytest.mark.parametrize("rebuilt", [False, True], ids=["kept", "rebuilt"])
    @pytest.mark.parametrize("inputs", ["normal", "row-shifted"])
    def test_gradients_do_not_depend_on_the_output_rebuild_having_run(self, inputs, rebuilt):
        """The output's rebuild makes the value again, bitwise, in memory of
        its own, and the gradients are bitwise the same whether or not it
        ran.  Rebuilt q, k and v have their values overwritten with NaN, so
        the rebuild and backward can only read their rebuilds."""
        if inputs == "normal":
            n_heads, lengths = 2, [5, 1, 12, 3]
            rng = np.random.default_rng(4)
            arrays = [2.0 * rng.normal(size=(21, 8)) for _ in range(3)]
        else:
            *arrays, n_heads, lengths = row_underflow_inputs()
        g = np.random.default_rng(5).normal(size=arrays[0].shape)
        results = []
        for call_rebuild in (False, True):
            qkv = [Tensor(a.copy()) for a in arrays]
            if rebuilt:
                for t, a in zip(qkv, arrays):
                    t.rebuild = a.copy
            out = dc.multi_head_attention(*qkv, n_heads, lengths)
            if rebuilt:
                for t in qkv:
                    t.value[...] = np.nan
            if call_rebuild:
                again = out.rebuild()
                assert np.array_equal(again, results[0][0])
                assert not np.shares_memory(again, out.value)
                assert out.rebuild() is again
            out.node._backward(g)
            results.append([out.value] + [t.grad for t in qkv])
        for kept, after_rebuild in zip(*results):
            assert np.isfinite(kept).all()
            assert np.array_equal(kept, after_rebuild)


class TestNoGrad:
    def test_outputs_are_leaves(self):
        a, b, kernel = make((5, 4)), make((5, 4)), make((3, 4))
        with dc.no_grad():
            outs = [dc.add(a, b), dc.depthwise_conv_rows(a, kernel, [2, 3]),
                    dc.multi_head_attention(a, b, a, 2, [4, 1]), dc.mean_reduce(a)]
        for out in outs:
            assert out.parents == () and out.node._backward is None, out.op

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
        assert out.parents == (a.node, a.node) and out.node._backward is not None

    def test_nested_blocks_restore_the_outer_state(self):
        a = make((2, 2))
        with dc.no_grad():
            with dc.no_grad():
                pass
            assert dc.scale(a, 2.0).parents == ()
        assert dc.scale(a, 2.0).parents == (a.node,)


class TestRecordedStepMemory:
    """A recorded forward and loss keep alive only the values that some
    backward function reads."""

    # (op, input position) whose backward function does not read that input.
    # The CTC node keeps its parents' log-softmax, not their values.
    UNREAD = {("add", 0), ("add", 1), ("scale", 0), ("mean_reduce", 0), ("linear", 2),
              ("softmax_rows", 0), ("layer_norm_affine", 0), ("layer_norm_affine", 2),
              *(("ctc_nll", p) for p in range(6))}
    # Ops whose backward function reads their own output.
    READS_OUTPUT = {"softmax_rows"}
    # (op, input position) that keeps the input's `rebuild` in place of its value.
    KEEPS_REBUILD = {("linear", 0), ("multi_head_attention", 0), ("multi_head_attention", 1),
                     ("multi_head_attention", 2), ("swish", 0), ("depthwise_conv_rows", 0)}

    @staticmethod
    def rebuilt(node) -> bool:
        """Whether the node's output has a `rebuild`: every recorded swish,
        layer norm, convolution and attention output has one, and `linear`
        gives its output one when its input has one."""
        if node.op == "linear":
            return TestRecordedStepMemory.rebuilt(node.parents[0])
        return node.op in ("layer_norm_affine", "swish", "depthwise_conv_rows",
                           "multi_head_attention")

    @staticmethod
    def recorded_step(monkeypatch, made):
        """Forward and `batch_loss` of a 6-layer `alternate` model on three
        packed utterances; `made(tensor)` sees every tensor they create."""
        model = EncoderModel(ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3),
                             PlacementConfig.from_strategy("alternate", 6), 4, 4, seed=2)
        rng = np.random.default_rng(8)
        feats = [rng.normal(size=(n, 4)) for n in (5, 3, 6)]
        init = Tensor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made(self)

        monkeypatch.setattr(Tensor, "__init__", spy)
        loss, _ = batch_loss(model.forward_batch(feats), [[1, 2], [3], [2, 2]],
                             [[1], [2, 3], [3]], 0.5)
        monkeypatch.undo()
        return loss

    def test_builds_no_final_softmax(self, monkeypatch):
        ops = []
        self.recorded_step(monkeypatch, lambda t: ops.append(t.op))
        # one per intermediate point: char layers 2, 4 and syllable layers 1, 3, 5
        assert ops.count("softmax_rows") == 5

    def test_values_no_backward_reads_are_freed(self, monkeypatch):
        made = []
        loss = self.recorded_step(monkeypatch,
                                  lambda t: made.append((t.node, weakref.ref(t.value))))
        consumers = defaultdict(list)
        for node in dc._topo_order(loss.node):
            for pos, parent in enumerate(node.parents):
                consumers[id(parent)].append((node.op, pos))

        def unread(node):
            uses = consumers[id(node)]
            rebuilt = self.KEEPS_REBUILD if self.rebuilt(node) else set()
            return (bool(uses) and node.op not in self.READS_OUTPUT
                    and set(uses) <= self.UNREAD | rebuilt)

        freed = {id(node) for node, ref in made if ref() is None}
        unread_values = [node for node, _ in made if unread(node)]
        into_add = [node for node, _ in made
                    if node.op == "linear" and {op for op, _ in consumers[id(node)]} == {"add"}]
        into_linear = [node for node, _ in made if node.op in ("layer_norm_affine", "swish")
                       and {op for op, _ in consumers[id(node)]} == {"linear"}]
        into_attention = [node for node, _ in made if node.op == "linear"
                          and {op for op, _ in consumers[id(node)]} == {"multi_head_attention"}]
        into_swish = [node for node, _ in made if {op for op, _ in consumers[id(node)]} == {"swish"}]
        attention = [node for node, _ in made if node.op == "multi_head_attention"]
        # 24 adds: 18 residual, 5 feedback, 1 position code; the 6 block
        # outputs that feed a head's linear are read by its backward.
        assert sum(node.op == "add" for node, _ in made) == 24
        assert sum(node.op == "add" for node in unread_values) == 18
        assert len(into_add) == 24
        # The 12 pre-norm outputs that feed q/k/v or ffn.w1, and the 12
        # swish outputs, each feed a `linear` that keeps its rebuild.
        assert sum(node.op == "layer_norm_affine" for node in into_linear) == 12
        assert sum(node.op == "swish" for node in into_linear) == 12
        # The 18 q/k/v outputs, whose rebuilds attention keeps.
        assert len(into_attention) == 18 and all(self.rebuilt(node) for node in into_attention)
        # The 6 convolution outputs and the 6 ffn.w1 outputs, whose rebuilds
        # the swishes keep.
        assert Counter(node.op for node in into_swish) == {"depthwise_conv_rows": 6, "linear": 6}
        assert all(self.rebuilt(node) for node in into_swish)
        # The 6 attention outputs, whose rebuilds the `wo` projections keep.
        assert len(attention) == 6
        assert all(consumers[id(node)] == [("linear", 0)] for node in attention)
        # head logits, the convolution's normalized input, the position code
        assert {"linear", "layer_norm_affine", "leaf"} <= {n.op for n in unread_values}
        for node in (into_add + into_linear + into_attention + into_swish + attention
                     + unread_values):
            assert id(node) in freed, (node.op, consumers[id(node)])
        # ... while every value some backward function reads stays alive.
        read = [node for node, _ in made if consumers[id(node)] and not unread(node)]
        assert read and not freed & {id(node) for node in read}
        assert loss.value.ndim == 0


    def test_no_attention_weights_outlive_the_forward(self, monkeypatch):
        loss = self.recorded_step(monkeypatch, lambda t: None)
        kept = [a for node in dc._topo_order(loss.node) if node._backward is not None
                for a in reachable_arrays(node._backward)]
        # attention keeps its (heads, rows, 1) row sums: 2 heads, 14 rows
        assert sum(a.shape == (2, 14, 1) for a in kept) == 6
        assert not [a.shape for a in kept if a.ndim == 3 and a.shape[1] == a.shape[2]]

    def test_no_activation_or_padded_input_outlives_the_forward(self, monkeypatch):
        loss = self.recorded_step(monkeypatch, lambda t: None)
        kept = {a.shape for node in dc._topo_order(loss.node) if node._backward is not None
                for a in reachable_arrays(node._backward)}
        # 14 rows, d_ff 12: the ffn.w1 outputs that feed the swishes; 14 rows
        # and 3 segments, each padded by 1 row at both edges, d_model 8: the
        # convolution's padded input.  The convolution's own input is kept
        # only as its rebuild, from the layer norm's kept arrays.
        assert (14, 8) in kept
        assert not kept & {(14, 12), (14 + 2 * 3, 8)}

    def test_backward_makes_each_rebuilt_value_once(self, monkeypatch):
        calls, ops = Counter(), {}  # build calls and op of each producer, by node id
        record = dc._record

        def counting_record(out, backward_fn, rebuild=None):
            if rebuild is not None:
                key, build = id(out.node), rebuild
                ops[key] = out.op

                def rebuild():
                    calls[key] += 1
                    return build()
            return record(out, backward_fn, rebuild)

        monkeypatch.setattr(dc, "_record", counting_record)
        loss = self.recorded_step(monkeypatch, lambda t: None)  # undoes the patch
        assert not calls
        dc.backward(loss)
        # The 18 pre-norm outputs, the 12 swish outputs, the 18 q/k/v and 6
        # ffn.w1 outputs, the 6 convolution outputs and the 6 attention
        # outputs, each made once.
        assert Counter(ops[key] for key in calls) == {
            "layer_norm_affine": 18, "swish": 12, "linear": 24, "depthwise_conv_rows": 6,
            "multi_head_attention": 6}
        assert set(calls.values()) == {1}


def reachable_arrays(fn) -> list[np.ndarray]:
    """Every array that a backward function can reach through closure cells,
    containers and the arrays behind bound methods such as `value.view`;
    nodes, and so other nodes' functions, are not followed."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            stack.append(getattr(obj, "__self__", None))
    return found


# Inputs at which swish's sigmoid saturates or overflows, and signed zeros.
EDGE_VALUES = pytest.mark.parametrize("value", [
    np.array([[-800.0, 1.0, -2.0], [0.5, 800.0, -0.0], [3.0, -4.5, 40.0]]),
    np.array([[0.0, -0.0, 800.0, -800.0]]),
    np.linspace(-30.0, 30.0, 35).reshape(7, 5),
], ids=["2-d", "signed-zeros", "ramp"])


def sigmoid(v: np.ndarray) -> np.ndarray:
    s = np.negative(v, out=np.empty_like(v))
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


class TestLinearOfSwish:
    """`linear` of a swish output keeps the output's rebuild, not its value:
    the value and all three gradients must be bitwise those of `linear` of
    the kept-sigmoid swish."""

    @EDGE_VALUES
    def test_matches_linear_of_the_kept_sigmoid_swish(self, value):
        rng = np.random.default_rng(7)
        rows, cols = value.shape
        weight, bias = rng.normal(size=(cols, 4)), rng.normal(size=4)
        g = np.linspace(-2.0, 3.0, rows * 4).reshape(rows, 4)
        with np.errstate(over="ignore"):
            x, w, b = Tensor(value), Tensor(weight), Tensor(bias)
            hidden = dc.swish(x)
            swish_value = weakref.ref(hidden.value)
            out = dc.linear(hidden, w, b)
            del hidden
            assert swish_value() is None  # freed: linear kept the rebuild
            out.node._backward(g)
            swish_node = out.parents[0]
            swish_node._backward(swish_node.grad)
            with dc.no_grad():
                free = dc.linear(dc.swish(x), w, b)
            sig = sigmoid(value)
        # linear(kept, weight, bias) and its gradients, then swish's slope
        kept = value * sig
        want = kept @ weight
        want += bias
        want_x = g @ weight.T
        want_x *= sig
        slope = np.subtract(1.0, sig, out=np.empty_like(sig))
        slope *= value
        slope += 1.0
        want_x *= slope
        pairs = ((out.value, want), (free.value, want), (x.grad, want_x),
                 (w.grad, kept.T @ g), (b.grad, g.sum(axis=0)))
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


def kept_input_swish(x: Tensor) -> Tensor:
    """`swish` as it was when a recorded step kept its input's value: the
    form whose value and gradient the rebuilt input must give bitwise."""
    xv, nx = x.value, x.node

    def _bwd(g):
        s = sigmoid(xv)
        gx = g * s
        slope = np.subtract(1.0, s, out=s)
        slope *= xv
        slope += 1.0
        gx *= slope
        dc._acc(nx, gx)

    return dc._record(Tensor(sigmoid(xv) * xv, (x,), "kept_input_swish"), _bwd)


def kept_input_conv(x: Tensor, kernel: Tensor, lengths) -> Tensor:
    """`depthwise_conv_rows` as it was when a recorded step kept its own
    zero-padded copy of the input."""
    k, n = kernel.value.shape
    bounds = dc._segment_bounds("kept_input_conv", x.value.shape[0], lengths)
    pad = k // 2
    outs = [slice(a + 2 * pad * i, b + 2 * pad * i) for i, (a, b) in enumerate(bounds)]
    width = x.value.shape[0] + 2 * pad * (len(bounds) - 1)
    xp = np.zeros((width + 2 * pad, n))
    for (a, b), out in zip(bounds, outs):
        xp[out.start + pad : out.stop + pad] = x.value[a:b]
    kv, nx, nk = kernel.value, x.node, kernel.node
    yp = np.zeros((width, n))
    tap = np.empty((width, n))
    for j in range(k):
        yp += np.multiply(kv[j], xp[j : j + width], out=tap)
    y = yp if len(bounds) == 1 else np.concatenate([yp[out] for out in outs])

    def _bwd(g):
        kg = dc._acc_zeros(nk, kv.shape)
        gyp = np.zeros((width, n))
        for (a, b), out in zip(bounds, outs):
            gyp[out] = g[a:b]
        gxp = np.zeros_like(xp)
        for j in range(k):
            kg[j] += (gyp * xp[j : j + width]).sum(axis=0)
            gxp[j : j + width] += gyp * kv[j]
        dc._acc(nx, np.concatenate([gxp[out.start + pad : out.stop + pad] for out in outs]))

    return dc._record(Tensor(y, (x, kernel), "kept_input_conv"), _bwd)


class TestKeptInputRebuild:
    """A recorded swish or convolution keeps only its input's `rebuild` (or
    the input, when it has none), and its own output carries a `rebuild`.
    Value, rebuild and gradients are bitwise those of the kept-input forms,
    whether or not something called the output's rebuild before backward,
    and every call of the rebuild returns the same array."""

    @staticmethod
    def assert_bitwise_the_kept_input_form(op, kept_op, arrays, rebuilt):
        g = np.linspace(-2.0, 3.0, arrays[0].size).reshape(arrays[0].shape)
        want_inputs = [Tensor(a.copy()) for a in arrays]
        want = kept_op(*want_inputs)
        want.node._backward(g)
        for called in (False, True):
            inputs = [Tensor(a.copy()) for a in arrays]
            if rebuilt:
                inputs[0].rebuild = arrays[0].copy
            out = op(*inputs)
            if rebuilt:
                inputs[0].value[...] = np.nan  # backward must read the rebuild
            made = out.rebuild() if called else None
            out.node._backward(g)
            again = out.rebuild()
            assert again is out.rebuild() and not np.shares_memory(again, out.value)
            assert made is None or again is made
            got = [out.value, again] + [t.grad for t in inputs]
            expected = [want.value, want.value] + [t.grad for t in want_inputs]
            for a, b in zip(got, expected):
                assert np.array_equal(a, b), (called, rebuilt)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (called, rebuilt)

    @EDGE_VALUES
    @pytest.mark.parametrize("rebuilt", [False, True], ids=["kept", "rebuilt"])
    def test_swish(self, value, rebuilt):
        with np.errstate(over="ignore"):
            self.assert_bitwise_the_kept_input_form(dc.swish, kept_input_swish, [value], rebuilt)

    @pytest.mark.parametrize("rebuilt", [False, True], ids=["kept", "rebuilt"])
    @pytest.mark.parametrize("k,lengths", [
        (3, [9]),  # one segment
        (3, [4, 2, 3]),  # several segments
        (5, [4, 1, 2, 2]),  # segments shorter than the kernel's half width
        (1, [3, 1, 5]),  # a kernel of length 1: no padding
    ], ids=["one-segment", "segments", "short-segments", "k1"])
    def test_depthwise_conv_rows(self, k, lengths, rebuilt):
        rng = np.random.default_rng(k + len(lengths))
        x, kernel = rng.normal(size=(sum(lengths), 5)), rng.normal(size=(k, 5))
        self.assert_bitwise_the_kept_input_form(
            lambda a, w: dc.depthwise_conv_rows(a, w, lengths),
            lambda a, w: kept_input_conv(a, w, lengths), [x, kernel], rebuilt)


class TestRebuild:
    """An op output's `rebuild()` is a new array bitwise equal to its value,
    signs of zeros included, and later calls return that same array, also
    after the op's backward has run; an output made inside `no_grad` has
    none."""

    @staticmethod
    def outputs(x):
        # A zero gain and a -0.0 bias in the first two columns give the
        # normalized output negative zeros.
        cols = x.shape[1]
        gain, bias = np.linspace(-1.5, 2.0, cols), np.full(cols, 0.25)
        gain[:2], bias[:2] = 0.0, -0.0
        normed = dc.layer_norm_affine(x, Tensor(gain), Tensor(bias))
        weight = Tensor(np.linspace(-1.0, 1.0, 3 * cols).reshape(cols, 3))
        return [dc.swish(x), normed, dc.linear(normed, weight, Tensor(np.full(3, -0.5)))]

    @EDGE_VALUES
    def test_rebuild_is_bitwise_the_value(self, value):
        with np.errstate(over="ignore"):
            x = Tensor(value)
            outs = self.outputs(x)
            again = [out.rebuild() for out in outs]
            kept = [out.rebuild() for out in outs]
            for out in outs:
                out.node._backward(np.ones_like(out.value))
            after = [out.rebuild() for out in outs]
            with dc.no_grad():
                free = self.outputs(x)
        assert [out.op for out in outs] == ["swish", "layer_norm_affine", "linear"]
        for out, made, same, new in zip(outs, again, kept, after):
            assert not np.shares_memory(made, out.value), out.op
            assert np.array_equal(made, out.value), out.op
            assert np.array_equal(np.signbit(made), np.signbit(out.value)), out.op
            assert same is made and new is made, out.op
        normed = outs[1].value
        assert np.signbit(normed[normed == 0.0]).any()
        assert all(out.rebuild is None for out in free)


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
    def test_arena_holds_values_and_grads_in_name_order(self):
        values = {"w": RNG.normal(size=(3, 4)), "b": RNG.normal(size=4), "s": np.float64(2.5)}
        store = store_of(values)
        assert store.names() == ["b", "s", "w"]
        flat, grads = store.arena()
        assert flat is store.flat
        assert store.arena()[0] is flat and store.arena()[1] is grads
        assert store.layout() == [("b", 0, 4), ("s", 4, 5), ("w", 5, 17)]
        assert np.array_equal(flat, np.concatenate([np.ravel(values[n]) for n in ("b", "s", "w")]))
        assert not grads.any()
        for name, start, stop in store.layout():
            t = store[name]
            assert t.value.shape == t.grad.shape == np.shape(values[name])
            assert np.shares_memory(t.value, flat[start:stop])
            assert np.shares_memory(t.grad, grads[start:stop])
        store["w"].grad[...] = 1.0
        store["b"].value[0] = 7.0
        assert grads[5:].all() and not grads[:5].any() and flat[0] == 7.0
        store.zero_grad()
        assert not grads.any() and store["w"].grad.base is not None

    def test_every_store_is_one_flat_vector(self, tmp_path):
        # Freshly built, loaded, cloned and averaged stores alike: each
        # tensor's value is a view of the store's flat vector, and no store
        # holds a gradient until `arena` or `zero_grad` asks for one.
        built = ParamStore({"w": (3, 4), "b": (4,), "s": ()})
        assert built.flat.shape == (17,) and not built.flat.any()
        built.flat[:] = RNG.normal(size=17)
        path = tmp_path / "params.ntc"
        built.save(path)
        loaded, _ = ParamStore.load(path)
        stores = [built, loaded, built.clone(), average_checkpoints([built, loaded])]
        for store in stores:
            assert store.flat.dtype == np.float64 and store.flat.shape == (17,)
            assert np.array_equal(store.flat, built.flat)
            for name, start, stop in store.layout():
                assert store[name].value.base is store.flat
                assert np.shares_memory(store[name].value, store.flat[start:stop])
                assert store[name].grad is None
        assert not np.shares_memory(stores[2].flat, built.flat)

    def test_store_adopts_the_flat_vector_it_is_given(self):
        flat = np.arange(5.0)
        store = ParamStore({"b": (2,), "a": (1, 3)}, flat)
        assert store.flat is flat
        assert np.array_equal(store["a"].value, [[0.0, 1.0, 2.0]])
        assert np.array_equal(store["b"].value, [3.0, 4.0])
        for wrong in (np.arange(4.0), np.arange(5), np.zeros((5, 1))):
            with pytest.raises(ShapeError):
                ParamStore({"b": (2,), "a": (1, 3)}, wrong)

    def test_backward_accumulates_into_the_arena(self):
        store = store_of({"w": RNG.normal(size=(3, 2)), "b": RNG.normal(size=2),
                          "unused": np.ones(3)})
        w, b, unused = store["w"], store["b"], store["unused"]
        x = Tensor(RNG.normal(size=(4, 3)))
        loss = dc.mean_reduce(dc.swish(dc.linear(x, w, b)))
        store.zero_grad()
        _, grads = store.arena()
        unused.grad[...] = 5.0  # a stale gradient that no loss reaches
        grads[:2] = 7.0  # stale gradients that the loss reaches
        dc.backward(loss)
        first = grads.copy()
        dc.backward(dc.mean_reduce(dc.swish(dc.linear(x, w, b))))
        assert np.array_equal(grads, first) and grads[:2].any()
        assert np.shares_memory(w.grad, grads) and np.shares_memory(b.grad, grads)
        assert np.array_equal(unused.grad, np.full(3, 5.0))

    def test_clone_is_independent(self):
        store = store_of({"w": np.ones(3)})
        copy = store.clone()
        store["w"].value[0] = 99.0
        assert copy["w"].value[0] == 1.0

    def test_save_load_roundtrip(self, tmp_path):
        store = store_of({"layer.w": RNG.normal(size=(3, 4)), "layer.b": RNG.normal(size=4),
                          "scalarish": np.float64(2.5)})
        path = tmp_path / "params.ntc"
        store.save(path, meta={"note": "test"})
        loaded, meta = ParamStore.load(path)
        assert meta == {"note": "test"}
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].value.shape == store[name].value.shape
            assert np.array_equal(loaded[name].value, store[name].value)

    def test_save_is_byte_deterministic(self, tmp_path):
        store = store_of({"w": RNG.normal(size=(5, 5))})
        a, b = tmp_path / "a.ntc", tmp_path / "b.ntc"
        store.save(a)
        store.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_damaged_files(self, tmp_path):
        store = store_of({"w": RNG.normal(size=(3, 4)), "b": RNG.normal(size=4)})
        good = tmp_path / "good.ntc"
        store.save(good)
        data = good.read_bytes()
        crc_b = zlib.crc32(store["b"].value.tobytes())
        damaged = {
            "truncated": (data[:-1], "truncated"),
            "trailing": (data + b"\0", "trailing bytes"),
            "magic": (b"XTC1" + data[4:], "not a named-tensor container"),
            "index": (data.replace(b'"shape"', b'"shapo"', 1), "unreadable index"),
            "payload": (data[:-1] + bytes([data[-1] ^ 1]), "checksum mismatch for 'w'"),
            "dtype": (data.replace(b'"float64"', b'"float32"', 1),
                      "tensor 'b' has dtype 'float32', not float64"),
            "duplicate": (data.replace(b'"name": "w"', b'"name": "b"', 1), "bad index record"),
            # Fields of another JSON type than `save` writes, each of which
            # int() or str() would turn into a loadable record.
            "float-shape": (data.replace(b'[3, 4]', b'[3.0, 4.9]', 1), "wrong JSON type"),
            "string-shape": (data.replace(b'[3, 4]', b'"34"', 1), "wrong JSON type"),
            "bool-shape": (data.replace(b'[4]', b'[true, 4]', 1), "wrong JSON type"),
            "string-crc32": (data.replace(b'"crc32": %d' % crc_b, b'"crc32": "%d"' % crc_b, 1),
                             "wrong JSON type"),
            "int-name": (data.replace(b'"name": "w"', b'"name": 7', 1), "wrong JSON type"),
            "list-meta": (data.replace(b'"meta": {}', b'"meta": []', 1), "not an object"),
        }
        for name, (payload, message) in damaged.items():
            assert payload != data, name
            path = tmp_path / f"{name}.ntc"
            path.write_bytes(payload)
            with pytest.raises(FormatError, match=message):
                ParamStore.load(path)

    def test_index_records_carry_payload_checksums(self, tmp_path):
        store = store_of({"b": RNG.normal(size=4), "w": RNG.normal(size=(3, 4))})
        path = tmp_path / "params.ntc"
        store.save(path)
        with open(path, "rb") as fh:
            fh.readline()
            records = json.loads(fh.readline())["tensors"]
        assert [rec["crc32"] for rec in records] == [
            zlib.crc32(store[name].value.tobytes()) for name in ("b", "w")
        ]

    def test_records_without_checksum_are_rejected(self, tmp_path):
        # The layout written before index records carried a checksum.
        values = {"b": RNG.normal(size=4), "w": RNG.normal(size=(3, 4))}
        index = {"meta": {"note": "old"},
                 "tensors": [{"name": n, "shape": list(v.shape), "dtype": "float64"}
                             for n, v in values.items()]}
        path = tmp_path / "old.ntc"
        path.write_bytes(b"NTC1\n" + json.dumps(index, sort_keys=True).encode() + b"\n"
                         + b"".join(v.tobytes() for v in values.values()))
        with pytest.raises(FormatError, match="unreadable index.*crc32"):
            ParamStore.load(path)

    def test_failed_save_leaves_old_file(self, tmp_path):
        class Unwritable:
            shape = (2,)

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        store = store_of({"a": np.arange(3.0), "b": np.ones(2)})
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
