from __future__ import annotations

import csv
import gc
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from condctc import ctc, diffcore as dc, synthdata, trainer
from condctc.ctc import InfeasibleAlignmentError
from condctc.diffcore import ContractError, NumericError, ParamStore, Tensor
from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig
from condctc.trainer import (
    TrainConfig,
    adam_moments,
    adam_step,
    average_checkpoints,
    batch_loss,
    clip_global_norm,
    ctc_node,
    metrics_columns,
    noam_lr,
    total_loss,
    train,
    write_metrics_csv,
)

SMALL = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)


def small_model(strategy="alternate", n_layers=6, seed=0, chars=5, syls=4):
    placement = PlacementConfig.from_strategy(strategy, n_layers)
    return EncoderModel(SMALL, placement, chars, syls, seed=seed)


def final_point_alone(out, target):
    """CTC loss of the final point of a one-utterance output, run by itself."""
    log_probs = dc.log_softmax_rows(out.logits[("char", 6)]).value
    return ctc.ctc_loss_batch([log_probs], out.lengths, [[target]]).losses[0, 0]


@pytest.fixture(scope="module")
def tiny_data():
    lang = synthdata.make_language(seed=3, n_syllables=4, n_characters=8,
                                   max_pronunciations=2, d_in=4)
    train_set = synthdata.sample_utterances(lang, 6, (2, 3), seed=3, stream=0, prefix="tr")
    valid_set = synthdata.sample_utterances(lang, 3, (2, 3), seed=3, stream=1, prefix="va")
    return lang, train_set, valid_set


class TestTotalLoss:
    def forward(self, model, t_frames=8, seed=0):
        feats = np.random.default_rng(seed).normal(size=(t_frames, 4))
        return model.forward(feats)

    def test_zero_mix_weight_equals_final_loss_exactly(self):
        model = small_model()
        out = self.forward(model)
        node, parts = total_loss(out, [1, 2], [1], 0.0)
        alone = final_point_alone(out, [1, 2])
        assert float(node.value) == alone
        assert parts[("char", 6)] == alone
        assert alone == pytest.approx(ctc.ctc_loss(out.final.value, [1, 2]).loss, rel=1e-12)

    def test_empty_placement_returns_final_loss(self):
        model = small_model("baseline")
        out = self.forward(model)
        node, _ = total_loss(out, [1, 2], [1], 0.5)
        alone = final_point_alone(out, [1, 2])
        assert float(node.value) == alone
        assert alone == pytest.approx(ctc.ctc_loss(out.final.value, [1, 2]).loss, rel=1e-12)

    def test_mixing_weights_per_layer(self):
        # alternate at depth 6: 2 char + 3 syl layers -> final 0.5, each 0.1
        model = small_model()
        out = self.forward(model)
        node, parts = total_loss(out, [1, 2], [1], 0.5)
        inters = [v for k, v in parts.items() if k != ("char", 6)]
        assert len(inters) == 5
        expected = 0.5 * parts[("char", 6)] + 0.1 * sum(inters)
        assert float(node.value) == pytest.approx(expected, rel=1e-12)

    def test_selfcond_weights_match_five_layer_rule(self):
        model = small_model("selfcond")
        out = self.forward(model)
        node, parts = total_loss(out, [1, 2], [1], 0.5)
        inters = [v for k, v in parts.items() if k != ("char", 6)]
        assert len(inters) == 5
        assert not any(k[0] == "syl" for k in parts)
        expected = 0.5 * parts[("char", 6)] + (0.5 / 5) * sum(inters)
        assert float(node.value) == pytest.approx(expected, rel=1e-12)

    def test_coefficients_sum_to_one(self):
        for mix in (0.3, 0.5, 0.7):
            n_inter = 5
            assert (1 - mix) + n_inter * (mix / n_inter) == pytest.approx(1.0)

    def test_multitask_reduces_to_single_weighted_auxiliary(self):
        # one syllable point at the top intermediate layer, no feedback
        model = small_model("multitask")
        out = self.forward(model)
        assert not out.char_inters and sorted(out.syl_inters) == [5]
        node, parts = total_loss(out, [1, 2], [1], 0.3)
        expected = 0.7 * parts[("char", 6)] + 0.3 * parts[("syl", 5)]
        assert float(node.value) == pytest.approx(expected, rel=1e-12)

    def test_infeasible_target_names_the_layer(self):
        model = small_model()
        out = self.forward(model, t_frames=3)
        with pytest.raises(InfeasibleAlignmentError, match="syl head at layer"):
            total_loss(out, [1], [1, 1, 2, 2, 3, 3], 0.5)

    def test_infeasible_final_target_names_the_final_head(self):
        out = self.forward(small_model(), t_frames=3)
        with pytest.raises(InfeasibleAlignmentError, match="^final char head, segment 0"):
            total_loss(out, [1, 1, 2, 2, 3, 3], [1], 0.5)

    def test_gradient_reaches_conditioning_weights(self):
        model = small_model(seed=2)
        out = self.forward(model, seed=5)
        node, _ = total_loss(out, [1, 2], [1, 3], 0.5)
        model.store.zero_grad()
        dc.backward(node)
        assert np.abs(model.store["char_cond.w"].grad).max() > 0.0
        assert np.abs(model.store["syl_cond.w"].grad).max() > 0.0

    def test_infeasible_target_names_the_segment(self):
        model = small_model()
        out = model.forward_batch([np.zeros((8, 4)), np.zeros((3, 4))])
        with pytest.raises(InfeasibleAlignmentError, match="syl head at layer 1, segment 1"):
            batch_loss(out, [[1], [1]], [[1], [1, 1, 2, 2, 3, 3]], 0.5)


class TestFusedCtc:
    """The fused node on log-softmax against `ctc.ctc_loss` per segment."""

    # a 1-frame segment, T == min_frames with repeated labels, empty targets
    LENGTHS = (1, 5, 3, 7, 2)
    TARGETS = (
        [[1], [1, 2, 1], [2, 2], [1, 2, 3, 4], []],
        [[], [3], [1], [2, 2, 1], [3, 1]],
    )
    CLASSES = (5, 4)
    WEIGHTS = (0.7, 0.3)

    def logits(self, scale=1.0, seed=6):
        rng = np.random.default_rng(seed)
        rows = sum(self.LENGTHS)
        return [Tensor(scale * rng.normal(size=(rows, c))) for c in self.CLASSES]

    def node(self, logits):
        log_probs = [dc.log_softmax_rows(x) for x in logits]
        return ctc_node(log_probs, self.LENGTHS, self.TARGETS, self.WEIGHTS)

    def oracle(self, logits):
        """Per-point summed losses and logits gradients of the weighted total."""
        bounds = np.cumsum([0, *self.LENGTHS])
        sums, grads = [], []
        for x, targets, weight in zip(logits, self.TARGETS, self.WEIGHTS):
            z = dc.softmax_rows(x).value
            grad = np.zeros_like(z)
            total = 0.0
            for start, stop, target in zip(bounds, bounds[1:], targets):
                result = ctc.ctc_loss(z[start:stop], target)
                total += result.loss
                zs, gz = z[start:stop], result.grad
                grad[start:stop] = weight * zs * (gz - (gz * zs).sum(axis=1, keepdims=True))
            sums.append(total)
            grads.append(grad)
        return sums, grads

    def test_losses_match_oracle(self):
        logits = self.logits()
        node, sums = self.node(logits)
        expected, _ = self.oracle(logits)
        for got, want in zip(sums, expected):
            assert got == pytest.approx(want, rel=1e-12)
        total = sum(w * s for w, s in zip(self.WEIGHTS, expected))
        assert float(node.value) == pytest.approx(total, rel=1e-12)

    def test_gradients_match_oracle(self):
        logits = self.logits()
        node, _ = self.node(logits)
        dc.backward(node)
        _, expected = self.oracle(logits)
        for x, g in zip(logits, expected):
            assert (np.abs(x.grad - g) <= 1e-12 * np.maximum(1.0, np.abs(g))).all()

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    def test_grad_check(self, scale):
        # At x20 some posteriors fall far below the old 1e-30 floor.
        logits = self.logits(scale)
        if scale > 1.0:
            assert dc.softmax_rows(logits[0]).value.min() < 1e-30
        assert dc.grad_check(lambda: self.node(logits)[0], logits, eps=1e-6) < 1e-6

    def test_zero_weight_point_stays_off_the_graph(self):
        logits = self.logits()
        log_probs = [dc.log_softmax_rows(x) for x in logits]
        node, sums = ctc_node(log_probs, self.LENGTHS, self.TARGETS, (1.0, 0.0))
        assert float(node.value) == sums[0]
        dc.backward(node)
        assert logits[0].grad is not None and logits[1].grad is None

    def test_no_grad_computes_losses_only(self, monkeypatch):
        logits = self.logits()
        node, sums = self.node(logits)
        with_grads = []
        loss_batch = ctc.ctc_loss_batch

        def spy(*args, **kwargs):
            result = loss_batch(*args, **kwargs)
            with_grads.append(result.grads is not None)
            return result

        monkeypatch.setattr(ctc, "ctc_loss_batch", spy)
        with dc.no_grad():
            free, free_sums = self.node(logits)
        assert with_grads == [False]
        assert free_sums == sums and free.value == node.value


class TestPackedBatch:
    """One packed forward over a batch against one forward per utterance."""

    CFG = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=5)
    # 1 frame, and several segments shorter than the 5-tap convolution
    LENGTHS = (1, 2, 7, 4, 3, 9)
    CHARS = ([1], [2], [1, 2, 3], [3, 1], [2], [1, 3, 2, 1])
    SYLS = ([2], [1], [1, 2, 3], [3], [1, 2], [2, 2, 1])

    def build(self):
        model = EncoderModel(self.CFG, PlacementConfig.from_strategy("alternate", 6), 4, 4,
                             seed=4)
        rng = np.random.default_rng(4)
        feats = [rng.normal(size=(n, 4)) for n in self.LENGTHS]
        return model, feats

    @staticmethod
    def points(out):
        return {("char", 6): out.final.value,
                **{("char", n): t.value for n, t in out.char_inters.items()},
                **{("syl", n): t.value for n, t in out.syl_inters.items()}}

    def test_matches_one_segment_path(self):
        model, feats = self.build()
        packed = model.forward_batch(feats)
        node, parts = batch_loss(packed, self.CHARS, self.SYLS, 0.5)
        model.store.zero_grad()
        dc.backward(node)
        packed_grads = {n: model.store[n].grad.copy() for n in model.store.names()}

        grads = {n: np.zeros_like(g) for n, g in packed_grads.items()}
        loss_sum = 0.0
        part_sums: dict = {}
        for i, rows in enumerate(packed.segments()):
            single = model.forward(feats[i])
            for key, probs in self.points(single).items():
                np.testing.assert_allclose(self.points(packed)[key][rows], probs,
                                           rtol=1e-12, atol=0)
            one, one_parts = total_loss(single, self.CHARS[i], self.SYLS[i], 0.5)
            loss_sum += float(one.value)
            for key, val in one_parts.items():
                part_sums[key] = part_sums.get(key, 0.0) + val
            model.store.zero_grad()
            dc.backward(one)
            for n in grads:
                grads[n] += model.store[n].grad

        assert float(node.value) == pytest.approx(loss_sum, rel=1e-12)
        assert parts.keys() == part_sums.keys()
        for key in parts:
            assert parts[key] == pytest.approx(part_sums[key], rel=1e-12)
        for n, g in packed_grads.items():
            assert (np.abs(g - grads[n]) <= 1e-12 * np.maximum(1.0, np.abs(grads[n]))).all(), n

    def test_segments_do_not_see_each_other(self):
        model, feats = self.build()
        before = model.forward_batch(feats)
        changed = list(feats)
        changed[2] = feats[2] + 1.0
        after = model.forward_batch(changed)
        rows = after.segments()
        for key, probs in self.points(after).items():
            for i, segment in enumerate(rows):
                same = np.array_equal(probs[segment], self.points(before)[key][segment])
                assert same == (i != 2), (key, i)

    def test_total_loss_takes_one_utterance(self):
        model, feats = self.build()
        with pytest.raises(ContractError):
            total_loss(model.forward_batch(feats[:2]), [1], [1], 0.5)


class TestNoGradForward:
    """A forward inside `dc.no_grad` against the recorded one."""

    @staticmethod
    def tensors(out):
        return [*out.char_inters.values(), *out.syl_inters.values(), *out.logits.values()]

    @pytest.mark.parametrize("strategy", ["baseline", "selfcond", "hierarchical", "alternate"])
    def test_bitwise_equal_to_taped_forward(self, strategy):
        model = EncoderModel(TestPackedBatch.CFG, PlacementConfig.from_strategy(strategy, 6),
                             4, 4, seed=4)
        feats = TestPackedBatch().build()[1]
        taped = model.forward_batch(feats)
        with dc.no_grad():
            free = model.forward_batch(feats)
        assert free.logits.keys() == taped.logits.keys()
        for key in taped.logits:
            assert np.array_equal(free.logits[key].value, taped.logits[key].value), key
        for key, probs in TestPackedBatch.points(taped).items():
            assert np.array_equal(TestPackedBatch.points(free)[key], probs), key

    def test_leaves_alive_only_the_output_tensors(self):
        model, feats = TestPackedBatch().build()
        gc.collect()
        gc.disable()
        try:
            before = [obj for obj in gc.get_objects() if isinstance(obj, Tensor)]
            known = {id(obj) for obj in before}
            with dc.no_grad():
                out = model.forward_batch(feats)
            alive = {id(obj) for obj in gc.get_objects()
                     if isinstance(obj, Tensor) and id(obj) not in known}
        finally:
            gc.enable()
        assert alive == {id(t) for t in self.tensors(out)}
        assert all(t.parents == () for t in self.tensors(out))
        assert "final" not in vars(out)  # the final softmax is made only when read

    def test_makes_a_softmax_only_where_it_feeds_a_block(self, monkeypatch):
        # `alternate` at depth 6 conditions on 5 intermediate points; the
        # final point's softmax feeds nothing and is not made.
        model, feats = TestPackedBatch().build()
        made = []
        softmax_rows = dc.softmax_rows

        def counting_softmax(x):
            made.append(x)
            return softmax_rows(x)

        monkeypatch.setattr(dc, "softmax_rows", counting_softmax)
        with dc.no_grad():
            out = model.forward_batch(feats)
        assert len(made) == 5 and "final" not in vars(out)


class TestDecodePoints:
    """`decode_points` gives the same hypotheses and losses for any chunking."""

    @pytest.fixture(scope="class")
    def corpus(self):
        lang = synthdata.make_language(seed=3, n_syllables=4, n_characters=8,
                                       max_pronunciations=2, d_in=4)
        utts = synthdata.sample_utterances(lang, 7, (1, 4), seed=4, stream=0, prefix="dp")
        return lang, utts

    @staticmethod
    def model(lang, strategy):
        return EncoderModel(SMALL, PlacementConfig.from_strategy(strategy, 6),
                            lang.char_vocab().size, lang.syl_vocab().size, seed=5)

    @pytest.mark.parametrize("strategy", ["alternate", "baseline", "parallel"])
    def test_chunking_changes_nothing(self, corpus, strategy):
        lang, utts = corpus
        model = self.model(lang, strategy)
        hyps, loss, parts = trainer.decode_points(model, utts, 1, 0.5)
        points = [("char", 6)] + [("char", n) for n in model.placement.char_layers]
        points += [("syl", n) for n in model.placement.syl_layers]
        assert len(hyps) == len(utts)
        assert all(sorted(hyp) == sorted(points) for hyp in hyps)
        assert parts.keys() == set(points)
        for chunk in (3, len(utts)):
            chunked, chunk_loss, chunk_parts = trainer.decode_points(model, utts, chunk, 0.5)
            assert chunked == hyps
            assert chunk_loss == pytest.approx(loss, rel=1e-12)
            assert chunk_parts.keys() == parts.keys()
            for key, val in parts.items():
                assert chunk_parts[key] == pytest.approx(val, rel=1e-12), key
        assert trainer.decode_points(model, utts, 3) == (hyps, 0.0, {})

    def test_hypotheses_are_greedy_decodes_of_a_recorded_forward(self, corpus):
        lang, utts = corpus
        model = self.model(lang, "alternate")
        hyps = trainer.decode_points(model, utts, 3)[0]
        for utt, hyp in zip(utts, hyps):
            out = model.forward(utt.features)
            assert hyp.pop(("char", 6)) == ctc.greedy_decode(out.final.value)
            assert hyp == {**{("char", n): ctc.greedy_decode(p.value)
                              for n, p in out.char_inters.items()},
                           **{("syl", n): ctc.greedy_decode(p.value)
                              for n, p in out.syl_inters.items()}}

    def test_evaluation_and_layerwise_rates_agree(self, corpus):
        lang, utts = corpus
        model = self.model(lang, "alternate")
        _, rates, _ = trainer._evaluate(model, utts, 0.5, 3)
        assert rates == trainer.layerwise_error_rates(model, utts)
        assert trainer.layerwise_error_rates(model, []) == {}


class TestNoamSchedule:
    def test_reference_value(self):
        # factor * d^-0.5 * warmup^-0.5 evaluated by hand
        assert noam_lr(25000, 256, 25000, 5.0) == pytest.approx(1.976423537605237e-3, rel=1e-12)

    def test_linear_warmup_branch(self):
        assert noam_lr(1, 256, 25000, 5.0) == pytest.approx(5.0 * 256**-0.5 * 25000**-1.5, rel=1e-12)

    def test_peak_at_warmup(self):
        w = 400
        peak = noam_lr(w, 64, w, 2.0)
        assert noam_lr(w - 1, 64, w, 2.0) < peak
        assert noam_lr(w + 1, 64, w, 2.0) < peak

    def test_continuous_at_warmup(self):
        w = 777
        inv_sqrt = 2.0 * 64**-0.5 * w**-0.5
        linear = 2.0 * 64**-0.5 * w * w**-1.5
        assert inv_sqrt == pytest.approx(linear, rel=1e-12)
        assert noam_lr(w, 64, w, 2.0) == pytest.approx(inv_sqrt, rel=1e-12)

    def test_step_zero_rejected(self):
        with pytest.raises(ContractError):
            noam_lr(0, 64, 100, 1.0)


class TestAdam:
    def test_moment_shapes_match(self):
        store = ParamStore()
        store.add("w", np.ones((2, 3)))
        store.add("b", np.ones(4))
        m, v = adam_moments(store)
        assert m.shape == v.shape == (10,)
        assert not m.any() and not v.any()

    def test_first_step_is_signed_unit_direction(self):
        store = ParamStore()
        p = store.add("w", np.array([1.0, -2.0]))
        store.zero_grad()
        p.grad[...] = np.array([0.3, -0.7])
        adam_step(store, adam_moments(store), 1, lr=0.1)
        # bias-corrected first step moves by ~lr against the gradient sign
        assert p.value[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
        assert p.value[1] == pytest.approx(-2.0 + 0.1, abs=1e-6)

    def test_zero_grad_leaves_parameters(self):
        store = ParamStore()
        p = store.add("w", np.array([1.5]))
        store.zero_grad()
        adam_step(store, adam_moments(store), 1, lr=0.1)
        assert p.value[0] == 1.5

    def test_nonfinite_grad_changes_nothing(self):
        store = ParamStore()
        good = store.add("a", np.array([1.0]))
        bad = store.add("b", np.array([2.0]))
        store.zero_grad()
        good.grad[...] = 0.5
        bad.grad[...] = np.nan
        moments = adam_moments(store)
        m, v = moments
        with pytest.raises(NumericError, match="'b'"):
            adam_step(store, moments, 1, lr=0.1)
        assert good.value[0] == 1.0 and bad.value[0] == 2.0
        assert moments[0] is m and moments[1] is v
        assert not m.any() and not v.any()

    def test_nonfinite_grad_names_parameter(self):
        store = ParamStore()
        p = store.add("bad.weight", np.array([1.0]))
        store.zero_grad()
        p.grad[...] = np.nan
        with pytest.raises(NumericError, match="bad.weight"):
            adam_step(store, adam_moments(store), 1, lr=0.1)

    def test_quadratic_descent_matches_scalar_oracle(self):
        # independent plain-float Adam next to the store implementation
        store = ParamStore()
        p = store.add("x", np.array([1.0]))
        moments = adam_moments(store)
        x = 1.0
        m = v = 0.0
        beta1, beta2, eps, lr = 0.9, 0.98, 1e-8, 0.1
        for t in range(1, 101):
            g = 2.0 * x
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            x -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)

            store.zero_grad()
            p.grad[...] = 2.0 * p.value
            adam_step(store, moments, t, lr=lr)
        assert abs(x) < 0.1
        assert p.value[0] == pytest.approx(x, abs=1e-12)


class TestClipAndAverage:
    def test_clip_reduces_norm(self):
        store = ParamStore()
        p = store.add("w", np.zeros(4))
        store.zero_grad()
        p.grad[...] = np.array([3.0, 4.0, 0.0, 0.0])
        norm = clip_global_norm(store, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        store = ParamStore()
        p = store.add("w", np.zeros(2))
        store.zero_grad()
        p.grad[...] = np.array([0.3, 0.4])
        clip_global_norm(store, 5.0)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_clip_zero_turns_clipping_off(self):
        store = ParamStore()
        p = store.add("w", np.zeros(3))
        store.zero_grad()
        p.grad[...] = before = np.array([30.0, -40.0, 1e-300])
        assert clip_global_norm(store, 0.0) == pytest.approx(50.0)
        assert p.grad.tobytes() == before.tobytes()

    def test_overflowing_norm_raises_and_changes_nothing(self):
        store = ParamStore()
        p = store.add("w", np.zeros(3))
        store.zero_grad()
        p.grad[...] = np.array([1e200, 1.0, -2.0])  # finite, but the squares overflow
        moments = adam_moments(store)
        with pytest.raises(NumericError, match="norm"):
            clip_global_norm(store, 5.0)
        assert np.array_equal(p.grad, [1e200, 1.0, -2.0])
        assert not p.value.any() and not moments[0].any() and not moments[1].any()

    def test_nonfinite_grad_in_clip_names_parameter(self):
        store = ParamStore()
        store.add("a", np.ones(2))
        bad = store.add("b", np.ones(2))
        store.zero_grad()
        bad.grad[1] = np.inf
        with pytest.raises(NumericError, match="parameter 'b'"):
            clip_global_norm(store, 5.0)
        assert np.array_equal(bad.grad, [0.0, np.inf])

    def test_average_two_scalars(self):
        a, b = ParamStore(), ParamStore()
        a.add("w", np.array([1.0]))
        b.add("w", np.array([3.0]))
        avg = average_checkpoints([a, b])
        assert avg["w"].value[0] == 2.0

    def test_average_identical_is_identity(self):
        stores = []
        for _ in range(4):
            s = ParamStore()
            s.add("w", np.array([[1.0, 2.0]]))
            stores.append(s)
        avg = average_checkpoints(stores)
        assert np.array_equal(avg["w"].value, [[1.0, 2.0]])

    def test_average_matches_sum_divide_oracle(self):
        rng = np.random.default_rng(31)
        stores = []
        for _ in range(10):
            s = ParamStore()
            s.add("a", rng.normal(size=(3, 2)))
            s.add("b", rng.normal(size=5))
            stores.append(s)
        avg = average_checkpoints(stores)
        for name in ("a", "b"):
            acc = np.zeros_like(stores[0][name].value)
            for s in stores:
                acc = acc + s[name].value
            assert np.abs(avg[name].value - acc / 10).max() < 1e-12

    def test_average_mismatched_names_rejected(self):
        a, b = ParamStore(), ParamStore()
        a.add("w", np.ones(2))
        b.add("x", np.ones(2))
        with pytest.raises(ContractError):
            average_checkpoints([a, b])
        with pytest.raises(ContractError):
            average_checkpoints([])


class TestParameterMemory:
    def test_checkpoint_stores_hold_only_their_values(self, tmp_path):
        """A loaded, cloned or averaged store keeps its parameter values and
        little else: no optimizer state."""
        model = EncoderModel(ModelConfig(), PlacementConfig.from_strategy("alternate", 6), 30, 20)
        path = tmp_path / "params.ntc"
        model.store.save(path)
        param_bytes = 8 * model.store.total_parameters

        def held(make) -> float:
            tracemalloc.start()
            try:
                kept = make()  # noqa: F841 - alive while the traced size is read
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return size / param_bytes

        assert held(lambda: ParamStore.load(path)) <= 1.1
        assert held(model.store.clone) <= 1.1
        assert held(lambda: average_checkpoints([model.store, model.store])) <= 1.1


_STEP_FAULTS = textwrap.dedent("""
    import resource
    from condctc import synthdata, trainer
    from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig

    lang = synthdata.make_language(seed=1, n_syllables=20, n_characters=60)
    train_set = synthdata.sample_utterances(lang, 50, (3, 8), 1, 0, "train")
    valid_set = synthdata.sample_utterances(lang, 30, (3, 8), 1, 1, "valid")
    model = EncoderModel(ModelConfig(), PlacementConfig.from_strategy("baseline", 6),
                         lang.char_vocab().size, lang.syl_vocab().size, seed=1)
    faults, step_gradients, adam_step = [], trainer._step_gradients, trainer.adam_step

    def step_start(*args):  # train opens each step with _step_gradients
        faults.append(-resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        step_gradients(*args)

    def step_end(*args, **kwargs):  # and ends it with adam_step
        adam_step(*args, **kwargs)
        faults[-1] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    trainer._step_gradients, trainer.adam_step = step_start, step_end
    trainer.train(model, train_set, valid_set,
                  trainer.TrainConfig(mix_weight=0.0, batch_size=10, seed=2, max_steps=25))
    print(sum(faults[10:]) / len(faults[10:]))
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_steady_training_steps_do_not_fault_in_pages():
    """Once its working set is mapped, a training step reuses it: the
    parameter arena is updated in place and freed pages stay mapped.  Run in
    a fresh process, as the heap policy is process-wide."""
    src = os.path.dirname(os.path.dirname(trainer.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _STEP_FAULTS], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    assert float(done.stdout) <= 20.0, "minor faults per step, steps 11-25"


class TestTrainLoop:
    def test_single_utterance_overfits_to_zero_cer(self, tiny_data):
        lang, train_set, _ = tiny_data
        model = EncoderModel(
            ModelConfig(d_in=4, d_model=32, n_heads=4, d_ff=64, conv_kernel=3),
            PlacementConfig.from_strategy("alternate", 2),
            lang.char_vocab().size,
            lang.syl_vocab().size,
            seed=0,
        )
        one = [train_set[0]]
        cfg = TrainConfig(
            mix_weight=0.5, epochs=200, batch_size=1, warmup_steps=50, lr_factor=1.0,
            seed=0, average_k=3, max_steps=200, eval_interval=25, early_stop_train_cer=0.0,
        )
        result = train(model, one, one, cfg)
        rates = trainer.layerwise_error_rates(model, one)
        assert rates[("char", model.n_layers)] == 0.0
        assert not result.aborted

    def test_metrics_deterministic_across_runs(self, tiny_data, tmp_path):
        lang, train_set, valid_set = tiny_data
        outputs = []
        for run in range(2):
            model = EncoderModel(
                SMALL,
                PlacementConfig.from_strategy("alternate", 2),
                lang.char_vocab().size,
                lang.syl_vocab().size,
                seed=7,
            )
            cfg = TrainConfig(
                mix_weight=0.5, epochs=5, batch_size=3, warmup_steps=20, lr_factor=0.5,
                seed=5, average_k=2, max_steps=10, eval_interval=5,
            )
            out_dir = tmp_path / f"run{run}"
            out_dir.mkdir()
            train(model, train_set, valid_set, cfg, out_dir=out_dir)
            outputs.append((out_dir / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_output_files_and_csv_header(self, tiny_data, tmp_path):
        lang, train_set, valid_set = tiny_data
        placement = PlacementConfig.from_strategy("alternate", 2)
        model = EncoderModel(SMALL, placement, lang.char_vocab().size, lang.syl_vocab().size, seed=1)
        cfg = TrainConfig(
            mix_weight=0.5, epochs=3, batch_size=3, warmup_steps=20, lr_factor=0.5,
            seed=5, average_k=2, max_steps=6, eval_interval=3,
        )
        result = train(model, train_set, valid_set, cfg, out_dir=tmp_path,
                       checkpoint_meta={"char_tokens": list(lang.char_vocab().tokens)})
        with open(tmp_path / "metrics.csv") as fh:
            header = next(csv.reader(fh))
        # alternate at depth 2: char {1}, syl {1, 2}
        assert header == [
            "step", "lr", "loss_total", "loss_final",
            "loss_layer_1_char", "loss_layer_1_syl", "loss_layer_2_syl",
            "cer_valid", "ser_valid_1", "ser_valid_2",
        ]
        assert (tmp_path / "model_avg.ntc").is_file()
        for step, _ in result.best_checkpoints:
            assert (tmp_path / f"checkpoint_{step:06d}.ntc").is_file()
        loaded, extra = EncoderModel.load(tmp_path / "model_avg.ntc")
        assert loaded.placement == placement
        assert extra["char_tokens"][0] == "<blank>"

    def test_baseline_header_has_no_intermediate_columns(self, tiny_data):
        placement = PlacementConfig.from_strategy("baseline", 2)
        assert metrics_columns(placement) == ["step", "lr", "loss_total", "loss_final", "cer_valid"]

    def test_multitask_header_single_syllable_column(self):
        placement = PlacementConfig.from_strategy("multitask", 6)
        cols = metrics_columns(placement)
        assert cols == ["step", "lr", "loss_total", "loss_final", "loss_layer_5_syl",
                        "cer_valid", "ser_valid_5"]
        assert placement.condition is False
        # at the reference depth the auxiliary point sits at layer 15
        cols18 = metrics_columns(PlacementConfig.from_strategy("multitask", 18))
        assert "loss_layer_15_syl" in cols18 and "ser_valid_15" in cols18

    def test_alternate_reference_depth_header_records_placement(self):
        cols = metrics_columns(PlacementConfig.from_strategy("alternate", 18))
        assert cols == ["step", "lr", "loss_total", "loss_final",
                        "loss_layer_3_syl", "loss_layer_6_char", "loss_layer_9_syl",
                        "loss_layer_12_char", "loss_layer_15_syl",
                        "cer_valid", "ser_valid_3", "ser_valid_9", "ser_valid_15"]

    def test_abort_on_poisoned_parameters(self, tiny_data):
        lang, train_set, valid_set = tiny_data
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("baseline", 2),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=2)
        model.store["block01.ffn.w2"].value[...] = np.nan
        cfg = TrainConfig(epochs=2, batch_size=2, warmup_steps=10, lr_factor=0.5,
                          seed=1, average_k=2, mix_weight=0.0)
        result = train(model, train_set, valid_set, cfg)
        assert result.aborted
        assert result.abort_reason == "block 1 produced non-finite values"
        assert result.best_checkpoints  # last finite parameters were kept

    def test_overflowing_gradient_norm_aborts_the_run(self, tiny_data, monkeypatch):
        lang, train_set, valid_set = tiny_data
        step_gradients = trainer._step_gradients

        def huge_gradients(model, *args):
            step_gradients(model, *args)
            model.store["block01.ffn.w2"].grad[0, 0] = 1e200

        monkeypatch.setattr(trainer, "_step_gradients", huge_gradients)
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("baseline", 2),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=2)
        before = model.store.values()
        result = train(model, train_set, valid_set, TrainConfig(batch_size=2, max_steps=3))
        assert result.aborted and result.steps_run == 1
        assert "gradient norm" in result.abort_reason
        after = model.store.values()
        assert all(np.array_equal(before[name], after[name]) for name in before)

    def test_unused_parameters_keep_exactly_zero_gradients(self, tiny_data):
        # `baseline` trains no intermediate head: their gradients stay zero
        # and Adam leaves them where they started.
        lang, train_set, valid_set = tiny_data
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("baseline", 2),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=2)
        unused = [name for name in model.store.names() if name.startswith("syl_head.")]
        assert unused
        before = model.store.values()
        train(model, train_set, valid_set, TrainConfig(batch_size=3, max_steps=2, mix_weight=0.0))
        _, grads = model.store.arena()
        for name in unused:
            assert np.shares_memory(model.store[name].grad, grads)
            assert not model.store[name].grad.any()
            assert np.array_equal(model.store[name].value, before[name])
        assert np.any(model.store["block01.ffn.w2"].value != before["block01.ffn.w2"])

    def test_head_logits_are_freed_before_the_ctc_sweep(self, tiny_data, monkeypatch):
        # `batch_loss` drops the forward output once the log-softmaxes exist,
        # and nothing else holds the logits, so the sweep does not add to them.
        lang, train_set, _ = tiny_data
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("alternate", 2),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=3)
        logits, alive_at_sweep = [], []
        forward_batch, loss_batch = model.forward_batch, ctc.ctc_loss_batch

        def recording_forward(features):
            out = forward_batch(features)
            logits.extend(weakref.ref(t.value) for t in out.logits.values())
            return out

        def sweep(*args, **kwargs):
            alive_at_sweep.extend(ref() is not None for ref in logits)
            return loss_batch(*args, **kwargs)

        monkeypatch.setattr(model, "forward_batch", recording_forward)
        monkeypatch.setattr(ctc, "ctc_loss_batch", sweep)
        trainer._step_gradients(model, train_set[:3], 0.5, 1)
        assert alive_at_sweep and not any(alive_at_sweep)

    def test_graphs_leave_no_reference_cycles(self, tiny_data):
        # Every tape must be freed by reference counting alone.
        lang, train_set, valid_set = tiny_data
        gc.collect()
        gc.disable()
        try:
            model = EncoderModel(SMALL, PlacementConfig.from_strategy("alternate", 2),
                                 lang.char_vocab().size, lang.syl_vocab().size, seed=3)
            cfg = TrainConfig(mix_weight=0.5, batch_size=3, warmup_steps=20, seed=2,
                              average_k=1, max_steps=1)
            result = train(model, train_set, valid_set, cfg)
            out = model.forward(train_set[0].features)
            del model, result, out
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [obj for obj in gc.garbage if isinstance(obj, Tensor)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked

    def test_evaluation_records_no_graph(self, tiny_data, monkeypatch):
        lang, train_set, valid_set = tiny_data
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("alternate", 2),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=3)
        made = []
        forward_batch, loss = EncoderModel.forward_batch, trainer.batch_loss

        def spy_forward(self, features):
            out = forward_batch(self, features)
            made.extend([out.final, *out.logits.values()])
            return out

        def spy_loss(*args):
            node, parts = loss(*args)
            made.append(node)
            return node, parts

        monkeypatch.setattr(EncoderModel, "forward_batch", spy_forward)
        monkeypatch.setattr(trainer, "batch_loss", spy_loss)
        trainer._evaluate(model, valid_set, 0.5, 2)
        trainer.layerwise_error_rates(model, valid_set)
        # 5 tensors per forward: 2 chunk forwards, 3 one-utterance ones; 2 chunk losses
        assert len(made) == 5 * (2 + 3) + 2
        assert all(t.parents == () and t.node._backward is None for t in made)

    def test_steps_after_evaluation_record_the_full_tape(self, tiny_data, monkeypatch):
        # Evaluation runs tape-free after every step; each step's tape must
        # still hold all 271 nodes of a 6-layer `alternate` step.
        lang, train_set, valid_set = tiny_data
        sizes = []
        backward = dc.backward

        def counting_backward(loss):
            sizes.append(len(dc._topo_order(loss)))
            backward(loss)

        monkeypatch.setattr(dc, "backward", counting_backward)
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("alternate", 6),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=3)
        cfg = TrainConfig(batch_size=3, warmup_steps=20, seed=2, average_k=1, max_steps=3,
                          eval_interval=1)
        result = train(model, train_set, valid_set, cfg)
        assert len(result.metrics) == 3
        assert sizes == [271, 271, 271]

    def test_no_step_graph_outlives_the_step(self, tiny_data, monkeypatch):
        # When a step's forward starts, reference counting alone must have
        # freed the previous step's graph, which holds its forward's logits.
        lang, train_set, valid_set = tiny_data
        forward_batch = EncoderModel.forward_batch
        previous, alive, steps = [], [], []

        def watched_forward(self, features):
            if not dc.is_recording():  # an evaluation chunk
                return forward_batch(self, features)
            steps.append(len(steps) + 1)
            if any(ref() is not None for ref in previous):
                alive.append(steps[-1])
            out = forward_batch(self, features)
            previous[:] = [weakref.ref(t.value) for t in out.logits.values()]
            return out

        monkeypatch.setattr(EncoderModel, "forward_batch", watched_forward)
        model = EncoderModel(SMALL, PlacementConfig.from_strategy("alternate", 6),
                             lang.char_vocab().size, lang.syl_vocab().size, seed=3)
        cfg = TrainConfig(batch_size=3, warmup_steps=20, seed=2, average_k=1, max_steps=4,
                          eval_interval=2)
        gc.collect()
        gc.disable()
        try:
            train(model, train_set, valid_set, cfg)
        finally:
            gc.enable()
        assert steps == [1, 2, 3, 4]
        assert alive == []

    def test_missing_output_directory_fails_before_the_first_step(self, tiny_data, tmp_path):
        lang, train_set, valid_set = tiny_data
        model = small_model(chars=lang.char_vocab().size, syls=lang.syl_vocab().size)
        cfg = TrainConfig(batch_size=3, warmup_steps=20, max_steps=2)
        before = model.store.values()
        with pytest.raises(ContractError, match="output directory"):
            train(model, train_set, valid_set, cfg, out_dir=tmp_path / "missing")
        after = model.store.values()
        assert all(np.array_equal(before[name], after[name]) for name in before)
        assert not (tmp_path / "missing").exists()

    def test_validation_required(self, tiny_data):
        lang, train_set, _ = tiny_data
        model = small_model(chars=lang.char_vocab().size, syls=lang.syl_vocab().size)
        with pytest.raises(ContractError):
            train(model, train_set, [], TrainConfig())
        with pytest.raises(ContractError):
            train(model, [], train_set, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(mix_weight=1.0)
        with pytest.raises(ContractError):
            TrainConfig(average_k=0)
        with pytest.raises(ContractError):
            TrainConfig(warmup_steps=0)
        with pytest.raises(ContractError, match="seed"):
            TrainConfig(seed=-5)
        for steps in (0, -1):
            with pytest.raises(ContractError, match="max_steps"):
                TrainConfig(max_steps=steps)


def test_write_metrics_csv_roundtrips_values(tmp_path):
    placement = PlacementConfig(n_layers=2, char_layers={1}, syl_layers={1}, condition=True)
    rows = [
        trainer.MetricsRow(
            step=5, lr=1e-3, loss_total=2.5, loss_final=2.0,
            inter_losses={("char", 1): 3.0, ("syl", 1): 1.25},
            cer_train=0.5, cer_valid=0.75, ser_valid={1: 0.25},
        )
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, placement, path)
    with open(path) as fh:
        reader = csv.DictReader(fh)
        row = next(reader)
    assert float(row["loss_layer_1_char"]) == 3.0
    assert float(row["ser_valid_1"]) == 0.25


def test_failed_metrics_write_leaves_old_file(tmp_path):
    placement = PlacementConfig(n_layers=2, char_layers={1}, syl_layers={1}, condition=True)
    row = trainer.MetricsRow(
        step=5, lr=1e-3, loss_total=2.5, loss_final=2.0,
        inter_losses={("char", 1): 3.0, ("syl", 1): 1.25},
        cer_train=0.5, cer_valid=0.75, ser_valid={1: 0.25},
    )
    path = tmp_path / "m.csv"
    write_metrics_csv([row], placement, path)
    before = path.read_bytes()
    broken = trainer.MetricsRow(**{**vars(row), "inter_losses": {("char", 1): 3.0}})
    with pytest.raises(KeyError):
        write_metrics_csv([row, broken], placement, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
