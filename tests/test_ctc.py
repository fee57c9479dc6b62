from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condctc import diffcore as dc, synthdata
from condctc.ctc import (
    InfeasibleAlignmentError,
    OracleSizeError,
    brute_force_loss,
    ctc_loss,
    ctc_loss_batch,
    greedy_decode,
    extended_labels,
    min_frames,
)
from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig
from condctc.labels import BLANK_ID, InvalidTokenError


def random_instance(rng, max_frames=8, max_classes=4, max_labels=3):
    """A feasible (probs, target) pair with row-stochastic probs."""
    while True:
        t = int(rng.integers(1, max_frames + 1))
        k = int(rng.integers(2, max_classes + 1))
        length = int(rng.integers(0, max_labels + 1))
        target = rng.integers(1, k, size=length).tolist()
        if t >= min_frames(target):
            probs = rng.dirichlet(np.ones(k), size=t)
            return probs, target


class TestCtcLoss:
    def test_single_frame_single_label(self):
        result = ctc_loss(np.array([[0.2, 0.8]]), [1])
        assert result.loss == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_two_frames_three_paths(self):
        # paths (a,a), (blank,a), (a,blank) sum to 0.75 by hand
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        result = ctc_loss(probs, [1])
        assert result.loss == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_empty_target_is_all_blank_path(self):
        probs = np.array([[0.7, 0.3], [0.6, 0.4]])
        result = ctc_loss(probs, [])
        assert result.loss == pytest.approx(-math.log(0.7 * 0.6), abs=1e-12)

    def test_infeasible_target_raises(self):
        probs = np.full((2, 3), 1 / 3)
        with pytest.raises(InfeasibleAlignmentError):
            ctc_loss(probs, [1, 1])  # repeated label needs 3 frames

    def test_target_ids_validated(self):
        probs = np.full((3, 3), 1 / 3)
        with pytest.raises(InvalidTokenError):
            ctc_loss(probs, [0])
        with pytest.raises(InvalidTokenError):
            ctc_loss(probs, [3])

    def test_dp_tables_recombine_to_total_probability(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            probs, target = random_instance(rng)
            result = ctc_loss(probs, target)
            total = np.exp(result.log_alpha + result.log_beta).sum(axis=1)
            assert np.allclose(total, math.exp(-result.loss), rtol=1e-9)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            probs, target = random_instance(rng)
            dp = ctc_loss(probs, target).loss
            bf = brute_force_loss(probs, target)
            assert abs(dp - bf) / max(1.0, bf) < 1e-9

    def test_loss_is_positive_probability(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            probs, target = random_instance(rng)
            mass = math.exp(-ctc_loss(probs, target).loss)
            assert 0.0 < mass <= 1.0

    def test_completeness_over_reachable_targets(self):
        # summed over every reachable label sequence the masses form a
        # probability distribution
        rng = np.random.default_rng(13)
        for _ in range(3):
            t, k = 4, 3
            probs = rng.dirichlet(np.ones(k), size=t)
            total = 0.0
            for length in range(t + 1):
                for target in itertools.product(range(1, k), repeat=length):
                    if min_frames(list(target)) <= t:
                        total += math.exp(-ctc_loss(probs, list(target)).loss)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_appending_frame_preserves_feasibility(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            probs, target = random_instance(rng)
            grown = np.vstack([probs, np.full((1, probs.shape[1]), 1.0 / probs.shape[1])])
            assert math.isfinite(ctc_loss(grown, target).loss)


class TestCtcGrad:
    def test_single_frame_analytic(self):
        grad = ctc_loss(np.array([[0.2, 0.8]]), [1]).grad
        assert grad[0, 1] == pytest.approx(-1.25, abs=1e-12)
        assert grad[0, 0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        eps = 1e-6
        worst = 0.0
        for _ in range(30):
            probs, target = random_instance(rng)
            probs = np.clip(probs, 1e-3, None)
            probs /= probs.sum(axis=1, keepdims=True)
            grad = ctc_loss(probs, target).grad
            for t in range(probs.shape[0]):
                for k in range(probs.shape[1]):
                    hi = probs.copy()
                    hi[t, k] += eps
                    lo = probs.copy()
                    lo[t, k] -= eps
                    numeric = (ctc_loss(hi, target).loss - ctc_loss(lo, target).loss) / (2 * eps)
                    err = abs(grad[t, k] - numeric) / max(1.0, abs(grad[t, k]), abs(numeric))
                    worst = max(worst, err)
        assert worst < 1e-4

    def test_infeasible_instance_errors_not_nan(self):
        with pytest.raises(InfeasibleAlignmentError):
            ctc_loss(np.full((1, 3), 1 / 3), [1, 2]).grad

    def test_grad_finite_when_loss_finite(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            probs, target = random_instance(rng)
            result = ctc_loss(probs, target)
            assert math.isfinite(result.loss)
            assert np.isfinite(result.grad).all()


class TestGreedyDecode:
    def test_collapses_argmax_path(self):
        probs = np.array(
            [
                [0.1, 0.8, 0.1],  # a
                [0.2, 0.7, 0.1],  # a
                [0.9, 0.05, 0.05],  # blank
                [0.1, 0.2, 0.7],  # b
            ]
        )
        assert greedy_decode(probs) == [1, 2]

    def test_all_blank_rows(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2]])
        assert greedy_decode(probs) == []

    def test_ties_break_to_lowest_id(self):
        probs = np.array([[0.5, 0.5]])
        assert greedy_decode(probs) == []  # blank (id 0) wins the tie

    def test_equals_collapse_of_argmax(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4), size=6)
            path = np.argmax(probs, axis=1).tolist()
            collapsed = [k for k, _ in itertools.groupby(path) if k != BLANK_ID]
            assert greedy_decode(probs) == collapsed

    def test_merges_repeats_then_removes_blanks(self):
        # (a, a, blank, a) -> (a, a): a blank keeps the repeats on its two
        # sides apart, and those become adjacent repeats of the output.
        assert greedy_decode(np.eye(2)[[1, 1, 0, 1]]) == [1, 1]

    def test_adjacent_repeats_in_output_are_not_a_fixed_point(self):
        # (a, blank, a) -> (a, a), which as a path decodes to (a); this is
        # inherent to the collapsing rule itself.
        assert greedy_decode(np.eye(2)[[1, 0, 1]]) == [1, 1]
        assert greedy_decode(np.eye(2)[[1, 1]]) == [1]

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12))
    def test_repeat_free_label_path_decodes_to_itself(self, seq):
        deduped = [x for i, x in enumerate(seq) if i == 0 or x != seq[i - 1]]
        assert greedy_decode(np.eye(5)[deduped]) == deduped


class TestBruteForce:
    def test_known_values(self):
        assert brute_force_loss(np.array([[0.2, 0.8]]), [1]) == pytest.approx(-math.log(0.8))
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert brute_force_loss(probs, [1]) == pytest.approx(-math.log(0.75))

    def test_infeasible_returns_inf(self):
        assert brute_force_loss(np.full((1, 3), 1 / 3), [1, 2]) == math.inf

    def test_size_guard(self):
        probs = np.full((30, 4), 0.25)
        with pytest.raises(OracleSizeError):
            brute_force_loss(probs, [1])


class TestCtcLossBatch:
    """The batched sweep against `ctc_loss`, lattice by lattice; the
    loss-only sweep against the full one, bitwise."""

    def test_random_batches_match_per_lattice_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            lengths = rng.integers(1, 9, size=int(rng.integers(1, 5))).tolist()
            classes = rng.integers(2, 6, size=int(rng.integers(1, 4))).tolist()
            probs, targets = [], []
            for k in classes:
                probs.append(rng.dirichlet(np.ones(k), size=sum(lengths)))
                point = []
                for n in lengths:
                    while True:
                        target = rng.integers(1, k, size=int(rng.integers(0, 4))).tolist()
                        if min_frames(target) <= n:
                            break
                    point.append(target)
                targets.append(point)
            result = ctc_loss_batch([np.log(z) for z in probs], lengths, targets)
            alone = ctc_loss_batch([np.log(z) for z in probs], lengths, targets, with_grads=False)
            assert alone.grads is None and np.array_equal(alone.losses, result.losses)
            bounds = np.cumsum([0, *lengths])
            for p, (z, point) in enumerate(zip(probs, targets)):
                for i, target in enumerate(point):
                    rows = slice(bounds[i], bounds[i + 1])
                    ref = ctc_loss(z[rows], target)
                    assert result.losses[p, i] == pytest.approx(ref.loss, rel=1e-12, abs=1e-14)
                    # d loss / d log z = z * d loss / d z
                    np.testing.assert_allclose(result.grads[p][rows], z[rows] * ref.grad,
                                               rtol=0, atol=1e-12)

    def test_infeasible_lattice_names_point_and_segment(self):
        logz = np.log(np.full((5, 3), 1 / 3))
        with pytest.raises(InfeasibleAlignmentError, match="segment 1") as info:
            ctc_loss_batch([logz, logz], [3, 2], [[[1], [2]], [[1], [2, 2]]])
        assert info.value.point == 1

    def test_inputs_validated(self):
        logz = np.log(np.full((4, 3), 1 / 3))
        with pytest.raises(InvalidTokenError):
            ctc_loss_batch([logz], [4], [[[3]]])
        with pytest.raises(ValueError):
            ctc_loss_batch([logz], [3], [[[1]]])  # lengths do not cover the rows
        with pytest.raises(ValueError):
            ctc_loss_batch([logz], [2, 2], [[[1]]])  # one target for two segments


class TestProbMatrix:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ctc_loss(np.ones((0, 2)), [])
        with pytest.raises(ValueError):
            ctc_loss(np.ones(4), [1])


# -- the rectangle sweep: the reference for `ctc_loss_batch` -------------------
#
# The sweep as it was before it stored only the running cells: every array
# spans all frames of the longest lattice times all lattice columns, and the
# emissions are gathered from one concatenated copy of the matrices.  Inputs
# are assumed valid.


def _rect_logsumexp3(a, b, c, out):
    top = np.maximum(a, b)
    np.maximum(top, c, out=top)
    top[top == -np.inf] = 0.0
    np.exp(np.subtract(a, top, out=out), out=out)
    out += np.exp(b - top)
    out += np.exp(c - top)
    np.log(out, out=out)
    out += top


def _rect_log_alpha(em, ext, state, running):
    t_max, width = em.shape
    skip = np.full(width, -np.inf)
    skip[2:][(state[2:] >= 2) & (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])] = 0.0
    alpha = np.full((t_max, width), -np.inf)
    first = (state == 0) | (state == 1)
    alpha[0, first] = em[0, first]
    for t in range(1, t_max):
        w = running[t]
        prev, out = alpha[t - 1], alpha[t, 2:w]
        _rect_logsumexp3(prev[2:w], prev[1 : w - 1], prev[: w - 2] + skip[2:w], out)
        out += em[t, 2:w]
    return alpha


def rectangle_ctc_loss_batch(log_probs, lengths, targets, with_grads=True):
    sizes = [int(n) for n in lengths]
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    mats = [np.asarray(m, dtype=np.float64) for m in log_probs]
    exts, offsets, strides, frames = [], [], [], []
    base = 0
    for mat, point_targets in zip(mats, targets):
        n_classes = mat.shape[1]
        for start, n, target in zip(starts, sizes, point_targets):
            exts.append(extended_labels([int(i) for i in target]))
            offsets.append(base + start * n_classes)
            strides.append(n_classes)
            frames.append(n)
        base += mat.size
    flat = np.concatenate([m.ravel() for m in mats])
    order = np.argsort(-np.array(frames), kind="stable")
    lanes = 2 if with_grads else 1
    lane_ext = [e for b in order for e in (exts[b], exts[b][::-1])[:lanes]]
    lane_t = np.repeat(np.array(frames)[order], lanes)
    widths = np.array([e.size + 2 for e in lane_ext])
    first_col = np.cumsum(widths) - widths
    lane = np.repeat(np.arange(widths.size), widths)
    state = np.arange(widths.sum()) - first_col[lane] - 2
    ext = np.zeros(widths.sum(), dtype=np.int64)
    ext[state >= 0] = np.concatenate(lane_ext)
    step = np.arange(lane_t[0])[:, None]
    lane_frame = np.minimum(step, lane_t - 1)
    if with_grads:
        lane_frame[:, 1::2] = lane_t[1::2] - 1 - lane_frame[:, 1::2]
    row_base = np.repeat(np.asarray(offsets)[order], lanes)
    stride = np.repeat(np.asarray(strides)[order], lanes)
    index = (row_base + lane_frame * stride)[:, lane]
    index += ext
    running = np.append(first_col, widths.sum())[(lane_t > step).sum(axis=1)]
    with np.errstate(divide="ignore"):
        em = flat[index]
        em[:, state < 0] = -np.inf
        alpha = _rect_log_alpha(em, ext, state, running)
        fwd = np.arange(0, widths.size, lanes)
        last_col = first_col[fwd] + widths[fwd] - 1
        log_p = np.logaddexp(alpha[lane_t[fwd] - 1, last_col], alpha[lane_t[fwd] - 1, last_col - 1])
        losses = np.empty(order.size)
        losses[order] = -log_p
        losses = losses.reshape(len(mats), len(sizes))
        if not with_grads:
            return losses, None
        cols = np.flatnonzero((state >= 0) & (lane % 2 == 0))
        partner = first_col[lane[cols] + 1] + widths[lane[cols]] - 1 - state[cols]
        expo = alpha[:, cols] + alpha[lane_frame[:, lane[cols] + 1], partner]
        expo -= em[:, cols]
        expo -= log_p[lane[cols] // 2]
        occupancy = np.exp(expo, out=expo)
    grad_flat = np.bincount(index[:, cols].ravel(), weights=occupancy.ravel(), minlength=flat.size)
    np.subtract(0.0, grad_flat, out=grad_flat)
    bounds = np.cumsum([0, *[m.size for m in mats]]).tolist()
    return losses, [grad_flat[a:b].reshape(m.shape) for a, b, m in zip(bounds, bounds[1:], mats)]


def alternate_epoch_batches():
    """The CTC inputs of the five 10-utterance batches of one epoch of a
    seed-1 `alternate` run (corpus seed 1, model seed 1, batch seed 2)."""
    lang = synthdata.make_language(seed=1, n_syllables=20, n_characters=60)
    utts = synthdata.sample_utterances(lang, 50, (3, 8), seed=1, stream=0, prefix="train")
    model = EncoderModel(ModelConfig(), PlacementConfig.from_strategy("alternate", 6),
                         lang.char_vocab().size, lang.syl_vocab().size, seed=1)
    order = np.random.default_rng(2).permutation(len(utts))
    batches = []
    with dc.no_grad():
        for start in range(0, len(utts), 10):
            batch = [utts[i] for i in order[start : start + 10]]
            out = model.forward_batch([u.features for u in batch])
            keys = [("char", 6), *[("char", n) for n in sorted(out.char_inters)],
                    *[("syl", n) for n in sorted(out.syl_inters)]]
            log_probs = [dc.log_softmax_rows(out.logits[key]).value for key in keys]
            targets = [[u.syl_ids if key[0] == "syl" else u.char_ids for u in batch]
                       for key in keys]
            batches.append((log_probs, list(out.lengths), targets))
    return batches


def skewed_batch():
    """One 300-frame and nine 29-frame segments, 6 points of 30 classes."""
    rng = np.random.default_rng(5)
    lengths = [300] + [29] * 9
    log_probs, targets = [], []
    for _ in range(6):
        x = rng.normal(size=(sum(lengths), 30))
        log_probs.append(x - np.log(np.exp(x).sum(axis=1, keepdims=True)))
        targets.append([rng.integers(1, 30, size=int(rng.integers(3, 9))).tolist()
                        for _ in lengths])
    return log_probs, lengths, targets


def assert_matches_rectangle(log_probs, lengths, targets):
    """Losses and gradients bitwise those of the rectangle sweep, zero signs
    included, and loss-only losses bitwise the full sweep's."""
    result = ctc_loss_batch(log_probs, lengths, targets)
    losses, grads = rectangle_ctc_loss_batch(log_probs, lengths, targets)
    assert np.array_equal(result.losses, losses)
    assert len(result.grads) == len(grads)
    for got, want in zip(result.grads, grads):
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    alone = ctc_loss_batch(log_probs, lengths, targets, with_grads=False)
    assert alone.grads is None and np.array_equal(alone.losses, result.losses)


class TestRunningCellSweep:
    """`ctc_loss_batch` stores only the cells of lattices still running; it
    must give the rectangle sweep's numbers bit for bit."""

    def test_alternate_epoch_batches(self):
        for batch in alternate_epoch_batches():
            assert_matches_rectangle(*batch)

    def test_skewed_batch(self):
        assert_matches_rectangle(*skewed_batch())

    def test_one_frame_segments_empty_targets_and_repeats(self):
        rng = np.random.default_rng(3)
        lengths = [1, 4, 1, 6, 3, 1]
        targets = [[[], [2, 2], [1], [1, 1, 2, 2], [], [3]],
                   [[1], [], [], [2, 1, 1], [2, 2], []]]
        log_probs = [np.log(rng.dirichlet(np.ones(4), size=sum(lengths))) for _ in targets]
        assert_matches_rectangle(log_probs, lengths, targets)
        assert_matches_rectangle([log_probs[0][:1]], [1], [[[]]])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_batches(self, data):
        n_segments = data.draw(st.integers(1, 5))
        lengths = data.draw(st.lists(st.integers(1, 9), min_size=n_segments,
                                     max_size=n_segments))
        classes = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        log_probs, targets = [], []
        for k in classes:
            log_probs.append(np.log(rng.dirichlet(np.ones(k), size=sum(lengths))))
            point = []
            for n in lengths:
                target = data.draw(st.lists(st.integers(1, k - 1), max_size=n))
                while min_frames(target) > n:
                    target = target[:-1]
                point.append(target)
            targets.append(point)
        assert_matches_rectangle(log_probs, lengths, targets)

    def test_peak_allocation_below_one_dense_array(self):
        # The running cells of the skewed batch are about a fifth of the
        # rectangle, so one call must never hold a T_max x columns array.
        log_probs, lengths, targets = skewed_batch()
        columns = 2 * sum(2 * len(t) + 3 for point in targets for t in point)  # two lanes each
        dense = max(lengths) * columns * 8
        tracemalloc.start()
        try:
            ctc_loss_batch(log_probs, lengths, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense
