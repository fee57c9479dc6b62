from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from condctc.ctc import (
    InfeasibleAlignmentError,
    OracleSizeError,
    brute_force_loss,
    ctc_loss,
    ctc_loss_batch,
    greedy_decode,
    min_frames,
)
from condctc.labels import InvalidTokenError, collapse


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
            assert greedy_decode(probs) == collapse(path, 4)


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
