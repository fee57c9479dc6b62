"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 6-8 share six training runs (three seeds x two strategies) built in
session fixtures; run with `-s` to watch progress.  The whole module takes
roughly 15-20 minutes on one CPU core; criteria 6-8 carry the `slow` marker,
so `pytest -m "not slow"` leaves them out.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from condctc import ctc, diffcore as dc, synthdata, trainer
from condctc.diffcore import Tensor
from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig
from condctc.trainer import TrainConfig


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_instance(rng, clip=None):
    while True:
        t = int(rng.integers(1, 9))
        k = int(rng.integers(2, 5))
        length = int(rng.integers(0, 4))
        target = rng.integers(1, k, size=length).tolist()
        if t >= ctc.min_frames(target):
            probs = rng.dirichlet(np.ones(k), size=t)
            if clip is not None:
                probs = np.clip(probs, clip, None)
                probs /= probs.sum(axis=1, keepdims=True)
            return probs, target


# -- criteria 1-2: CTC against its oracles ------------------------------------


def test_criterion_1_ctc_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for _ in range(500):
        probs, target = random_instance(rng)
        dp = ctc.ctc_loss(probs, target).loss
        bf = ctc.brute_force_loss(probs, target)
        worst = max(worst, abs(dp - bf) / max(1.0, bf))
    elapsed = time.monotonic() - started
    ok = worst < 1e-9 and elapsed < 30.0
    report(1, ok, f"DP vs path enumeration over 500 instances: "
                  f"worst rel err {worst:.3e} (<1e-9), {elapsed:.1f}s (<30s)")


def test_criterion_2_ctc_gradient_finite_differences():
    rng = np.random.default_rng(102)
    started = time.monotonic()
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        probs, target = random_instance(rng, clip=1e-3)
        grad = ctc.ctc_loss(probs, target).grad
        for t in range(probs.shape[0]):
            for k in range(probs.shape[1]):
                hi = probs.copy()
                hi[t, k] += eps
                lo = probs.copy()
                lo[t, k] -= eps
                numeric = (ctc.ctc_loss(hi, target).loss - ctc.ctc_loss(lo, target).loss) / (2 * eps)
                worst = max(worst, abs(grad[t, k] - numeric) / max(1.0, abs(grad[t, k]), abs(numeric)))
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 60.0
    report(2, ok, f"analytic vs central differences over 100 instances: "
                  f"max rel err {worst:.3e} (<1e-4), {elapsed:.1f}s (<60s)")


# -- criterion 3: autodiff ------------------------------------------------------


def test_criterion_3_autodiff_gradients():
    started = time.monotonic()
    rng = np.random.default_rng(103)

    def wmean(node, weights):
        return dc.mean_reduce(dc.mul(node, weights))

    x = Tensor(rng.normal(size=(6, 5)))
    w = Tensor(rng.normal(size=(6, 5)))
    b = Tensor(rng.normal(size=(5,)))
    gain = Tensor(rng.normal(size=(5,)))
    w66 = Tensor(rng.normal(size=(6, 6)))
    kern = Tensor(rng.normal(size=(3, 5)))
    w56 = Tensor(rng.normal(size=(5, 6)))
    b6 = Tensor(rng.normal(size=(6,)))
    q = Tensor(rng.normal(size=(6, 4)))
    k = Tensor(rng.normal(size=(6, 4)))
    v = Tensor(rng.normal(size=(6, 4)))
    w64 = Tensor(rng.normal(size=(6, 4)))
    segments = [2, 1, 3]  # packed rows of three utterances

    per_op = {
        "add": (lambda: wmean(dc.add(x, w), w), [x, w]),
        "mul": (lambda: wmean(dc.mul(x, w), w), [x, w]),
        "scale": (lambda: wmean(dc.scale(x, -2.2), w), [x]),
        "layer_norm_affine": (lambda: wmean(dc.layer_norm_affine(x, gain, b), w), [x, gain, b]),
        "linear": (lambda: wmean(dc.linear(x, w56, b6), w66), [x, w56, b6]),
        "softmax_rows": (lambda: wmean(dc.softmax_rows(x), w), [x]),
        "log_softmax_rows": (lambda: wmean(dc.log_softmax_rows(x), w), [x]),
        "swish": (lambda: wmean(dc.swish(x), w), [x]),
        "depthwise_conv_rows": (lambda: wmean(dc.depthwise_conv_rows(x, kern, [6]), w), [x, kern]),
        "depthwise_conv_rows/segments": (
            lambda: wmean(dc.depthwise_conv_rows(x, kern, segments), w), [x, kern]),
        "multi_head_attention/segments": (
            lambda: wmean(dc.multi_head_attention(q, k, v, 2, segments), w64), [q, k, v]),
        "mean_reduce": (lambda: dc.mean_reduce(dc.mul(x, w)), [x, w]),
    }
    op_errs = {}
    for name, (fn, params) in per_op.items():
        op_errs[name] = dc.grad_check(fn, params, eps=1e-5)
    worst_op = max(op_errs, key=op_errs.get)
    ops_ok = op_errs[worst_op] < 1e-4

    # full 2-block encoder with both heads and feedback
    cfg = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)
    placement = PlacementConfig(n_layers=2, char_layers={1}, syl_layers={1}, condition=True)
    model = EncoderModel(cfg, placement, char_vocab_size=5, syl_vocab_size=4, seed=11)
    feats = rng.normal(size=(5, 4))

    def model_loss():
        out = model.forward(feats)
        node, _ = trainer.total_loss(out, [1, 2], [1], 0.5)
        return node

    params = [model.store[n] for n in model.store.names()]
    model_err = dc.grad_check(model_loss, params, eps=1e-5, max_entries=4,
                              rng=np.random.default_rng(7))
    elapsed = time.monotonic() - started
    ok = ops_ok and model_err < 1e-3 and elapsed < 120.0
    report(3, ok, f"per-op worst {op_errs[worst_op]:.3e} at {worst_op} (<1e-4); "
                  f"2-block model {model_err:.3e} (<1e-3); {elapsed:.1f}s (<2min)")


# -- criterion 4: architecture equivalences -------------------------------------


def test_criterion_4_architecture_equivalences():
    cfg = ModelConfig(d_in=4, d_model=8, n_heads=2, d_ff=12, conv_kernel=3)
    rng = np.random.default_rng(104)
    feats = rng.normal(size=(6, 4))

    # (a) zeroed conditioning projections == condition-off model, bitwise
    on = EncoderModel(cfg, PlacementConfig(n_layers=3, char_layers={1}, syl_layers={2},
                                           condition=True), 5, 4, seed=1)
    for name in ("char_cond.w", "char_cond.b", "syl_cond.w", "syl_cond.b"):
        on.store[name].value[...] = 0.0
    off = EncoderModel(cfg, PlacementConfig(n_layers=3, char_layers={1}, syl_layers={2},
                                            condition=False), 5, 4, store=on.store)
    out_on, out_off = on.forward(feats), off.forward(feats)
    bitwise = (
        np.array_equal(out_on.final.value, out_off.final.value)
        and all(np.array_equal(out_on.char_inters[k].value, out_off.char_inters[k].value)
                for k in out_on.char_inters)
        and all(np.array_equal(out_on.syl_inters[k].value, out_off.syl_inters[k].value)
                for k in out_on.syl_inters)
    )

    # (b) zero mixing weight gives exactly the CTC loss of the final point run
    # alone, so the intermediate points do not touch it, and the oracle's loss
    # on the final posteriors to 1e-12 (the training loss runs on
    # log-softmax, the oracle on floored probabilities)
    model = EncoderModel(cfg, PlacementConfig.from_strategy("alternate", 6), 5, 4, seed=2)
    out = model.forward(feats)
    node, _ = trainer.total_loss(out, [1, 2], [1, 3], 0.0)
    alone = ctc.ctc_loss_batch([dc.log_softmax_rows(out.logits[("char", 6)]).value],
                               out.lengths, [[[1, 2]]]).losses[0, 0]
    oracle = ctc.ctc_loss(out.final.value, [1, 2]).loss
    exact = float(node.value) == alone and abs(alone - oracle) <= 1e-12 * oracle

    # (c) intermediate prediction points add zero parameters
    counts = {
        strategy: EncoderModel(cfg, PlacementConfig.from_strategy(strategy, 6), 5, 4, seed=0).parameter_count
        for strategy in ("baseline", "multitask", "interctc", "selfcond", "parallel",
                         "hierarchical", "alternate")
    }
    same_count = len(set(counts.values())) == 1

    ok = bitwise and exact and same_count
    report(4, ok, f"zero-conditioning bitwise={bitwise}; mix-weight-0 exact={exact}; "
                  f"parameter count identical across placements={same_count} "
                  f"({next(iter(counts.values()))} params)")


# -- criterion 5: preset fidelity ------------------------------------------------


def test_criterion_5_preset_fidelity():
    expected = {
        "selfcond": ({3, 6, 9, 12, 15}, set(), True),
        "parallel": ({6, 12}, {6, 12, 18}, True),
        "hierarchical": ({12, 15}, {3, 6, 9}, True),
        "alternate": ({6, 12}, {3, 9, 15}, True),
        "baseline": (set(), set(), False),
        "multitask": (set(), {15}, False),
        "interctc": ({3, 6, 9, 12, 15}, set(), False),
    }
    bad = []
    for name, (chars, syls, cond) in expected.items():
        pl = PlacementConfig.from_strategy(name, 18)
        if (set(pl.char_layers), set(pl.syl_layers), pl.condition) != (chars, syls, cond):
            bad.append(name)
        if pl.n_layers in pl.char_layers:
            bad.append(f"{name}: final layer in char set")
    ok = not bad
    report(5, ok, "strategy presets reproduce the reference layer sets at depth 18"
                  + ("" if ok else f"; mismatches: {bad}"))


# -- criteria 6-8: the overfit experiment ----------------------------------------

N_TRAIN, N_VALID, N_HOMO = 50, 30, 30
LEN_RANGE = (3, 8)
SEEDS = (1, 2, 3)


@pytest.fixture(scope="session")
def toy_corpus():
    lang = synthdata.make_language(seed=1, n_syllables=20, n_characters=60)
    return {
        "lang": lang,
        "train": synthdata.sample_utterances(lang, N_TRAIN, LEN_RANGE, 1, 0, "train"),
        "valid": synthdata.sample_utterances(lang, N_VALID, LEN_RANGE, 1, 1, "valid"),
        "homo": synthdata.sample_utterances(lang, N_HOMO, LEN_RANGE, 1, 2, "homo",
                                            char_pool=lang.homophone_characters()),
    }


def run_training(corpus, strategy: str, seed: int) -> dict:
    lang = corpus["lang"]
    placement = PlacementConfig.from_strategy(strategy, 6)
    model = EncoderModel(ModelConfig(), placement, lang.char_vocab().size,
                         lang.syl_vocab().size, seed=seed)
    cfg = TrainConfig(
        mix_weight=0.5 if strategy != "baseline" else 0.0,
        epochs=2000,
        batch_size=10,
        warmup_steps=500,
        lr_factor=2.0,
        seed=seed + 10,
        average_k=10,
        max_steps=3000,
        eval_interval=100,
        early_stop_train_cer=0.01,
    )
    started = time.monotonic()
    result = trainer.train(model, corpus["train"], corpus["valid"], cfg)
    elapsed = time.monotonic() - started
    averaged = model.with_store(result.averaged_store)
    return {
        "model": model,
        "averaged": averaged,
        "result": result,
        "seconds": elapsed,
        "train_rates": trainer.layerwise_error_rates(model, corpus["train"]),
        "valid_rates_avg": trainer.layerwise_error_rates(averaged, corpus["valid"]),
        "homo_cer": trainer.layerwise_error_rates(averaged, corpus["homo"])[("char", 6)],
    }


@pytest.fixture(scope="session")
def alternate_runs(toy_corpus):
    return [run_training(toy_corpus, "alternate", seed) for seed in SEEDS]


@pytest.fixture(scope="session")
def baseline_runs(toy_corpus):
    return [run_training(toy_corpus, "baseline", seed) for seed in SEEDS]


@pytest.mark.slow
def test_criterion_6_overfit_experiment(alternate_runs):
    run = alternate_runs[0]
    top_syl_layer = max(run["model"].placement.syl_layers)
    cer = run["train_rates"][("char", 6)]
    ser = run["train_rates"][("syl", top_syl_layer)]
    steps = run["result"].steps_run
    metrics = run["result"].metrics
    losses_dropped = all(
        metrics[-1].inter_losses[key] < metrics[0].inter_losses[key]
        for key in metrics[0].inter_losses
    ) and metrics[-1].loss_final < metrics[0].loss_final
    ok = cer < 0.02 and ser < 0.02 and steps <= 3000 and run["seconds"] < 600 and losses_dropped
    report(6, ok, f"alternate N=6 D=64 on 50 utterances: train CER {cer:.4f} (<0.02), "
                  f"train SER@layer{top_syl_layer} {ser:.4f} (<0.02), {steps} steps (<=3000), "
                  f"{run['seconds']:.0f}s (<600s), all losses decreased={losses_dropped}")


@pytest.mark.slow
def test_criterion_7_layerwise_monotonicity(alternate_runs):
    placement = alternate_runs[0]["model"].placement
    low_char = min(placement.char_layers)
    low_syl = min(placement.syl_layers)
    top_syl = max(placement.syl_layers)

    def mean_rate(key):
        return float(np.mean([r["valid_rates_avg"][key] for r in alternate_runs]))

    cer_final = mean_rate(("char", 6))
    cer_low = mean_rate(("char", low_char))
    ser_top = mean_rate(("syl", top_syl))
    ser_low = mean_rate(("syl", low_syl))
    ok = cer_final <= cer_low and ser_top <= ser_low
    report(7, ok, f"3-seed means on the overfit runs' validation set (averaged models): "
                  f"CER final {cer_final:.4f} <= CER layer{low_char} {cer_low:.4f}; "
                  f"SER layer{top_syl} {ser_top:.4f} <= SER layer{low_syl} {ser_low:.4f}")


@pytest.mark.slow
def test_criterion_8_directional_comparison_reported(alternate_runs, baseline_runs):
    alt = [r["homo_cer"] for r in alternate_runs]
    base = [r["homo_cer"] for r in baseline_runs]
    alt_mean, base_mean = float(np.mean(alt)), float(np.mean(base))
    direction = "alternate better" if alt_mean < base_mean else (
        "baseline better" if base_mean < alt_mean else "tied")
    # Reported, not gated: absolute production error rates need real corpora
    # and full-scale training; the preceding criteria stand in for them.
    ok = all(math.isfinite(v) for v in alt + base)
    report(8, ok, f"homophone-rich held-out CER over 3 seeds (not a gate): "
                  f"alternate {alt_mean:.4f} {[round(v, 3) for v in alt]} vs "
                  f"baseline {base_mean:.4f} {[round(v, 3) for v in base]} -> {direction}")
