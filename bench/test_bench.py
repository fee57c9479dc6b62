"""Tests of the benchmark's reference computation and output checks.

    python3 -m pytest bench/test_bench.py -q

The reference must agree with the program's oracles, and every output check
must fail on a perturbed output: one parameter nudged, one hypothesis token
swapped, one CER off by a token.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import worker  # noqa: E402
from condctc import cli, ctc, labels, synthdata, trainer  # noqa: E402
from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig  # noqa: E402

@pytest.fixture(scope="module")
def lang():
    return synthdata.make_language(seed=1, n_syllables=20, n_characters=60)


def small_model(lang, strategy: str) -> EncoderModel:
    placement = PlacementConfig.from_strategy(strategy, 6)
    return EncoderModel(ModelConfig(), placement, lang.char_vocab().size, lang.syl_vocab().size, seed=3)


def program_posteriors(model: EncoderModel, features: np.ndarray) -> dict:
    out = model.forward(features)
    return {"final": out.final.value,
            **{("char", n): t.value for n, t in out.char_inters.items()},
            **{("syl", n): t.value for n, t in out.syl_inters.items()}}


def test_reference_ctc_matches_path_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        t, k = int(rng.integers(1, 8)), int(rng.integers(2, 5))
        target = rng.integers(1, k, size=int(rng.integers(0, 4))).tolist()
        probs = rng.dirichlet(np.ones(k), size=t)
        want = ctc.brute_force_loss(probs, target)
        got = ref.ctc_nll(probs, target)
        if np.isinf(want):
            assert np.isinf(got)
        else:
            assert abs(got - want) <= 1e-9 * max(1.0, want)
        checked += 1


def test_reference_levenshtein_matches_program():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.integers(0, 4, size=int(rng.integers(0, 7))).tolist()
        b = rng.integers(0, 4, size=int(rng.integers(0, 7))).tolist()
        assert ref.levenshtein(a, b) == labels.edit_distance(a, b).total


@pytest.mark.parametrize("strategy", ["alternate", "baseline"])
def test_reference_forward_and_loss_match_program(lang, strategy):
    model = small_model(lang, strategy)
    placement = ref.PLACEMENTS[strategy]
    assert (tuple(sorted(model.placement.char_layers)), tuple(sorted(model.placement.syl_layers))) \
        == (placement["char"], placement["syl"])
    utt = synthdata.sample_utterances(lang, 1, (3, 5), 2, 0, "t")[0]
    params = model.store.values()
    post = ref.forward(params, utt.features, strategy)
    assert ref.check_posteriors(program_posteriors(model, utt.features), post, 1e-9) == []

    mix = 0.5 if strategy == "alternate" else 0.0
    node, _ = trainer.total_loss(model.forward(utt.features), utt.char_ids, utt.syl_ids, mix)
    want = ref.total_loss(post, utt.char_ids, utt.syl_ids, mix)
    assert ref.check_close("loss", float(node.value), want, 1e-9) == []

    nudged = dict(params)
    nudged["block03.ffn.w1"] = params["block03.ffn.w1"].copy()
    nudged["block03.ffn.w1"][0, 0] += 1e-5
    nudged_post = ref.forward(nudged, utt.features, strategy)
    assert ref.check_posteriors(program_posteriors(model, utt.features), nudged_post, 1e-9)
    assert ref.check_close("loss", float(node.value),
                           ref.total_loss(nudged_post, utt.char_ids, utt.syl_ids, mix), 1e-9)


def test_gradient_check_fails_on_a_nudged_gradient(lang):
    from condctc import diffcore as dc

    model = small_model(lang, "alternate")
    utt = synthdata.sample_utterances(lang, 1, (3, 4), 4, 0, "g")[0]
    node, _ = trainer.total_loss(model.forward(utt.features), utt.char_ids, utt.syl_ids, 0.5)
    model.store.zero_grad()
    dc.backward(node)
    grads = {n: model.store[n].grad.copy() for n in model.store.names()}
    params = model.store.values()

    def loss(p):
        return ref.mean_loss(p, [utt], "alternate", 0.5)

    assert ref.check_gradient(params, grads, loss, 6, np.random.default_rng(0)) == []
    only = {"char_head.b": grads["char_head.b"] + 1e-3}
    assert ref.check_gradient(params, only, loss, 1, np.random.default_rng(0))


def test_hypothesis_check_fails_on_a_swapped_token():
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(6) * 0.3, size=20)
    hyp = ref.greedy(probs)
    assert ref.check_hypothesis(hyp, probs, 1e-9) == []
    assert hyp, "instance should decode to at least one label"
    swapped = list(hyp)
    swapped[0] = 1 + swapped[0] % 5
    assert ref.check_hypothesis(swapped, probs, 1e-9)
    tied = probs.copy()
    first = int(np.argmax(tied[0]))
    tied[0, (first + 1) % 6] = tied[0, first]
    assert ref.check_hypothesis(swapped, tied, 1e-9) == []


def test_eval_output_check_fails_on_a_rate_off_by_a_token(lang, tmp_path):
    model = small_model(lang, "alternate")
    cv, sv = lang.char_vocab(), lang.syl_vocab()
    utts = synthdata.sample_utterances(lang, 3, (3, 5), 5, 3, "e")
    data, ckpt, hyp = tmp_path / "d.jsonl", tmp_path / "m.ntc", tmp_path / "h.jsonl"
    synthdata.write_jsonl(utts, lang, data)
    model.save(ckpt, extra_meta={"char_tokens": list(cv.tokens), "syl_tokens": list(sv.tokens)})
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["decode", "--model", str(ckpt), "--data", str(data), "--out", str(hyp),
                         "--dump-intermediate", "true"]) == 0
        assert cli.main(["eval", "--ref", str(data), "--hyp", str(hyp)]) == 0
    records = {rec["id"]: rec for rec in map(json.loads, hyp.read_text().splitlines())}
    pairs: dict = {}
    for utt in utts:
        rec = records[utt.utt_id]
        for level, layers in rec["layers"].items():
            vocab, target = (cv, utt.char_ids) if level == "char" else (sv, utt.syl_ids)
            for n, tokens in layers.items():
                pairs.setdefault((level, int(n)), []).append((vocab.decode(target), tokens))
    text = printed.getvalue()
    assert worker.check_eval_output(text, pairs, 3) == []

    cer = float(text.split("cer ", 1)[1].split()[0])
    one_token = 1.0 / sum(len(r) for r, _ in pairs[("char", 6)])
    off = text.replace(f"cer {cer:.6f} over", f"cer {cer + one_token:.6f} over", 1)
    assert off != text
    assert worker.check_eval_output(off, pairs, 3)
