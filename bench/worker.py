"""One round of a workload in a fresh process: set up, run it timed, check it.

A fresh process per round makes each decode round pay heap growth and
first-call costs, as every `condctc decode` call does.  Started by
bench/run.py, which passes the monotonic clock reading taken just before it
started this process, so set-up time counts interpreter start and imports.
Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import tracing

# Seed of the toy language (20 syllables, 60 characters) and of the utterances
# drawn from it: the corpus of the acceptance tests.  `--seed` draws the model
# weights and the batch order.  With the corpus fixed, every seed trains on the
# same frames; a corpus drawn from the seed moved frames by about 6% and peak
# memory by about 10% from seed to seed.
LANG_SEED = CORPUS_SEED = 1
# Optimizer steps per round: 10 epochs of the 50-utterance set, and one
# evaluation interval of `condctc train` (its default `eval_interval` is 50),
# so evaluation takes the share of the round it takes in a default run.
TRAIN_STEPS = 50
BATCH = 10
N_LONG = 64
LONG_CHARS = (16, 32)
LONG_STREAM = 3  # generate_dataset uses streams 0-2; 3 keeps the long set held out
TOL = 1e-9

TRAIN_WORKLOADS = {"train-alternate": ("alternate", 0.5), "train-baseline": ("baseline", 0.0)}
WORKLOADS = (*TRAIN_WORKLOADS, "decode-long")


def _import_program(src: Path):
    import condctc

    if Path(condctc.__file__).resolve().parent != (src / "condctc").resolve():
        raise SystemExit(f"condctc imported from {condctc.__file__}, not from {src}")


class TrainWorkload:
    """`trainer.train` of a fresh seeded model on the 50/30-utterance toy corpus."""

    def __init__(self, name: str, seed: int, work: Path, tracer):
        from condctc import synthdata
        from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig
        from condctc.trainer import TrainConfig

        self.strategy, self.mix = TRAIN_WORKLOADS[name]
        self.seed, self.tracer = seed, tracer
        lang = synthdata.make_language(seed=LANG_SEED, n_syllables=20, n_characters=60)
        data = work / "data"
        data.mkdir()
        synthdata.generate_dataset(lang, data, n_train=50, n_valid=30, len_range=(3, 8),
                                   seed=CORPUS_SEED)
        cv, sv = lang.char_vocab(), lang.syl_vocab()
        self.train_set = synthdata.read_jsonl(data / "train.jsonl", cv, sv)
        self.valid_set = synthdata.read_jsonl(data / "valid.jsonl", cv, sv)
        self.placement = PlacementConfig.from_strategy(self.strategy, ref.N_LAYERS)
        self.new_model = lambda: EncoderModel(ModelConfig(), self.placement, cv.size, sv.size,
                                              seed=seed)
        self.cfg = TrainConfig(mix_weight=self.mix, batch_size=BATCH, seed=seed + 1,
                               max_steps=TRAIN_STEPS)
        epochs, rest = divmod(TRAIN_STEPS * BATCH, len(self.train_set))
        assert rest == 0, "a round must cover whole epochs so its frame count is exact"
        self.frames = epochs * sum(u.features.shape[0] for u in self.train_set)
        self.out = work / "run"
        self.out.mkdir()
        self.model = self.new_model()

    def round(self) -> tuple[int, float, int, int]:
        """-> (frames, seconds, attempted steps, failed steps)."""
        from condctc import trainer

        started = time.perf_counter()
        with self.tracer.span("trainer.train"):
            self.result = trainer.train(self.model, self.train_set, self.valid_set, self.cfg,
                                        self.out)
        seconds = time.perf_counter() - started
        done = self.result.steps_run - (1 if self.result.aborted else 0)
        return self.frames, seconds, TRAIN_STEPS, TRAIN_STEPS - done

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, value in self.model.store.values().items():
            h.update(name.encode() + value.tobytes())
        h.update(repr([(r.step, r.loss_total, r.cer_valid) for r in self.result.metrics]).encode())
        return h.hexdigest()

    def check(self) -> list[str]:
        from condctc import diffcore as dc
        from condctc import trainer

        failures = []
        expected = ref.PLACEMENTS[self.strategy]
        got = (tuple(sorted(self.placement.char_layers)), tuple(sorted(self.placement.syl_layers)))
        if got != (expected["char"], expected["syl"]):
            failures.append(f"placement {got} differs from the paper's layout {expected}")
        res = self.result
        if res.aborted or res.steps_run != TRAIN_STEPS:
            failures.append(f"run stopped after {res.steps_run} steps (aborted={res.aborted})")
        for name in ("metrics.csv", "model_avg.ntc", f"checkpoint_{TRAIN_STEPS:06d}.ntc"):
            if not (self.out / name).is_file():
                failures.append(f"training wrote no {name}")

        # Step 1: the program's batch loss and gradient at the initial parameters.
        model = self.new_model()
        order = np.random.default_rng(self.cfg.seed).permutation(len(self.train_set))
        batch = [self.train_set[i] for i in order[:BATCH]]
        nodes = [trainer.total_loss(model.forward(u.features), u.char_ids, u.syl_ids, self.mix)[0]
                 for u in batch]
        loss = nodes[0]
        for node in nodes[1:]:
            loss = dc.add(loss, node)
        loss = dc.scale(loss, 1.0 / len(nodes))
        model.store.zero_grad()
        dc.backward(loss)
        p0 = model.store.values()
        grads = {n: model.store[n].grad_or_zeros().copy() for n in model.store.names()}
        failures += ref.check_close("step-1 batch loss", float(loss.value),
                                    ref.mean_loss(p0, batch, self.strategy, self.mix), TOL)
        failures += ref.check_gradient(p0, grads,
                                       lambda p: ref.mean_loss(p, batch, self.strategy, self.mix),
                                       n_entries=8, rng=np.random.default_rng(self.seed))

        # End of the run: the logged train loss is the reference loss at the
        # final parameters, and training lowered it.
        p1 = self.model.store.values()
        before = ref.mean_loss(p0, self.train_set, self.strategy, self.mix)
        after = ref.mean_loss(p1, self.train_set, self.strategy, self.mix)
        if res.metrics:
            failures += ref.check_close("logged train loss", res.metrics[-1].loss_total, after, TOL)
        if not after < before:
            failures.append(f"reference train loss did not drop: {before!r} -> {after!r}")
        return failures


class DecodeWorkload:
    """`condctc decode --dump-intermediate true` then `condctc eval` on long
    held-out utterances, reading a seeded `alternate` checkpoint."""

    def __init__(self, name: str, seed: int, work: Path, tracer):
        from condctc import synthdata
        from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig

        self.seed, self.tracer = seed, tracer
        self.lang = synthdata.make_language(seed=LANG_SEED, n_syllables=20, n_characters=60)
        self.utts = synthdata.sample_utterances(self.lang, N_LONG, LONG_CHARS, CORPUS_SEED,
                                                LONG_STREAM, "long")
        self.data, self.model, self.hyp = work / "long.jsonl", work / "model.ntc", work / "hyp.jsonl"
        synthdata.write_jsonl(self.utts, self.lang, self.data)
        cv, sv = self.lang.char_vocab(), self.lang.syl_vocab()
        placement = PlacementConfig.from_strategy("alternate", ref.N_LAYERS)
        EncoderModel(ModelConfig(), placement, cv.size, sv.size, seed=seed).save(
            self.model, extra_meta={"char_tokens": list(cv.tokens), "syl_tokens": list(sv.tokens)})
        self.frames = sum(u.features.shape[0] for u in self.utts)

    def round(self) -> tuple[int, float, int, int]:
        """Only the decode call is timed; eval follows it untimed, and its
        printed rates are checked."""
        from condctc import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            started = time.perf_counter()
            with self.tracer.span("cli.decode"):
                rc_decode = cli.main(["decode", "--model", str(self.model), "--data",
                                      str(self.data), "--out", str(self.hyp),
                                      "--dump-intermediate", "true"])
            seconds = time.perf_counter() - started
            with self.tracer.span("cli.eval"):
                rc_eval = cli.main(["eval", "--ref", str(self.data), "--hyp", str(self.hyp)])
        self.printed = out.getvalue()
        failed = N_LONG if rc_decode != 0 or rc_eval != 0 else 0
        return self.frames, seconds, N_LONG, failed

    def digest(self) -> str:
        printed = self.printed.replace(str(self.hyp), "hyp.jsonl")  # the work directory varies
        return hashlib.sha256(self.hyp.read_bytes() + printed.encode()).hexdigest()

    def check(self) -> list[str]:
        from condctc.encoder import EncoderModel

        failures = []
        model, _ = EncoderModel.load(self.model)
        params = model.store.values()
        chars, syls = self.lang.char_vocab().tokens, self.lang.syl_vocab().tokens
        hyps = {}
        with open(self.hyp, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                hyps[rec["id"]] = rec
        if sorted(hyps) != sorted(u.utt_id for u in self.utts):
            return failures + ["decode output ids differ from the input ids"]

        sampled = set(np.random.default_rng(self.seed).choice(N_LONG, size=4, replace=False))
        pairs: dict[tuple[str, int], list] = {}  # eval's (level, layer) -> (ref, hyp) tokens
        for i, utt in enumerate(self.utts):
            post = ref.forward(params, utt.features, "alternate")
            if i in sampled:
                out = model.forward(utt.features)
                got = {"final": out.final.value,
                       **{("char", n): t.value for n, t in out.char_inters.items()},
                       **{("syl", n): t.value for n, t in out.syl_inters.items()}}
                failures += ref.check_posteriors(got, post, TOL)
            rec = hyps[utt.utt_id]
            if rec["layers"]["char"].pop(str(ref.N_LAYERS), None) != rec["chars"]:
                failures.append(f"{utt.utt_id}: final layer entry differs from the hypothesis")
            decoded = {"final": rec["chars"],
                       **{(level, int(n)): h for level in ("char", "syl")
                          for n, h in rec["layers"][level].items()}}
            if sorted(map(str, decoded)) != sorted(map(str, post)):
                failures.append(f"{utt.utt_id}: decoded layers {sorted(map(str, decoded))}")
                continue
            for key, tokens in decoded.items():
                level = "char" if key == "final" else key[0]
                vocab, target = (chars, utt.char_ids) if level == "char" else (syls, utt.syl_ids)
                failures += [f"{utt.utt_id} {key}: {msg}" for msg in
                             ref.check_hypothesis([vocab.index(t) for t in tokens], post[key], TOL)]
                point = ("char", ref.N_LAYERS) if key == "final" else key
                pairs.setdefault(point, []).append(([vocab[j] for j in target], tokens))
        failures += check_eval_output(self.printed, pairs, N_LONG)
        return failures


def check_eval_output(printed: str, pairs: dict, n_utts: int) -> list[str]:
    """Every rate `condctc eval` printed must match our own edit distance."""
    found = re.search(r"^cer (\S+) over (\d+) utterances$", printed, re.M)
    if not found or int(found.group(2)) != n_utts:
        return [f"eval printed no corpus CER over {n_utts} utterances"]
    final = max(n for level, n in pairs if level == "char")
    failures = ref.check_printed_rate("corpus cer", float(found.group(1)), pairs[("char", final)])
    layer_lines = re.findall(r"^layer (char|syl) (\d+) (?:cer|ser) (\S+)$", printed, re.M)
    if sorted((lv, int(n)) for lv, n, _ in layer_lines) != sorted(pairs):
        failures.append("eval printed rates for other layers than were decoded")
    for level, n, rate in layer_lines:
        if (level, int(n)) in pairs:
            failures += ref.check_printed_rate(f"{level} layer {n}", float(rate),
                                               pairs[(level, int(n))])
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), required=True,
                    help="check outputs against the reference (1) or only digest them (0)")
    ap.add_argument("--t0", type=float, required=True, help="monotonic clock at process start")
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true",
                    help="report the set-up time and stop before the round")
    args = ap.parse_args()

    _import_program(args.src)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
        tracer.active = True
    cls = DecodeWorkload if args.workload == "decode-long" else TrainWorkload
    workload = cls(args.workload, args.seed, args.work, tracer)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer.phase = 1
    frames, seconds, attempted, failed = workload.round()
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    started = time.perf_counter()
    if failed:
        failures = ["operations failed; outputs not checked"]
    else:
        failures = workload.check() if args.check else []
    result = {
        "setup_s": setup_s,
        "frames": frames,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "check_s": time.perf_counter() - started,
        "failures": failures[:20],
        "digest": None if failed else workload.digest(),
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        result["self_times"] = tracing.self_times(tracer)
        if args.spans is not None:
            tracing.write_spans(tracer, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
