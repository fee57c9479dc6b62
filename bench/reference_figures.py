"""Reference figures measured once and quoted in bench/README.md, not gated.

Two figures:
  * seconds and optimizer steps until the criterion-6 overfit run (seed 1,
    N=6, D=64, early stop at train CER 0.01) stops, for `alternate` and
    `baseline`;
  * wall time of 60 `train-alternate` steps with `n_workers=2` against
    `n_workers=1`, and whether the two runs end with identical parameters.

They stay out of the gated metrics because a change in floating-point
reduction order moves steps-to-target by chance.  Run from the repository
root (takes about six minutes on one core):

    OPENBLAS_NUM_THREADS=1 python3 bench/reference_figures.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from condctc import synthdata, trainer  # noqa: E402
from condctc.encoder import EncoderModel, ModelConfig, PlacementConfig  # noqa: E402
from condctc.trainer import TrainConfig  # noqa: E402


def _corpus():
    lang = synthdata.make_language(seed=1, n_syllables=20, n_characters=60)
    train_set = synthdata.sample_utterances(lang, 50, (3, 8), 1, 0, "train")
    valid_set = synthdata.sample_utterances(lang, 30, (3, 8), 1, 1, "valid")
    return lang, train_set, valid_set


def _model(lang, strategy: str, seed: int) -> EncoderModel:
    placement = PlacementConfig.from_strategy(strategy, 6)
    return EncoderModel(ModelConfig(), placement, lang.char_vocab().size,
                        lang.syl_vocab().size, seed=seed)


def overfit(strategy: str) -> dict:
    """The criterion-6 run of tests/test_acceptance.py at seed 1."""
    lang, train_set, valid_set = _corpus()
    model = _model(lang, strategy, 1)
    cfg = TrainConfig(mix_weight=0.5 if strategy != "baseline" else 0.0, epochs=2000,
                      batch_size=10, warmup_steps=500, lr_factor=2.0, seed=11, average_k=10,
                      max_steps=3000, eval_interval=100, early_stop_train_cer=0.01)
    started = time.monotonic()
    result = trainer.train(model, train_set, valid_set, cfg)
    seconds = time.monotonic() - started
    rates = trainer.layerwise_error_rates(model, train_set)
    return {"strategy": strategy, "seconds": round(seconds, 1), "steps": result.steps_run,
            "train_cer": rates[("char", 6)]}


def workers(n_workers: int) -> tuple[float, dict[str, np.ndarray]]:
    lang, train_set, valid_set = _corpus()
    model = _model(lang, "alternate", 1)
    cfg = TrainConfig(mix_weight=0.5, batch_size=10, seed=2, max_steps=60,
                      eval_interval=60, n_workers=n_workers)
    started = time.monotonic()
    trainer.train(model, train_set, valid_set, cfg)
    return time.monotonic() - started, model.store.values()


def main() -> int:
    out = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    out["overfit"] = [overfit("alternate"), overfit("baseline")]
    one_s, one_vals = workers(1)
    two_s, two_vals = workers(2)
    out["n_workers_60_steps"] = {
        "n_workers_1_s": round(one_s, 2),
        "n_workers_2_s": round(two_s, 2),
        "slowdown_pct": round(100.0 * (two_s / one_s - 1.0), 1),
        "bitwise_identical": all(np.array_equal(one_vals[k], two_vals[k]) for k in one_vals),
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
