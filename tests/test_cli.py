from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from condctc import ctc, synthdata, trainer
from condctc.cli import MAX_SIZE, TrainCmdConfig, main
from condctc.ctc import greedy_decode
from condctc.diffcore import NumericError, ParamStore
from condctc.encoder import EncoderModel, ModelConfig
from condctc.labels import BLANK_TOKEN, Vocabulary
from condctc.trainer import TrainConfig


def run(argv):
    return main(argv)


SMALL_TRAIN = ["--n-layers", "2", "--d-model", "16", "--n-heads", "2", "--d-ff", "24",
               "--conv-kernel", "3", "--max-steps", "2", "--batch-size", "4"]


def rewrite_records(path, **fields):
    """Set `fields` in every record of a JSONL file."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**rec, **fields}) + "\n" for rec in records))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run(
        [
            "gen-data",
            "--out-dir", str(out),
            "--seed", "5",
            "--n-syllables", "6",
            "--n-characters", "14",
            "--n-train", "8",
            "--n-valid", "4",
            "--min-len", "2",
            "--max-len", "3",
            "--d-in", "8",
            "--n-homophone-eval", "3",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = run(
        [
            "train",
            "--data-dir", str(data_dir),
            "--out-dir", str(out),
            "--strategy", "alternate",
            "--n-layers", "2",
            "--d-model", "16",
            "--n-heads", "2",
            "--d-ff", "24",
            "--conv-kernel", "3",
            "--max-steps", "12",
            "--eval-interval", "6",
            "--batch-size", "4",
            "--warmup-steps", "20",
            "--lr-factor", "0.5",
            "--average-k", "2",
            "--seed", "3",
        ]
    )
    assert code == 0
    return out


class TestGenData:
    def test_writes_expected_files(self, data_dir):
        for name in ("train.jsonl", "valid.jsonl", "chars.vocab", "syllables.vocab",
                     "homophone_eval.jsonl"):
            assert (data_dir / name).is_file(), name
        assert (data_dir / "chars.vocab").read_text().splitlines()[0] == BLANK_TOKEN
        assert len((data_dir / "train.jsonl").read_text().splitlines()) == 8

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        args = ["gen-data", "--seed", "7", "--n-syllables", "4", "--n-characters", "9",
                "--n-train", "3", "--n-valid", "2", "--min-len", "2", "--max-len", "2"]
        assert run(args + ["--out-dir", str(a)]) == 0
        assert run(args + ["--out-dir", str(b)]) == 0
        for name in ("train.jsonl", "valid.jsonl", "chars.vocab", "syllables.vocab"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_out_dir_exits_3_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "not_there"
        code = run(["gen-data", "--out-dir", str(missing), "--n-train", "1", "--n-valid", "1"])
        assert code == 3
        assert str(missing) in capsys.readouterr().err

    def test_bad_language_parameters_exit_2(self, tmp_path):
        code = run(["gen-data", "--out-dir", str(tmp_path), "--n-syllables", "9",
                    "--n-characters", "9"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--n-homophone-eval", "-3"],
        ["--n-syllables", "2", "--n-characters", "60", "--max-pronunciations", "7"],
    ], ids=["negative-seed", "negative-count", "too-many-pronunciations"])
    def test_out_of_range_value_exits_2_writing_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run(["gen-data", "--out-dir", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []


class TestSizeCeiling:
    """A size that `gen-data` or `train` implies past `MAX_SIZE` exits 2
    with one config-error line before any work, leaving `out_dir` as it
    was.  The cases marked (numpy) raised a numpy traceback and exited 1
    without the ceiling; the others would allocate or loop for many GB."""

    @staticmethod
    def assert_refused(argv, out, capsys, size):
        out.mkdir(exist_ok=True)
        (out / "kept.txt").write_text("an earlier run's file\n")
        capsys.readouterr()
        assert run(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert f" {size} exceed the limit of {MAX_SIZE}" in err and "Traceback" not in err
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [
            ("kept.txt", "an earlier run's file\n")]

    @pytest.mark.parametrize("flags,size", [
        (["--n-train", "1", "--n-valid", "1", "--max-len", str(2**63 - 1)], "feature values"),
        (["--d-in", str(2**62)], "feature values"),
        (["--n-characters", str(10**12)], "characters"),
        (["--n-syllables", "500", "--n-characters", "2000", "--max-pronunciations", "70000"],
         "pronunciations"),
        (["--n-train", str(2**27)], "utterances"),
        (["--n-train", "20000", "--max-len", "1000"], "feature values"),
        (["--n-syllables", "10000000", "--n-characters", "20000000", "--d-in", "14"],
         "feature values"),
    ], ids=["max-len-numpy", "d-in-numpy", "characters", "pronunciations", "utterances",
            "frames", "prototypes"])
    def test_gen_data_exits_2(self, tmp_path, capsys, flags, size):
        self.assert_refused(["gen-data", *flags], tmp_path / "out", capsys, size)

    @pytest.mark.parametrize("flags", [
        ["--d-model", str(2**40), "--n-heads", "1"],
        ["--d-ff", str(2**60)],
        ["--conv-kernel", str(2**62 - 1)],
        ["--n-layers", "100000"],
        ["--d-model", "65536"],
    ], ids=["d-model-numpy", "d-ff-numpy", "conv-kernel-numpy", "n-layers", "d-model"])
    def test_train_exits_2(self, data_dir, tmp_path, capsys, flags):
        argv = ["train", "--data-dir", str(data_dir), "--n-layers", "1", "--max-steps", "1"]
        self.assert_refused(argv + flags, tmp_path / "out", capsys, "parameters")


class TestConfigHandling:
    def test_print_config_echoes_resolved_values(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=9\nn_train=4\n# comment\n\n")
        code = run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path),
                    "--n-valid", "2", "--print-config"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert "n_train=4" in out
        assert "n_valid=2" in out

    def test_package_runs_as_a_module(self, tmp_path):
        src = os.path.dirname(os.path.dirname(synthdata.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "condctc", "gen-data", "--print-config"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "seed=" in done.stdout
        assert list(tmp_path.iterdir()) == []

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=9\n")
        code = run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path),
                    "--seed", "11", "--print-config"])
        assert code == 0
        assert "seed=11" in capsys.readouterr().out

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense=1\n")
        code = run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just words\n")
        assert run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_config_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=\xff\n")
        code = run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and str(cfg) in err, err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_bad_value_type_exits_2(self, tmp_path):
        assert run(["gen-data", "--out-dir", str(tmp_path), "--seed", "notanint"]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        code = run(["gen-data", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
        assert code == 3

    def test_retired_model_switches_exit_2(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                 "--pos-enc", "false"])
        assert exc.value.code == 2
        cfg = tmp_path / "c.cfg"
        cfg.write_text("cond_layer_norm=true\n")
        capsys.readouterr()
        code = run(["train", "--config", str(cfg), "--data-dir", str(data_dir),
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "cond_layer_norm" in capsys.readouterr().err


class TestTrain:
    def test_outputs_written(self, trained_dir, capsys):
        assert (trained_dir / "model_avg.ntc").is_file()
        assert (trained_dir / "metrics.csv").is_file()
        header = (trained_dir / "metrics.csv").read_text().splitlines()[0]
        # alternate at depth 2: char {1}, syl {1,2}
        assert header == ("step,lr,loss_total,loss_final,loss_layer_1_char,"
                          "loss_layer_1_syl,loss_layer_2_syl,cer_valid,ser_valid_1,ser_valid_2")

    def test_baseline_metrics_have_no_intermediate_columns(self, data_dir, tmp_path):
        out = tmp_path / "base"
        out.mkdir()
        code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(out),
                    "--strategy", "baseline", "--n-layers", "2", "--d-model", "16",
                    "--n-heads", "2", "--d-ff", "24", "--conv-kernel", "3",
                    "--max-steps", "4", "--eval-interval", "4", "--batch-size", "4",
                    "--mix-weight", "0.0"])
        assert code == 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,lr,loss_total,loss_final,cer_valid"

    def test_unknown_strategy_exits_2(self, data_dir, tmp_path):
        assert run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                    "--strategy", "mystery"]) == 2

    def test_missing_data_dir_exits_3(self, tmp_path):
        assert run(["train", "--data-dir", str(tmp_path / "void"),
                    "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("flag,value", [
        ("--batch-size", "0"), ("--mix-weight", "1.5"), ("--n-heads", "3"), ("--n-heads", "0"),
        ("--d-model", "0"),
        ("--conv-kernel", "4"), ("--n-layers", "0"), ("--warmup-steps", "0"),
        ("--seed", "-1"), ("--max-steps", "-1"),
        ("--lr-factor", "-2"), ("--lr-factor", "0"), ("--lr-factor", "nan"), ("--lr-factor", "inf"),
        ("--grad-clip", "nan"), ("--grad-clip", "-1"), ("--early-stop-train-cer", "nan"),
        ("--d-model", str(10**20)),  # numpy raised from the weight initializer (exit 1)
    ])
    def test_out_of_range_value_exits_2(self, data_dir, tmp_path, capsys, flag, value):
        capsys.readouterr()
        code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path), flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-3", "0"], ids=["negative", "zero"])
    def test_feedforward_width_below_1_exits_2(self, data_dir, tmp_path, capsys, value):
        # At -3 numpy used to raise from the weight initializer (exit 1); at 0
        # a model without a feed-forward layer trained.
        capsys.readouterr()
        code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                    *SMALL_TRAIN, "--d-ff", value])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: d_in and d_ff must be >= 1, got 8 and {value}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_zero_width_features_exit_3_naming_the_record(self, data_dir, tmp_path, capsys):
        data = shutil.copytree(data_dir, tmp_path / "data")
        out = tmp_path / "run"
        out.mkdir()
        for split in ("train.jsonl", "valid.jsonl"):
            records = [json.loads(line) for line in (data / split).read_text().splitlines()]
            for rec in records:
                rec["features"] = {"shape": [rec["features"]["shape"][0], 0], "data": []}
            (data / split).write_text("".join(json.dumps(rec) + "\n" for rec in records))
        first = json.loads((data / "train.jsonl").read_text().splitlines()[0])["id"]
        capsys.readouterr()
        code = run(["train", "--data-dir", str(data), "--out-dir", str(out), *SMALL_TRAIN])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {data / 'train.jsonl'}: record {first!r} has features of width 0\n"
        )
        assert list(out.iterdir()) == []

    def test_defaults_are_the_library_defaults(self, data_dir, tmp_path, monkeypatch):
        class Built(Exception):
            pass

        def capture(model, train_set, valid_set, train_cfg, out_dir, checkpoint_meta):
            raise Built(model.cfg, train_cfg)

        monkeypatch.setattr(trainer, "train", capture)
        with pytest.raises(Built) as built:
            run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path)])
        model_cfg, train_cfg = built.value.args
        cli = TrainCmdConfig()
        # Fields that cmd_train maps before handing them on: 0 steps and a
        # negative threshold mean none, and the loop's seed follows the model's.
        mapped = {"max_steps": (0, None), "early_stop_train_cer": (-1.0, None),
                  "seed": (TrainConfig().seed, TrainConfig().seed + 1)}
        for field, (cli_default, passed) in mapped.items():
            assert getattr(cli, field) == cli_default, field
            assert getattr(train_cfg, field) == passed, field
        shared = 0
        for library, passed_cfg in ((ModelConfig(), model_cfg), (TrainConfig(), train_cfg)):
            for f in dataclasses.fields(library):
                if hasattr(cli, f.name) and f.name not in mapped:
                    shared += 1
                    assert getattr(cli, f.name) == getattr(library, f.name), f.name
                    assert getattr(passed_cfg, f.name) == getattr(library, f.name), f.name
        assert shared == 12  # 4 model sizes and 8 training knobs

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl"])
    def test_empty_split_exits_3_naming_the_file(self, data_dir, tmp_path, capsys, split):
        data = shutil.copytree(data_dir, tmp_path / "data")
        (data / split).write_text("")
        capsys.readouterr()
        assert run(["train", "--data-dir", str(data), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"data error: {data / split}: no records\n"

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl"])
    def test_split_without_reference_tokens_exits_3(self, data_dir, tmp_path, capsys, split):
        data = shutil.copytree(data_dir, tmp_path / "data")
        out = tmp_path / "run"
        out.mkdir()
        train = ["train", "--data-dir", str(data), "--out-dir", str(out), *SMALL_TRAIN]
        rewrite_records(data / split, syllables=[])
        capsys.readouterr()
        assert run(train) == 3
        assert capsys.readouterr().err == (
            f"data error: {data / split}: no reference syllables to score\n"
        )
        # Without syllable heads, syllables are not scored.
        assert run([*train, "--strategy", "baseline", "--mix-weight", "0"]) == 0
        rewrite_records(data / split, chars=[])
        capsys.readouterr()
        assert run(train) == 3
        assert capsys.readouterr().err == (
            f"data error: {data / split}: no reference characters to score\n"
        )

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl"])
    @pytest.mark.parametrize("shape", [[0, 8], [6, 4]], ids=["no-frames", "other-width"])
    def test_record_of_other_shape_exits_3_naming_it(self, data_dir, tmp_path, capsys, split,
                                                     shape):
        data = shutil.copytree(data_dir, tmp_path / "data")
        records = [json.loads(line) for line in (data / split).read_text().splitlines()]
        last = records[-1]  # not the first training record, whose width is the model's
        last["features"] = {"shape": shape, "data": [0.5] * (shape[0] * shape[1])}
        (data / split).write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        assert run(["train", "--data-dir", str(data), "--out-dir", str(tmp_path),
                    *SMALL_TRAIN]) == 3
        assert capsys.readouterr().err == (
            f"data error: {data / split}: record {last['id']!r} has {shape[0]}x{shape[1]} "
            "features; training takes T>=1 frames of 8\n"
        )

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl"])
    def test_record_too_short_for_its_characters_exits_3_naming_it(self, data_dir, tmp_path,
                                                                    capsys, split):
        # It used to exit 4 as a numeric failure, naming its place in a
        # batch, at the first step that drew it or, in the validation
        # split, at the first evaluation, after training had run.
        data = shutil.copytree(data_dir, tmp_path / "data")
        out = tmp_path / "run"
        out.mkdir()
        records = [json.loads(line) for line in (data / split).read_text().splitlines()]
        last = records[-1]
        last["features"] = {"shape": [1, 8], "data": [0.5] * 8}
        (data / split).write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        code = run(["train", "--data-dir", str(data), "--out-dir", str(out), *SMALL_TRAIN])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {data / split}: record {last['id']!r}: character target of length "
            f"{len(last['chars'])} needs at least {ctc.min_frames(last['chars'])} frames, got 1\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl"])
    def test_record_too_short_for_its_syllables_exits_3_with_syllable_heads(self, data_dir,
                                                                            tmp_path, capsys,
                                                                            split):
        data = shutil.copytree(data_dir, tmp_path / "data")
        out = tmp_path / "run"
        out.mkdir()
        records = [json.loads(line) for line in (data / split).read_text().splitlines()]
        last = records[-1]
        frames = last["features"]["shape"][0]
        # a repeated syllable needs a blank between repeats: 2 * frames - 1 frames
        last["syllables"] = last["syllables"][:1] * frames
        assert ctc.min_frames(last["chars"]) <= frames
        (data / split).write_text("".join(json.dumps(rec) + "\n" for rec in records))
        train = ["train", "--data-dir", str(data), "--out-dir", str(out), *SMALL_TRAIN]
        capsys.readouterr()
        assert run(train) == 3
        assert capsys.readouterr().err == (
            f"data error: {data / split}: record {last['id']!r}: syllable target of length "
            f"{frames} needs at least {2 * frames - 1} frames, got {frames}\n"
        )
        assert list(out.iterdir()) == []
        # Without syllable heads, syllables are not aligned.
        assert run([*train, "--strategy", "interctc"]) == 0

    @pytest.mark.parametrize("split", ["train.jsonl", "valid.jsonl"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_exit_3_naming_the_record(self, data_dir, tmp_path, capsys,
                                                          split, value):
        # Python's json reads NaN and Infinity; training used to run until
        # it drew the record, then exit 4 naming no record.
        data = shutil.copytree(data_dir, tmp_path / "data")
        out = tmp_path / "run"
        out.mkdir()
        records = [json.loads(line) for line in (data / split).read_text().splitlines()]
        last = records[-1]
        last["features"]["data"][3] = value
        (data / split).write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        code = run(["train", "--data-dir", str(data), "--out-dir", str(out), *SMALL_TRAIN])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {data / split}: record {last['id']!r} has non-finite features\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name", ["chars.vocab", "syllables.vocab"])
    @pytest.mark.parametrize("content,problem", [
        (b"x\ny\n", "token 0 must be '<blank>'"),
        (b"<blank>\nx\nx\n", "vocabulary tokens must be unique"),
        (b"<blank>\n\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["no-blank", "repeated-token", "not-utf8"])
    def test_vocabulary_file_that_does_not_load_exits_3_naming_it(self, data_dir, tmp_path,
                                                                  capsys, name, content,
                                                                  problem):
        data = shutil.copytree(data_dir, tmp_path / "data")
        (data / name).write_bytes(content)
        capsys.readouterr()
        assert run(["train", "--data-dir", str(data), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data / name}: not a vocabulary ({problem}")
        assert err.count("\n") == 1, err

    def test_overflowing_run_prints_one_line_and_no_warning(self, data_dir, tmp_path, capsys):
        # An enormous learning rate makes the first step's update overflow
        # the next forward.  numpy used to print a warning line for each
        # overflow before the numeric-failure line.  Where the failure is
        # reported (stderr or stdout) is not what this test is about.
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                        *SMALL_TRAIN, "--max-steps", "1", "--lr-factor", "1e300"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") <= 1 and "Warning" not in err, err

    def test_divergence_in_an_evaluation_aborts_like_one_in_a_step(self, data_dir, tmp_path,
                                                                  capsys):
        # The first step's update is finite but so large that the evaluation
        # after it overflows the first block.
        capsys.readouterr()
        code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                    *SMALL_TRAIN, "--max-steps", "1", "--lr-factor", "1e300"])
        out, err = capsys.readouterr()
        assert code == 4 and err == ""
        assert ("training aborted on non-finite values (block 1 produced non-finite values); "
                "last finite checkpoint kept") in out
        assert (tmp_path / "metrics.csv").read_text().count("\n") == 1  # no evaluation finished
        model, _ = EncoderModel.load(tmp_path / "model_avg.ntc")
        assert np.isfinite(model.store.flat).all()

    def test_abort_prints_the_reason(self, data_dir, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("non-finite gradient for parameter 'input.w'")

        monkeypatch.setattr(trainer, "adam_step", diverge)
        code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                    *SMALL_TRAIN])
        assert code == 4
        assert ("training aborted on non-finite values (non-finite gradient for parameter "
                "'input.w'); last finite checkpoint kept") in capsys.readouterr().out


class TestDecodeEval:
    def test_decode_then_eval_roundtrip(self, trained_dir, data_dir, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                    "--data", str(data_dir / "valid.jsonl"), "--out", str(hyp)])
        assert code == 0
        lines = [json.loads(l) for l in hyp.read_text().splitlines()]
        assert len(lines) == 4
        assert all("chars" in rec and "layers" not in rec for rec in lines)
        capsys.readouterr()
        code = run(["eval", "--ref", str(data_dir / "valid.jsonl"), "--hyp", str(hyp)])
        assert code == 0
        assert "cer" in capsys.readouterr().out

    def test_dump_intermediate_blocks(self, trained_dir, data_dir, tmp_path):
        hyp = tmp_path / "hyp_layers.jsonl"
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                    "--data", str(data_dir / "valid.jsonl"), "--out", str(hyp),
                    "--dump-intermediate", "true"])
        assert code == 0
        rec = json.loads(hyp.read_text().splitlines()[0])
        # alternate depth 2: char layers {1} + final 2; syl layers {1, 2}
        assert sorted(rec["layers"]["char"]) == ["1", "2"]
        assert sorted(rec["layers"]["syl"]) == ["1", "2"]

    def test_dump_equals_taped_forward(self, trained_dir, data_dir, tmp_path):
        # Decoding runs without a graph; its file must be byte for byte the
        # one a recorded forward and greedy decoding give.
        model_path, data = trained_dir / "model_avg.ntc", data_dir / "valid.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        assert run(["decode", "--model", str(model_path), "--data", str(data),
                    "--out", str(hyp), "--dump-intermediate", "true"]) == 0
        model, extra = EncoderModel.load(model_path)
        chars = Vocabulary(tuple(extra["char_tokens"]))
        syls = Vocabulary(tuple(extra["syl_tokens"]))
        lines = []
        for utt in synthdata.read_jsonl(data, chars, syls):
            out = model.forward(utt.features)
            assert out.final.parents  # recorded
            layers = {
                "char": {str(n): chars.decode(greedy_decode(p.value))
                         for n, p in sorted(out.char_inters.items())},
                "syl": {str(n): syls.decode(greedy_decode(p.value))
                        for n, p in sorted(out.syl_inters.items())},
            }
            final = chars.decode(greedy_decode(out.final.value))
            layers["char"][str(model.n_layers)] = final
            record = {"id": utt.utt_id, "chars": final, "layers": layers}
            lines.append(json.dumps(record, separators=(",", ":")) + "\n")
        assert hyp.read_text(encoding="utf-8") == "".join(lines)

    def test_decode_records_no_graph(self, trained_dir, data_dir, tmp_path, monkeypatch):
        outs = []
        forward_batch = EncoderModel.forward_batch

        def spy(self, features):
            outs.append(forward_batch(self, features))
            return outs[-1]

        monkeypatch.setattr(EncoderModel, "forward_batch", spy)
        assert run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                    "--data", str(data_dir / "valid.jsonl"),
                    "--out", str(tmp_path / "h.jsonl")]) == 0
        assert len(outs) == 4
        assert all(t.parents == () for out in outs
                   for t in [*out.logits.values(), *out.char_inters.values(),
                             *out.syl_inters.values()])
        assert not any("final" in vars(out) for out in outs)  # decoded from the logits

    def test_failed_decode_leaves_old_output(self, trained_dir, data_dir, tmp_path, capsys):
        records = [json.loads(l) for l in (data_dir / "valid.jsonl").read_text().splitlines()]
        records[2]["features"]["data"][0] = float("nan")
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text("previous contents\n")
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                    "--data", str(data), "--out", str(hyp)])
        assert code == 4
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert hyp.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hyp.jsonl"]

    @pytest.mark.parametrize("fault", ["malformed-line", "other-feature-width"])
    def test_decode_failing_at_the_last_record_leaves_old_output(self, trained_dir, data_dir,
                                                                 tmp_path, capsys, fault):
        lines = (data_dir / "valid.jsonl").read_text().splitlines()
        if fault == "malformed-line":
            lines[-1] = lines[-1][:-1]
        else:
            last = json.loads(lines[-1])
            rows, cols = last["features"]["shape"]
            last["features"]["shape"] = [rows * 2, cols // 2]
            lines[-1] = json.dumps(last)
        data = tmp_path / "data.jsonl"
        data.write_text("".join(line + "\n" for line in lines))
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text("previous contents\n")
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                    "--data", str(data), "--out", str(hyp)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"data error: {data}")
        assert hyp.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hyp.jsonl"]

    def test_eval_with_layers_reports_per_layer(self, trained_dir, data_dir, tmp_path, capsys):
        hyp = tmp_path / "hyp2.jsonl"
        run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
             "--data", str(data_dir / "valid.jsonl"), "--out", str(hyp),
             "--dump-intermediate", "true"])
        csv_out = tmp_path / "layers.csv"
        capsys.readouterr()
        code = run(["eval", "--ref", str(data_dir / "valid.jsonl"), "--hyp", str(hyp),
                    "--csv", str(csv_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "layer char 1" in out and "layer syl 2" in out
        rows = csv_out.read_text().splitlines()
        assert rows[0] == "level,layer,rate"
        assert len(rows) >= 4

    def test_failed_csv_write_leaves_old_file(self, tmp_path, capsys, monkeypatch):
        ref, hyp, csv_out = tmp_path / "r.jsonl", tmp_path / "h.jsonl", tmp_path / "rates.csv"
        ref.write_text(json.dumps({"id": "u1", "chars": list("kitten")}) + "\n")
        hyp.write_text(json.dumps({"id": "u1", "chars": list("sitting")}) + "\n")
        argv = ["eval", "--ref", str(ref), "--hyp", str(hyp), "--csv", str(csv_out)]
        assert run(argv) == 0
        assert csv_out.read_text() == "level,layer,rate\nchar,final,0.5\n"
        hyp.write_text(json.dumps({"id": "u1", "chars": list("kitten")}) + "\n")

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == "data error: disk full\n"
        assert csv_out.read_text() == "level,layer,rate\nchar,final,0.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.jsonl", "r.jsonl", "rates.csv"]

    def test_no_records_replace_an_old_csv_with_its_header(self, tmp_path, capsys):
        ref, hyp, csv_out = tmp_path / "r.jsonl", tmp_path / "h.jsonl", tmp_path / "rates.csv"
        ref.write_text("")
        hyp.write_text("")
        csv_out.write_text("level,layer,rate\nchar,final,0.5\n")
        capsys.readouterr()
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp), "--csv", str(csv_out)]) == 0
        assert capsys.readouterr().out == "no utterances to score\n"
        assert csv_out.read_text() == "level,layer,rate\n"

    def test_exact_hypothesis_scores_zero(self, data_dir, tmp_path, capsys):
        refs = [json.loads(l) for l in (data_dir / "valid.jsonl").read_text().splitlines()]
        hyp = tmp_path / "perfect.jsonl"
        with open(hyp, "w") as fh:
            for rec in refs:
                fh.write(json.dumps({"id": rec["id"], "chars": rec["chars"]}) + "\n")
        capsys.readouterr()
        code = run(["eval", "--ref", str(data_dir / "valid.jsonl"), "--hyp", str(hyp)])
        assert code == 0
        assert "cer 0.000000" in capsys.readouterr().out

    def test_known_edit_distance_pair(self, tmp_path, capsys):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        ref.write_text(json.dumps({"id": "u1", "chars": list("kitten"), "syllables": []}) + "\n")
        hyp.write_text(json.dumps({"id": "u1", "chars": list("sitting")}) + "\n")
        capsys.readouterr()
        code = run(["eval", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 0
        assert "cer 0.500000" in capsys.readouterr().out  # 3 edits / 6 ref chars

    def test_reference_without_tokens_exits_3_naming_it(self, tmp_path, capsys):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        ref.write_text(json.dumps({"id": "u1", "chars": [], "syllables": ["s"]}) + "\n")
        hyp.write_text(json.dumps({"id": "u1", "chars": ["a"]}) + "\n")
        capsys.readouterr()
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {ref}: no reference tokens to score chars against\n"
        )
        ref.write_text(json.dumps({"id": "u1", "chars": ["a"], "syllables": []}) + "\n")
        hyp.write_text(json.dumps({"id": "u1", "chars": ["a"],
                                   "layers": {"char": {}, "syl": {"1": ["s"]}}}) + "\n")
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {ref}: no reference tokens to score layer syl 1 against\n"
        )

    def test_mismatched_ids_exit_3(self, data_dir, tmp_path):
        hyp = tmp_path / "bad.jsonl"
        hyp.write_text(json.dumps({"id": "stranger", "chars": ["c01"]}) + "\n")
        assert run(["eval", "--ref", str(data_dir / "valid.jsonl"), "--hyp", str(hyp)]) == 3

    @pytest.mark.parametrize("side", ["ref", "hyp"])
    def test_eval_rejects_a_repeated_id(self, tmp_path, capsys, side):
        files = {"ref": tmp_path / "r.jsonl", "hyp": tmp_path / "h.jsonl"}
        for name, path in files.items():
            ids = ["u1", "u2", "u1"] if name == side else ["u1", "u2"]
            path.write_text("".join(json.dumps({"id": i, "chars": ["a"]}) + "\n" for i in ids))
        capsys.readouterr()
        assert run(["eval", "--ref", str(files["ref"]), "--hyp", str(files["hyp"])]) == 3
        assert capsys.readouterr().err == f"data error: {files[side]}:3: duplicate id 'u1'\n"

    def test_empty_dataset_decodes_to_empty_output(self, trained_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "hyp_empty.jsonl"
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                    "--data", str(empty), "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_missing_model_exits_3(self, data_dir, tmp_path):
        assert run(["decode", "--model", str(tmp_path / "no.ntc"),
                    "--data", str(data_dir / "valid.jsonl"),
                    "--out", str(tmp_path / "h.jsonl")]) == 3


class TestBoundedMemory:
    """`decode` and `eval` hold one utterance's features at a time, so their
    traced peak does not grow with the number of records."""

    FRAMES = 170

    @pytest.fixture(scope="class")
    def long_records(self, data_dir):
        """Records that are copies, under their own ids, of one 170-frame
        utterance of the 8-wide features the trained model takes."""
        template = json.loads((data_dir / "valid.jsonl").read_text().splitlines()[0])
        features = np.random.default_rng(0).normal(size=(self.FRAMES, 8))
        template["features"] = {"shape": [self.FRAMES, 8], "data": features.reshape(-1).tolist()}
        return lambda n: [{**template, "id": f"long-{i:03d}"} for i in range(n)]

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_decode_peak_does_not_grow_with_the_records(self, trained_dir, long_records,
                                                        tmp_path):
        peaks = {}
        for n in (4, 4, 32):  # the first run pays one-time allocations
            data = tmp_path / f"long{n}.jsonl"
            data.write_text("".join(json.dumps(rec) + "\n" for rec in long_records(n)))
            peaks[n] = self.traced_peak(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                                         "--data", str(data), "--out", str(tmp_path / "h.jsonl"),
                                         "--dump-intermediate", "true"])
        assert peaks[32] - peaks[4] < self.FRAMES * 8 * 8, peaks

    def test_eval_peak_stays_below_the_features(self, long_records, tmp_path):
        records = long_records(64)
        ref, hyp = tmp_path / "r.jsonl", tmp_path / "h.jsonl"
        ref.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        hyp.write_text("".join(json.dumps({"id": rec["id"], "chars": rec["chars"]}) + "\n"
                               for rec in records))
        peak = self.traced_peak(["eval", "--ref", str(ref), "--hyp", str(hyp)])
        assert peak < len(records) * self.FRAMES * 8 * 8, peak


class TestBadInputFiles:
    """Damaged checkpoints and records exit 3 with a one-line message."""

    def decode(self, model, data, tmp_path, capsys):
        code = run(["decode", "--model", str(model), "--data", str(data),
                    "--out", str(tmp_path / "h.jsonl")])
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        return code

    def damaged_model(self, trained_dir, tmp_path, edit):
        path = tmp_path / "damaged.ntc"
        path.write_bytes(edit((trained_dir / "model_avg.ntc").read_bytes()))
        return path

    def damaged_record(self, data_dir, tmp_path, edit):
        record = json.loads((data_dir / "valid.jsonl").read_text().splitlines()[0])
        edit(record)
        path = tmp_path / "damaged.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_truncated_checkpoint_exits_3(self, trained_dir, data_dir, tmp_path, capsys):
        model = self.damaged_model(trained_dir, tmp_path, lambda b: b[:-8])
        assert self.decode(model, data_dir / "valid.jsonl", tmp_path, capsys) == 3

    def test_checkpoint_with_trailing_bytes_exits_3(self, trained_dir, data_dir, tmp_path,
                                                    capsys):
        model = self.damaged_model(trained_dir, tmp_path, lambda b: b + b"\0" * 8)
        assert self.decode(model, data_dir / "valid.jsonl", tmp_path, capsys) == 3

    def test_checkpoint_with_bad_magic_exits_3(self, trained_dir, data_dir, tmp_path, capsys):
        model = self.damaged_model(trained_dir, tmp_path, lambda b: b"X" + b[1:])
        assert self.decode(model, data_dir / "valid.jsonl", tmp_path, capsys) == 3

    def test_checkpoint_with_flipped_payload_byte_exits_3(self, trained_dir, data_dir,
                                                          tmp_path, capsys):
        def flip(data):  # one bit of the last parameter's payload
            return data[:-3] + bytes([data[-3] ^ 1]) + data[-2:]

        model = self.damaged_model(trained_dir, tmp_path, flip)
        assert self.decode(model, data_dir / "valid.jsonl", tmp_path, capsys) == 3

    @pytest.mark.parametrize("block,edit", [
        ("model", lambda meta: meta["model"].update(n_heads=3)),
        ("model", lambda meta: meta["model"].update(no_such_key=1)),
        ("model", lambda meta: meta.update(model=[16])),
        ("placement", lambda meta: meta["placement"].update(char_layers=[9])),
        ("placement", lambda meta: meta["placement"].pop("n_layers")),
        ("model", lambda meta: meta["model"].update(d_ff=0)),
        ("model", lambda meta: meta["model"].update(d_in=0)),
    ])
    def test_header_block_that_does_not_construct_exits_3(self, trained_dir, data_dir,
                                                          tmp_path, capsys, block, edit):
        store, meta = ParamStore.load(trained_dir / "model_avg.ntc")
        edit(meta)
        model = tmp_path / "resaved.ntc"
        store.save(model, meta)
        code = run(["decode", "--model", str(model), "--data", str(data_dir / "valid.jsonl"),
                    "--out", str(tmp_path / "h.jsonl")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"data error: {model}: header block {block!r} does not construct")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("field,value", [
        ("n_layers", 2.9), ("syl_layers", "12"), ("condition", "false"),
    ])
    def test_placement_field_of_other_json_type_exits_3(self, trained_dir, data_dir, tmp_path,
                                                        capsys, field, value):
        # The trained placement is n_layers 2, syl_layers [1, 2], condition
        # true: int(), str() or bool() would decode each edited header.
        model = self.resaved(trained_dir, tmp_path,
                             lambda meta: meta["placement"].update({field: value}))
        err = self.decode_error(model, data_dir, tmp_path, capsys)
        assert "header block 'placement' does not construct" in err and field in err

    def resaved(self, trained_dir, tmp_path, edit):
        store, meta = ParamStore.load(trained_dir / "model_avg.ntc")
        edit(meta)
        model = tmp_path / "resaved.ntc"
        store.save(model, meta)
        return model

    def decode_error(self, model, data_dir, tmp_path, capsys):
        """The one-line message of a decode of `model` that exits 3."""
        code = run(["decode", "--model", str(model), "--data", str(data_dir / "valid.jsonl"),
                    "--out", str(tmp_path / "h.jsonl")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith(f"data error: {model}: ") and err.count("\n") == 1, err
        return err

    def test_retired_keys_at_their_defaults_decode_identically(self, trained_dir, data_dir,
                                                              tmp_path):
        old = self.resaved(trained_dir, tmp_path, lambda meta: meta["model"].update(
            use_pos_enc=True, cond_layer_norm=False, ln_eps=1e-05))
        outs = []
        for model in (trained_dir / "model_avg.ntc", old):
            outs.append(tmp_path / f"{model.stem}.jsonl")
            assert run(["decode", "--model", str(model), "--data", str(data_dir / "valid.jsonl"),
                        "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("key,value", [("cond_layer_norm", True), ("use_pos_enc", False),
                                           ("ln_eps", 1e-3)])
    def test_retired_key_at_another_value_exits_3(self, trained_dir, data_dir, tmp_path, capsys,
                                                  key, value):
        model = self.resaved(trained_dir, tmp_path, lambda meta: meta["model"].update({key: value}))
        assert repr(key) in self.decode_error(model, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("value", ["x", 1, "one too large"])
    def test_vocabulary_size_not_the_head_width_exits_3(self, trained_dir, data_dir, tmp_path,
                                                        capsys, value):
        def edit(meta):
            meta["char_vocab_size"] = (meta["char_vocab_size"] + 1 if value == "one too large"
                                       else value)

        model = self.resaved(trained_dir, tmp_path, edit)
        assert "'char_vocab_size'" in self.decode_error(model, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("name,edit", [
        ("block02.attn.wq", lambda t: t.update({"block02.attn.wq": np.zeros((32, 16))})),
        ("block01.attn.bq", lambda t: t.update({"block01.attn.bq": np.zeros(10)})),
        ("block09.attn.wq", lambda t: t.update({"block09.attn.wq": t["block01.attn.wq"]})),
        ("block02.conv.depth", lambda t: t.update({"block02.conv.depth": np.zeros((5, 16))})),
        ("block01.attn.wq", lambda t: t.pop("block01.attn.wq")),
    ], ids=["wrong-shape", "wrong-length", "extra", "other-kernel-size", "missing"])
    def test_tensor_unlike_the_architecture_exits_3(self, trained_dir, data_dir, tmp_path,
                                                    capsys, name, edit):
        # The trained model has 2 layers, d_model 16 and 3-tap convolutions.
        store, meta = ParamStore.load(trained_dir / "model_avg.ntc")
        tensors = store.values()
        edit(tensors)
        edited = ParamStore({key: value.shape for key, value in tensors.items()})
        for key, value in tensors.items():
            edited[key].value[...] = value
        model = tmp_path / "edited.ntc"
        edited.save(model, meta)
        assert f"tensor {name!r}" in self.decode_error(model, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("edit,message", [
        (lambda index: index["tensors"][0].update(shape=[float("inf")]), "unreadable index"),
        (lambda index: index["tensors"][0].update(crc32=float("inf")), "unreadable index"),
        (lambda index: index["tensors"][0].update(shape=[10**12]), "truncated payload"),
        (lambda index: index["tensors"][0].update(shape=[10**30]), "truncated payload"),
        (lambda index: index["meta"]["placement"].update(n_layers=float("inf")),
         "header block 'placement' does not construct"),
        (lambda index: index["meta"]["model"].update(d_model=16.0),
         "header block 'model' does not construct"),
        (lambda index: index["meta"]["model"].update(d_model=2**40),
         "tensor 'input.w' has shape"),
        (lambda index: index["meta"]["placement"].update(n_layers=10**9),
         "tensor 'block03.attn_ln.gain' is missing"),
    ], ids=["infinite-shape", "infinite-crc", "large-shape", "huge-shape", "infinite-depth",
            "float-width", "huge-width", "huge-depth"])
    def test_index_value_out_of_range_exits_3_at_once(self, trained_dir, data_dir, tmp_path,
                                                       capsys, edit, message):
        # Each of these once raised OverflowError, MemoryError or TypeError,
        # or allocated by the header's sizes before checking them.
        blob = (trained_dir / "model_avg.ntc").read_bytes()
        magic, header, payloads = blob[:5], *blob[5:].split(b"\n", 1)
        index = json.loads(header)
        edit(index)
        model = tmp_path / "edited.ntc"
        model.write_bytes(magic + json.dumps(index).encode() + b"\n" + payloads)
        assert message in self.decode_error(model, data_dir, tmp_path, capsys)

    def test_checkpoint_without_checksums_exits_3(self, trained_dir, data_dir, tmp_path,
                                                   capsys):
        # The index layout written before records carried a checksum.
        blob = (trained_dir / "model_avg.ntc").read_bytes()
        magic, header, payloads = blob[:5], *blob[5:].split(b"\n", 1)
        index = json.loads(header)
        for rec in index["tensors"]:
            del rec["crc32"]
        model = tmp_path / "unchecked.ntc"
        model.write_bytes(magic + json.dumps(index).encode() + b"\n" + payloads)
        assert "unreadable index" in self.decode_error(model, data_dir, tmp_path, capsys)

    def test_checkpoint_of_float32_tensors_exits_3(self, trained_dir, data_dir, tmp_path,
                                                   capsys):
        blob = (trained_dir / "model_avg.ntc").read_bytes()
        magic, header, payloads = blob[:5], *blob[5:].split(b"\n", 1)
        index = json.loads(header)
        for rec in index["tensors"]:
            rec["dtype"] = "float32"
        model = tmp_path / "float32.ntc"
        model.write_bytes(magic + json.dumps(index).encode() + b"\n" + payloads)
        name = index["tensors"][0]["name"]
        assert (f"tensor {name!r} has dtype 'float32'"
                in self.decode_error(model, data_dir, tmp_path, capsys))

    def test_token_lists_not_the_vocabulary_sizes_exit_3(self, trained_dir, data_dir, tmp_path,
                                                         capsys):
        model = self.resaved(trained_dir, tmp_path, lambda meta: meta["extra"]["syl_tokens"].pop())
        assert "syllable tokens" in self.decode_error(model, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["extra"].pop("char_tokens"),
        lambda meta: meta["extra"]["char_tokens"].reverse(),  # blank not first
        lambda meta: meta["extra"]["syl_tokens"].__setitem__(1, 5),
        lambda meta: meta.update(extra=["not", "an", "object"]),
    ])
    def test_unusable_vocabulary_metadata_exits_3(self, trained_dir, data_dir, tmp_path, capsys,
                                                  edit):
        model = self.resaved(trained_dir, tmp_path, edit)
        assert "vocabulary metadata" in self.decode_error(model, data_dir, tmp_path, capsys)

    def test_record_with_mismatched_shape_exits_3(self, trained_dir, data_dir, tmp_path,
                                                  capsys):
        def edit(record):
            record["features"]["shape"][0] += 1

        data = self.damaged_record(data_dir, tmp_path, edit)
        assert self.decode(trained_dir / "model_avg.ntc", data, tmp_path, capsys) == 3

    def test_record_of_other_feature_width_exits_3(self, trained_dir, data_dir, tmp_path,
                                                   capsys):
        def edit(record):
            rows, cols = record["features"]["shape"]
            record["features"]["shape"] = [rows * 2, cols // 2]

        data = self.damaged_record(data_dir, tmp_path, edit)
        assert self.decode(trained_dir / "model_avg.ntc", data, tmp_path, capsys) == 3

    def test_record_with_unknown_token_exits_3(self, trained_dir, data_dir, tmp_path, capsys):
        def edit(record):
            record["chars"][0] = "no-such-char"

        data = self.damaged_record(data_dir, tmp_path, edit)
        assert self.decode(trained_dir / "model_avg.ntc", data, tmp_path, capsys) == 3

    @pytest.mark.parametrize("field,edit,got", [
        ("shape", lambda f: f.update(shape=[str(n) for n in f["shape"]]), '["'),
        ("shape", lambda f: f.update(shape=[f["shape"][0] + 0.9, f["shape"][1] + 0.2]), "["),
        ("shape", lambda f: f.update(shape=[True, f["shape"][1]], data=f["data"][:f["shape"][1]]),
         "[true, 8]"),
        ("data", lambda f: f["data"].__setitem__(3, "0.5"), '"0.5"'),
        ("data", lambda f: f["data"].__setitem__(3, True), "true"),
    ], ids=["string-shape", "float-shape", "bool-shape", "string-value", "bool-value"])
    def test_features_of_other_json_type_exit_3(self, trained_dir, data_dir, tmp_path, capsys,
                                                field, edit, got):
        # int() and np.asarray(..., dtype=float64) would read each edited
        # record as a shape or values of the right size.
        data = shutil.copytree(data_dir, tmp_path / "data")
        lines = (data / "train.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        edit(record["features"])
        (data / "train.jsonl").write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
        message = (f"data error: {data / 'train.jsonl'}:1: record {record['id']!r}: "
                   f"'features' field {field!r} must be a list of JSON ")
        out = tmp_path / "run"
        out.mkdir()
        capsys.readouterr()
        for argv in (["train", "--data-dir", str(data), "--out-dir", str(out), *SMALL_TRAIN],
                     ["decode", "--model", str(trained_dir / "model_avg.ntc"),
                      "--data", str(data / "train.jsonl"), "--out", str(out / "h.jsonl")]):
            assert run(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(message) and f", got {got}" in err, err
            assert err.count("\n") == 1, err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("edit,message", [
        (lambda rec: [1, 2], "expected a JSON object, got [1, 2]"),
        (lambda rec: "abc", 'expected a JSON object, got "abc"'),
        (lambda rec: {k: v for k, v in rec.items() if k != "id"}, "record has no 'id'"),
        (lambda rec: {k: v for k, v in rec.items() if k != "features"},
         "record has no 'features'"),
        (lambda rec: {**rec, "chars": None}, "record field 'chars' must be a list, got null"),
        (lambda rec: {**rec, "id": 7}, "record field 'id' must be a string, got 7"),
        (lambda rec: {**rec, "features": {**rec["features"], "data": [10**400]}},
         "record 'valid-0000': unreadable features (int too large to convert to float)"),
        (lambda rec: {**rec, "features": {**rec["features"], "shape": [float("inf"), 8]}},
         "record 'valid-0000': 'features' field 'shape' must be a list of JSON ints, "
         "got [Infinity, 8]"),
    ], ids=["list", "string", "no-id", "no-features", "null-chars", "number-id", "huge-value",
            "infinite-shape"])
    def test_record_not_an_utterance_names_file_line_and_field(self, trained_dir, data_dir,
                                                               tmp_path, capsys, edit, message):
        good = (data_dir / "valid.jsonl").read_text().splitlines()[0]
        data = tmp_path / "records.jsonl"
        data.write_text(good + "\n" + json.dumps(edit(json.loads(good))) + "\n")
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"), "--data", str(data),
                    "--out", str(tmp_path / "h.jsonl")])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {data}:2: {message}\n"

    def test_record_line_not_utf8_names_file_and_line(self, trained_dir, data_dir, tmp_path,
                                                      capsys):
        good = (data_dir / "valid.jsonl").read_bytes().splitlines()[0]
        data = tmp_path / "records.jsonl"
        data.write_bytes(good + b"\n" + good.replace(b'"id"', b'"\xffd"') + b"\n")
        code = run(["decode", "--model", str(trained_dir / "model_avg.ntc"), "--data", str(data),
                    "--out", str(tmp_path / "h.jsonl")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {data}:2: 'utf-8' codec can't decode byte 0xff")

# Any JSON value, scalars drawn wide: huge, negative and non-integral sizes,
# NaN and infinities, odd strings.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)
FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def json_paths(value, prefix=()):
    """The path of every value nested in a JSON document, the root excepted."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from json_paths(child, (*prefix, key))


def edit_json(doc, data):
    """`doc` with one nested value replaced by any JSON value, or removed."""
    paths = list(json_paths(doc))
    if not paths:
        return data.draw(JSON_VALUES)
    *parent_path, key = data.draw(st.sampled_from(paths))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if data.draw(st.booleans()):
        parent[key] = data.draw(JSON_VALUES)
    else:
        del parent[key]
    return doc


def edit_bytes(blob, data):
    """`blob` with one byte changed or its tail cut off."""
    at = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    return blob[:at]


class TestFuzzedDecodeInputs:
    """`decode` of a damaged checkpoint or data file never raises: it exits
    0, or 3 with one data-error line.  A data file may also exit 4 with one
    numeric-failure line: an edit can write a feature value that is not
    finite, or so large that the first block overflows, which
    `test_failed_decode_leaves_old_output` shows is a numeric failure."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def decode(model, data, work):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["decode", "--model", str(model), "--data", str(data),
                        "--out", str(work / "h.jsonl")])
        return code, err.getvalue()

    @FUZZ
    @given(data=st.data())
    def test_damaged_checkpoint(self, trained_dir, data_dir, work, data):
        blob = (trained_dir / "model_avg.ntc").read_bytes()
        magic, header, payloads = blob[:5], *blob[5:].split(b"\n", 1)
        kind = data.draw(st.sampled_from(["bytes", "header"]))
        if kind == "bytes":
            blob = edit_bytes(blob, data)
        else:
            header = json.dumps(edit_json(json.loads(header), data)).encode()
            blob = magic + header + b"\n" + payloads
        model = work / "model.ntc"
        model.write_bytes(blob)
        code, err = self.decode(model, data_dir / "valid.jsonl", work)
        assert (code, err.count("\n")) in ((0, 0), (3, 1)), err
        assert code == 0 or err.startswith(f"data error: {model}: "), err

    @FUZZ
    @given(data=st.data())
    def test_damaged_record(self, trained_dir, data_dir, work, data):
        lines = (data_dir / "valid.jsonl").read_bytes().splitlines(keepends=True)
        line = lines[0]
        if data.draw(st.booleans()):
            line = edit_bytes(line, data)
        else:
            line = json.dumps(edit_json(json.loads(line), data)).encode() + b"\n"
        records = work / "records.jsonl"
        records.write_bytes(line + b"".join(lines[1:]))
        code, err = self.decode(trained_dir / "model_avg.ntc", records, work)
        assert (code, err.count("\n")) in ((0, 0), (3, 1), (4, 1)), err
        assert code != 3 or err.startswith(f"data error: {records}"), err
        assert code != 4 or err.startswith("numeric failure: "), err


class TestFuzzedEvalInputs:
    """`eval` of a damaged reference or hypothesis file never raises: it
    exits 0 with nothing on stderr, or 3 with one data-error line, and a
    failed run leaves an existing `--csv` file as it was."""

    CSV = "level,layer,rate\nchar,final,0.5\n"

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, trained_dir, data_dir):
        """The validation references without their features (which `eval`
        drops unread), and their hypotheses with every layer's tokens."""
        work = tmp_path_factory.mktemp("fuzz-eval")
        ref, hyp = work / "ref.jsonl", work / "hyp.jsonl"
        records = [json.loads(line) for line in (data_dir / "valid.jsonl").read_text().splitlines()]
        ref.write_text("".join(json.dumps({k: v for k, v in rec.items() if k != "features"}) + "\n"
                               for rec in records))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["decode", "--model", str(trained_dir / "model_avg.ntc"),
                        "--data", str(data_dir / "valid.jsonl"), "--out", str(hyp),
                        "--dump-intermediate", "true"]) == 0
        return work, {"ref": ref, "hyp": hyp}

    @FUZZ
    @given(data=st.data())
    def test_damaged_file(self, files, data):
        work, paths = files
        side = data.draw(st.sampled_from(["ref", "hyp"]))
        lines = paths[side].read_bytes().splitlines(keepends=True)
        at = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines[at] = edit_bytes(lines[at], data)
        else:
            lines[at] = json.dumps(edit_json(json.loads(lines[at]), data)).encode() + b"\n"
        damaged = work / "damaged.jsonl"
        damaged.write_bytes(b"".join(lines))
        files_in = {**paths, side: damaged}
        csv = work / "rates.csv"
        csv.write_text(self.CSV)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["eval", "--ref", str(files_in["ref"]), "--hyp", str(files_in["hyp"]),
                        "--csv", str(csv)])
        err = err.getvalue()
        assert (code, err.count("\n")) in ((0, 0), (3, 1)), err
        assert code == 0 or (err.startswith("data error: ") and csv.read_text() == self.CSV), err


class TestFuzzedGenDataInputs:
    """`gen-data` with any config file and flags never raises: it exits 0
    with nothing on stderr, or 2 with one config-error line, and a failed
    run leaves `out_dir` as it was.  Drawn counts stay in the tens and
    lengths under 10, so a run takes milliseconds; values past int64 are
    explicit examples, as a count that large would not finish."""

    # Small settings, so a run that succeeds writes a few short records.
    SETTINGS = {"seed": "1", "n_syllables": "4", "n_characters": "9",
                "max_pronunciations": "2", "d_in": "2", "n_train": "2", "n_valid": "1",
                "min_len": "1", "max_len": "3", "n_homophone_eval": "1"}
    ODD = (st.sampled_from(["", "x", "true", "nan", "-inf", "1e3", "2.0", "0x10", "1_0",
                            "\u0663", " 2", "-0", "+3"])
           | st.text(st.characters(blacklist_categories=("Nd",)), max_size=3))

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz-gen-data")

    def value(self, key: str, data) -> str:
        small = st.integers(-3, 9 if key.endswith("_len") else 40).map(str)
        return data.draw(small | self.ODD)

    @staticmethod
    def gen_data(work, *args) -> None:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (out / "kept.txt").write_text("an earlier run's file\n")
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = run(["gen-data", "--out-dir", str(out), *args])
        err = err.getvalue()
        assert (code, err.count("\n")) in ((0, 0), (2, 1)), err
        if code == 2:
            assert err.startswith("config error: "), err
            assert [p.name for p in out.iterdir()] == ["kept.txt"]

    @FUZZ
    @given(data=st.data())
    def test_flags(self, work, data):
        settings = dict(self.SETTINGS)
        for key in data.draw(st.lists(st.sampled_from(sorted(settings)), unique=True,
                                      max_size=3)):
            settings[key] = self.value(key, data)
        # `--flag=value`, so that a value starting with "-" is not read as a flag
        self.gen_data(work, *(f"--{key.replace('_', '-')}={value}"
                              for key, value in settings.items()))

    @FUZZ
    @given(data=st.data())
    def test_config_file(self, work, data):
        lines = [f"{key}={value}" for key, value in self.SETTINGS.items()]
        if data.draw(st.booleans()):
            text = edit_bytes("".join(line + "\n" for line in lines).encode(), data)
        else:
            at = data.draw(st.integers(0, len(lines) - 1))
            key = lines[at].partition("=")[0]
            lines[at] = key + "=" + self.value(key, data)
            text = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
        config = work / "gen.cfg"
        config.write_bytes(text)
        self.gen_data(work, "--config", str(config))

    # `--max-len 10**20` gave numpy's "high is out of bounds for int64"
    # traceback (exit 1); `--n-train 10**20` would not finish.
    @pytest.mark.parametrize("value", [2**63, 10**20, -(2**63) - 1])
    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_value_past_int64_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        out.mkdir()
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in self.SETTINGS.items() if k != key]
        assert run(["gen-data", "--out-dir", str(out), f"--{key.replace('_', '-')}={value}",
                    *flags]) == 2
        assert capsys.readouterr().err == f"config error: '{value}' does not fit in 64 bits\n"
        assert list(out.iterdir()) == []

    def test_value_past_int64_in_the_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "gen.cfg"
        config.write_text("max_len=100000000000000000000\n")
        assert run(["gen-data", "--out-dir", str(tmp_path), "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "config error: '100000000000000000000' does not fit in 64 bits\n")
        assert list(tmp_path.iterdir()) == [config]


class TestFuzzedTrainInputs:
    """`train` on a damaged record, vocabulary or config file never raises:
    it exits 0, 2, 3 or 4, with one message line on stderr when it fails,
    and exits 2 and 3 leave `out_dir` as it was.  A run that aborts on
    non-finite values exits 4 and says so on stdout; one that fails on them
    says so in a numeric-failure line."""

    # A tiny model and one training step, so an example takes well under a
    # second; the config file holds the same settings.
    SETTINGS = {"n_layers": "2", "d_model": "8", "n_heads": "2", "d_ff": "8",
                "conv_kernel": "3", "batch_size": "4", "eval_interval": "1", "average_k": "1",
                "strategy": "alternate", "mix_weight": "0.5", "warmup_steps": "4",
                "lr_factor": "1.0", "grad_clip": "5.0", "seed": "0"}
    # A config value may be any of these.  Their integers stay small, so no
    # edit makes a model too large for the test to build.
    VALUES = (st.integers(-3, 40).map(str) | st.floats().map(repr)
              | st.sampled_from(["", "x", "true", "nan", "-inf", "1e400", "1_0", "\u0663", " 2"])
              | st.text(st.characters(blacklist_categories=("Nd",)), max_size=3))

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory, data_dir):
        work = tmp_path_factory.mktemp("fuzz-train")
        shutil.copytree(data_dir, work / "data")
        return work

    def train(self, work, *flags) -> None:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (out / "kept.txt").write_text("an earlier run's file\n")
        err, stdout = io.StringIO(), io.StringIO()
        # A warning would print lines of its own outside the tests.
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = run(["train", "--data-dir", str(work / "data"), "--out-dir", str(out),
                        "--max-steps", "1", *flags])
        err = err.getvalue()
        assert (code, err.count("\n")) in ((0, 0), (2, 1), (3, 1), (4, 0), (4, 1)), err
        prefix = {0: "", 2: "config error: ", 3: "data error: ", 4: "numeric failure: "}[code]
        assert err.startswith(prefix), err
        if (code, err) == (4, ""):
            assert "training aborted on non-finite values" in stdout.getvalue()
        if code in (2, 3):
            assert [p.name for p in out.iterdir()] == ["kept.txt"]

    def flags(self) -> list[str]:
        return [arg for key, value in self.SETTINGS.items()
                for arg in ("--" + key.replace("_", "-"), value)]

    @FUZZ
    @given(data=st.data())
    def test_damaged_record(self, data_dir, work, data):
        split = data.draw(st.sampled_from(["train.jsonl", "valid.jsonl"]))
        lines = (data_dir / split).read_bytes().splitlines(keepends=True)
        at = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines[at] = edit_bytes(lines[at], data)
        else:
            lines[at] = json.dumps(edit_json(json.loads(lines[at]), data)).encode() + b"\n"
        try:
            (work / "data" / split).write_bytes(b"".join(lines))
            self.train(work, *self.flags())
        finally:
            shutil.copy(data_dir / split, work / "data" / split)

    @FUZZ
    @given(data=st.data())
    def test_damaged_vocabulary(self, data_dir, work, data):
        name = data.draw(st.sampled_from(["chars.vocab", "syllables.vocab"]))
        blob = (data_dir / name).read_bytes()
        if data.draw(st.booleans()):
            blob = edit_bytes(blob, data)
        else:
            lines = blob.decode().splitlines()
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at:at + 1] = data.draw(st.lists(st.text(max_size=3), max_size=2))
            blob = "".join(line + "\n" for line in lines).encode()
        try:
            (work / "data" / name).write_bytes(blob)
            self.train(work, *self.flags())
        finally:
            shutil.copy(data_dir / name, work / "data" / name)

    @FUZZ
    @given(data=st.data())
    def test_damaged_config(self, work, data):
        lines = [f"{key}={value}" for key, value in self.SETTINGS.items()]
        text = "".join(line + "\n" for line in lines).encode()
        if data.draw(st.booleans()):
            text = edit_bytes(text, data)
        else:
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = lines[at].partition("=")[0] + "=" + data.draw(self.VALUES)
            text = "".join(line + "\n" for line in lines).encode("utf-8", "surrogatepass")
        config = work / "train.cfg"
        config.write_bytes(text)
        self.train(work, "--config", str(config))


class TestBadEvalRecords:
    """Malformed hypothesis records make `eval` exit 3 with one line."""

    def evaluate(self, tmp_path, capsys, hyp_record):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        ref.write_text(json.dumps({"id": "u1", "chars": ["a"], "syllables": ["s"]}) + "\n")
        hyp.write_text(json.dumps(hyp_record) + "\n")
        capsys.readouterr()
        code = run(["eval", "--ref", str(ref), "--hyp", str(hyp)])
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        return code

    @pytest.mark.parametrize("line,problem", [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"id": "u2", "chars": ["a"]', "Expecting ',' delimiter"),
        (b'{"id": "u\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "unclosed", "not-utf8"])
    def test_line_that_is_not_json_names_file_and_line(self, tmp_path, capsys, line, problem):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        good = json.dumps({"id": "u1", "chars": ["a"]}).encode()
        ref.write_bytes(good + b"\n")
        hyp.write_bytes(good + b"\n\n" + line + b"\n")
        capsys.readouterr()
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {hyp}:3: {problem}") and err.count("\n") == 1, err

    def test_record_that_is_a_list_exits_3(self, tmp_path, capsys):
        assert self.evaluate(tmp_path, capsys, ["a"]) == 3

    def test_null_chars_exit_3(self, tmp_path, capsys):
        assert self.evaluate(tmp_path, capsys, {"id": "u1", "chars": None}) == 3

    def test_non_integer_layer_key_exits_3(self, tmp_path, capsys):
        record = {"id": "u1", "chars": ["a"],
                  "layers": {"char": {"top": ["a"]}, "syl": {"1": ["s"]}}}
        assert self.evaluate(tmp_path, capsys, record) == 3

    def test_records_with_other_layer_sets_name_the_missing_layer(self, tmp_path, capsys):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        ref.write_text("".join(json.dumps({"id": u, "chars": ["a"], "syllables": ["s"]}) + "\n"
                               for u in ("u1", "u2")))
        hyp.write_text(
            json.dumps({"id": "u1", "chars": ["a"], "layers": {"char": {"1": ["a"]}, "syl": {}}})
            + "\n"
            + json.dumps({"id": "u2", "chars": ["a"], "layers": {"char": {}, "syl": {}}})
            + "\n"
        )
        capsys.readouterr()
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 3
        assert capsys.readouterr().err == f"data error: {hyp}: record 'u2' has no layers.char.1\n"

    def test_hypothesis_without_layers_among_ones_with_them_exits_3(self, tmp_path, capsys):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        ref.write_text("".join(json.dumps({"id": u, "chars": [u], "syllables": ["s"]}) + "\n"
                               for u in ("a", "b")))
        hyp.write_text(
            json.dumps({"id": "a", "chars": ["a"], "layers": {"char": {"2": ["a"]}, "syl": {}}})
            + "\n"
            + json.dumps({"id": "b", "chars": ["b"]})
            + "\n"
        )
        capsys.readouterr()
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {hyp}: record 'b' has no 'layers', which other records have\n"
        )

    def test_reference_without_syllables_names_the_record(self, tmp_path, capsys):
        ref = tmp_path / "r.jsonl"
        hyp = tmp_path / "h.jsonl"
        ref.write_text(json.dumps({"id": "u1", "chars": ["a"]}) + "\n")
        hyp.write_text(json.dumps({"id": "u1", "chars": ["a"],
                                   "layers": {"char": {}, "syl": {"2": ["s"]}}}) + "\n")
        capsys.readouterr()
        assert run(["eval", "--ref", str(ref), "--hyp", str(hyp)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {ref}: record 'u1' has no 'syllables' to score layer syl 2 against\n"
        )


class TestEndToEndOverfit:
    def test_single_utterance_decode_equals_reference(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "run"
        data.mkdir()
        out.mkdir()
        assert run(["gen-data", "--out-dir", str(data), "--seed", "2",
                    "--n-syllables", "5", "--n-characters", "11", "--d-in", "8",
                    "--n-train", "1", "--n-valid", "1",
                    "--min-len", "2", "--max-len", "2"]) == 0
        assert run(["train", "--data-dir", str(data), "--out-dir", str(out),
                    "--strategy", "alternate", "--n-layers", "2", "--d-model", "32",
                    "--n-heads", "4", "--d-ff", "64", "--conv-kernel", "3",
                    "--batch-size", "1", "--max-steps", "300", "--eval-interval", "25",
                    "--warmup-steps", "50", "--lr-factor", "1.0", "--average-k", "3",
                    "--early-stop-train-cer", "0.0", "--seed", "0"]) == 0
        hyp = out / "hyp.jsonl"
        # the last (fully trained) checkpoint, not the average, is the overfit model
        checkpoints = sorted(out.glob("checkpoint_*.ntc"))
        assert checkpoints
        assert run(["decode", "--model", str(checkpoints[-1]),
                    "--data", str(data / "train.jsonl"), "--out", str(hyp)]) == 0
        record = json.loads(hyp.read_text().splitlines()[0])
        reference = json.loads((data / "train.jsonl").read_text().splitlines()[0])
        assert record["chars"] == reference["chars"]
