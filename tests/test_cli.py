from __future__ import annotations

import json
import os

import pytest

from condctc import synthdata, trainer
from condctc.cli import main
from condctc.ctc import greedy_decode
from condctc.diffcore import NumericError
from condctc.encoder import EncoderModel
from condctc.labels import BLANK_TOKEN, Vocabulary


def run(argv):
    return main(argv)


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

    def test_bad_value_type_exits_2(self, tmp_path):
        assert run(["gen-data", "--out-dir", str(tmp_path), "--seed", "notanint"]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        code = run(["gen-data", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
        assert code == 3


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

    def test_abort_prints_the_reason(self, data_dir, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("non-finite gradient for parameter 'input.w'")

        monkeypatch.setattr(trainer, "adam_step", diverge)
        code = run(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
                    "--n-layers", "2", "--d-model", "16", "--n-heads", "2", "--d-ff", "24",
                    "--conv-kernel", "3", "--max-steps", "2", "--batch-size", "4"])
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
        assert all(out.final.parents == () for out in outs)

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

    def test_mismatched_ids_exit_3(self, data_dir, tmp_path):
        hyp = tmp_path / "bad.jsonl"
        hyp.write_text(json.dumps({"id": "stranger", "chars": ["c01"]}) + "\n")
        assert run(["eval", "--ref", str(data_dir / "valid.jsonl"), "--hyp", str(hyp)]) == 3

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
