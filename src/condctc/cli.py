"""Command-line surface: data generation, training, decoding, and scoring.

Every command reads an optional flat key=value config file; command-line
flags override file values.  Exit codes: 0 success, 2 config error, 3 data
error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import synthdata, trainer
from .ctc import InfeasibleAlignmentError
from .diffcore import ContractError, FormatError, NumericError, atomic_write
from .encoder import EncoderModel, ModelConfig, PlacementConfig
from .labels import InvalidTokenError, UndefinedRateError, Vocabulary, error_rate
from .synthdata import LanguageSpecError
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Bad or unknown configuration key/value."""


class DataError(ValueError):
    """Missing or inconsistent data files."""


@dataclass
class GenDataConfig:
    out_dir: str = ""
    seed: int = 0
    n_syllables: int = 20
    n_characters: int = 60
    max_pronunciations: int = 3
    d_in: int = 16
    n_train: int = 50
    n_valid: int = 20
    min_len: int = 3
    max_len: int = 8
    n_homophone_eval: int = 0


@dataclass
class TrainCmdConfig:
    data_dir: str = ""
    out_dir: str = ""
    strategy: str = "alternate"
    n_layers: int = 6
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    conv_kernel: int = 7
    mix_weight: float = 0.5
    epochs: int = 200
    batch_size: int = 10
    warmup_steps: int = 500
    lr_factor: float = 2.0
    seed: int = 0
    average_k: int = 10
    max_steps: int = 0
    eval_interval: int = 50
    grad_clip: float = 5.0
    early_stop_train_cer: float = -1.0


@dataclass
class DecodeConfig:
    model: str = ""
    data: str = ""
    out: str = ""
    dump_intermediate: bool = False


@dataclass
class EvalConfig:
    ref: str = ""
    hyp: str = ""
    csv: str = ""


def _parse_value(raw: str, kind: type):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {kind.__name__}") from exc


def resolve_config(cls, config_path: str | None, overrides: dict):
    """Defaults <- config file <- command-line flags, rejecting unknown keys."""
    defaults = cls()
    kinds = {  # resolved runtime type of each default
        f.name: type(getattr(defaults, f.name)) for f in dataclasses.fields(cls)
    }
    values: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in kinds:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(raw.strip(), kinds[key])
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(val, kinds[key]) if isinstance(val, str) else val
    return cls(**values)


def print_config(cfg) -> None:
    for f in sorted(dataclasses.fields(cfg), key=lambda f: f.name):
        print(f"{f.name}={getattr(cfg, f.name)}")


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--print-config", action="store_true", help="echo the resolved config and exit")
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar=f.name.upper())


def _overrides(args: argparse.Namespace, cls) -> dict:
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}


# -- commands ----------------------------------------------------------------


def cmd_gen_data(cfg: GenDataConfig) -> int:
    if not cfg.out_dir:
        raise ConfigError("out_dir is required")
    out = Path(cfg.out_dir)
    if not out.is_dir():
        raise DataError(f"output directory does not exist: {out}")
    lang = synthdata.make_language(
        seed=cfg.seed,
        n_syllables=cfg.n_syllables,
        n_characters=cfg.n_characters,
        max_pronunciations=cfg.max_pronunciations,
        d_in=cfg.d_in,
    )
    paths = synthdata.generate_dataset(
        lang,
        out,
        n_train=cfg.n_train,
        n_valid=cfg.n_valid,
        len_range=(cfg.min_len, cfg.max_len),
        seed=cfg.seed,
        n_homophone_eval=cfg.n_homophone_eval,
    )
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def _load_vocab(path: Path) -> Vocabulary:
    if not path.is_file():
        raise DataError(f"vocabulary file not found: {path}")
    try:
        return Vocabulary.load(path)
    except (InvalidTokenError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a vocabulary ({exc})") from None


def _load_split(data_dir: Path, name: str, char_vocab: Vocabulary, syl_vocab: Vocabulary):
    """A split's utterances; an empty split, or one with no characters to score, is a DataError."""
    path = data_dir / name
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    utts = synthdata.read_jsonl(path, char_vocab, syl_vocab)
    if not utts:
        raise DataError(f"{path}: no records")
    if not any(u.char_ids for u in utts):
        raise DataError(f"{path}: no reference characters to score")
    return utts


def cmd_train(cfg: TrainCmdConfig) -> int:
    if not cfg.data_dir or not cfg.out_dir:
        raise ConfigError("data_dir and out_dir are required")
    data_dir = Path(cfg.data_dir)
    out_dir = Path(cfg.out_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory does not exist: {data_dir}")
    if not out_dir.is_dir():
        raise DataError(f"output directory does not exist: {out_dir}")

    char_vocab = _load_vocab(data_dir / "chars.vocab")
    syl_vocab = _load_vocab(data_dir / "syllables.vocab")
    train_set = _load_split(data_dir, "train.jsonl", char_vocab, syl_vocab)
    valid_set = _load_split(data_dir, "valid.jsonl", char_vocab, syl_vocab)

    try:  # out-of-range values are config errors
        if cfg.seed < 0:  # the model's seed; the training loop's is cfg.seed + 1
            raise ContractError(f"seed must be >= 0, got {cfg.seed}")
        placement = PlacementConfig.from_strategy(cfg.strategy, cfg.n_layers)
        model_cfg = ModelConfig(
            d_in=train_set[0].features.shape[1],
            d_model=cfg.d_model,
            n_heads=cfg.n_heads,
            d_ff=cfg.d_ff,
            conv_kernel=cfg.conv_kernel,
        )
        train_cfg = TrainConfig(
            mix_weight=cfg.mix_weight,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            warmup_steps=cfg.warmup_steps,
            lr_factor=cfg.lr_factor,
            seed=cfg.seed + 1,
            average_k=cfg.average_k,
            max_steps=cfg.max_steps or None,
            eval_interval=cfg.eval_interval,
            grad_clip=cfg.grad_clip,
            early_stop_train_cer=None if cfg.early_stop_train_cer < 0 else cfg.early_stop_train_cer,
        )
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
    if placement.syl_layers:  # the syllable heads are scored too
        for name, utts in (("train.jsonl", train_set), ("valid.jsonl", valid_set)):
            if not any(u.syl_ids for u in utts):
                raise DataError(f"{data_dir / name}: no reference syllables to score")
    model = EncoderModel(model_cfg, placement, char_vocab.size, syl_vocab.size, seed=cfg.seed)
    meta = {"char_tokens": list(char_vocab.tokens), "syl_tokens": list(syl_vocab.tokens)}
    result = trainer.train(model, train_set, valid_set, train_cfg, out_dir, checkpoint_meta=meta)

    print(f"placement char_layers={sorted(placement.char_layers)} "
          f"syl_layers={sorted(placement.syl_layers)} condition={placement.condition}")
    if result.aborted:
        print(f"training aborted on non-finite values ({result.abort_reason}); "
              "last finite checkpoint kept")
        return EXIT_NUMERIC
    last = result.metrics[-1]
    print(f"steps {result.steps_run}  valid cer {last.cer_valid:.4f}")
    for layer in sorted(last.ser_valid):
        print(f"valid ser layer {layer}: {last.ser_valid[layer]:.4f}")
    avg_model = model.with_store(result.averaged_store)
    rates = trainer.layerwise_error_rates(avg_model, valid_set)
    print(f"averaged model valid cer {rates[('char', model.n_layers)]:.4f}")
    return EXIT_OK


def cmd_decode(cfg: DecodeConfig) -> int:
    if not cfg.model or not cfg.data or not cfg.out:
        raise ConfigError("model, data, and out are required")
    model_path = Path(cfg.model)
    data_path = Path(cfg.data)
    if not model_path.is_file():
        raise DataError(f"model checkpoint not found: {model_path}")
    if not data_path.is_file():
        raise DataError(f"dataset file not found: {data_path}")
    model, extra = EncoderModel.load(model_path)
    try:
        char_vocab = Vocabulary(tuple(extra["char_tokens"]))
        syl_vocab = Vocabulary(tuple(extra["syl_tokens"]))
    except (KeyError, TypeError, InvalidTokenError) as exc:
        raise DataError(f"{model_path}: no usable vocabulary metadata ({exc})") from None
    if (char_vocab.size, syl_vocab.size) != (model.char_vocab_size, model.syl_vocab_size):
        raise DataError(
            f"{model_path}: {char_vocab.size} character and {syl_vocab.size} syllable tokens "
            f"for vocabulary sizes {model.char_vocab_size} and {model.syl_vocab_size}"
        )
    # Each record is decoded, one utterance per forward (the fastest way to
    # decode long utterances), and written before the next is read.  The
    # output replaces cfg.out only once complete.
    count = 0
    with atomic_write(cfg.out, "w", encoding="utf-8") as fh:
        for utt in synthdata.iter_jsonl(data_path, char_vocab, syl_vocab):
            rows, cols = utt.features.shape
            if rows < 1 or cols != model.cfg.d_in:
                raise DataError(
                    f"{data_path}: record {utt.utt_id!r} has {rows}x{cols} features; "
                    f"the model takes T>=1 frames of {model.cfg.d_in}"
                )
            hyp = trainer.decode_points(model, [utt], 1)[0][0]
            chars = char_vocab.decode(hyp[("char", model.n_layers)])
            record: dict = {"id": utt.utt_id, "chars": chars}
            if cfg.dump_intermediate:
                layers: dict = {"char": {}, "syl": {}}
                for (level, layer), ids in sorted(hyp.items()):
                    vocab = char_vocab if level == "char" else syl_vocab
                    layers[level][str(layer)] = vocab.decode(ids)
                record["layers"] = layers
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    print(f"decoded {count} utterances -> {cfg.out}")
    return EXIT_OK


def _tokens_problem(value) -> str | None:
    if isinstance(value, list) and all(isinstance(tok, str) for tok in value):
        return None
    return f"expected a list of token strings, got {json.dumps(value)[:40]}"


def _record_problem(rec) -> str | None:
    """Why a reference or hypothesis record cannot be scored, or None."""
    if not isinstance(rec, dict):
        return f"expected a JSON object, got a {type(rec).__name__}"
    if not isinstance(rec.get("id"), str):
        return "record needs a string 'id'"
    if "chars" not in rec:
        return f"record {rec['id']!r} has no 'chars'"
    for key in ("chars", "syllables"):
        if key in rec and (problem := _tokens_problem(rec[key])):
            return f"record {rec['id']!r} '{key}': {problem}"
    if "layers" not in rec:
        return None
    layers = rec["layers"]
    levels = ("char", "syl")
    if not isinstance(layers, dict) or not all(isinstance(layers.get(k), dict) for k in levels):
        return f"record {rec['id']!r} 'layers' needs 'char' and 'syl' objects"
    for level in levels:
        for key, tokens in layers[level].items():
            if not re.fullmatch(r"[1-9][0-9]*", key):
                return f"record {rec['id']!r} layers.{level} key {key!r} is not a layer number"
            if problem := _tokens_problem(tokens):
                return f"record {rec['id']!r} layers.{level}.{key}: {problem}"
    return None


def _read_records(path: Path) -> dict[str, dict]:
    """The token lists of a JSONL file's records by id: 'chars', and
    'syllables' and 'layers' where a record has them.  Features and other
    fields are dropped, and each distinct token is one string object.  A
    line that is not UTF-8 JSON of a well-formed record, or that repeats an
    id, raises DataError naming the file and the line."""
    records: dict[str, dict] = {}
    seen: dict[str, str] = {}

    def tokens(values: list[str]) -> list[str]:
        return [seen.setdefault(tok, tok) for tok in values]

    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if problem := _record_problem(rec):
                raise DataError(f"{path}:{lineno}: {problem}")
            if rec["id"] in records:
                raise DataError(f"{path}:{lineno}: duplicate id {rec['id']!r}")
            kept = {key: tokens(rec[key]) for key in ("chars", "syllables") if key in rec}
            if "layers" in rec:
                kept["layers"] = {
                    level: {n: tokens(toks) for n, toks in rec["layers"][level].items()}
                    for level in ("char", "syl")
                }
            records[rec["id"]] = kept
    return records


def cmd_eval(cfg: EvalConfig) -> int:
    if not cfg.ref or not cfg.hyp:
        raise ConfigError("ref and hyp are required")
    ref_path, hyp_path = Path(cfg.ref), Path(cfg.hyp)
    for p in (ref_path, hyp_path):
        if not p.is_file():
            raise DataError(f"file not found: {p}")
    refs = _read_records(ref_path)
    hyps = _read_records(hyp_path)
    if sorted(refs) != sorted(hyps):
        missing = sorted(set(refs) ^ set(hyps))[:5]
        raise DataError(f"reference/hypothesis ids do not match (e.g. {missing})")
    if not refs:
        print("no utterances to score")
        return EXIT_OK

    def score(pairs, point: str) -> float:
        try:
            return error_rate(pairs)
        except UndefinedRateError:
            raise DataError(f"{ref_path}: no reference tokens to score {point} against") from None

    ids = sorted(refs)
    cer = score([(refs[i]["chars"], hyps[i]["chars"]) for i in ids], "chars")
    rows: list[tuple[str, int, float]] = []
    with_layers = [i for i in ids if "layers" in hyps[i]]
    for level, ref_key in (("char", "chars"), ("syl", "syllables")):
        for layer in sorted({int(n) for i in with_layers for n in hyps[i]["layers"][level]}):
            pairs = []
            for i in with_layers:
                if ref_key not in refs[i]:
                    raise DataError(
                        f"{ref_path}: record {i!r} has no {ref_key!r} to score "
                        f"layer {level} {layer} against"
                    )
                if str(layer) not in hyps[i]["layers"][level]:
                    raise DataError(f"{hyp_path}: record {i!r} has no layers.{level}.{layer}")
                pairs.append((refs[i][ref_key], hyps[i]["layers"][level][str(layer)]))
            rows.append((level, layer, score(pairs, f"layer {level} {layer}")))

    print(f"cer {cer:.6f} over {len(ids)} utterances")
    for level, layer, rate in rows:
        name = "cer" if level == "char" else "ser"
        print(f"layer {level} {layer} {name} {rate:.6f}")
    if cfg.csv:
        with atomic_write(cfg.csv, "w", encoding="utf-8") as fh:
            fh.write("level,layer,rate\n")
            for level, layer, rate in rows:
                fh.write(f"{level},{layer},{rate!r}\n")
            if not with_layers:
                fh.write(f"char,final,{cer!r}\n")
    return EXIT_OK


# -- entry point --------------------------------------------------------------

_COMMANDS = {
    "gen-data": (GenDataConfig, cmd_gen_data),
    "train": (TrainCmdConfig, cmd_train),
    "decode": (DecodeConfig, cmd_decode),
    "eval": (EvalConfig, cmd_eval),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condctc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (cls, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        _add_config_flags(p, cls)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cls, handler = _COMMANDS[args.command]
    try:
        cfg = resolve_config(cls, args.config, _overrides(args, cls))
        if args.print_config:
            print_config(cfg)
            return EXIT_OK
        return handler(cfg)
    except (ConfigError, LanguageSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, InfeasibleAlignmentError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
