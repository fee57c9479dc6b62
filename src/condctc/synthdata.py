"""Deterministic toy ideogram language with homophones and multi-pronunciation
characters, plus synthetic acoustic features for it."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .diffcore import FormatError
from .labels import InvalidTokenError, Vocabulary

_CONSONANTS = "kstnhmyrwgzdbp"
_VOWELS = "aiueo"

# Frames per syllable, inclusive.
DUR_RANGE = (2, 4)
# Strong enough that single frames do not identify a syllable outright;
# recognition has to integrate over a syllable's 2-4 frames.
NOISE_SIGMA = 1.0


class LanguageSpecError(ValueError):
    """Toy-language parameters outside their allowed bounds."""


def _syllable_names(n: int) -> list[str]:
    base = [c + v for c, v in itertools.product(_CONSONANTS, _VOWELS)]
    names = list(base)
    i = 0
    while len(names) < n:
        names.append(f"{base[i % len(base)]}{i}")
        i += 1
    return names[:n]


@dataclass
class ToyLanguage:
    """Characters mapped to one or more syllable-sequence pronunciations.

    Every syllable appears in some pronunciation, at least one pronunciation
    is shared by two characters (a homophone), and at least one character has
    several pronunciations (a polyphone).  Each syllable also owns a fixed
    feature prototype used for synthesis.
    """

    syllables: list[str]
    characters: list[str]
    pronunciations: dict[str, tuple[tuple[str, ...], ...]]
    prototypes: np.ndarray

    def char_vocab(self) -> Vocabulary:
        return Vocabulary.from_labels(self.characters)

    def syl_vocab(self) -> Vocabulary:
        return Vocabulary.from_labels(self.syllables)

    def homophone_groups(self) -> dict[tuple[str, ...], list[str]]:
        """Pronunciations shared by two or more characters."""
        by_pron: dict[tuple[str, ...], list[str]] = {}
        for char in self.characters:
            for pron in self.pronunciations[char]:
                by_pron.setdefault(pron, []).append(char)
        return {p: chars for p, chars in by_pron.items() if len(chars) >= 2}

    def polyphones(self) -> list[str]:
        return [c for c in self.characters if len(self.pronunciations[c]) >= 2]

    def homophone_characters(self) -> list[str]:
        chars = sorted({c for group in self.homophone_groups().values() for c in group})
        return chars


@dataclass
class Utterance:
    """One synthetic sample: features with character and syllable targets."""

    utt_id: str
    features: np.ndarray
    char_ids: list[int]
    syl_ids: list[int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Utterance):
            return NotImplemented
        return (
            self.utt_id == other.utt_id
            and self.char_ids == other.char_ids
            and self.syl_ids == other.syl_ids
            and self.features.shape == other.features.shape
            and bool((self.features == other.features).all())
        )


def make_language(
    seed: int,
    n_syllables: int = 20,
    n_characters: int = 60,
    max_pronunciations: int = 3,
    d_in: int = 16,
) -> ToyLanguage:
    """Build a toy language; deterministic in `seed`.

    A homophone pair and a polyphone are injected if random assignment did
    not already produce them, and every syllable is guaranteed to appear.
    """
    if seed < 0:
        raise LanguageSpecError(f"seed must be >= 0, got {seed}")
    if n_syllables < 2:
        raise LanguageSpecError(f"need at least 2 syllables, got {n_syllables}")
    if n_characters <= n_syllables:
        raise LanguageSpecError(
            f"need more characters than syllables, got {n_characters} <= {n_syllables}"
        )
    if max_pronunciations < 2:
        raise LanguageSpecError(
            f"max_pronunciations must be >= 2 so a polyphone can exist, got {max_pronunciations}"
        )
    if max_pronunciations > n_syllables + n_syllables**2:
        raise LanguageSpecError(
            f"max_pronunciations {max_pronunciations} exceeds the {n_syllables + n_syllables**2} "
            f"pronunciations of 1 or 2 syllables that {n_syllables} syllables allow"
        )
    if d_in < 1:
        raise LanguageSpecError(f"d_in must be >= 1, got {d_in}")

    rng = np.random.default_rng(seed)
    syllables = _syllable_names(n_syllables)
    characters = [f"c{i:02d}" for i in range(n_characters)]

    def draw_pron() -> tuple[str, ...]:
        # Mostly two syllables: single-syllable pronunciations collide far too
        # often for the character inventory to stay distinguishable.
        length = 1 if rng.random() < 0.15 else 2
        return tuple(syllables[int(i)] for i in rng.integers(0, n_syllables, size=length))

    prons: dict[str, list[tuple[str, ...]]] = {}
    for i, char in enumerate(characters):
        count = int(rng.integers(1, max_pronunciations + 1))
        options: list[tuple[str, ...]] = []
        if i < n_syllables:
            # Seed coverage: the first characters each own one bare syllable.
            options.append((syllables[i],))
        while len(options) < count:
            cand = draw_pron()
            if cand not in options:
                options.append(cand)
        prons[char] = options

    all_assigned = {s for opts in prons.values() for p in opts for s in p}
    assert all_assigned.issuperset(syllables)

    # A character's options are distinct, so some pronunciation is shared
    # exactly when there are more options than distinct pronunciations.
    n_options = sum(len(opts) for opts in prons.values())
    if n_options == len({p for opts in prons.values() for p in opts}):
        donor, receiver = characters[0], characters[-1]
        pron = prons[donor][0]
        if pron not in prons[receiver]:
            if len(prons[receiver]) >= max_pronunciations:
                prons[receiver] = prons[receiver][: max_pronunciations - 1]
            prons[receiver].append(pron)

    if not any(len(opts) >= 2 for opts in prons.values()):
        target = characters[-2]
        while len(prons[target]) < 2:
            cand = draw_pron()
            if cand not in prons[target]:
                prons[target].append(cand)

    lang = ToyLanguage(
        syllables=syllables,
        characters=characters,
        pronunciations={c: tuple(p) for c, p in prons.items()},
        prototypes=rng.normal(0.0, 1.0, size=(n_syllables, d_in)),
    )
    assert lang.homophone_groups() and lang.polyphones()
    return lang


def sample_utterances(
    lang: ToyLanguage,
    n: int,
    len_range: tuple[int, int],
    seed: int,
    stream: int,
    prefix: str,
    char_pool: Sequence[str] | None = None,
) -> list[Utterance]:
    """Draw `n` utterances, the i-th from its own RNG stream `[seed, stream, i]`.

    Each stream draws the length, the characters, one pronunciation per
    character, then per syllable a duration in `DUR_RANGE` and the
    N(0, NOISE_SIGMA) noise added to that many copies of the syllable's
    prototype.  Every syllable takes at least two frames, which keeps both
    target sequences alignable under CTC.
    """
    lo, hi = len_range
    if not 1 <= lo <= hi:
        raise LanguageSpecError(f"bad length range {len_range}")
    if seed < 0:
        raise LanguageSpecError(f"seed must be >= 0, got {seed}")
    pool = list(char_pool) if char_pool is not None else lang.characters
    char_vocab, syl_vocab = lang.char_vocab(), lang.syl_vocab()
    syl_index = {s: i for i, s in enumerate(lang.syllables)}
    out = []
    for i in range(n):
        rng = np.random.default_rng([seed, stream, i])
        length = int(rng.integers(lo, hi + 1))
        chars = [pool[int(j)] for j in rng.integers(0, len(pool), size=length)]
        syllables: list[str] = []
        for char in chars:
            options = lang.pronunciations[char]
            syllables.extend(options[int(rng.integers(0, len(options)))])
        frames = []
        for syl in syllables:
            duration = int(rng.integers(DUR_RANGE[0], DUR_RANGE[1] + 1))
            proto = lang.prototypes[syl_index[syl]]
            frames.append(proto + rng.normal(0.0, NOISE_SIGMA, size=(duration, proto.size)))
        out.append(Utterance(
            utt_id=f"{prefix}-{i:04d}",
            features=np.concatenate(frames, axis=0),
            char_ids=char_vocab.encode(chars),
            syl_ids=syl_vocab.encode(syllables),
        ))
    return out


def utterance_to_record(utt: Utterance, lang: ToyLanguage) -> dict:
    char_vocab = lang.char_vocab()
    syl_vocab = lang.syl_vocab()
    rows, cols = utt.features.shape
    return {
        "id": utt.utt_id,
        "features": {"shape": [rows, cols], "data": utt.features.reshape(-1).tolist()},
        "chars": char_vocab.decode(utt.char_ids),
        "syllables": syl_vocab.decode(utt.syl_ids),
    }


# The fields of a JSONL record, with the JSON type each must have.
_RECORD_FIELDS = (("id", str, "a string"), ("features", dict, "an object"),
                  ("chars", list, "a list"), ("syllables", list, "a list"))


def record_to_utterance(record: dict, char_vocab: Vocabulary, syl_vocab: Vocabulary) -> Utterance:
    """Inverse of `utterance_to_record`.  A record that is not a JSON object,
    lacks a field or holds one of the wrong type, a feature shape that is not
    a list of JSON ints or feature data that is not a list of JSON numbers
    (bools and numeric strings are neither), feature values that do not fill
    their shape, or a token outside the vocabularies, raise FormatError
    naming the field."""
    if not isinstance(record, dict):
        raise FormatError(f"expected a JSON object, got {json.dumps(record)[:40]}")
    for key, kind, name in _RECORD_FIELDS:
        if key not in record:
            raise FormatError(f"record has no {key!r}")
        if not isinstance(record[key], kind):
            raise FormatError(
                f"record field {key!r} must be {name}, got {json.dumps(record[key])[:40]}"
            )
    utt_id, features = record["id"], record["features"]
    for key in ("shape", "data"):
        if key not in features:
            raise FormatError(f"record {utt_id!r}: 'features' has no {key!r}")
    shape, values = features["shape"], features["data"]
    if type(shape) is not list or not all(type(n) is int for n in shape):
        raise FormatError(f"record {utt_id!r}: 'features' field 'shape' must be a list of "
                          f"JSON ints, got {json.dumps(shape)[:40]}")
    # The value types are read in one pass in C, not by numpy: asked for
    # float64 it reads true as 1.0 and "0.5" as 0.5, and left to infer the
    # dtype it reads true among numbers as a number.
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        bad = values if type(values) is not list else next(
            v for v in values if type(v) not in (int, float))
        raise FormatError(f"record {utt_id!r}: 'features' field 'data' must be a list of "
                          f"JSON numbers, got {json.dumps(bad)[:40]}")
    try:
        data = np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise FormatError(f"record {utt_id!r}: unreadable features ({exc})") from None
    if len(shape) != 2 or min(shape) < 0 or data.size != math.prod(shape):
        raise FormatError(
            f"record {utt_id!r}: {data.size} feature values do not fill shape {list(shape)}"
        )
    for key in ("chars", "syllables"):
        if not all(isinstance(token, str) for token in record[key]):
            raise FormatError(f"record {utt_id!r}: {key!r} must be a list of token strings")
    try:
        char_ids = char_vocab.encode(record["chars"])
        syl_ids = syl_vocab.encode(record["syllables"])
    except InvalidTokenError as exc:
        raise FormatError(f"record {utt_id!r}: {exc}") from None
    return Utterance(
        utt_id=utt_id, features=data.reshape(shape), char_ids=char_ids, syl_ids=syl_ids
    )


def write_jsonl(utts: Sequence[Utterance], lang: ToyLanguage, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt in utts:
            fh.write(json.dumps(utterance_to_record(utt, lang), separators=(",", ":")) + "\n")


def iter_jsonl(
    path: str | Path, char_vocab: Vocabulary, syl_vocab: Vocabulary
) -> Iterator[Utterance]:
    """The utterances of a JSONL file, one record per nonblank line, each read
    only when the one before it has been taken.  A line that is not UTF-8
    JSON, or not a record `record_to_utterance` reads, raises FormatError
    naming the file and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                utt = record_to_utterance(json.loads(line), char_vocab, syl_vocab)
            except (FormatError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            yield utt


def read_jsonl(path: str | Path, char_vocab: Vocabulary, syl_vocab: Vocabulary) -> list[Utterance]:
    """All the utterances of `iter_jsonl`, as a list."""
    return list(iter_jsonl(path, char_vocab, syl_vocab))


def generate_dataset(
    lang: ToyLanguage,
    out_dir: str | Path,
    n_train: int,
    n_valid: int,
    len_range: tuple[int, int] = (3, 8),
    seed: int = 0,
    n_homophone_eval: int = 0,
) -> dict[str, Path]:
    """Write train/valid JSONL files and the two vocabulary files.

    Train, valid, and the optional homophone-rich evaluation split use
    disjoint RNG streams, so the files are byte-reproducible per split.
    """
    if n_train < 1 or n_valid < 1:
        raise LanguageSpecError("n_train and n_valid must be >= 1")
    if n_homophone_eval < 0:
        raise LanguageSpecError(f"n_homophone_eval must be >= 0, got {n_homophone_eval}")
    out = Path(out_dir)
    paths = {
        "train": out / "train.jsonl",
        "valid": out / "valid.jsonl",
        "char_vocab": out / "chars.vocab",
        "syl_vocab": out / "syllables.vocab",
    }
    write_jsonl(sample_utterances(lang, n_train, len_range, seed, 0, "train"), lang, paths["train"])
    write_jsonl(sample_utterances(lang, n_valid, len_range, seed, 1, "valid"), lang, paths["valid"])
    lang.char_vocab().save(paths["char_vocab"])
    lang.syl_vocab().save(paths["syl_vocab"])
    if n_homophone_eval > 0:
        pool = lang.homophone_characters()
        utts = sample_utterances(
            lang, n_homophone_eval, len_range, seed, 2, "homo", char_pool=pool
        )
        paths["homophone_eval"] = out / "homophone_eval.jsonl"
        write_jsonl(utts, lang, paths["homophone_eval"])
    return paths
