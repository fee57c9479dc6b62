from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from condctc.ctc import min_frames
from condctc.diffcore import FormatError
from condctc.labels import BLANK_TOKEN
from condctc.synthdata import (
    LanguageSpecError,
    Utterance,
    generate_dataset,
    iter_jsonl,
    make_language,
    read_jsonl,
    sample_utterances,
    write_jsonl,
)


@pytest.fixture(scope="module")
def lang():
    return make_language(seed=1, n_syllables=5, n_characters=12, max_pronunciations=2)


class TestMakeLanguage:
    def test_deterministic(self):
        a = make_language(seed=1, n_syllables=5, n_characters=12, max_pronunciations=2)
        b = make_language(seed=1, n_syllables=5, n_characters=12, max_pronunciations=2)
        assert a.syllables == b.syllables
        assert a.pronunciations == b.pronunciations
        assert np.array_equal(a.prototypes, b.prototypes)

    def test_different_seed_differs(self):
        a = make_language(seed=1, n_syllables=5, n_characters=12, max_pronunciations=2)
        b = make_language(seed=2, n_syllables=5, n_characters=12, max_pronunciations=2)
        assert a.pronunciations != b.pronunciations or not np.array_equal(a.prototypes, b.prototypes)

    def test_pronunciations_use_known_syllables(self, lang):
        for prons in lang.pronunciations.values():
            assert prons
            for pron in prons:
                assert 1 <= len(pron) <= 2
                assert all(s in lang.syllables for s in pron)

    def test_every_syllable_appears(self, lang):
        used = {s for prons in lang.pronunciations.values() for p in prons for s in p}
        assert used == set(lang.syllables)

    def test_homophone_exists(self, lang):
        groups = lang.homophone_groups()
        assert groups
        some = next(iter(groups.values()))
        assert len(some) >= 2

    def test_polyphone_exists(self, lang):
        assert lang.polyphones()

    def test_parameter_bounds(self):
        with pytest.raises(LanguageSpecError):
            make_language(seed=0, n_syllables=1, n_characters=5)
        with pytest.raises(LanguageSpecError):
            make_language(seed=0, n_syllables=5, n_characters=5)
        with pytest.raises(LanguageSpecError):
            make_language(seed=0, n_syllables=5, n_characters=9, max_pronunciations=1)
        with pytest.raises(LanguageSpecError):
            make_language(seed=-1, n_syllables=5, n_characters=9)
        # 2 syllables make 2 + 4 pronunciations of one or two syllables
        with pytest.raises(LanguageSpecError, match="max_pronunciations 7 exceeds the 6"):
            make_language(seed=0, n_syllables=2, n_characters=60, max_pronunciations=7)
        assert make_language(seed=0, n_syllables=2, n_characters=60, max_pronunciations=6)

    def test_vocabularies_have_blank_first(self, lang):
        assert lang.char_vocab().tokens[0] == BLANK_TOKEN
        assert lang.syl_vocab().tokens[0] == BLANK_TOKEN
        assert lang.char_vocab().size == len(lang.characters) + 1


class TestSynthesize:
    def test_output_is_the_documented_draws(self, lang):
        pool = lang.homophone_characters()
        utts = sample_utterances(lang, 6, (1, 5), seed=3, stream=2, prefix="r", char_pool=pool)
        char_vocab, syl_vocab = lang.char_vocab(), lang.syl_vocab()
        for i, utt in enumerate(utts):
            rng = np.random.default_rng([3, 2, i])
            length = rng.integers(1, 6)
            chars = [pool[j] for j in rng.integers(0, len(pool), size=length)]
            syllables = []
            for char in chars:
                options = lang.pronunciations[char]
                syllables += options[rng.integers(0, len(options))]
            blocks = []
            for syl in syllables:
                duration = rng.integers(2, 5)
                proto = np.tile(lang.prototypes[lang.syllables.index(syl)], (duration, 1))
                blocks.append(proto + rng.normal(0.0, 1.0, size=proto.shape))
            want = np.concatenate(blocks)
            assert utt.utt_id == f"r-{i:04d}"
            assert utt.features.shape == want.shape
            assert utt.features.tobytes() == want.tobytes()
            assert utt.char_ids == char_vocab.encode(chars)
            assert utt.syl_ids == syl_vocab.encode(syllables)

    def test_targets_always_ctc_feasible(self, lang):
        for seed in range(20):
            for utt in sample_utterances(lang, 3, (1, 5), seed=seed, stream=0, prefix="t"):
                frames = utt.features.shape[0]
                assert frames >= min_frames(utt.char_ids)
                assert frames >= min_frames(utt.syl_ids)

    def test_dual_target_consistency(self, lang):
        # some combination of per-character pronunciations reproduces Q
        char_vocab = lang.char_vocab()
        syl_vocab = lang.syl_vocab()
        for seed in range(10):
            for utt in sample_utterances(lang, 2, (2, 2), seed=seed, stream=0, prefix="t"):
                chars = char_vocab.decode(utt.char_ids)
                target = tuple(syl_vocab.decode(utt.syl_ids))
                options = [lang.pronunciations[c] for c in chars]
                combos = {
                    tuple(itertools.chain.from_iterable(choice))
                    for choice in itertools.product(*options)
                }
                assert target in combos


class TestDataset:
    def test_sample_counts_and_ids(self, lang):
        utts = sample_utterances(lang, 7, (2, 4), seed=0, stream=0, prefix="train")
        assert len(utts) == 7
        assert [u.utt_id for u in utts] == [f"train-{i:04d}" for i in range(7)]
        for u in utts:
            assert 2 <= len(u.char_ids) <= 4

    def test_streams_are_disjoint(self, lang):
        a = sample_utterances(lang, 3, (2, 4), seed=0, stream=0, prefix="a")
        b = sample_utterances(lang, 3, (2, 4), seed=0, stream=1, prefix="b")
        assert any(x.char_ids != y.char_ids or not np.array_equal(x.features, y.features)
                   for x, y in zip(a, b))

    def test_char_pool_restricts_sampling(self, lang):
        pool = lang.homophone_characters()[:3]
        utts = sample_utterances(lang, 5, (2, 4), seed=1, stream=2, prefix="h", char_pool=pool)
        vocab = lang.char_vocab()
        for u in utts:
            assert set(vocab.decode(u.char_ids)) <= set(pool)

    def test_jsonl_roundtrip(self, lang, tmp_path):
        utts = sample_utterances(lang, 4, (2, 4), seed=2, stream=0, prefix="t")
        path = tmp_path / "x.jsonl"
        write_jsonl(utts, lang, path)
        back = read_jsonl(path, lang.char_vocab(), lang.syl_vocab())
        assert back == utts

    def test_iter_jsonl_reads_each_line_when_its_utterance_is_taken(self, lang, tmp_path):
        utts = sample_utterances(lang, 2, (2, 4), seed=2, stream=0, prefix="t")
        path = tmp_path / "x.jsonl"
        write_jsonl(utts, lang, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\nnot json\n")
        records = iter_jsonl(path, lang.char_vocab(), lang.syl_vocab())
        assert [next(records), next(records)] == utts
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:4: Expecting value"):
            next(records)

    def test_jsonl_bytes_are_those_of_per_element_formatting(self, lang, tmp_path):
        utts = sample_utterances(lang, 4, (2, 4), seed=2, stream=0, prefix="t")
        edge = np.array([[-0.0, 5e-324, 1e300, 0.1], [1.0 / 3.0, -2.5, 1e-7, 123456789.0]])
        utts.append(Utterance("edge", edge, utts[0].char_ids, utts[0].syl_ids))
        path = tmp_path / "x.jsonl"
        write_jsonl(utts, lang, path)
        want = ""
        for u in utts:
            record = {
                "id": u.utt_id,
                "features": {"shape": list(u.features.shape),
                             "data": [float(v) for v in u.features.reshape(-1)]},
                "chars": lang.char_vocab().decode(u.char_ids),
                "syllables": lang.syl_vocab().decode(u.syl_ids),
            }
            want += json.dumps(record, separators=(",", ":")) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_generate_dataset_files(self, lang, tmp_path):
        paths = generate_dataset(lang, tmp_path, n_train=5, n_valid=3, len_range=(2, 4),
                                 seed=4, n_homophone_eval=2)
        train = read_jsonl(paths["train"], lang.char_vocab(), lang.syl_vocab())
        valid = read_jsonl(paths["valid"], lang.char_vocab(), lang.syl_vocab())
        homo = read_jsonl(paths["homophone_eval"], lang.char_vocab(), lang.syl_vocab())
        assert len(train) == 5 and len(valid) == 3 and len(homo) == 2
        assert paths["char_vocab"].read_text().splitlines()[0] == BLANK_TOKEN

    def test_generate_dataset_byte_identical(self, lang, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        p1 = generate_dataset(lang, d1, 4, 2, (2, 3), seed=9)
        p2 = generate_dataset(lang, d2, 4, 2, (2, 3), seed=9)
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_bad_sizes_rejected(self, lang, tmp_path):
        with pytest.raises(LanguageSpecError):
            generate_dataset(lang, tmp_path, 0, 1)
        with pytest.raises(LanguageSpecError):
            generate_dataset(lang, tmp_path, 1, 1, n_homophone_eval=-3)
        for len_range in ((3, 2), (0, 2)):
            with pytest.raises(LanguageSpecError):
                sample_utterances(lang, 2, len_range, seed=0, stream=0, prefix="x")
        with pytest.raises(LanguageSpecError):
            sample_utterances(lang, 2, (1, 2), seed=-1, stream=0, prefix="x")
        assert list(tmp_path.iterdir()) == []
