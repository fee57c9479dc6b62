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
    ambiguous_pair,
    generate_dataset,
    iter_jsonl,
    make_language,
    read_jsonl,
    sample_utterances,
    synthesize_utterance,
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

    def test_vocabularies_have_blank_first(self, lang):
        assert lang.char_vocab().tokens[0] == BLANK_TOKEN
        assert lang.syl_vocab().tokens[0] == BLANK_TOKEN
        assert lang.char_vocab().size == len(lang.characters) + 1


class TestSynthesize:
    def test_two_syllables_three_frames_each(self, lang):
        # a character whose every pronunciation has two syllables, so the
        # sampled one is two syllables regardless of the draw
        char = next(
            c
            for c in lang.characters
            if all(len(p) == 2 for p in lang.pronunciations[c])
        )
        utt = synthesize_utterance(lang, [char], seed=3, dur_range=(3, 3), noise_sigma=0.0)
        assert utt.features.shape == (6, lang.d_in)
        assert len(utt.syl_ids) == 2

    def test_zero_noise_fixed_duration_gives_exact_prototypes(self, lang):
        utt = synthesize_utterance(lang, [lang.characters[0]], seed=5, dur_range=(2, 2), noise_sigma=0.0)
        syl_tokens = lang.syl_vocab().decode(utt.syl_ids)
        frames = utt.features
        for i, syl in enumerate(syl_tokens):
            proto = lang.prototypes[lang.syllables.index(syl)]
            assert np.array_equal(frames[2 * i], proto)
            assert np.array_equal(frames[2 * i + 1], proto)

    def test_targets_always_ctc_feasible(self, lang):
        for seed in range(20):
            chars = [lang.characters[i % len(lang.characters)] for i in range(seed % 5 + 1)]
            utt = synthesize_utterance(lang, chars, seed=seed)
            frames = utt.features.shape[0]
            assert frames >= min_frames(utt.char_ids)
            assert frames >= min_frames(utt.syl_ids)

    def test_dual_target_consistency(self, lang):
        # some combination of per-character pronunciations reproduces Q
        char_vocab = lang.char_vocab()
        syl_vocab = lang.syl_vocab()
        for seed in range(10):
            utt = synthesize_utterance(lang, [lang.characters[seed], lang.characters[-1 - seed % 3]], seed=seed)
            chars = char_vocab.decode(utt.char_ids)
            target = tuple(syl_vocab.decode(utt.syl_ids))
            options = [lang.pronunciations[c] for c in chars]
            combos = {
                tuple(itertools.chain.from_iterable(choice))
                for choice in itertools.product(*options)
            }
            assert target in combos

    def test_empty_sequence_rejected(self, lang):
        with pytest.raises(LanguageSpecError):
            synthesize_utterance(lang, [], seed=0)

    def test_single_frame_durations_rejected(self, lang):
        with pytest.raises(LanguageSpecError):
            synthesize_utterance(lang, [lang.characters[0]], seed=0, dur_range=(1, 2))

    def test_ambiguous_pair_same_syllables_different_chars(self, lang):
        a, b = ambiguous_pair(lang, seed=0)
        assert a.syl_ids == b.syl_ids
        assert a.char_ids != b.char_ids


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
            sample_utterances(lang, 2, (3, 2), seed=0, stream=0, prefix="x")
