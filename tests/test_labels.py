from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from condctc.labels import (
    BLANK_ID,
    BLANK_TOKEN,
    EditCounts,
    InvalidTokenError,
    UndefinedRateError,
    Vocabulary,
    collapse,
    edit_distance,
    error_rate,
)


def ref_levenshtein(a, b):
    """Rolling-array Levenshtein distance; independent of the backtrace code."""
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, bj in enumerate(b, start=1):
        cur = [j] + [0] * len(a)
        for i, ai in enumerate(a, start=1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (ai != bj))
        prev = cur
    return prev[len(a)]


class TestVocabulary:
    def test_from_labels_reserves_blank(self):
        vocab = Vocabulary.from_labels(["a", "b"])
        assert vocab.tokens[0] == BLANK_TOKEN
        assert vocab.blank_id == BLANK_ID == 0
        assert vocab.size == 3
        assert vocab.id_of("a") == 1
        assert vocab.token_of(2) == "b"

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary.from_labels(["ka", "ki", "ku"])
        ids = vocab.encode(["ku", "ka"])
        assert ids == [3, 1]
        assert vocab.decode(ids) == ["ku", "ka"]

    def test_unknown_token_rejected(self):
        vocab = Vocabulary.from_labels(["a"])
        with pytest.raises(InvalidTokenError):
            vocab.id_of("z")
        with pytest.raises(InvalidTokenError):
            vocab.token_of(7)

    def test_decode_checks_each_list_once(self, monkeypatch):
        vocab = Vocabulary.from_labels(["a", "b"])
        calls = []
        token_of = Vocabulary.token_of
        monkeypatch.setattr(Vocabulary, "token_of",
                            lambda self, i: calls.append(i) or token_of(self, i))
        assert vocab.decode(iter([2, 0, 1, 2])) == ["b", BLANK_TOKEN, "a", "b"]
        assert vocab.decode([]) == []
        assert calls == []

    @pytest.mark.parametrize("bad", [3, -1])
    def test_decode_names_the_out_of_range_id(self, bad):
        vocab = Vocabulary.from_labels(["a", "b"])
        with pytest.raises(InvalidTokenError, match=f"id {bad} out of range"):
            vocab.decode([1, 2, bad, 0, 7])

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidTokenError):
            Vocabulary.from_labels(["a", "a"])

    def test_blank_must_lead(self):
        with pytest.raises(InvalidTokenError):
            Vocabulary(("a", BLANK_TOKEN))

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary.from_labels(["a", "b", "c"])
        path = tmp_path / "tokens.vocab"
        vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == BLANK_TOKEN
        assert Vocabulary.load(path) == vocab


class TestCollapse:
    def test_merges_then_removes_blanks(self):
        # (a, a, blank, a) -> (a, a)
        assert collapse([1, 1, 0, 1], size=2) == [1, 1]

    def test_all_blank(self):
        assert collapse([0, 0, 0], size=2) == []

    def test_blank_between_distinct(self):
        # (a, blank, b, b) -> (a, b)
        assert collapse([1, 0, 2, 2], size=3) == [1, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidTokenError):
            collapse([1, 5], size=3)
        with pytest.raises(InvalidTokenError):
            collapse([-1], size=3)

    @given(st.lists(st.integers(min_value=1, max_value=4), max_size=12))
    def test_idempotent_on_label_sequences(self, seq):
        deduped = [x for i, x in enumerate(seq) if i == 0 or x != seq[i - 1]]
        assert collapse(deduped, size=5) == deduped

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=20))
    def test_collapse_of_collapse_is_stable(self, path):
        # Re-collapsing can only merge adjacent repeats the first pass
        # produced; once the output is repeat-free it is a fixed point.
        once = collapse(path, size=5)
        deduped = [x for i, x in enumerate(once) if i == 0 or x != once[i - 1]]
        if deduped == once:
            assert collapse(once, size=5) == once
        else:
            assert collapse(once, size=5) == deduped

    def test_adjacent_repeats_in_output_are_not_a_fixed_point(self):
        # (a, blank, a) -> (a, a), which as a path re-collapses to (a);
        # this is inherent to the collapsing rule itself.
        assert collapse([1, 0, 1], size=2) == [1, 1]
        assert collapse([1, 1], size=2) == [1]


class TestEditDistance:
    def test_identity(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == EditCounts(0, 0, 0)

    def test_single_substitution(self):
        counts = edit_distance([1, 2, 3], [1, 9, 3])
        assert counts == EditCounts(substitutions=1, insertions=0, deletions=0)

    def test_kitten_sitting(self):
        counts = edit_distance(list("kitten"), list("sitting"))
        assert counts.total == 3
        assert counts == EditCounts(substitutions=2, insertions=1, deletions=0)

    def test_substitution_preferred_over_insert_delete(self):
        counts = edit_distance([1, 2], [2, 1])
        assert counts == EditCounts(substitutions=2, insertions=0, deletions=0)

    def test_empty_hypothesis_counts_deletions(self):
        assert edit_distance([1, 2], []) == EditCounts(0, 0, 2)

    def test_empty_reference_counts_insertions(self):
        assert edit_distance([], [1, 2]) == EditCounts(0, 2, 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=8),
        st.lists(st.integers(min_value=0, max_value=3), max_size=8),
    )
    def test_total_matches_reference_dp(self, a, b):
        assert edit_distance(a, b).total == ref_levenshtein(a, b)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=8),
        st.lists(st.integers(min_value=0, max_value=3), max_size=8),
    )
    def test_total_symmetric(self, a, b):
        assert edit_distance(a, b).total == edit_distance(b, a).total

    @given(
        st.lists(st.integers(min_value=0, max_value=2), max_size=6),
        st.lists(st.integers(min_value=0, max_value=2), max_size=6),
        st.lists(st.integers(min_value=0, max_value=2), max_size=6),
    )
    def test_triangle_inequality(self, a, b, c):
        ab = edit_distance(a, b).total
        bc = edit_distance(b, c).total
        ac = edit_distance(a, c).total
        assert ac <= ab + bc


class TestErrorRate:
    def test_exact_match(self):
        assert error_rate([([1, 2], [1, 2])]) == 0.0

    def test_all_deleted(self):
        assert error_rate([([1, 2], [])]) == 1.0

    def test_insertion_across_pairs(self):
        assert error_rate([([1], [1, 2]), ([3], [3])]) == 0.5

    def test_can_exceed_one(self):
        assert error_rate([([1], [2, 3, 4])]) > 1.0

    def test_empty_references_rejected(self):
        with pytest.raises(UndefinedRateError):
            error_rate([([], [1])])
        with pytest.raises(UndefinedRateError):
            error_rate([])
