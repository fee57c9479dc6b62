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


def ref_edit_counts(ref, hyp):
    """Reference for `edit_distance`: full cost and backpointer tables, then
    a backtrace from the last cell.

    At equal cost the backpointer prefers, lowest code first, 0 match,
    1 substitution, 2 deletion, 3 insertion."""
    n, m = len(ref), len(hyp)
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    op = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = i
        op[i][0] = 2
    for j in range(1, m + 1):
        cost[0][j] = j
        op[0][j] = 3
    for i in range(1, n + 1):
        row = cost[i]
        prev = cost[i - 1]
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            diag = prev[j - 1] + (0 if same else 1)
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            best = min(diag, dele, ins)
            row[j] = best
            if diag == best:
                op[i][j] = 0 if same else 1
            elif dele == best:
                op[i][j] = 2
            else:
                op[i][j] = 3
    sub = dele = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        code = op[i][j]
        if code == 0 or code == 1:
            sub += code
            i -= 1
            j -= 1
        elif code == 2:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditCounts(substitutions=sub, insertions=ins, deletions=dele)


class TestVocabulary:
    def test_from_labels_reserves_blank(self):
        vocab = Vocabulary.from_labels(["a", "b"])
        assert vocab.tokens[0] == BLANK_TOKEN
        assert vocab.id_of(BLANK_TOKEN) == BLANK_ID == 0
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

    def test_deletion_preferred_over_insertion(self):
        # Both cost 3: one deletion and two insertions, or two substitutions
        # and one insertion; a cell prefers deletion to insertion at equal cost.
        counts = edit_distance([0, 1, 0], [1, 2, 0, 1])
        assert counts == EditCounts(substitutions=0, insertions=2, deletions=1)

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
        st.lists(st.integers(min_value=0, max_value=3), max_size=40),
        st.lists(st.integers(min_value=0, max_value=3), max_size=40),
    )
    def test_counts_match_backtrace_reference(self, a, b):
        assert edit_distance(a, b) == ref_edit_counts(a, b)

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
