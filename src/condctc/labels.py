"""Vocabularies, CTC path collapsing, and edit-distance error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Hashable, Iterable, Sequence

BLANK_TOKEN = "<blank>"
BLANK_ID = 0


class InvalidTokenError(ValueError):
    """A token or token id falls outside the vocabulary."""


class UndefinedRateError(ValueError):
    """An error rate was requested against zero reference tokens."""


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token <-> id map with id 0 reserved for the blank symbol.

    Ids are dense 0..size-1 in token order; non-blank labels start at id 1.
    """

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens or self.tokens[0] != BLANK_TOKEN:
            raise InvalidTokenError(f"token 0 must be {BLANK_TOKEN!r}")
        if len(set(self.tokens)) != len(self.tokens):
            raise InvalidTokenError("vocabulary tokens must be unique")
        if any("\n" in t or not t for t in self.tokens):
            raise InvalidTokenError("tokens must be nonempty single-line strings")

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from the non-blank label tokens."""
        return cls((BLANK_TOKEN, *labels))

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    @property
    def blank_id(self) -> int:
        return BLANK_ID

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise InvalidTokenError(f"unknown token {token!r}") from None

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < self.size:
            raise InvalidTokenError(f"id {idx} out of range for vocabulary of size {self.size}")
        return self.tokens[idx]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        ids = list(ids)
        if ids and not (0 <= min(ids) and max(ids) < len(self.tokens)):
            for i in ids:  # raises at the first id out of range
                self.token_of(i)
        return [self.tokens[i] for i in ids]

    def save(self, path: str | Path) -> None:
        """Write one token per line; line 0 is the blank."""
        Path(path).write_text("".join(t + "\n" for t in self.tokens), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(tuple(lines))


def collapse(path: Sequence[int], size: int, blank_id: int = BLANK_ID) -> list[int]:
    """Map a frame-level path to its label sequence.

    Adjacent duplicates are merged first, then blanks are removed, so
    (a, a, blank, a) collapses to (a, a).
    """
    out: list[int] = []
    prev: int | None = None
    for idx in path:
        if not 0 <= idx < size:
            raise InvalidTokenError(f"path id {idx} out of range for vocabulary of size {size}")
        if idx != prev and idx != blank_id:
            out.append(idx)
        prev = idx
    return out


@dataclass(frozen=True)
class EditCounts:
    """Substitution / insertion / deletion counts of one alignment."""

    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0

    @property
    def total(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
        )


# Backtrace preference at equal cost, lowest code first: 0 match, 1 substitution,
# 2 deletion, 3 insertion.  Substitution therefore beats a delete+insert pair.
def edit_distance(ref: Sequence[Hashable], hyp: Sequence[Hashable]) -> EditCounts:
    """Levenshtein alignment of `hyp` against `ref` with a deterministic backtrace.

    Deletions are reference tokens missing from the hypothesis; insertions are
    extra hypothesis tokens.  total always equals the Levenshtein distance.
    """
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


def error_rate(pairs: Iterable[tuple[Sequence[Hashable], Sequence[Hashable]]]) -> float:
    """Corpus error rate: total edit errors divided by total reference length.

    May exceed 1.0 when hypotheses carry many insertions.
    """
    errors = 0
    ref_tokens = 0
    for ref, hyp in pairs:
        errors += edit_distance(ref, hyp).total
        ref_tokens += len(ref)
    if ref_tokens == 0:
        raise UndefinedRateError("error rate undefined: no reference tokens")
    return errors / ref_tokens
