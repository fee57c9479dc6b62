"""Vocabularies and edit-distance error metrics."""

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
        # `load` splits lines as `str.splitlines` does, so a token that it
        # would split (or drop, if empty) could not be read back.
        if any(type(t) is not str or t.splitlines() != [t] for t in self.tokens):
            raise InvalidTokenError("tokens must be nonempty single-line strings")

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from the non-blank label tokens."""
        return cls((BLANK_TOKEN, *labels))

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

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


@dataclass(frozen=True)
class EditCounts:
    """Substitution / insertion / deletion counts of one alignment."""

    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0

    @property
    def total(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def edit_distance(ref: Sequence[Hashable], hyp: Sequence[Hashable]) -> EditCounts:
    """Levenshtein alignment of `hyp` against `ref`, chosen deterministically.

    Deletions are reference tokens missing from the hypothesis; insertions are
    extra hypothesis tokens.  total always equals the Levenshtein distance.
    Among alignments of least cost, each cell takes its last step in the order
    match or substitution, then deletion, then insertion, so a substitution
    beats a deletion and insertion pair.  Only two rows of the table are
    kept: each cell holds the cost, substitutions and deletions of its chosen
    alignment, and insertions are the cost less the other two.
    """
    m = len(hyp)
    cost, subs, dels = list(range(m + 1)), [0] * (m + 1), [0] * (m + 1)
    for i, r in enumerate(ref, 1):
        up_cost, up_subs, up_dels = cost, subs, dels
        cost, subs, dels = [i], [0], [i]
        for j, h in enumerate(hyp, 1):
            diff = 0 if r == h else 1
            diag = up_cost[j - 1] + diff
            dele = up_cost[j] + 1
            ins = cost[j - 1] + 1
            if diag <= dele and diag <= ins:
                cost.append(diag)
                subs.append(up_subs[j - 1] + diff)
                dels.append(up_dels[j - 1])
            elif dele <= ins:
                cost.append(dele)
                subs.append(up_subs[j])
                dels.append(up_dels[j] + 1)
            else:
                cost.append(ins)
                subs.append(subs[j - 1])
                dels.append(dels[j - 1])
    return EditCounts(substitutions=subs[m], insertions=cost[m] - subs[m] - dels[m],
                      deletions=dels[m])


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
