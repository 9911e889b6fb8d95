"""Subword probability tables built from word frequency lists.

A subword is any contiguous substring of a word.  Each occurrence of a
substring inside a listed word contributes that word's count ("banana"
contributes two counts to "ana"), and probabilities are occurrence counts
divided by the grand total over all subwords.  The grand-total
normalization keeps individual probabilities small, so segmentations with
fewer segments score higher and whole-word segments dominate for words
that actually appear in the list.

Words are treated as sequences of Unicode code points; lengths and slices
are in characters, never bytes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

# A word frequency list is any mapping or iterable of (word, count) pairs.
WordFreqList = Iterable[tuple[str, int]] | Mapping[str, int]


def merge_freqs(freqs: WordFreqList) -> dict[str, int]:
    """Sum counts of duplicate words.

    Frequency dumps commonly contain case-variant duplicates after
    lowercasing; they are merged by summation before any counting.
    """
    pairs = freqs.items() if isinstance(freqs, Mapping) else freqs
    merged: dict[str, int] = {}
    for word, count in pairs:
        merged[word] = merged.get(word, 0) + count
    return merged


@dataclass(frozen=True)
class SubwordTable:
    """Immutable subword probability lookup.

    ``probs`` maps each counted subword to a probability in (0, 1].
    Single characters missing from the table fall back to ``prob_eps``, in
    (0, 1), so that every string keeps at least one valid segmentation;
    missing strings of length >= 2 have probability exactly 0.
    ``max_len`` records the longest subword length counted (None when
    unbounded).

    ``stems`` is computed from ``probs`` at its first use (the lattice
    reads it) and cached, so ``probs`` must not be mutated after the
    table has been used by the lattice.
    """

    probs: dict[str, float]
    prob_eps: float = 0.01
    max_len: int | None = None
    total_mass: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_eps < 1.0:
            raise ValueError(f"prob_eps must be in (0, 1), got {self.prob_eps}")
        if self.max_len is not None and (
            isinstance(self.max_len, bool)
            or not isinstance(self.max_len, int)
            or self.max_len < 1
        ):
            raise ValueError(f"max_len must be None or an int >= 1, got {self.max_len!r}")

    @cached_property
    def stems(self) -> Container[str]:
        """Holds every string of length >= 2 that begins some key.

        A table is prefix-closed when every prefix of length >= 2 of a
        key is itself a key; ``build_table`` always makes one, and then
        ``stems`` is ``probs`` itself.  Any other table gets the frozenset
        of all key prefixes of length >= 2.
        """
        probs = self.probs
        if all(key[:-1] in probs for key in probs if len(key) > 2):
            return probs
        return frozenset(
            key[:end] for key in probs for end in range(2, len(key) + 1)
        )

    def lookup(self, subword: str) -> float:
        if not subword:
            raise ValueError("cannot look up an empty subword")
        prob = self.probs.get(subword)
        if prob is not None:
            return prob
        return self.prob_eps if len(subword) == 1 else 0.0

    def __contains__(self, subword: str) -> bool:
        return subword in self.probs

    def __len__(self) -> int:
        return len(self.probs)


def build_table(
    freqs: WordFreqList,
    max_len: int | None = None,
    prob_eps: float = SubwordTable.prob_eps,
) -> SubwordTable:
    """Count substring occurrences weighted by word frequency.

    Every substring occurrence of every listed word of length at most
    ``max_len`` (unbounded when None) adds the word's count to that
    subword.  Probabilities are raw counts over the total of all raw
    counts; the total is recorded as ``total_mass``.
    """
    merged = merge_freqs(freqs)
    if not merged:
        raise ValueError("empty frequency list")

    counts: Counter[str] = Counter()
    for word, count in merged.items():
        if not word:
            raise ValueError("frequency list contains an empty word")
        if count < 0:
            raise ValueError(f"negative count for word {word!r}")
        if count == 0:
            continue
        n = len(word)
        for i in range(n):
            stop = n if max_len is None else min(n, i + max_len)
            for j in range(i + 1, stop + 1):
                counts[word[i:j]] += count

    scale = float(sum(counts.values()))
    probs = {subword: count / scale for subword, count in counts.items()}
    # the table checks max_len and prob_eps; a max_len below 1 counts
    # nothing, so its check comes before the one on the total
    table = SubwordTable(
        probs=probs, prob_eps=prob_eps, max_len=max_len, total_mass=scale
    )
    if not probs:
        raise ValueError("all frequency counts are zero")
    return table
