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
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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
    """

    probs: dict[str, float]
    prob_eps: float = 0.01
    max_len: int | None = None
    total_mass: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_eps < 1.0:
            raise ValueError(f"prob_eps must be in (0, 1), got {self.prob_eps}")

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
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")

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

    total = sum(counts.values())
    if total == 0:
        raise ValueError("all frequency counts are zero")
    scale = float(total)
    probs = {subword: count / scale for subword, count in counts.items()}
    return SubwordTable(
        probs=probs, prob_eps=prob_eps, max_len=max_len, total_mass=scale
    )
