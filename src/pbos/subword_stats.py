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

import math
from collections import Counter
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

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


class ReadOnlyDict(dict):
    """A dict that refuses every edit; it reads, pickles and copies as a dict does."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"a {type(self).__name__} cannot be edited")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _is_number(value: object, kinds: tuple[type, ...] = (int, float)) -> bool:
    """Whether ``value`` is one of ``kinds``; a bool (an int) is not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass(frozen=True)
class SubwordTable:
    """Immutable subword probability lookup.

    ``probs`` maps each counted subword to a probability in (0, 1], which
    the table checks.  Single characters missing from the table fall back
    to ``prob_eps``, in (0, 1), so that every string keeps at least one
    valid segmentation; missing strings of length >= 2 have probability
    exactly 0.
    ``max_len`` records the longest subword length counted (None when
    unbounded), and ``total_mass`` the count total (finite and >= 0).

    ``probs`` is held as a :class:`ReadOnlyDict`, into which any other
    mapping is copied, so ``stems``, computed from it at its first use (the
    lattice reads it) and cached, cannot go stale.
    """

    probs: Mapping[str, float]
    prob_eps: float = 0.01
    max_len: int | None = None
    total_mass: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.probs, ReadOnlyDict):
            object.__setattr__(self, "probs", ReadOnlyDict(self.probs))
        if not _is_number(self.prob_eps) or not 0.0 < self.prob_eps < 1.0:
            raise ValueError(f"prob_eps must be a real number in (0, 1), got {self.prob_eps!r}")
        if not _is_number(self.total_mass) or not 0.0 <= self.total_mass < math.inf:
            raise ValueError(f"total_mass must be a finite real number >= 0, got {self.total_mass!r}")
        if self.max_len is not None and (not _is_number(self.max_len, (int,)) or self.max_len < 1):
            raise ValueError(f"max_len must be None or an int >= 1, got {self.max_len!r}")
        values = np.fromiter(self.probs.values(), np.float64, len(self.probs))
        valid = (values > 0.0) & (values <= 1.0)  # false for nan
        if not valid.all():
            subword, prob = next(islice(self.probs.items(), int(np.argmin(valid)), None))
            raise ValueError(f"subword {subword!r} has probability {prob!r}; it must be in (0, 1]")

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

    def __len__(self) -> int:
        return len(self.probs)


def build_table(freqs: WordFreqList, max_len: int | None = None) -> SubwordTable:
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

    try:
        scale = float(sum(counts.values()))
    except OverflowError:
        raise ValueError("the count total is too large for a float") from None
    probs = ReadOnlyDict(zip(counts, (count / scale for count in counts.values())))
    # the table checks max_len; a max_len below 1 counts nothing, so its
    # check comes before the one on the total
    table = SubwordTable(probs=probs, max_len=max_len, total_mass=scale)
    if not probs:
        raise ValueError("all frequency counts are zero")
    return table
