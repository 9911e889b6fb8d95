"""Brute-force reference computations, independent of the library's DP.

Segmentations are enumerated by bitmask over the n-1 cut positions, and
weights/partition values are accumulated segmentation by segmentation, so
these stay valid no matter what the lattice module does internally.
Subword counts are taken with ``Counter`` increments, one substring
occurrence at a time.
"""

from __future__ import annotations

from collections import Counter


def all_segmentations(word: str) -> list[tuple[str, ...]]:
    n = len(word)
    out = []
    for mask in range(1 << max(0, n - 1)):
        segments = []
        start = 0
        for cut in range(1, n):
            if mask & (1 << (cut - 1)):
                segments.append(word[start:cut])
                start = cut
        segments.append(word[start:])
        out.append(tuple(segments))
    return out


def segment_product(segments: tuple[str, ...], table) -> float:
    product = 1.0
    for segment in segments:
        product *= table.lookup(segment)
    return product


def brute_partition(word: str, table) -> float:
    return sum(segment_product(seg, table) for seg in all_segmentations(word))


def brute_weights(word: str, table) -> dict[str, float]:
    """Accumulate each segment occurrence's segmentation mass, then
    normalize over all subwords (repeated occurrences all count)."""
    acc: dict[str, float] = {}
    for segments in all_segmentations(word):
        product = segment_product(segments, table)
        if product == 0.0:
            continue
        for segment in segments:
            acc[segment] = acc.get(segment, 0.0) + product
    total = sum(acc.values())
    return {sub: value / total for sub, value in acc.items()}


def brute_ranked_segmentations(word: str, table) -> list[tuple[tuple[str, ...], float]]:
    """All segmentations with normalized likelihood, sorted the way the
    k-best search is supposed to order them."""
    total = brute_partition(word, table)
    scored = [
        (seg, segment_product(seg, table) / total) for seg in all_segmentations(word)
    ]
    scored.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return scored


def counter_table(freqs, max_len=None) -> tuple[dict[str, float], float]:
    """The probabilities and total of ``build_table(freqs, max_len)``,
    from ``(word, count)`` pairs: duplicate words summed, then each
    substring occurrence counted with ``Counter``'s ``+=`` and divided by
    the float of the integer total."""
    merged = Counter()
    for word, count in freqs:
        merged[word] += count
    counts = Counter()
    for word, count in merged.items():
        if count == 0:
            continue
        n = len(word)
        for i in range(n):
            stop = n if max_len is None else min(n, i + max_len)
            for j in range(i + 1, stop + 1):
                counts[word[i:j]] += count
    total = float(sum(counts.values()))
    return {sub: count / total for sub, count in counts.items()}, total
