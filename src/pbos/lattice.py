"""Segmentation-lattice dynamic programs over subword probabilities.

A word of length n induces a DAG with one vertex per inter-character
position and one edge per substring, weighted by the substring's
probability.  Source-to-sink paths are exactly the 2^(n-1) segmentations
of the word, and the likelihood of a segmentation is proportional to the
product of its edge weights.

Every path through a fixed edge splits into a left part, the edge, and a
right part, so the marginal mass of a subword occurrence factors into
(forward path sum) * (edge weight) * (backward path sum).  One pass looks
up the spans once, keeps the nonzero ones, and runs the forward and
backward recursions over them, which gives all per-subword weights in
O(n^2) arithmetic instead of enumerating paths.

The pass stops each start i at the first span ``word[i:j]`` of two or
more characters that begins no key of the table (``SubwordTable.stems``).
Every longer span from i begins with that one, so it is absent from the
table too and has probability exactly 0 (only single characters fall
back to ``prob_eps``).  A zero span adds nothing to any path sum or
weight and is not kept, so the pruned pass yields the same spans, sums
and weights, bit for bit, as one that looks up all n(n+1)/2 spans.  For
a long word nearly every span is absent, so the pass makes about n times
the length of the longest key found in the word lookups instead of
n(n+1)/2.

Path sums of long words fall below the smallest float, so the pass keeps
each one as a mantissa in [0.5, 1) and an integer power-of-two exponent,
as ``math.frexp`` returns them (the scaled forward-backward recursion of
Rabiner, 1989).  The terms of a sum are added relative to the largest
exponent among them, so none can overflow.  A power-of-two shift is
exact: wherever plain float arithmetic stays in the normal range the pass
yields the same bits, and where it would underflow the weights,
likelihoods and rankings keep full precision.  ``subword_weights``
returns the pass's own weights; only the plain floats that
``forward_sums``, ``backward_sums`` and ``partition`` return can
underflow.

The pass has two forms with the same bits.  ``_scaled_pass`` takes one
word, span by span in Python floats; ``subword_weights``, top-k and the
likelihoods read it, and so does a batch of one word (``compose``).
``weight_rows`` takes a batch of words (``predict``, ``train``): it looks
up the spans in the same way, longest word first, then runs both
recursions as numpy array operations over a block of words at once, one
round per position, in plain floats and in the order of ``_scaled_pass``.
Wherever every product and every mass over the partition is a normal
float, the plain floats are the scaled ones times a power of two, so the
weights have the same bits.  One cheap bound per word decides that (see
``_array_pass``); a word that fails it takes its weights from
``_scaled_pass``, so the array form holds no exponents.  For ``train``
the batch's new subwords take their columns after the pass, in the order
of their first weight in the batch, so a subword whose spans all have
zero mass gets none.  On the seed-7 inputs of ``perfbench/run.py``
(2-vCPU host, medians of 7 alternating runs) the array form takes a
batch of 5,000 words in 0.46-0.52 of the time of the scalar pass word by
word, and one word at a time 3.9-4.0 times as long (the 3,200 distinct
``serve`` words), so a batch of one keeps the scalar pass.  ``python -m
pytest benchmarks/test_lattice.py --benchmark-only`` shows the same on
its own words (``test_weight_matrix_known_columns`` against
``test_weight_matrix_one_word``).

The rows of the word x subword weight matrix ``W`` that the array pass
does not give are written by ``csr_rows``, the one scalar row writer:
those of ``embedding_model.weight_matrix``'s one-word and ``bos``
batches, and those of the words of ``weight_rows`` that take the scalar
pass.  It holds the one column rule, which ``weight_rows`` follows too:
without ``extend`` a subword that ``columns`` lacks is dropped; with it,
the subword is numbered next in a copy of ``columns``, which takes the
new entries in one update at the end, so a batch that raises leaves
``columns`` as it was.

The k most likely segmentations come from a left-to-right DP that keeps a
k-best list per position (Huang & Chiang, "Better k-best parsing", 2005).
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .subword_stats import SubwordTable

# A segmentation is an ordered tuple of segments whose concatenation
# restores the source word.
Segmentation = tuple[str, ...]

MAX_WORD_LEN = 1000  # the DP is cheap but unbounded input is abuse
MAX_ENUM_LEN = 20    # exhaustive enumeration is O(2^n)
MAX_TOP_K = 100      # top-k keeps k prefixes per position that a span still reaches

# A nonzero span starting at i: (j, mantissa, exponent, word[i:j]), where
# mantissa * 2**exponent is the probability of word[i:j].
_Span = tuple[int, float, int, str]

# Scaled path sums: mantissas and exponents per position.
_Sums = tuple[list[float], list[int]]

# The exponent an empty sum starts from, below that of any float product.
_EMPTY_EXP = -sys.maxsize

# Spans the array pass holds at once: a block of words is passed once its
# lookups reach this many.  Larger blocks pay the rounds of a pass over
# fewer words; each span holds about 100 bytes while its block passes.
_BLOCK_SPANS = 20_000


def _check_word(word: str, limit: int = MAX_WORD_LEN) -> None:
    if not word:
        raise ValueError("empty word")
    if len(word) > limit:
        raise ValueError(f"word of length {len(word)} exceeds the guard of {limit}")


def _scaled_pass(
    word: str, table: SubwordTable
) -> tuple[list[list[_Span]], _Sums, _Sums, dict[str, float]]:
    """Look up the spans of ``word`` that can be nonzero, once each; run
    both path-sum recursions and accumulate the subword weights.

    Returns ``(starts, forward, backward, weights)``.  ``starts[i]`` lists
    the nonzero spans that begin at i, in ascending order of their end.
    ``forward = (fwd_m, fwd_e)`` holds the path sum into position i as
    ``fwd_m[i] * 2**fwd_e[i]`` and ``backward`` the sum out of it.

    Sums add their terms in the order of the plain recursions, relative
    to the largest exponent seen so far, and rescale the partial sum
    (exactly) when a larger one arrives.
    """
    _check_word(word)
    n = len(word)
    get, stems, eps = table.probs.get, table.stems, table.prob_eps
    frexp, ldexp = math.frexp, math.ldexp
    starts: list[list[_Span]] = [[] for _ in range(n + 1)]
    bwd_m, bwd_e = [0.0] * (n + 1), [0] * (n + 1)
    bwd_m[n], bwd_e[n] = frexp(1.0)
    for i in range(n - 1, -1, -1):
        out = starts[i]
        acc, top = 0.0, _EMPTY_EXP
        for j in range(i + 1, n + 1):
            sub = word[i:j]
            prob = get(sub)
            if prob is None:
                if j == i + 1:
                    prob = eps
                elif sub in stems:
                    continue
                else:
                    break  # no key begins with sub: the rest of the row is 0
            m, e = frexp(prob)
            out.append((j, m, e, sub))
            e += bwd_e[j]
            if e > top:
                acc, top = ldexp(acc, top - e) + m * bwd_m[j], e
            else:
                acc += ldexp(m * bwd_m[j], e - top)
        m, e = frexp(acc)
        bwd_m[i], bwd_e[i] = m, e + top

    # Each finished forward sum is pushed along the spans of its start
    # into the pending sums pend_m[j] * 2**pend_e[j].  Subword masses are
    # held relative to the exponent of the partition, backward[0].
    fwd_m, fwd_e = [0.0] * (n + 1), [0] * (n + 1)
    pend_m, pend_e = [1.0] + [0.0] * n, [0] + [_EMPTY_EXP] * n
    norm_e = bwd_e[0]
    masses: dict[str, float] = {}
    total = 0.0
    for i, spans in enumerate(starts):
        left, left_e = frexp(pend_m[i])
        left_e += pend_e[i]
        fwd_m[i], fwd_e[i] = left, left_e
        base = left_e - norm_e
        for j, m, e, sub in spans:
            term = left * m
            mass = ldexp(term * bwd_m[j], base + e + bwd_e[j])
            if mass:
                masses[sub] = masses.get(sub, 0.0) + mass
                total += mass
            e += left_e
            top = pend_e[j]
            if e > top:
                pend_m[j], pend_e[j] = ldexp(pend_m[j], top - e) + term, e
            else:
                pend_m[j] += ldexp(term, e - top)
    weights = {sub: mass / total for sub, mass in masses.items()}
    return starts, (fwd_m, fwd_e), (bwd_m, bwd_e), weights


def _likelihood(seg: Segmentation, table: SubwordTable, forward: _Sums) -> float:
    """Product of the segment probabilities over the partition."""
    norm_m, norm_e = forward[0][-1], forward[1][-1]
    mantissa, exponent = 1.0, 0
    for segment in seg:
        mantissa, shift = math.frexp(mantissa * table.lookup(segment))
        exponent += shift
    return math.ldexp(mantissa / norm_m, exponent - norm_e)


def forward_sums(word: str, table: SubwordTable) -> list[float]:
    """Path sums over all segmentations of every prefix of ``word``.

    ``forward[i]`` sums segment-probability products over all
    segmentations of ``word[:i]``, and ``forward[0] == 1``.  The sums are
    plain floats, so on long words they underflow to 0.0.
    """
    _, forward, _, _ = _scaled_pass(word, table)
    return list(map(math.ldexp, *forward))


def backward_sums(word: str, table: SubwordTable) -> list[float]:
    """Mirror of :func:`forward_sums`, accumulated from the right end:
    ``backward[i]`` sums over the segmentations of ``word[i:]``, and
    ``backward[n] == 1``.  On long words these plain floats underflow to
    0.0 too."""
    _, _, backward, _ = _scaled_pass(word, table)
    return list(map(math.ldexp, *backward))


def partition(word: str, table: SubwordTable) -> float:
    """Total probability mass over all segmentations of ``word``, i.e.
    ``forward[n]``.  A plain float, so on long words it underflows to
    0.0."""
    _, (fwd_m, fwd_e), _, _ = _scaled_pass(word, table)
    return math.ldexp(fwd_m[-1], fwd_e[-1])


def subword_weights(word: str, table: SubwordTable) -> dict[str, float]:
    """Normalized marginal weight of every subword of ``word``.

    Each occurrence of a subword at span (i, j) contributes
    ``prob * forward[i] * backward[j]``; occurrences of the same string
    accumulate under one key.  Weights are normalized to sum to 1 over all
    subwords.  Zero-probability subwords are omitted.  The weights come
    from the scaled sums, so they keep full precision where the partition
    underflows.
    """
    _, _, _, weights = _scaled_pass(word, table)
    return weights


def csr_rows(
    word_weights: Iterable[Iterable[tuple[str, float]]], columns: dict[str, int], *, extend: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays ``(indptr, indices, data)``, int64, int64 and
    float64, of the rows whose ``(subword, weight)`` pairs
    ``word_weights`` gives, one row per word and its pairs in their
    order, at the columns ``columns`` assigns their subwords.

    A subword not in ``columns`` is dropped, or with ``extend`` numbered
    next in a copy of ``columns``; ``columns`` takes the new entries in
    one update after the last row, so a row that raises leaves it as it
    was.
    """
    lookup = dict(columns) if extend else columns
    get = lookup.get
    indptr, indices, data = array("q", [0]), array("q"), array("d")  # 16 bytes an entry
    for pairs in word_weights:
        for subword, weight in pairs:
            key = get(subword)
            if key is None and extend:
                key = lookup[subword] = len(lookup)
            if key is not None:
                indices.append(key)
                data.append(weight)
        indptr.append(len(indices))
    if extend:
        columns.update(itertools.islice(lookup.items(), len(columns), None))
    return np.frombuffer(indptr, np.int64), np.frombuffer(indices, np.int64), np.frombuffer(data, np.float64)


def weight_rows(
    words: Sequence[str], table: SubwordTable, columns: dict[str, int], *, extend: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`subword_weights` of many words at once, in arrays, with the
    same bits (see the module docstring).

    Returns the CSR arrays ``(indptr, indices, data)``, int64, int64 and
    float64, of the word x subword weight matrix: row w holds the weights
    of ``words[w]`` in the order ``subword_weights`` gives them, at the
    columns ``columns`` assigns their subwords (numbers below 2**31).  A
    subword not in ``columns`` is dropped, or with ``extend`` appended to
    it, so that columns number subwords in first-seen order.

    A word that ``subword_weights`` rejects raises the same ``ValueError``
    before any work is done.  The words are looked up longest first (a
    stable sort on length), their spans as in ``_scaled_pass``, into one
    block that is passed whenever it holds ``_BLOCK_SPANS`` spans and once
    at the end, so the rounds of a block, one per position of its longest
    word, serve words of about that length.  With ``extend`` the lookups
    number new subwords in a copy of ``columns``, and only after the pass
    are those with a nonzero mass appended to it, in the order of their
    first entry in batch order.  The words whose plain floats may not be
    exact (see ``_array_pass``) take their weights from ``_scaled_pass``,
    written by one :func:`csr_rows` call at the columns their lookups
    found.
    """
    for word in words:
        _check_word(word)
    get, stems, eps = table.probs.get, table.stems, table.prob_eps
    known, lookup = len(columns), dict(columns) if extend else columns
    find = lookup.get
    block = _Block()
    counts = np.zeros(len(words), np.int64)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # per block: words, columns, weights
    inexact: list[int] = []  # words whose plain floats may not be exact
    for w in sorted(range(len(words)), key=lambda w: len(words[w]), reverse=True):
        word = words[w]
        n = len(word)
        block.words.append(w)
        firsts, probs, ends, keys = block.firsts, block.probs, block.ends, block.keys
        for i in range(n):
            firsts.append(len(probs))
            for j in range(i + 1, n + 1):
                sub = word[i:j]
                prob = get(sub)
                if prob is None:
                    if j == i + 1:
                        prob = eps
                    elif sub in stems:
                        continue
                    else:
                        break  # as in _scaled_pass
                key = find(sub, -1)
                if key < 0 and extend:
                    key = lookup[sub] = len(lookup)
                probs.append(prob)
                ends.append(j)
                keys.append(key)
        if len(probs) >= _BLOCK_SPANS:
            inexact += block.flush(words, counts, parts)
    if block.words:
        inexact += block.flush(words, counts, parts)
    fallback, key, weights = csr_rows((_scaled_pass(words[w], table)[3].items() for w in inexact), lookup)
    counts[inexact] = np.diff(fallback)
    parts.append((np.array(inexact, np.int64), key, weights))
    indptr = np.zeros(len(words) + 1, np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices, data = np.empty(indptr[-1], np.int64), np.empty(indptr[-1])
    while parts:
        batch, key, weights = parts.pop()
        entries = _ranges(indptr[batch], counts[batch])
        indices[entries], data[entries] = key, weights
    if extend:
        added = _renumber(indices, lookup, known)
        del lookup, find  # freed before columns grows
        columns.update(zip(added, range(known, known + len(added))))
    return indptr, indices, data


class _Block:
    """The lookups of the words that wait for a pass: each word's index
    in the batch, each start's first span, and each span's probability,
    end and key, the column of its subword or -1."""

    def __init__(self) -> None:
        self.words: list[int] = []
        self.firsts = array("i")
        # lists append faster than arrays and hold objects that exist anyway
        self.probs: list[float] = []
        self.ends: list[int] = []
        self.keys: list[int] = []

    def flush(self, words: Sequence[str], counts: np.ndarray, parts: list) -> list[int]:
        """Pass the block: set its words' entry counts in ``counts``, append
        their columns and weights to ``parts``, and start empty again.
        Returns the words whose plain floats may not be exact, which get
        no entries here."""
        batch = np.array(self.words)
        lens = np.fromiter((len(words[w]) for w in self.words), np.int32, len(batch))
        probs, ends, key = np.array(self.probs), np.array(self.ends, np.int32), np.array(self.keys, np.int32)
        per_start = np.diff(np.frombuffer(self.firsts, np.int32), append=len(probs))
        self.__init__()
        masses, totals, span_word, exact = _array_pass(lens, per_start, probs, ends)
        # a subword's masses, summed per word in span order, first seen first
        kept = np.flatnonzero(exact[span_word] & (key >= 0))
        span_word, key = span_word[kept], key[kept]
        width = int(key.max(initial=0)) + 1
        _, seen_at, merged_at = np.unique(
            span_word.astype(np.int64) * width + key, return_index=True, return_inverse=True
        )
        merged = np.zeros(len(seen_at))
        np.add.at(merged, merged_at, masses[kept])
        order = np.argsort(seen_at)
        seen = seen_at[order]
        counts[batch] = np.bincount(span_word[seen], minlength=len(batch))
        with np.errstate(under="ignore"):
            parts.append((batch[exact], key[seen], merged[order] / totals[span_word[seen]]))
        return batch[~exact].tolist()


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``starts[k]`` up to ``starts[k] + sizes[k]``, for each k
    in turn."""
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def _renumber(indices: np.ndarray, lookup: dict[str, int], known: int) -> np.ndarray:
    """Renumber the columns from ``known`` on, which ``lookup`` gave in the
    order of their first span, in the order of their first entry in
    ``indices``.  Returns their subwords in that order; a subword whose
    every span has zero mass is left out."""
    first = np.full(len(lookup), len(indices))
    np.minimum.at(first, indices, np.arange(len(indices)))
    new = known + np.flatnonzero(first[known:] < len(indices))
    new = new[np.argsort(first[new])]
    renumbered = np.arange(len(lookup))
    renumbered[new] = np.arange(known, known + len(new))
    indices[:] = renumbered[indices]
    return np.fromiter(itertools.islice(lookup, known, None), object, len(lookup) - known)[new - known]


def _array_pass(
    lens: np.ndarray, per_start: np.ndarray, probs: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both recursions over the words of ``lens`` in plain floats, from the
    span counts of their starts and the probabilities and ends of their
    spans, in the order of the lookups.  Returns each span's mass, each
    word's total of them, in span order, each span's word, and per word
    whether its masses are those of ``_scaled_pass`` times a power of two.

    They are when every product the pass forms is a normal float, and so
    is every mass over the word's partition Z, as ``_scaled_pass`` holds
    them.  A mass is a product forward * probability * backward, and the
    backward sum is 1 at the word's end and the forward sum 1 at its
    start, so ``min(fwd) * min(p) * min(bwd) >= 4 * tiny * max(1, Z)``
    (tiny the least normal float) bounds every product, sum and mass from
    below by 4 * tiny and every mass over Z by 2 * tiny, with room for
    rounding.  The sums add their terms in the order of ``_scaled_pass``;
    its rescalings drop only terms below 2**-1022 of a sum, which round
    away in both forms.  No sum overflows: a word's path sums are at most
    its 2**(n-1) segmentations."""
    lens = lens.astype(np.int32)
    # positions 0..n of every word in one flat array; a start is a position < n
    word_pos = np.cumsum(lens + 1, dtype=np.int32) - (lens + 1)
    start_word = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    start_pos = np.arange(len(start_word), dtype=np.int32) + start_word
    start_at = start_pos - word_pos[start_word]
    span_word = np.repeat(start_word, per_start)
    begin = np.repeat(start_pos, per_start)
    end = word_pos[span_word] + ends
    fwd, bwd = np.zeros(len(start_pos) + len(lens)), np.empty(len(start_pos) + len(lens))
    fwd[word_pos], bwd[word_pos + lens] = 1.0, 1.0
    with np.errstate(under="ignore"):
        # Backward: round d finishes the starts d before their word's end,
        # each adding its terms by ascending end; np.add.at adds in array
        # order (numpy's pairwise sums would not).
        for pos, at, to, prob in _rounds(lens[start_word] - start_at, per_start, start_pos, end, probs):
            total = np.zeros(len(pos))
            np.add.at(total, at, prob * bwd[to])
            bwd[pos] = total
        # Forward: round i pushes the forward sums of the i-th starts along
        # their spans, whose ends differ.
        for pos, at, to, prob in _rounds(start_at, per_start, start_pos, end, probs):
            fwd[to] += fwd[pos][at] * prob
        first_span = (np.cumsum(per_start) - per_start)[np.cumsum(lens) - lens]
        low = np.minimum.reduceat(fwd, word_pos) * np.minimum.reduceat(probs, first_span)
        low *= np.minimum.reduceat(bwd, word_pos)
        # in place, as (forward * probability) * backward, the order of _scaled_pass
        masses = np.multiply(probs, fwd[begin], out=probs)
        masses *= bwd[end]
        totals = np.zeros(len(lens))
        np.add.at(totals, span_word, masses)
    return masses, totals, span_word, low >= 4 * sys.float_info.min * np.maximum(1.0, bwd[word_pos])


def _rounds(
    key: np.ndarray, per_start: np.ndarray, start_pos: np.ndarray, *span_arrays: np.ndarray
) -> Iterator[tuple[np.ndarray, ...]]:
    """The rounds of a pass, one per value of the starts' ``key`` from the
    least up: the positions of the round's starts, per span the index of
    its start in the round, and the round's part of each of
    ``span_arrays``, start after start and each start's spans in their
    order."""
    order = np.argsort(key, kind="stable")
    sizes = per_start[order]
    counts = np.bincount(key)
    starts_lo = np.concatenate(([0], np.cumsum(counts)))
    first = np.cumsum(sizes) - sizes
    spans_lo = np.concatenate((first, [first[-1] + sizes[-1]]))[starts_lo]
    spans = np.repeat((np.cumsum(per_start) - per_start)[order] - first, sizes) + np.arange(sizes.sum())
    rank = np.repeat(np.arange(len(order)) - np.repeat(starts_lo[:-1], counts), sizes)
    pos = start_pos[order]
    span_arrays = [array[spans] for array in span_arrays]
    starts_lo, spans_lo = starts_lo.tolist(), spans_lo.tolist()
    for k in range(int(key.min()), len(counts)):
        a, b, c, d = starts_lo[k], starts_lo[k + 1], spans_lo[k], spans_lo[k + 1]
        yield (pos[a:b], rank[c:d], *(array[c:d] for array in span_arrays))


def segmentation_likelihood(
    word: str, seg: Segmentation, table: SubwordTable
) -> float:
    """Probability of one segmentation among all segmentations of ``word``."""
    _check_word(word)
    if not seg or any(not s for s in seg) or "".join(seg) != word:
        raise ValueError(f"segmentation {seg!r} does not spell {word!r}")
    _, forward, _, _ = _scaled_pass(word, table)
    return _likelihood(seg, table, forward)


def top_k_segmentations(
    word: str, table: SubwordTable, k: int
) -> list[tuple[Segmentation, float]]:
    """The ``k`` most likely segmentations, in descending order.

    Segmentations are ranked by the key (-log probability summed left to
    right, segment count, segments), so ties are broken by fewer segments,
    then lexicographic segment order.  Left to right, position i keeps the
    k best of the segmentations of ``word[:i]`` pushed to it, then pushes
    each kept one along every span that starts at i, as the forward pass
    does.  Extending prefixes by the same segment keeps their order, so
    the k best of the word are built from the k best prefixes, exactly
    unless rounding makes two different -log sums equal.  Fewer than k
    kept at the end are all the positive ones, and zero-probability ones
    pad the list in key order.  Likelihoods are normalized by the
    partition value.
    """
    if not 1 <= k <= MAX_TOP_K:
        raise ValueError(f"k must be in 1..{MAX_TOP_K}, got {k}")
    starts, forward, _, _ = _scaled_pass(word, table)
    log, ldexp = math.log, math.ldexp
    # pending[i]: (-log product, segment count, segments, (sub,)) of word[:i]
    pending: list[list[tuple[float, int, Segmentation, Segmentation]]] = [[(0.0, 0, (), ())]]
    pending += [[] for _ in word]
    for i, spans in enumerate(starts):
        # equal counts mean equal lengths, so (segments, (sub,)) orders like
        # segments + (sub,), which is built only for the k kept
        kept = [
            (neg_log, count, segments + tail)
            for neg_log, count, segments, tail in heapq.nsmallest(k, pending[i])
        ]
        pending[i] = []
        for j, m, e, sub in spans:
            log_prob, tail, push = log(ldexp(m, e)), (sub,), pending[j].append
            for neg_log, count, segments in kept:
                push((neg_log - log_prob, count + 1, segments, tail))
    ranked = [segments for _, _, segments in kept]
    listed = set(ranked)
    ranked += itertools.islice((seg for seg in _segmentations(word) if seg not in listed), k - len(ranked))
    return [(segments, _likelihood(segments, table, forward)) for segments in ranked]


def _segmentations(word: str) -> Iterator[Segmentation]:
    """Every segmentation of ``word``, lazily, by segment count and then
    cut positions; for a fixed count, segments order like their cuts."""
    n = len(word)
    for parts in range(n):
        for cuts in itertools.combinations(range(1, n), parts):
            yield tuple(word[i:j] for i, j in itertools.pairwise((0, *cuts, n)))


def enumerate_all_segmentations(word: str) -> list[Segmentation]:
    """All 2^(n-1) segmentations of ``word`` (guarded to short words),
    ordered by segment count and then segments."""
    _check_word(word, limit=MAX_ENUM_LEN)
    return list(_segmentations(word))
