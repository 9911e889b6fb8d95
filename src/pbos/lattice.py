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
likelihoods and rankings keep full precision.

The k most likely segmentations come from a left-to-right DP that keeps a
k-best list per position (Huang & Chiang, "Better k-best parsing", 2005).
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

from .subword_stats import SubwordTable

# A segmentation is an ordered tuple of segments whose concatenation
# restores the source word.
Segmentation = tuple[str, ...]

MAX_WORD_LEN = 1000  # the DP is cheap but unbounded input is abuse
MAX_ENUM_LEN = 20    # exhaustive enumeration is O(2^n)

# A nonzero span starting at i: (j, mantissa, exponent, word[i:j]), where
# mantissa * 2**exponent is the probability of word[i:j].
_Span = tuple[int, float, int, str]

# Scaled path sums: mantissas and exponents per position.
_Sums = tuple[list[float], list[int]]

# The exponent an empty sum starts from, below that of any float product.
_EMPTY_EXP = -sys.maxsize


@dataclass(frozen=True)
class LatticeResult:
    """Forward/backward sums and normalized subword weights for one word.

    ``forward[i]`` sums segment-probability products over all segmentations
    of ``word[:i]`` (``forward[0] == 1``); ``backward[i]`` does the same for
    ``word[i:]`` (``backward[n] == 1``).  ``partition`` is the total mass of
    all segmentations, i.e. ``forward[n]``.  These three are plain floats,
    so on long words they underflow to 0.0.  ``weights`` maps each subword
    to its normalized marginal mass, accumulated over repeated occurrences,
    and sums to 1; it is computed from the scaled sums, so it keeps full
    precision when ``partition`` has underflowed.
    """

    word: str
    forward: list[float]
    backward: list[float]
    partition: float
    weights: dict[str, float]


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
    ``fwd_m[i] * 2**fwd_e[i]`` and ``backward`` the sum out of it; a
    mantissa of 0.0 means no path.

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
            if prob:
                m, e = frexp(prob)
                out.append((j, m, e, sub))
                right = bwd_m[j]
                if right:
                    e += bwd_e[j]
                    if e > top:
                        acc, top = ldexp(acc, top - e) + m * right, e
                    else:
                        acc += ldexp(m * right, e - top)
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
        if not left:
            continue
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
    if not norm_m:
        raise ValueError("no segmentation has positive probability")
    mantissa, exponent = 1.0, 0
    for segment in seg:
        mantissa, shift = math.frexp(mantissa * table.lookup(segment))
        exponent += shift
    return math.ldexp(mantissa / norm_m, exponent - norm_e)


def forward_sums(word: str, table: SubwordTable) -> list[float]:
    """Path sums over all segmentations of every prefix of ``word``."""
    _, forward, _, _ = _scaled_pass(word, table)
    return list(map(math.ldexp, *forward))


def backward_sums(word: str, table: SubwordTable) -> list[float]:
    """Mirror of :func:`forward_sums`, accumulated from the right end."""
    _, _, backward, _ = _scaled_pass(word, table)
    return list(map(math.ldexp, *backward))


def partition(word: str, table: SubwordTable) -> float:
    """Total probability mass over all segmentations of ``word``."""
    _, (fwd_m, fwd_e), _, _ = _scaled_pass(word, table)
    return math.ldexp(fwd_m[-1], fwd_e[-1])


def subword_weights(word: str, table: SubwordTable) -> LatticeResult:
    """Normalized marginal weight of every subword of ``word``.

    Each occurrence of a subword at span (i, j) contributes
    ``prob * forward[i] * backward[j]``; occurrences of the same string
    accumulate under one key.  Weights are normalized to sum to 1 over all
    subwords.  Zero-probability subwords are omitted.
    """
    _, (fwd_m, fwd_e), (bwd_m, bwd_e), weights = _scaled_pass(word, table)
    ldexp = math.ldexp
    return LatticeResult(
        word=word,
        forward=list(map(ldexp, fwd_m, fwd_e)),
        backward=list(map(ldexp, bwd_m, bwd_e)),
        partition=ldexp(fwd_m[-1], fwd_e[-1]),
        weights=weights,
    )


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
    then lexicographic segment order.  Position j keeps the k best
    segmentations of ``word[:j]``.  Extending prefixes by the same segment
    keeps their order, so the k best of the word are built from the k best
    prefixes, exactly unless rounding makes two different -log sums equal.
    Zero-probability segments join a position's candidates only while it
    has fewer than k of positive probability.  Likelihoods are normalized
    by the partition value.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    starts, forward, _, _ = _scaled_pass(word, table)
    log, ldexp, inf = math.log, math.ldexp, math.inf
    ends: list[list[tuple[int, float, str]]] = [[] for _ in starts]
    for i, spans in enumerate(starts):
        for j, m, e, sub in spans:
            ends[j].append((i, log(ldexp(m, e)), sub))
    # best[j]: sorted (-log product, segment count, segments) of word[:j]
    best: list[list[tuple[float, int, Segmentation]]] = [[(0.0, 0, ())]]
    for j in range(1, len(word) + 1):
        candidates = []
        for i, log_prob, sub in ends[j]:
            for neg_log, count, segments in best[i]:
                candidates.append((neg_log - log_prob, count + 1, segments, sub))
        if sum(c[0] < inf for c in candidates) < k:
            nonzero = {span[0] for span in ends[j]}
            for i in range(j):
                if i not in nonzero:
                    sub = word[i:j]
                    for _, count, segments in best[i]:
                        candidates.append((inf, count + 1, segments, sub))
        # equal counts mean equal lengths, so (segments, sub) orders like
        # segments + (sub,), which is built only for the k kept
        best.append([
            (neg_log, count, segments + (sub,))
            for neg_log, count, segments, sub in heapq.nsmallest(k, candidates)
        ])
    return [(segments, _likelihood(segments, table, forward)) for _, _, segments in best[-1]]


def enumerate_all_segmentations(word: str) -> list[Segmentation]:
    """All 2^(n-1) segmentations of ``word`` (guarded to short words)."""
    _check_word(word, limit=MAX_ENUM_LEN)
    n = len(word)
    out: list[Segmentation] = []

    def extend(start: int, acc: Segmentation) -> None:
        if start == n:
            out.append(acc)
            return
        for j in range(start + 1, n + 1):
            extend(j, acc + (word[start:j],))

    extend(0, ())
    return out
