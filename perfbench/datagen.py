"""Seeded synthetic inputs for the benchmark.

Words are built from a random morpheme inventory (prefixes, stems,
suffixes) so that the subword table has the affix structure the model is
meant to exploit.  Target vectors are sums of per-morpheme vectors plus a
little noise, which SGD on subword vectors can fit.  Query words are new
combinations of the same morphemes (out of vocabulary), plus a tail of
long compounds and a few opaque hex tokens whose characters are rare
enough in the table that the lattice partition underflows to 0.0.

The corpus (lexicon, frequency list, targets) comes from the fixed
``CORPUS_SEED``, so every run measures the program on the same training
data; the workload seed draws what the workloads feed it (query files,
streams, batches).  Across five corpus seeds, corpus differences alone
moved top-k search work by ~8%, as much as the seeds' query draws did.
Only ``random.Random`` and ``numpy.random.default_rng`` are used, so the
same seed gives byte-identical files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

CONSONANTS = "bcdfghklmnprstvw"
VOWELS = "aeiou"
HEX = "0123456789abcdef"
DIGITS = "0123456789"

# Sizes of the research baseline (an 11.2k-word frequency list, 5k targets
# and 5k distinct out-of-vocabulary queries), except that vectors have
# dim 50 rather than 300: model text IO grows linearly with dim, and at
# 300 one pipeline takes ~35 s, too long to repeat within one run.
FREQ_WORDS = 11_200
TARGET_WORDS = 5_000
DIM = 50
QUERY_WORDS = 5_000

# Query tail: shares of distinct queries that are long compounds or
# opaque tokens.  Tail lengths are evenly spaced rather than random, so
# tail percentiles do not move with the seed.
COMPOUND_SHARE = 0.02
OPAQUE_SHARE = 0.001
COMPOUND_LEN = (40, 130)
OPAQUE_LEN = (150, 300)
ZIPF_OFFSET = 100
CORPUS_SEED = 0


@dataclass
class Lexicon:
    prefixes: list[str]
    stems: list[str]
    suffixes: list[str]


@dataclass
class Corpus:
    freqs: list[tuple[str, int]]
    targets: dict[str, np.ndarray]
    lexicon: Lexicon
    morphemes: dict[str, tuple[str, ...]]


def _syllable(rng: random.Random) -> str:
    out = rng.choice(CONSONANTS) + rng.choice(VOWELS)
    if rng.random() < 0.35:
        out += rng.choice(CONSONANTS)
    return out


def _distinct(rng: random.Random, n: int, make) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < n:
        seen.setdefault(make(rng))
    return list(seen)


def make_lexicon(rng: random.Random) -> Lexicon:
    prefixes = _distinct(rng, 40, lambda r: _syllable(r) if r.random() < 0.6 else r.choice(VOWELS) + _syllable(r))
    suffixes = _distinct(rng, 40, lambda r: r.choice(VOWELS) + r.choice(CONSONANTS) + ("" if r.random() < 0.5 else r.choice(VOWELS)))
    stems = _distinct(rng, 1_800, lambda r: "".join(_syllable(r) for _ in range(r.choice((1, 2, 2, 3)))))
    return Lexicon(prefixes=prefixes, stems=stems, suffixes=suffixes)


def _compose_parts(rng: random.Random, lex: Lexicon, stems: list[str]) -> tuple[str, ...]:
    shape = rng.random()
    stem = rng.choice(stems)
    if shape < 0.25:
        return (stem,)
    if shape < 0.40:
        return (rng.choice(lex.prefixes), stem)
    if shape < 0.65:
        return (stem, rng.choice(lex.suffixes))
    if shape < 0.80:
        return (rng.choice(lex.prefixes), stem, rng.choice(lex.suffixes))
    if shape < 0.93:
        return (stem, rng.choice(stems))
    return (stem, rng.choice(stems), rng.choice(lex.suffixes))


def make_corpus() -> Corpus:
    """Frequency list with Zipfian counts plus target vectors for a
    random subset of its words."""
    rng = random.Random(CORPUS_SEED)
    lex = make_lexicon(rng)
    # Stems split in two: the vocabulary uses the first part, queries may
    # also use the held-out stems (their pieces still occur as subwords).
    vocab_stems = lex.stems[:1_500]
    morphemes: dict[str, tuple[str, ...]] = {}
    while len(morphemes) < FREQ_WORDS - 20:
        parts = _compose_parts(rng, lex, vocab_stems)
        morphemes.setdefault("".join(parts), parts)
    words = list(morphemes)
    rng.shuffle(words)
    # Zipf-Mandelbrot counts over random ranks (the offset flattens the
    # head); the rare hex words give digits a tiny but nonzero
    # probability, so long hex tokens underflow the lattice.
    freqs = [(word, int(2e8 / (rank + ZIPF_OFFSET) ** 1.05) + 1) for rank, word in enumerate(words)]
    freqs += [("x" + "".join(rng.choice(DIGITS) for _ in range(rng.randint(2, 4))), 1) for _ in range(20)]

    vec_rng = np.random.default_rng(CORPUS_SEED)
    inventory = sorted(set(lex.prefixes) | set(lex.stems) | set(lex.suffixes))
    scale = 1.0 / math.sqrt(DIM)
    morpheme_vecs = {m: vec_rng.standard_normal(DIM) * scale for m in inventory}
    chosen = rng.sample(words, TARGET_WORDS)
    targets = {}
    for word in chosen:
        vec = sum(morpheme_vecs[m] for m in morphemes[word])
        targets[word] = vec + vec_rng.standard_normal(DIM) * (0.1 * scale)
    return Corpus(freqs=freqs, targets=targets, lexicon=lex, morphemes=morphemes)


def spaced(lo: int, hi: int, count: int) -> list[int]:
    """``count`` lengths evenly spaced over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _compound(rng: random.Random, lex: Lexicon, length: int) -> str:
    word = ""
    while len(word) < length:
        word += rng.choice(lex.stems)
        if rng.random() < 0.3:
            word += rng.choice(lex.suffixes)
    return word[:length]


def _opaque(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(HEX) for _ in range(length))


def oov_words(
    corpus: Corpus, rng: random.Random, n: int, compounds: int, opaque: int
) -> list[str]:
    """``n`` distinct words absent from the frequency list: ``compounds``
    long compounds, ``opaque`` hex tokens, the rest ordinary affixed
    words (held-out stems allowed)."""
    known = set(corpus.morphemes)
    lex = corpus.lexicon
    out: dict[str, None] = {}

    def add(make) -> None:
        while True:
            word = make()
            if word not in known and word not in out:
                out[word] = None
                return

    for length in spaced(*OPAQUE_LEN, opaque) if opaque else []:
        add(lambda: _opaque(rng, length))
    for length in spaced(*COMPOUND_LEN, compounds) if compounds else []:
        add(lambda: _compound(rng, lex, length))
    while len(out) < n:
        add(lambda: "".join(_compose_parts(rng, lex, lex.stems)))
    words = list(out)
    rng.shuffle(words)
    return words


def query_words(corpus: Corpus, seed: int, n: int) -> list[str]:
    """``n`` distinct out-of-vocabulary query words with the long tail."""
    rng = random.Random(f"queries:{seed}")
    return oov_words(
        corpus, rng, n,
        compounds=round(n * COMPOUND_SHARE),
        opaque=max(1, round(n * OPAQUE_SHARE)),
    )


def serve_stream(corpus: Corpus, seed: int, calls: int, distinct_share: float) -> list[str]:
    """A shuffled Zipfian query stream of ``calls`` words of which a
    ``distinct_share`` share are first occurrences.  Opaque tokens (0.1%
    of calls) occur once each; long compounds are in the Zipf tail."""
    rng = random.Random(f"serve:{seed}")
    opaque = max(1, round(calls * OPAQUE_SHARE))
    distinct = round(calls * distinct_share)
    compounds = round(distinct * 0.1)
    vocab = oov_words(corpus, rng, distinct - opaque, compounds=compounds, opaque=0)
    # Compounds sit in the tail.  The head is stratified by length (rank r
    # takes the word at quantile 0.5 + r * 0.618 of the length order) and
    # flattened by an offset, so the frequency-weighted length mix, and
    # with it the latency percentiles, do not hinge on a few words.
    long_words = [w for w in vocab if len(w) >= COMPOUND_LEN[0]]
    short_words = sorted((w for w in vocab if len(w) < COMPOUND_LEN[0]), key=len)
    keys = [(0.5 + r * 0.6180339887) % 1.0 for r in range(len(short_words))]
    head: list[str] = [""] * len(short_words)
    for k, rank in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        head[rank] = short_words[k]
    ranked = head + long_words
    weights = [1.0 / (rank + 20) ** 1.1 for rank in range(len(ranked))]
    spare = calls - opaque - len(ranked)
    total = sum(weights)
    counts = [1 + int(spare * w / total) for w in weights]
    # Hand out the remainder by largest fractional part (deterministic).
    short = calls - opaque - sum(counts)
    order = sorted(range(len(ranked)), key=lambda i: -((spare * weights[i] / total) % 1.0))
    for i in order[:short]:
        counts[i] += 1
    stream = [w for w, c in zip(ranked, counts) for _ in range(c)]
    known = set(corpus.morphemes) | set(ranked)
    for length in spaced(*OPAQUE_LEN, opaque):
        while (token := _opaque(rng, length)) in known:
            pass
        known.add(token)
        stream.append(token)
    rng.shuffle(stream)
    return stream


def segment_batch(corpus: Corpus, seed: int, per_length: int, lengths: range) -> list[str]:
    """A 1-character word followed by ``per_length`` distinct
    out-of-vocabulary words of each length in ``lengths``, shuffled."""
    rng = random.Random(f"segment:{seed}")
    known = set(corpus.morphemes)
    lex = corpus.lexicon
    batch: list[str] = []
    seen: set[str] = set()
    for length in lengths:
        made = 0
        while made < per_length:
            word = _compound(rng, lex, length)
            if word in known or word in seen:
                continue
            seen.add(word)
            batch.append(word)
            made += 1
    rng.shuffle(batch)
    return [rng.choice(VOWELS)] + batch


def write_freqs(freqs: list[tuple[str, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{word}\t{count}\n" for word, count in freqs)


def write_targets(targets: dict[str, np.ndarray], path) -> None:
    dim = len(next(iter(targets.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(targets)} {dim}\n")
        for word, vec in targets.items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def write_words(words: list[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(word + "\n" for word in words)
