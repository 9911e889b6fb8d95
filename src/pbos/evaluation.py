"""Word-similarity and affix-prediction evaluation.

Word similarity scores a model by the Spearman correlation between human
similarity judgments and cosine similarities of composed vectors, with a
zero score for pairs where either vector is numerically negligible.
Affix prediction reads the most eminent affix of a word off the subword
weights, against a seeded random baseline, reported as macro
precision/recall/F1 counted in one pass over the instances.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Hashable

import numpy as np

from . import lattice
from .subword_stats import SubwordTable

NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class SimilarityPair:
    word1: str
    word2: str
    human_score: float


@dataclass(frozen=True)
class Affix:
    """An affix from a closed inventory: its text and whether it anchors
    at the start (prefix) or the end (suffix) of a word."""

    text: str
    kind: str  # "prefix" | "suffix"

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("empty affix text")
        if self.kind not in ("prefix", "suffix"):
            raise ValueError(f"affix kind must be prefix or suffix, got {self.kind!r}")


@dataclass(frozen=True)
class AffixInstance:
    word: str
    gold: Affix


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their mean rank."""
    ordered = np.sort(values)
    return (np.searchsorted(ordered, values, "left") + np.searchsorted(ordered, values, "right") + 1) / 2.0


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation of finite scores, average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if xs.size < 2:
        raise ValueError("need at least two pairs")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("rank correlation undefined: a score is nan or infinite")
    rank_x, rank_y = _average_ranks(xs), _average_ranks(ys)
    if np.ptp(rank_x) == 0.0 or np.ptp(rank_y) == 0.0:
        raise ValueError("rank correlation undefined: zero variance in ranks")
    return float(np.corrcoef(rank_x, rank_y)[0, 1])


def word_similarity(model, pairs: Sequence[SimilarityPair]) -> float:
    """Spearman correlation of model cosine scores against human scores.

    Benchmark words are lowercased before composition.  A pair gets model
    score 0 when either composed vector has L2 norm below ``NORM_FLOOR``.
    """
    if not pairs:
        raise ValueError("no similarity pairs")
    # each distinct word is composed once, in one batch
    words = list(dict.fromkeys(word.lower() for pair in pairs for word in (pair.word1, pair.word2)))
    vectors = dict(zip(words, model.compose_many(words)))
    model_scores = []
    human_scores = []
    for pair in pairs:
        vec1 = vectors[pair.word1.lower()]
        vec2 = vectors[pair.word2.lower()]
        norm1 = float(np.linalg.norm(vec1))
        norm2 = float(np.linalg.norm(vec2))
        if norm1 < NORM_FLOOR or norm2 < NORM_FLOOR:
            score = 0.0
        else:
            score = float(vec1 @ vec2) / (norm1 * norm2)
        model_scores.append(score)
        human_scores.append(pair.human_score)
    return spearman(model_scores, human_scores)


def possible_affixes(word: str, inventory: Sequence[Affix]) -> list[Affix]:
    """Affixes positionally admissible for ``word``: a prefix must anchor at
    the start and a suffix at the end, and the word must be strictly longer
    than the affix."""
    found = []
    for affix in inventory:
        if len(word) <= len(affix.text):
            continue
        if affix.kind == "prefix" and word.startswith(affix.text):
            found.append(affix)
        elif affix.kind == "suffix" and word.endswith(affix.text):
            found.append(affix)
    return found


def filter_affix_dataset(
    instances: Sequence[AffixInstance], inventory: Sequence[Affix]
) -> list[AffixInstance]:
    """Drop trivial instances admitting fewer than two possible affixes,
    and instances whose gold label is the suffix "y" (always contained in
    "ly" and "ity")."""
    kept = []
    for instance in instances:
        if instance.gold.kind == "suffix" and instance.gold.text == "y":
            continue
        if len(possible_affixes(instance.word, inventory)) < 2:
            continue
        kept.append(instance)
    return kept


def affix_predict_pbos(
    table: SubwordTable, word: str, inventory: Sequence[Affix]
) -> Affix:
    """The possible affix carrying the highest subword weight.

    Ties break toward the higher base subword probability, then
    lexicographic affix text, then prefix before suffix.
    """
    candidates = possible_affixes(word, inventory)
    if not candidates:
        raise ValueError(f"no possible affix for {word!r}")
    weights = lattice.subword_weights(word, table)
    return min(
        candidates,
        key=lambda a: (-weights.get(a.text, 0.0), -table.lookup(a.text), a.text, a.kind),
    )


def affix_predict_random(
    word: str, inventory: Sequence[Affix], rng: random.Random | int
) -> Affix:
    """Uniform choice among the possible affixes, deterministic given seed."""
    candidates = possible_affixes(word, inventory)
    if not candidates:
        raise ValueError(f"no possible affix for {word!r}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    return candidates[rng.randrange(len(candidates))]


def macro_prf(
    golds: Sequence[Hashable],
    predictions: Sequence[Hashable],
    labels: Sequence[Hashable],
) -> tuple[float, float, float]:
    """Macro-averaged precision, recall, and F1 over ``labels``.

    Per-label metrics with no support (no predictions or no golds) count
    as 0 in the unweighted mean.
    """
    if len(golds) != len(predictions):
        raise ValueError("golds and predictions differ in length")
    hits = Counter(g for g, p in zip(golds, predictions) if g == p)
    gold_counts, predicted_counts = Counter(golds), Counter(predictions)
    scores = []
    for label in labels:
        tp = hits[label]
        precision = tp / predicted_counts[label] if predicted_counts[label] else 0.0
        recall = tp / gold_counts[label] if gold_counts[label] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append((precision, recall, f1))
    if not scores:
        raise ValueError("empty label set")
    precision, recall, f1 = (sum(column) / len(scores) for column in zip(*scores))
    return precision, recall, f1


def evaluate_affix_dataset(
    instances: Sequence[AffixInstance],
    inventory: Sequence[Affix],
    predictor: str = "pbos",
    table: SubwordTable | None = None,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Run a predictor over a (filtered) dataset and macro-score it; the
    predictor and the pbos table are checked before any instance is scored."""
    if predictor == "pbos":
        if table is None:
            raise ValueError("the pbos predictor needs a subword table")
        predict = partial(affix_predict_pbos, table, inventory=inventory)
    elif predictor == "random":
        predict = partial(affix_predict_random, inventory=inventory, rng=random.Random(seed))
    else:
        raise ValueError(f"unknown predictor {predictor!r}")
    predictions = [predict(instance.word) for instance in instances]
    return macro_prf([instance.gold for instance in instances], predictions, list(inventory))
