import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbos.embedding_model import PbosModel, SubwordEmbeddings, TrainConfig
from pbos.evaluation import (
    Affix,
    AffixInstance,
    SimilarityPair,
    affix_predict_pbos,
    affix_predict_random,
    evaluate_affix_dataset,
    filter_affix_dataset,
    macro_prf,
    possible_affixes,
    spearman,
    word_similarity,
)
from pbos.subword_stats import SubwordTable, build_table

INVENTORY = [
    Affix("re", "prefix"),
    Affix("un", "prefix"),
    Affix("able", "suffix"),
    Affix("ness", "suffix"),
    Affix("ly", "suffix"),
]


def char_model(vectors):
    """Model over single-character words: compose('a') == vectors['a']."""
    table = SubwordTable({c: 0.5 for c in vectors})
    embeddings = SubwordEmbeddings(list(vectors), np.array(list(vectors.values()), float))
    return PbosModel(table=table, embeddings=embeddings, config=TrainConfig())


# --- spearman -------------------------------------------------------------

def test_spearman_perfect_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_spearman_perfect_inverse():
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_hand_computed_value():
    # ranks differ by (1, 1, 1, 1): rho = 1 - 6*4 / (4*15) = 0.6
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [2])
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [5, 5, 5])


def test_spearman_handles_ties_with_average_ranks():
    # ys has a tie; average ranks keep the correlation well-defined
    value = spearman([1, 2, 3, 4], [1, 2, 2, 3])
    assert -1.0 <= value <= 1.0
    assert value == pytest.approx(0.9486832980505138)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spearman_rejects_a_score_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="nan or infinite"):
        spearman([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="nan or infinite"):
        spearman([1.0, 2.0, 3.0], [3.0, bad, 1.0])


def _loop_average_ranks(values):
    """1-based ranks, each tie given the mean of the positions it spans."""
    ordered = sorted(values)
    return [(ordered.index(v) + len(ordered) - ordered[::-1].index(v) + 1) / 2 for v in values]


@settings(max_examples=60)
@given(
    pairs=st.lists(
        st.tuples(
            st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 7.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=2,
        max_size=12,
    ),
)
def test_spearman_is_the_correlation_of_average_ranks(pairs):
    # ties, -0.0 against 0.0, and all-equal inputs against a loop reference
    xs, ys = (list(column) for column in zip(*pairs))
    rank_x, rank_y = _loop_average_ranks(xs), _loop_average_ranks(ys)
    if len(set(rank_x)) == 1 or len(set(rank_y)) == 1:
        with pytest.raises(ValueError, match="zero variance"):
            spearman(xs, ys)
    else:
        assert spearman(xs, ys) == float(np.corrcoef(rank_x, rank_y)[0, 1])


@settings(max_examples=40)
@given(
    xs=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=3,
        max_size=12,
        unique=True,
    ),
    ys=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=3,
        max_size=12,
        unique=True,
    ),
    scale=st.floats(min_value=0.1, max_value=10),
    shift=st.floats(min_value=-5, max_value=5),
)
def test_spearman_invariant_under_monotone_transforms(xs, ys, scale, shift):
    size = min(len(xs), len(ys))
    xs, ys = xs[:size], ys[:size]
    affine = [scale * x + shift for x in xs]
    cubed = [y**3 for y in ys]
    # rounding can merge distinct inputs (1.0 * 1e-93 + 1.0 == 1.0,
    # (1e-258) ** 3 == 0.0); it never reverses an order, so distinct
    # outputs keep the ranks of the inputs
    assume(len(set(affine)) == size and len(set(cubed)) == size)
    base = spearman(xs, ys)
    assert spearman(affine, ys) == pytest.approx(base, abs=1e-12)
    assert spearman(xs, cubed) == pytest.approx(base, abs=1e-12)


# --- word similarity ---------------------------------------------------------

def test_word_similarity_perfect_ordering_scores_one():
    model = char_model({
        "a": (1.0, 0.0),
        "b": (0.9, 0.4358898943540673),
        "c": (0.5, 0.8660254037844386),
        "d": (0.0, 1.0),
    })
    pairs = [
        SimilarityPair("a", "b", 9.0),
        SimilarityPair("a", "c", 5.0),
        SimilarityPair("a", "d", 1.0),
    ]
    assert word_similarity(model, pairs) == pytest.approx(1.0)


def test_word_similarity_lowercases_benchmark_words():
    model = char_model({"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 1.0)})
    pairs = [
        SimilarityPair("A", "B", 1.0),
        SimilarityPair("A", "C", 5.0),
        SimilarityPair("A", "A", 9.0),
    ]
    assert word_similarity(model, pairs) == pytest.approx(1.0)


def test_word_similarity_zero_vectors_signal_an_error():
    model = char_model({"a": (0.0, 0.0), "b": (0.0, 0.0)})
    pairs = [SimilarityPair("a", "b", 1.0), SimilarityPair("b", "a", 2.0)]
    with pytest.raises(ValueError):
        word_similarity(model, pairs)


def test_word_similarity_invariant_under_global_rescaling():
    vectors = {"a": (1.0, 0.2), "b": (0.3, 1.0), "c": (-0.5, 0.8), "d": (0.9, -0.1)}
    pairs = [
        SimilarityPair("a", "b", 3.0),
        SimilarityPair("a", "c", 1.0),
        SimilarityPair("b", "d", 2.0),
        SimilarityPair("c", "d", 4.0),
    ]
    base = word_similarity(char_model(vectors), pairs)
    scaled = word_similarity(
        char_model({c: (7.0 * v[0], 7.0 * v[1]) for c, v in vectors.items()}), pairs
    )
    assert scaled == pytest.approx(base, abs=1e-12)


def test_word_similarity_requires_pairs():
    with pytest.raises(ValueError):
        word_similarity(char_model({"a": (1, 0)}), [])


# --- affix possibility and filtering ------------------------------------------

@pytest.mark.parametrize("text, kind, message", [
    ("", "prefix", "empty affix text"),
    ("re", "infix", "affix kind must be prefix or suffix, got 'infix'"),
])
def test_an_affix_rejects_empty_text_and_an_unknown_kind(text, kind, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Affix(text, kind)


def test_possible_affixes_are_positional():
    assert possible_affixes("rename", INVENTORY) == [Affix("re", "prefix")]
    found = possible_affixes("replaceable", INVENTORY)
    assert set(found) == {Affix("re", "prefix"), Affix("able", "suffix")}
    # the word must be strictly longer than the affix
    assert possible_affixes("re", INVENTORY) == []
    assert possible_affixes("unable", INVENTORY) == [
        Affix("un", "prefix"),
        Affix("able", "suffix"),
    ]


def test_filter_drops_single_possibility_words():
    instances = [
        AffixInstance("rename", Affix("re", "prefix")),
        AffixInstance("replaceable", Affix("able", "suffix")),
    ]
    assert filter_affix_dataset(instances, INVENTORY) == [instances[1]]


def test_filter_drops_gold_suffix_y():
    inventory = INVENTORY + [Affix("y", "suffix")]
    instances = [AffixInstance("regretty", Affix("y", "suffix"))]
    assert filter_affix_dataset(instances, inventory) == []


def test_filter_empty_input():
    assert filter_affix_dataset([], INVENTORY) == []


# --- affix predictors -----------------------------------------------------------

def test_pbos_predictor_follows_subword_weight():
    freqs = {"replace": 100, "able": 100, "replaceable": 0, "re": 1}
    table = build_table({w: c for w, c in freqs.items() if c > 0})
    prediction = affix_predict_pbos(table, "replaceable", INVENTORY)
    assert prediction == Affix("able", "suffix")


def test_pbos_predictor_single_candidate():
    table = build_table({"re": 1, "name": 1})
    assert affix_predict_pbos(table, "rename", INVENTORY) == Affix("re", "prefix")


def test_pbos_predictor_tie_breaks_on_base_probability():
    # "a" and "b" tie exactly in weight (same product commuted); p("a") wins
    table = SubwordTable({"a": 0.4, "b": 0.2})
    inventory = [Affix("a", "prefix"), Affix("b", "suffix")]
    assert affix_predict_pbos(table, "ab", inventory) == Affix("a", "prefix")


def test_pbos_predictor_tie_breaks_lexicographically_then_by_kind():
    # same subword string under both kinds: identical weight and
    # probability, prefix sorts before suffix
    table = SubwordTable({"a": 0.5})
    inventory = [Affix("a", "suffix"), Affix("a", "prefix")]
    assert affix_predict_pbos(table, "aa", inventory) == Affix("a", "prefix")


def test_pbos_predictor_requires_a_candidate():
    with pytest.raises(ValueError):
        affix_predict_pbos(build_table({"xy": 1}), "xy", INVENTORY)


def test_random_predictor_is_deterministic_per_seed():
    word = "untestable"
    first = affix_predict_random(word, INVENTORY, 7)
    second = affix_predict_random(word, INVENTORY, 7)
    assert first == second


def test_random_predictor_single_candidate_ignores_seed():
    for seed in range(5):
        assert affix_predict_random("rename", INVENTORY, seed) == Affix("re", "prefix")


def test_random_predictor_is_roughly_uniform():
    word = "untestable"  # candidates: un- and -able
    rng = random.Random(0)
    draws = [affix_predict_random(word, INVENTORY, rng) for _ in range(10_000)]
    share = sum(1 for d in draws if d == Affix("un", "prefix")) / len(draws)
    assert abs(share - 0.5) < 0.05


# --- macro precision / recall / F1 -----------------------------------------------

def test_macro_prf_all_correct():
    assert macro_prf(["A", "B"], ["A", "B"], ["A", "B"]) == (1.0, 1.0, 1.0)


def test_macro_prf_hand_confusion():
    got = macro_prf(["A", "A", "B", "B"], ["A", "B", "A", "B"], ["A", "B"])
    assert got == pytest.approx((0.5, 0.5, 0.5))


def test_macro_prf_no_true_positives():
    assert macro_prf(["A", "A"], ["B", "B"], ["A", "B"]) == (0.0, 0.0, 0.0)


def test_macro_prf_is_permutation_invariant():
    golds = ["A", "B", "A", "C", "B"]
    preds = ["A", "A", "B", "C", "B"]
    base = macro_prf(golds, preds, ["A", "B", "C"])
    order = [3, 0, 4, 1, 2]
    shuffled = macro_prf([golds[i] for i in order], [preds[i] for i in order], ["A", "B", "C"])
    assert shuffled == pytest.approx(base)


def test_macro_prf_length_mismatch():
    with pytest.raises(ValueError):
        macro_prf(["A"], ["A", "B"], ["A", "B"])


def test_macro_prf_rejects_an_empty_label_set():
    with pytest.raises(ValueError, match="^empty label set$"):
        macro_prf(["A"], ["A"], [])


def test_affix_predict_random_rejects_a_word_with_no_possible_affix():
    with pytest.raises(ValueError, match="^no possible affix for 'kind'$"):
        affix_predict_random("kind", INVENTORY, 0)


def _macro_prf_by_scans(golds, predictions, labels):
    """Reference: each label's tp, fp and fn counted by a scan of the pairs."""
    precisions, recalls, f1s = [], [], []
    for label in labels:
        tp = sum(1 for g, p in zip(golds, predictions) if p == label and g == label)
        fp = sum(1 for g, p in zip(golds, predictions) if p == label and g != label)
        fn = sum(1 for g, p in zip(golds, predictions) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    count = len(f1s)
    return (sum(precisions) / count, sum(recalls) / count, sum(f1s) / count)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("ABCD"), st.sampled_from("ABCDE")), max_size=40),
    st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=8),
)
def test_macro_prf_equals_a_per_label_scan_bit_for_bit(pairs, labels):
    golds = [gold for gold, _ in pairs]
    predictions = [predicted for _, predicted in pairs]
    assert macro_prf(golds, predictions, labels) == _macro_prf_by_scans(golds, predictions, labels)


# --- dataset runner ----------------------------------------------------------------

def test_evaluate_affix_dataset_runs_both_predictors():
    table = build_table({"grave": 50, "able": 80, "re": 40, "un": 40, "ly": 60})
    instances = [
        AffixInstance("regravely", Affix("re", "prefix")),
        AffixInstance("ungraveable", Affix("able", "suffix")),
    ]
    assert filter_affix_dataset(instances, INVENTORY) == instances
    pbos_scores = evaluate_affix_dataset(instances, INVENTORY, predictor="pbos", table=table)
    random_scores = evaluate_affix_dataset(instances, INVENTORY, predictor="random", seed=3)
    assert all(0.0 <= v <= 1.0 for v in pbos_scores + random_scores)
    with pytest.raises(ValueError):
        evaluate_affix_dataset(instances, INVENTORY, predictor="pbos", table=None)
    with pytest.raises(ValueError):
        evaluate_affix_dataset(instances, INVENTORY, predictor="nope")


@pytest.mark.parametrize("predictor, table", [
    ("nope", build_table({"re": 1})),
    ("pbos", None),
])
def test_evaluate_affix_dataset_checks_its_predictor_with_no_instances(predictor, table):
    with pytest.raises(ValueError):
        evaluate_affix_dataset([], INVENTORY, predictor=predictor, table=table)
