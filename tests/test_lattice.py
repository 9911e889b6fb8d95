import io
import itertools
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pbos import lattice
from pbos.io_formats import read_subwords
from pbos.lattice import (
    MAX_ENUM_LEN,
    MAX_TOP_K,
    MAX_WORD_LEN,
    backward_sums,
    enumerate_all_segmentations,
    forward_sums,
    partition,
    segmentation_likelihood,
    subword_weights,
    top_k_segmentations,
    weight_rows,
)
from pbos.subword_stats import SubwordTable, build_table

UNIT = SubwordTable({"a": 1.0, "b": 1.0, "ab": 1.0})


def random_instance(rng: random.Random, max_len: int = 12):
    """A random word plus a random probability table over a subset of its
    substrings (single characters always resolve through prob_eps)."""
    alphabet = "abcd"
    n = rng.randint(1, max_len)
    word = "".join(rng.choice(alphabet) for _ in range(n))
    probs = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                probs[word[i:j]] = rng.uniform(1e-3, 1.0)
    return word, SubwordTable(probs, prob_eps=0.01)


# --- forward / backward sums ---------------------------------------------

def test_forward_single_edge():
    assert forward_sums("a", SubwordTable({"a": 0.5})) == [1.0, 0.5]


def test_forward_two_chars_unit_probs():
    assert forward_sums("ab", UNIT) == [1.0, 1.0, 2.0]


def test_forward_two_chars_fractional_probs():
    table = SubwordTable({"a": 0.5, "b": 0.5, "ab": 0.25})
    assert forward_sums("ab", table) == [1.0, 0.5, 0.5]


def test_backward_single_edge():
    assert backward_sums("a", SubwordTable({"a": 0.5})) == [0.5, 1.0]


def test_backward_two_chars_unit_probs():
    assert backward_sums("ab", UNIT) == [2.0, 1.0, 1.0]


def test_forward_and_backward_agree_on_partition():
    rng = random.Random(7)
    for _ in range(25):
        word, table = random_instance(rng)
        fwd = forward_sums(word, table)
        bwd = backward_sums(word, table)
        assert fwd[-1] == pytest.approx(bwd[0], abs=1e-12)


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        forward_sums("", UNIT)
    with pytest.raises(ValueError):
        backward_sums("", UNIT)
    with pytest.raises(ValueError):
        subword_weights("", UNIT)


def test_word_length_guard():
    with pytest.raises(ValueError):
        subword_weights("a" * (MAX_WORD_LEN + 1), SubwordTable({"a": 0.5}))


# --- subword weights -------------------------------------------------------

def test_single_char_word_has_unit_weight():
    table = SubwordTable({"a": 0.7})
    assert subword_weights("a", table) == {"a": 1.0}
    assert partition("a", table) == 0.7


def test_equal_unit_probs_give_equal_thirds():
    assert subword_weights("ab", UNIT) == pytest.approx({"a": 1 / 3, "b": 1 / 3, "ab": 1 / 3})


def test_general_equal_probs_match_brute_force():
    # with p(a)=p(b)=p(ab)=c the masses are (c^2, c^2, c): shorter paths
    # carry relatively more mass as c shrinks
    for c in (0.25, 0.5, 0.9):
        table = SubwordTable({"a": c, "b": c, "ab": c})
        got = subword_weights("ab", table)
        expected = oracles.brute_weights("ab", table)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got["ab"] == pytest.approx(1 / (2 * c + 1), abs=1e-12)


def test_weights_match_brute_force_on_random_instances():
    rng = random.Random(123)
    for _ in range(40):
        word, table = random_instance(rng, max_len=9)
        weights = subword_weights(word, table)
        expected = oracles.brute_weights(word, table)
        assert set(weights) == set(expected)
        for sub, value in expected.items():
            assert weights[sub] == pytest.approx(value, abs=1e-10)
        assert partition(word, table) == pytest.approx(
            oracles.brute_partition(word, table), abs=1e-10
        )


def test_weights_sum_to_one():
    rng = random.Random(5)
    for _ in range(30):
        word, table = random_instance(rng)
        weights = subword_weights(word, table)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_unique_occurrence_factorization():
    table = SubwordTable({"a": 0.4, "b": 0.2, "ab": 0.3})
    weights = subword_weights("ab", table)
    forward, backward = forward_sums("ab", table), backward_sums("ab", table)
    # each subword occurs once: its mass is prob * forward[i] * backward[j]
    masses = {
        "a": 0.4 * forward[0] * backward[1],
        "b": 0.2 * forward[1] * backward[2],
        "ab": 0.3 * forward[0] * backward[2],
    }
    total = sum(masses.values())
    for sub, mass in masses.items():
        assert weights[sub] == pytest.approx(mass / total, abs=1e-15)


def test_underflowed_partition_falls_back_to_log_space():
    word = "z" * 300
    table = SubwordTable({}, prob_eps=0.01)
    weights = subword_weights(word, table)
    # only the all-single-character segmentation has positive mass
    assert partition(word, table) == 0.0
    assert weights == pytest.approx({"z": 1.0})
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_weight_rows_hold_the_bits_and_order_of_subword_weights():
    rng = random.Random(9)
    instances = [random_instance(rng, max_len=24) for _ in range(30)]
    # one table over all the words, so that their subwords share columns
    table = SubwordTable({sub: prob for _, t in instances for sub, prob in t.probs.items()}, prob_eps=1e-3)
    words = [word for word, _ in instances] + ["ab" * 100, instances[0][0]]
    columns: dict[str, int] = {}
    indptr, indices, data = weight_rows(words, table, columns, extend=True)
    names = list(columns)
    for row, word in enumerate(words):
        lo, hi = indptr[row], indptr[row + 1]
        entries = list(zip([names[column] for column in indices[lo:hi]], data[lo:hi].tolist()))
        assert entries == list(subword_weights(word, table).items()), word
    # without extend the columns stay as they are and the other subwords drop out
    kept = dict(itertools.islice(columns.items(), 0, None, 2))
    indptr, indices, data = weight_rows(words, table, kept, extend=False)
    assert len(kept) == (len(columns) + 1) // 2
    for row, word in enumerate(words):
        lo, hi = indptr[row], indptr[row + 1]
        expected = [(kept[sub], weight) for sub, weight in subword_weights(word, table).items() if sub in kept]
        assert list(zip(indices[lo:hi].tolist(), data[lo:hi].tolist())) == expected, word


@pytest.mark.parametrize("stage", ["_array_pass", "_ranges"])
def test_weight_rows_that_raise_after_the_lookups_leave_the_columns_as_they_were(monkeypatch, stage):
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(lattice, stage, fail)
    table = build_table({"banana": 3, "bandana": 2, "nab": 1})
    columns = {"zz": 0}
    with pytest.raises(MemoryError):
        weight_rows(["banana", "bandana", "nab"], table, columns, extend=True)
    assert columns == {"zz": 0}


def exact_weights(word, table):
    """Subword weights from a forward/backward DP in exact rationals."""
    n = len(word)
    probs = {
        (i, j): Fraction(table.lookup(word[i:j]))
        for i in range(n) for j in range(i + 1, n + 1)
    }
    spans = [(i, j, p) for (i, j), p in probs.items() if p]
    fwd = [Fraction(1)] + [Fraction(0)] * n
    for i, j, p in sorted(spans, key=lambda span: span[1]):
        fwd[j] += fwd[i] * p
    bwd = [Fraction(0)] * n + [Fraction(1)]
    for i, j, p in sorted(spans, key=lambda span: -span[0]):
        bwd[i] += p * bwd[j]
    mass = {}
    for i, j, p in spans:
        mass[word[i:j]] = mass.get(word[i:j], 0) + fwd[i] * p * bwd[j]
    total = sum(mass.values())
    return {sub: value / total for sub, value in mass.items()}


@pytest.mark.parametrize("probs, word", [
    ({"x": 1e-5, "y": 1e-5, "xy": 1e-5}, "xy" * 64),
    ({"x": 1e-3, "y": 1e-3, "xy": 1e-5}, "xy" * 65),
], ids=["equal-probs", "xy-dominant"])
def test_weights_stay_exact_when_the_partition_is_subnormal(probs, word):
    table = SubwordTable(probs)
    weights = subword_weights(word, table)
    assert 0.0 < partition(word, table) < sys.float_info.min
    expected = exact_weights(word, table)
    assert set(weights) == set(expected)
    for sub, value in expected.items():
        assert weights[sub] == pytest.approx(float(value), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weights_property_against_oracle(data):
    word = data.draw(st.text(alphabet="ab", min_size=1, max_size=8))
    rng = random.Random(data.draw(st.integers(0, 2**31)))
    probs = {}
    for i in range(len(word)):
        for j in range(i + 1, len(word) + 1):
            if rng.random() < 0.5:
                probs[word[i:j]] = rng.uniform(0.01, 1.0)
    table = SubwordTable(probs, prob_eps=0.05)
    got = subword_weights(word, table)
    expected = oracles.brute_weights(word, table)
    assert got == pytest.approx(expected, abs=1e-10)


# --- tables that are not prefix-closed ---------------------------------------
# The pass stops a start at the first span that begins no key; these tables
# hold keys whose shorter prefixes are absent, so the stop must look past them.

def assert_matches_oracles(word, table, k):
    got = subword_weights(word, table)
    expected = exact_weights(word, table)
    assert set(got) == set(expected)
    for sub, value in expected.items():
        assert got[sub] == pytest.approx(float(value), rel=1e-12)
    # rank by exact rationals; near-ties may order differently in floats,
    # so the k likelihoods are compared, and each one to its segmentation
    exact = {
        seg: math.prod(Fraction(table.lookup(s)) for s in seg)
        for seg in enumerate_all_segmentations(word)
    }
    total = sum(exact.values())
    best = top_k_segmentations(word, table, k)
    assert len({seg for seg, _ in best}) == len(best) == min(k, len(exact))
    for seg, prob in best:
        assert prob == pytest.approx(float(exact[seg] / total), rel=1e-9, abs=1e-300)
    ranked = sorted((value / total for value in exact.values()), reverse=True)[:k]
    assert [prob for _, prob in best] == pytest.approx([float(v) for v in ranked], rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weights_and_top_k_on_tables_that_are_not_prefix_closed(data):
    word = data.draw(st.text(alphabet="abc", min_size=3, max_size=9))
    rng = random.Random(data.draw(st.integers(0, 2**31)))
    spans = {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}
    probs = {sub: rng.uniform(0.01, 1.0) for sub in sorted(spans) if rng.random() < 0.5}
    # a key of three or more characters without its prefix one shorter
    key = rng.choice(sorted(sub for sub in spans if len(sub) >= 3))
    probs[key] = rng.uniform(0.01, 1.0)
    probs.pop(key[:-1], None)
    table = SubwordTable(probs, prob_eps=0.05)
    assert table.stems is not table.probs
    assert_matches_oracles(word, table, data.draw(st.integers(1, 6)))


def test_stems_of_a_table_that_is_not_prefix_closed():
    table = SubwordTable({"abcd": 0.5, "x": 0.5, "xy": 0.25})
    assert table.stems == {"ab", "abc", "abcd", "xy"}


@pytest.mark.parametrize("max_len", [None, 3])
def test_a_counted_table_is_its_own_stems(max_len):
    table = build_table({"banana": 3, "bandana": 2}, max_len=max_len)
    assert table.stems is table.probs


def test_the_fallback_probability_cancels_on_counted_tables():
    # a counted table holds every substring of its words, so a character
    # it lacks lies in no key and every segmentation covers it by itself
    rng = random.Random(19)
    for index in range(200):
        words = ["".join(rng.choices("abcd", k=rng.randint(1, 8))) for _ in range(rng.randint(1, 10))]
        table = build_table({word: rng.randint(1, 50) for word in words}, max_len=(None, 2, 3)[index % 3])
        other = replace(table, prob_eps=0.3)
        for _ in range(10):
            word = "".join(rng.choices("abcdxy", k=rng.randint(1, 30)))
            weights, other_weights = subword_weights(word, table), subword_weights(word, other)
            assert list(weights) == list(other_weights)
            assert all(math.isclose(weights[sub], other_weights[sub], rel_tol=1e-12) for sub in weights)
            for seg, _ in top_k_segmentations(word, table, 5):
                assert math.isclose(
                    segmentation_likelihood(word, seg, table), segmentation_likelihood(word, seg, other), rel_tol=1e-12
                )


def test_a_table_read_from_a_file_without_key_prefixes_composes_exactly():
    text = '#\t{"prob_eps": 0.05}\nabc\t0.25\nb\t0.5\ncabca\t0.125\n'
    table = read_subwords(io.StringIO(text))
    assert table.prob_eps == 0.05
    assert table.stems is not table.probs
    for word in ("abcab", "cabcabc", "xabcx"):
        assert_matches_oracles(word, table, k=4)
    assert {"abc", "cabca"} <= set(subword_weights("cabcabc", table))


# --- partition and likelihood ----------------------------------------------

def test_partition_examples():
    assert partition("ab", UNIT) == 2.0
    assert partition("a", SubwordTable({"a": 0.3})) == 0.3
    table3 = SubwordTable({s: 1.0 for s in ["a", "b", "c", "ab", "bc", "abc"]})
    assert partition("abc", table3) == 4.0
    assert oracles.brute_partition("abc", table3) == 4.0


def test_segmentation_likelihood_examples():
    assert segmentation_likelihood("ab", ("a", "b"), UNIT) == 0.5
    assert segmentation_likelihood("a", ("a",), SubwordTable({"a": 0.4})) == 1.0


def test_segmentation_likelihoods_sum_to_one():
    rng = random.Random(11)
    for _ in range(20):
        word, table = random_instance(rng, max_len=8)
        total = sum(
            segmentation_likelihood(word, seg, table)
            for seg in enumerate_all_segmentations(word)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_segmentation_that_does_not_spell_word_rejected():
    with pytest.raises(ValueError):
        segmentation_likelihood("ab", ("a", "c"), UNIT)
    with pytest.raises(ValueError):
        segmentation_likelihood("ab", ("ab", "b"), UNIT)
    with pytest.raises(ValueError):
        segmentation_likelihood("ab", (), UNIT)


# --- k-best segmentations ---------------------------------------------------

def test_top_k_single_path_word():
    assert top_k_segmentations("a", SubwordTable({"a": 0.2}), 3) == [(("a",), 1.0)]


def test_top_k_tie_breaks_by_fewer_segments():
    result = top_k_segmentations("ab", UNIT, 2)
    assert [seg for seg, _ in result] == [("ab",), ("a", "b")]
    assert [prob for _, prob in result] == pytest.approx([0.5, 0.5])


def test_top_k_matches_exhaustive_ranking():
    rng = random.Random(99)
    for _ in range(25):
        word, table = random_instance(rng, max_len=8)
        k = rng.randint(1, 6)
        got = top_k_segmentations(word, table, k)
        expected = oracles.brute_ranked_segmentations(word, table)[:k]
        assert [seg for seg, _ in got] == [seg for seg, _ in expected]
        for (_, got_p), (_, exp_p) in zip(got, expected):
            assert got_p == pytest.approx(exp_p, abs=1e-9)


def test_top_k_includes_zero_probability_paths_when_needed():
    table = SubwordTable({"z": 0.01})
    result = top_k_segmentations("zz", table, 5)
    assert [seg for seg, _ in result] == [("z", "z"), ("zz",)]
    assert result[0][1] == pytest.approx(1.0)
    assert result[1][1] == 0.0


def test_top_k_pads_a_long_word_with_the_fewest_segment_zero_probability_paths():
    word = "z" * 1000
    result = top_k_segmentations(word, SubwordTable({}, prob_eps=0.01), 5)
    assert [seg for seg, _ in result] == [
        ("z",) * 1000, (word,), ("z", "z" * 999), ("zz", "z" * 998), ("zzz", "z" * 997),
    ]
    assert result[0][1] == pytest.approx(1.0)
    assert [prob for _, prob in result[1:]] == [0.0] * 4


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**31))
def test_top_k_on_a_long_word_is_ranked_and_starts_with_the_viterbi_path(seed):
    rng = random.Random(seed)
    word = "".join(rng.choice("abcd") for _ in range(200))
    n = len(word)
    probs = {}
    for i in range(n):
        for j in range(i + 1, min(n, i + 6) + 1):
            if rng.random() < 0.6:
                probs[word[i:j]] = rng.uniform(1e-3, 1.0)
    table = SubwordTable(probs, prob_eps=0.01)
    result = top_k_segmentations(word, table, 5)

    segs = [seg for seg, _ in result]
    assert len(set(segs)) == len(segs) == 5
    assert all("".join(seg) == word for seg in segs)
    keys = []
    for seg in segs:
        neg_log = 0.0
        for segment in seg:
            neg_log -= math.log(table.lookup(segment))
        keys.append((neg_log, len(seg), seg))
    assert keys == sorted(keys)
    for seg, prob in result:
        assert prob == pytest.approx(segmentation_likelihood(word, seg, table), rel=1e-12)

    # max-product path, scored by summed -log probabilities
    score, back = [0.0] + [math.inf] * n, [0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(j):
            prob = table.lookup(word[i:j])
            if prob and score[i] - math.log(prob) < score[j]:
                score[j], back[j] = score[i] - math.log(prob), i
    path, j = [], n
    while j:
        path.append(word[back[j]:j])
        j = back[j]
    assert segs[0] == tuple(reversed(path))


def test_top_k_pads_with_every_zero_probability_segmentation_once_in_key_order():
    table = SubwordTable({"a": 0.3, "ab": 0.2, "ba": 0.1, "bab": 0.05}, prob_eps=0.01)
    for n in range(1, 8):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            every = enumerate_all_segmentations(word)
            result = top_k_segmentations(word, table, 2 ** (n - 1))
            segs = [seg for seg, _ in result]
            assert sorted(segs) == sorted(every)
            positive = [seg for seg, prob in result if prob > 0.0]
            assert segs[:len(positive)] == positive
            zero = segs[len(positive):]
            assert all(math.prod(map(table.lookup, seg)) == 0.0 for seg in zero)
            assert zero == sorted(zero, key=lambda seg: (len(seg), seg))


def test_top_k_memory_stays_with_the_spans_still_reached():
    rng = random.Random(18)
    letters = "abcdefghij"
    freqs = {"".join(rng.choices(letters, k=rng.randint(2, 10))): rng.randint(1, 100) for _ in range(3000)}
    table = build_table(freqs, max_len=4)
    table.stems  # built once, before tracing
    word = "".join(rng.choices(letters, k=400))
    tracemalloc.start()
    try:
        result = top_k_segmentations(word, table, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 50
    assert peak < 4 * 2**20


def test_top_k_rejects_bad_k():
    with pytest.raises(ValueError):
        top_k_segmentations("ab", UNIT, 0)


def test_top_k_bounds_k():
    assert len(top_k_segmentations("a" * 8, UNIT, MAX_TOP_K)) == MAX_TOP_K
    with pytest.raises(ValueError, match=str(MAX_TOP_K)):
        top_k_segmentations("ab", UNIT, MAX_TOP_K + 1)


# --- exhaustive enumeration -------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_all_segmentations("a")) == 1
    assert len(enumerate_all_segmentations("ab")) == 2
    assert len(enumerate_all_segmentations("abcd")) == 8


def test_enumeration_matches_bitmask_oracle():
    word = "abcde"
    got = set(enumerate_all_segmentations(word))
    assert got == set(oracles.all_segmentations(word))
    assert all("".join(seg) == word for seg in got)


def test_enumeration_orders_by_segment_count_then_segments():
    got = enumerate_all_segmentations("abcde")
    assert got == sorted(got, key=lambda seg: (len(seg), seg))
    assert got[:2] == [("abcde",), ("a", "bcde")]


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_all_segmentations("a" * (MAX_ENUM_LEN + 1))


def test_partition_equals_two_to_the_n_minus_one_for_unit_probs():
    for n in range(1, 8):
        word = "a" * n
        probs = {word[i:j]: 1.0 for i in range(n) for j in range(i + 1, n + 1)}
        assert partition(word, SubwordTable(probs)) == 2.0 ** (n - 1)
        assert math.log2(len(enumerate_all_segmentations(word))) == n - 1
