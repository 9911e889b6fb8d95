import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbos.subword_stats import SubwordTable, build_table, merge_freqs


def test_two_char_word_counts_every_substring():
    table = build_table({"ab": 1})
    assert table.probs == pytest.approx({"a": 1 / 3, "b": 1 / 3, "ab": 1 / 3})
    assert table.total_mass == 3.0


def test_repeated_occurrences_count_separately():
    table = build_table({"banana": 1})
    # "ana" occurs twice; a length-6 word has 21 substring occurrences
    assert table.probs["ana"] == pytest.approx(2 / 21)
    assert table.total_mass == 21.0


def test_single_char_word():
    table = build_table({"a": 5})
    assert table.probs == {"a": 1.0}


def test_lookup_stored_fallback_and_absent():
    table = build_table({"ab": 1})
    assert table.lookup("ab") == pytest.approx(1 / 3)
    assert table.lookup("z") == 0.01
    assert table.lookup("zz") == 0.0


def test_lookup_empty_string_rejected():
    table = build_table({"ab": 1})
    with pytest.raises(ValueError):
        table.lookup("")


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_table({})
    with pytest.raises(ValueError):
        build_table({"": 1})
    with pytest.raises(ValueError):
        build_table({"ab": -1})
    with pytest.raises(ValueError):
        SubwordTable({"ab": 1.0}, prob_eps=0.0)
    with pytest.raises(ValueError):
        SubwordTable({"ab": 1.0}, prob_eps=1.0)
    with pytest.raises(ValueError):
        build_table({"ab": 1}, max_len=0)
    with pytest.raises(ValueError):
        build_table({"ab": 0})  # all counts zero


def test_build_rejects_a_count_total_beyond_float_range():
    with pytest.raises(ValueError, match="too large for a float"):
        build_table({"ab": 10**400})


@pytest.mark.parametrize("max_len", [0, -3, 2.0, True, "3"])
def test_table_rejects_a_max_len_that_is_not_a_positive_int(max_len):
    with pytest.raises(ValueError, match="max_len"):
        SubwordTable({"a": 1.0}, max_len=max_len)


@pytest.mark.parametrize("prob", [math.nan, math.inf, 0.0, -0.5, 1.5])
def test_table_rejects_a_probability_outside_the_unit_interval(prob):
    # unchecked, such a value makes the lattice weights NaN, divides by
    # zero or gives wrong weights
    with pytest.raises(ValueError, match="'ab' has probability"):
        SubwordTable({"a": 0.5, "b": 0.5, "ab": prob})


def test_build_names_a_max_len_below_one():
    with pytest.raises(ValueError, match="max_len"):
        build_table({"ab": 1}, max_len=0)


def test_zero_count_words_are_ignored():
    table = build_table({"ab": 1, "xy": 0})
    assert "x" not in table.probs
    assert table.probs["a"] == pytest.approx(1 / 3)


def test_max_len_one_keeps_single_characters_only():
    table = build_table({"abc": 2}, max_len=1)
    assert set(table.probs) == {"a", "b", "c"}
    assert table.max_len == 1


def test_duplicates_merge_by_summation():
    merged = build_table([("ab", 1), ("ab", 2)])
    assert merged.probs == build_table({"ab": 3}).probs
    assert merge_freqs([("x", 1), ("x", 4), ("y", 2)]) == {"x": 5, "y": 2}


def test_occurrence_total_is_quadratic_in_length():
    for word in ["a", "abc", "abcdefg"]:
        n = len(word)
        table = build_table({word: 1})
        assert table.total_mass == n * (n + 1) / 2


def test_stored_probabilities_sum_to_one():
    table = build_table({"banana": 3, "band": 7, "an": 1})
    assert sum(table.probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(0.0 < p <= 1.0 for p in table.probs.values())


def test_every_input_substring_looks_up_positive():
    words = {"banana": 3, "band": 7}
    table = build_table(words, max_len=3)
    for word in words:
        for i in range(len(word)):
            for j in range(i + 1, min(len(word), i + 3) + 1):
                assert table.lookup(word[i:j]) > 0.0


@settings(max_examples=50)
@given(
    words=st.dictionaries(
        st.text(alphabet="abcde", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=8,
    ),
    scale=st.integers(min_value=2, max_value=1000),
)
def test_probabilities_invariant_under_count_scaling(words, scale):
    base = build_table(words)
    scaled = build_table({w: c * scale for w, c in words.items()})
    assert set(base.probs) == set(scaled.probs)
    for sub, prob in base.probs.items():
        assert scaled.probs[sub] == pytest.approx(prob, abs=1e-12)
    assert sum(base.probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_table_is_usable_with_synthetic_probabilities():
    # direct construction (as tests and callers may do) bypasses counting
    table = SubwordTable({"a": 1.0, "b": 1.0}, prob_eps=0.25)
    assert table.lookup("a") == 1.0
    assert table.lookup("c") == 0.25
    assert "a" in table.probs and "c" not in table.probs
    assert len(table) == 2


@pytest.mark.parametrize("fields", [
    {"prob_eps": "x"}, {"prob_eps": True}, {"prob_eps": None},
    {"total_mass": math.nan}, {"total_mass": -1.0}, {"total_mass": math.inf},
    {"total_mass": "3"}, {"total_mass": False},
])
def test_table_rejects_a_bad_scalar_field_with_value_error(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        SubwordTable({"a": 1.0}, **fields)
