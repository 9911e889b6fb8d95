import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbos.evaluation import Affix
from pbos.io_formats import (
    FormatError,
    read_affix_instances,
    read_affix_inventory,
    read_embeddings,
    read_freqs,
    read_similarity_pairs,
    read_subwords,
    write_embeddings,
    write_subwords,
)
from pbos.subword_stats import SubwordTable, build_table


# --- embeddings ---------------------------------------------------------------

def test_read_minimal_embedding_file():
    result = read_embeddings(io.StringIO("1 2\nab 0.5 -1.0\n"))
    assert result.dim == 2
    assert result.duplicates_skipped == 0
    assert np.array_equal(result.entries["ab"], np.array([0.5, -1.0]))


def test_read_embeddings_header_count_mismatch():
    with pytest.raises(FormatError):
        read_embeddings(io.StringIO("2 2\nab 0.5 -1.0\n"))
    with pytest.raises(FormatError):
        read_embeddings(io.StringIO("1 2\na 1 2\nb 3 4\n"))


def test_read_embeddings_structural_errors():
    with pytest.raises(FormatError):
        read_embeddings(io.StringIO("nonsense\n"))
    with pytest.raises(FormatError):
        read_embeddings(io.StringIO("1 2\nab 0.5\n"))  # wrong dimension
    with pytest.raises(FormatError):
        read_embeddings(io.StringIO("1 2\nab 0.5 oops\n"))  # non-numeric
    with pytest.raises(FormatError):
        read_embeddings(io.StringIO("0 2\n"))


def test_read_embeddings_keeps_first_duplicate():
    result = read_embeddings(io.StringIO("2 1\nab 1\nab 2\n"))
    assert result.duplicates_skipped == 1
    assert result.entries["ab"][0] == 1.0



@pytest.mark.parametrize("component", ["inf", "-inf", "nan", "1e999"])
def test_read_embeddings_rejects_non_finite_components(component):
    text = f"2 2\nab 0.5 -1.0\nba 1.0 {component}\n"
    with pytest.raises(FormatError, match=r"record 2 \('ba'\)"):
        read_embeddings(io.StringIO(text))

def test_write_embeddings_errors():
    with pytest.raises(ValueError):
        write_embeddings({}, io.StringIO())
    with pytest.raises(ValueError):
        write_embeddings({"a b": np.zeros(2)}, io.StringIO())
    with pytest.raises(ValueError):
        write_embeddings(
            {"a": np.zeros(2), "b": np.zeros(3)}, io.StringIO()
        )


def test_write_then_read_round_trip():
    entries = {"alpha": np.array([0.123456789, -7.0]), "beta": np.array([1e-5, 2.5])}
    buffer = io.StringIO()
    write_embeddings(entries, buffer)
    result = read_embeddings(io.StringIO(buffer.getvalue()))
    for token, vector in entries.items():
        assert result.entries[token] == pytest.approx(vector, rel=1e-9)


@settings(max_examples=50)
@given(
    entries=st.dictionaries(
        st.text(alphabet="abcdefg", min_size=1, max_size=6),
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=10,
    )
)
@example(entries={"a": [0.0, 0.0, 1.7859212317859214e16]})
def test_round_trip_is_byte_stable(entries):
    arrays = {token: np.array(values) for token, values in entries.items()}
    first = io.StringIO()
    write_embeddings(arrays, first)
    loaded = read_embeddings(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_embeddings(loaded.entries, second)
    assert first.getvalue() == second.getvalue()
    # nine significant digits are off by at most half a unit in the ninth
    # digit (5e-9 relative); parsing that decimal adds one float rounding
    for token, vector in arrays.items():
        got = loaded.entries[token]
        for a, b in zip(vector, got):
            if a != 0.0:
                assert abs(b - a) <= 5e-9 * abs(a) + math.ulp(b)
            else:
                assert b == 0.0


# --- frequency lists -------------------------------------------------------------

def test_read_freqs_google_style_line():
    entries, skipped = read_freqs(io.StringIO("the,23135851162\n"))
    assert entries == [("the", 23135851162)]
    assert skipped == 0


def test_read_freqs_tab_separated():
    entries, skipped = read_freqs(io.StringIO("word\t12\n"))
    assert entries == [("word", 12)]
    assert skipped == 0


def test_read_freqs_skips_blank_lines_silently():
    entries, skipped = read_freqs(io.StringIO("\n\na,1\n   \n"))
    assert entries == [("a", 1)]
    assert skipped == 0


def test_read_freqs_counts_malformed_lines():
    stream = io.StringIO("word,notanumber\nok,3\nnocount\nneg,-2\n,5\n")
    entries, skipped = read_freqs(stream)
    assert entries == [("ok", 3)]
    assert skipped == 4


def test_read_freqs_word_may_contain_commas():
    entries, skipped = read_freqs(io.StringIO("a,b,7\n"))
    assert entries == [("a,b", 7)]
    assert skipped == 0


# --- subword tables ----------------------------------------------------------------

def test_subword_table_round_trip_is_exact():
    table = build_table({"banana": 3, "band": 7}, max_len=4, prob_eps=0.02)
    buffer = io.StringIO()
    write_subwords(table, buffer)
    loaded = read_subwords(io.StringIO(buffer.getvalue()))
    assert loaded.probs == table.probs
    assert loaded.prob_eps == table.prob_eps
    assert loaded.max_len == table.max_len
    assert loaded.total_mass == table.total_mass


def test_subwords_starting_with_a_hash_round_trip():
    probs = {"#a": 0.5, "#": 0.25, "# prob_eps x": 0.125, "#max_len": 0.5, "# total_mass ": 0.5}
    table = SubwordTable(probs, prob_eps=0.02)
    buffer = io.StringIO()
    write_subwords(table, buffer)
    loaded = read_subwords(io.StringIO(buffer.getvalue()))
    assert loaded == table


@pytest.mark.parametrize("subword", ["# prob_eps", "# max_len", "# total_mass"])
def test_write_subwords_rejects_a_subword_that_reads_as_a_header(subword):
    with pytest.raises(ValueError, match="header"):
        write_subwords(SubwordTable({subword: 0.5, "a": 0.5}), io.StringIO())


def test_read_subwords_without_headers_takes_the_table_defaults():
    assert read_subwords(io.StringIO("a\t0.5\n")) == SubwordTable({"a": 0.5})


def test_read_subwords_rejects_empty_and_malformed():
    with pytest.raises(FormatError):
        read_subwords(io.StringIO(""))
    with pytest.raises(FormatError):
        read_subwords(io.StringIO("nocolumns\n"))



@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "0.0", "-0.25", "1.5", "x"])
def test_read_subwords_rejects_bad_probabilities_by_line(value):
    text = f"# prob_eps\t0.01\na\t0.5\nb\t{value}\n"
    with pytest.raises(FormatError, match="line 3"):
        read_subwords(io.StringIO(text))


@pytest.mark.parametrize("value", ["0", "1", "1.0", "-0.5", "nan", "inf"])
def test_read_subwords_rejects_prob_eps_outside_open_unit_interval(value):
    text = f"a\t0.5\n# prob_eps\t{value}\n"
    with pytest.raises(FormatError, match="line 2"):
        read_subwords(io.StringIO(text))


@pytest.mark.parametrize("value, message", [
    ("x", "not an integer"), ("2.0", "not an integer"), ("0", "max_len"), ("-3", "max_len"),
])
def test_read_subwords_rejects_a_bad_max_len_by_line(value, message):
    text = f"a\t0.5\n# max_len\t{value}\n"
    with pytest.raises(FormatError, match=f"line 2: {message}"):
        read_subwords(io.StringIO(text))


def test_read_subwords_accepts_probability_one():
    assert read_subwords(io.StringIO("a\t1.0\n")).probs == {"a": 1.0}

# --- benchmark files -----------------------------------------------------------------

def test_read_similarity_pairs_skips_comments_and_counts_malformed():
    stream = io.StringIO(
        "# a comment\nking\tqueen\t8.5\n\nbad line\nw1\tw2\tnotascore\n"
    )
    pairs, skipped = read_similarity_pairs(stream)
    assert len(pairs) == 1
    assert pairs[0].word1 == "king"
    assert pairs[0].human_score == 8.5
    assert skipped == 2


def test_read_affix_inventory():
    stream = io.StringIO("re\tprefix\nable\tsuffix\nbad\tneither\nre\tsuffix\n")
    inventory, skipped = read_affix_inventory(stream)
    assert inventory == [Affix("re", "prefix"), Affix("able", "suffix")]
    assert skipped == 2  # bad kind, duplicate text


def test_read_affix_instances_resolves_labels():
    inventory = [Affix("re", "prefix"), Affix("able", "suffix")]
    stream = io.StringIO("replaceable\table\nrename\tre\nmystery\tunknown\n")
    instances, skipped = read_affix_instances(stream, inventory)
    assert [i.word for i in instances] == ["replaceable", "rename"]
    assert instances[0].gold == Affix("able", "suffix")
    assert skipped == 1
