import io
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbos.evaluation import Affix, AffixInstance, SimilarityPair
from pbos.io_formats import (
    FormatError,
    SubwordEmbeddings,
    read_affix_instances,
    read_affix_inventory,
    read_embeddings,
    read_freqs,
    read_similarity_pairs,
    read_subwords,
    read_words,
    table_settings,
    write_embeddings,
    write_subwords,
)
from pbos.lattice import MAX_WORD_LEN
from pbos.subword_stats import SubwordTable, build_table


# --- embeddings ---------------------------------------------------------------

def _store(vectors):
    """The store of a token -> vector mapping, built as (names, matrix)."""
    return SubwordEmbeddings(list(vectors), np.array(list(vectors.values()), dtype=np.float64))


def test_read_minimal_embedding_file():
    result, duplicates_skipped = read_embeddings(io.StringIO("1 2\nab 0.5 -1.0\n"))
    assert result.dim == 2
    assert duplicates_skipped == 0
    assert np.array_equal(result.vectors["ab"], np.array([0.5, -1.0]))


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


@pytest.mark.parametrize("header", ["1.5 2\n", "a 2\n"])
def test_read_embeddings_rejects_a_header_of_non_integers(header):
    with pytest.raises(FormatError, match="malformed embedding header"):
        read_embeddings(io.StringIO(header + "ab 0.5 -1.0\n"))


def test_read_embeddings_rejects_an_empty_token():
    with pytest.raises(FormatError, match="^record 2 has an empty token$"):
        read_embeddings(io.StringIO("2 2\nab 0.5 -1.0\n 0.5 -1.0\n"))


def test_read_embeddings_rejects_an_over_long_token_by_record():
    text = f"2 1\nab 0.5\n{'a' * (MAX_WORD_LEN + 1)} 0.5\n"
    with pytest.raises(ValueError, match=f"^record 2: word of length {MAX_WORD_LEN + 1} exceeds"):
        read_embeddings(io.StringIO(text))
    # a token the lattice takes reads
    assert "a" * MAX_WORD_LEN in read_embeddings(io.StringIO(f"1 1\n{'a' * MAX_WORD_LEN} 0.5\n"))[0].index


def test_read_embeddings_keeps_first_duplicate():
    result, duplicates_skipped = read_embeddings(io.StringIO("2 1\nab 1\nab 2\n"))
    assert duplicates_skipped == 1
    assert result.vectors["ab"][0] == 1.0



@pytest.mark.parametrize("component", ["inf", "-inf", "nan", "1e999"])
def test_read_embeddings_rejects_non_finite_components(component):
    text = f"2 2\nab 0.5 -1.0\nba 1.0 {component}\n"
    with pytest.raises(FormatError, match=r"record 2 \('ba'\)"):
        read_embeddings(io.StringIO(text))

def test_write_embeddings_errors():
    with pytest.raises(ValueError):
        write_embeddings(SubwordEmbeddings([], np.zeros((0, 2))), io.StringIO())
    with pytest.raises(ValueError):
        write_embeddings(_store({"a b": np.zeros(2)}), io.StringIO())
    with pytest.raises(ValueError):  # vectors of two lengths form no store
        write_embeddings(
            _store({"a": np.zeros(2), "b": np.zeros(3)}), io.StringIO()
        )


def test_write_embeddings_formats_like_format_9g_per_value():
    values = [-0.0, 0.0, 5e-324, 2.5e-310, -1e300, 1e300, 3.0, -12.0, 1e16, 0.1, 1.0 / 3.0, 123456789.5]
    vectors = {"a": np.array(values), "b": np.array(values[::-1]) * -1.0}
    buffer = io.StringIO()
    write_embeddings(_store(vectors), buffer)
    expected = f"2 {len(values)}\n" + "".join(
        token + "".join(" " + format(value, ".9g") for value in vector) + "\n"
        for token, vector in vectors.items()
    )
    assert buffer.getvalue() == expected
    assert " -0 " in expected and " 4.94065646e-324 " in expected and " 1e+300 " in expected


def test_write_then_read_round_trip():
    entries = {"alpha": np.array([0.123456789, -7.0]), "beta": np.array([1e-5, 2.5])}
    buffer = io.StringIO()
    write_embeddings(_store(entries), buffer)
    result, _ = read_embeddings(io.StringIO(buffer.getvalue()))
    for token, vector in entries.items():
        assert result.vectors[token] == pytest.approx(vector, rel=1e-9)


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
    write_embeddings(_store(arrays), first)
    loaded, _ = read_embeddings(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_embeddings(loaded, second)
    assert first.getvalue() == second.getvalue()
    # nine significant digits are off by at most half a unit in the ninth
    # digit (5e-9 relative); parsing that decimal adds one float rounding
    for token, vector in arrays.items():
        got = loaded.vectors[token]
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


def test_read_freqs_lowercases_each_word_with_lowercase():
    entries, skipped = read_freqs(io.StringIO("The\t3\nthe,2\nBAD\n"), lowercase=True)
    assert entries == [("the", 3), ("the", 2)]
    assert skipped == 1


def test_read_freqs_rejects_an_over_long_word_by_line_after_lowercasing():
    word = "İ" + "a" * (MAX_WORD_LEN - 1)  # "İ" lowercases to two characters
    assert read_freqs(io.StringIO(f"{word}\t2\n"))[0] == [(word, 2)]
    with pytest.raises(ValueError, match=f"^line 3: word of length {MAX_WORD_LEN + 1} exceeds"):
        read_freqs(io.StringIO(f"a\t1\n\n{word}\t2\n"), lowercase=True)


def test_read_freqs_word_may_contain_commas():
    entries, skipped = read_freqs(io.StringIO("a,b,7\n"))
    assert entries == [("a,b", 7)]
    assert skipped == 0


# --- subword tables ----------------------------------------------------------------

def test_subword_table_round_trip_is_exact():
    table = replace(build_table({"banana": 3, "band": 7}, max_len=4), prob_eps=0.02)
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
def test_a_subword_named_like_a_table_setting_round_trips(subword):
    table = SubwordTable({subword: 0.5, "a": 0.5}, prob_eps=0.02, max_len=3)
    buffer = io.StringIO()
    write_subwords(table, buffer)
    assert buffer.getvalue().startswith('#\t{"prob_eps": 0.02, "max_len": 3, "total_mass": 0.0}\n')
    assert read_subwords(io.StringIO(buffer.getvalue())) == table


def test_read_subwords_without_headers_takes_the_table_defaults():
    assert read_subwords(io.StringIO("a\t0.5\n")) == SubwordTable({"a": 0.5})
    # a first line that holds a number holds a subword
    assert read_subwords(io.StringIO("#\t0.5\na\t0.5\n")) == SubwordTable({"#": 0.5, "a": 0.5})


def _settings_line(text):
    """The settings line holding the JSON object ``text``."""
    return f"#\t{text}\n"


def test_read_subwords_rejects_empty_and_malformed():
    with pytest.raises(FormatError):
        read_subwords(io.StringIO(""))
    with pytest.raises(FormatError):
        read_subwords(io.StringIO("nocolumns\n"))
    with pytest.raises(FormatError, match="line 1: "):
        read_subwords(io.StringIO(_settings_line('{"prob_eps": 0.5') + "a\t0.5\n"))
    with pytest.raises(FormatError, match="line 2: not a number"):
        read_subwords(io.StringIO("a\t0.5\n" + _settings_line('{"prob_eps": 0.5}')))
    with pytest.raises(FormatError, match="max_length"):
        read_subwords(io.StringIO(_settings_line('{"max_length": 3}') + "a\t0.5\n"))



@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "0.0", "-0.25", "1.5", "x"])
def test_read_subwords_rejects_bad_probabilities_by_line(value):
    text = _settings_line('{"prob_eps": 0.01}') + f"a\t0.5\nb\t{value}\n"
    message = "line 3: not a number" if value == "x" else f"subword 'b' has probability {float(value)!r}"
    with pytest.raises(FormatError, match=message):
        read_subwords(io.StringIO(text))


def _json_number(text):
    return text.replace("nan", "NaN").replace("inf", "Infinity")


@pytest.mark.parametrize("value", ["0", "1", "1.0", "-0.5", "nan", "inf"])
def test_read_subwords_rejects_prob_eps_outside_open_unit_interval(value):
    text = _settings_line(f'{{"prob_eps": {_json_number(value)}}}') + "a\t0.5\n"
    with pytest.raises(FormatError, match="prob_eps must be"):
        read_subwords(io.StringIO(text))


@pytest.mark.parametrize("value, message", [
    ("x", "line 1"), ("2.0", "max_len"), ("0", "max_len"), ("-3", "max_len"),
])
def test_read_subwords_rejects_a_bad_max_len_by_line(value, message):
    text = _settings_line(f'{{"max_len": {value}}}') + "a\t0.5\n"
    with pytest.raises(FormatError, match=message):
        read_subwords(io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_read_subwords_rejects_a_bad_total_mass_by_line(value):
    text = _settings_line(f'{{"total_mass": {_json_number(value)}}}') + "a\t0.5\n"
    with pytest.raises(FormatError, match="total_mass must be"):
        read_subwords(io.StringIO(text))


@pytest.mark.parametrize("subword", ["a\tb", "a\nb", "a\rb"])
def test_write_subwords_refuses_a_tab_or_newline_before_writing(subword):
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="subword contains a tab or newline") as raised:
        write_subwords(SubwordTable({"a": 0.5, subword: 0.25, "b": 0.125}), buffer)
    assert str(raised.value).endswith(repr(subword))
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("probs", [
    # equal values of different types, and np.float32(0.1), which numpy finds equal to 0.1
    {"a": 1, "b": 1.0, "c": True, "d": np.float64(1.0), "e": np.float32(0.5), "f": 0.5,
     "g": np.float32(0.1), "h": 0.1, "i": np.float64(0.1)},
    {f"w{i:03}": 1 / (i + 2) for i in range(300)},  # every value distinct
])
def test_write_subwords_writes_the_repr_of_each_float(probs):
    table = SubwordTable(probs, prob_eps=0.02, max_len=3, total_mass=7.0)
    buffer = io.StringIO()
    write_subwords(table, buffer)
    lines = [f"{subword}\t{float(probs[subword])!r}\n" for subword in sorted(probs)]
    assert buffer.getvalue() == f"#\t{json.dumps(table_settings(table))}\n" + "".join(lines)


def test_a_table_refuses_an_empty_subword():
    with pytest.raises(ValueError, match="^a subword must not be empty$"):
        SubwordTable({"": 0.5, "a": 0.5})


_PROBABILITIES = st.floats(0.0, 1.0, exclude_min=True)


# Read back as every command opens a file: with universal newlines.
@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(min_size=1), _PROBABILITIES | _PROBABILITIES.map(np.float64), min_size=1))
@example({"a\rb": 0.5})
@example({"a": np.float64(0.5), "b": np.float32(0.25), "c": True})
def test_write_subwords_writes_only_what_read_subwords_reads_back(probs):
    table = SubwordTable(probs)
    buffer = io.StringIO()
    try:
        write_subwords(table, buffer)
    except ValueError:
        assert buffer.getvalue() == ""
        return
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "subwords.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
        with open(path, encoding="utf-8") as fh:
            assert read_subwords(fh) == table


def test_read_subwords_skips_blank_lines():
    text = _settings_line('{"prob_eps": 0.25}') + "\na\t0.5\n\n\nb\t0.125\n"
    table = read_subwords(io.StringIO(text))
    assert (table.probs, table.prob_eps) == ({"a": 0.5, "b": 0.125}, 0.25)


def test_read_subwords_accepts_probability_one():
    assert read_subwords(io.StringIO("a\t1.0\n")).probs == {"a": 1.0}


@pytest.mark.parametrize("text, message", [
    ("a\t0.5\nb\t0.5\na\t0.25\n", "subword 'a' is listed twice"),
    (_settings_line('{"prob_eps": 0.01, "prob_eps": 0.02}') + "a\t0.5\n", "line 1: key 'prob_eps' is repeated"),
], ids=["subword", "header"])
def test_read_subwords_rejects_a_repeated_line(text, message):
    with pytest.raises(FormatError, match=message):
        read_subwords(io.StringIO(text))

# --- the line rule -------------------------------------------------------------------

def _line_shapes(line):
    """Lines 1-5 in a reader's own line format: \\r\\n endings, a line of
    spaces, a tab, a # line and a last record."""
    return f"{line('ab')}\r\n  \r\n\t\n#{line('cd')}\n{line('ef')}\r\n"


@pytest.mark.parametrize("read, line, kept, guarded", [
    (read_freqs, "{},1".format, ([("ab", 1), ("#cd", 1), ("ef", 1)], 0), True),
    (read_similarity_pairs, "{}\tb\t1.5".format,
     ([SimilarityPair("ab", "b", 1.5), SimilarityPair("ef", "b", 1.5)], 0), True),
    (read_affix_inventory, "{}\tprefix".format, ([Affix("ab", "prefix"), Affix("ef", "prefix")], 0), False),
    (lambda fh: read_affix_instances(fh, [Affix("re", "prefix")]), "{}\tre".format,
     ([AffixInstance("ab", Affix("re", "prefix")), AffixInstance("ef", Affix("re", "prefix"))], 0), True),
    (read_words, "{}".format, ["ab", "#cd", "ef"], True),
], ids=["freqs", "pairs", "inventory", "instances", "words"])
def test_line_readers_share_one_line_rule(read, line, kept, guarded):
    # a # line is data in the frequency list and the word list only
    assert read(io.StringIO(_line_shapes(line))) == kept
    text = _line_shapes(line) + line("x" * (MAX_WORD_LEN + 1)) + "\n"
    if guarded:
        with pytest.raises(ValueError, match=f"^line 6: word of length {MAX_WORD_LEN + 1} exceeds"):
            read(io.StringIO(text))
    else:  # an affix is matched against subwords, never composed
        assert len(read(io.StringIO(text))[0]) == 3


def test_read_words_gives_distinct_stripped_words_in_first_seen_order():
    assert read_words(io.StringIO(" b \na\n\nb\n\ta\r\n#c\n")) == ["b", "a", "#c"]
    with pytest.raises(ValueError, match="^empty query word list$"):
        read_words(io.StringIO("\n \t\n"))
    with pytest.raises(ValueError, match="^token is empty or contains whitespace: 'a b'$"):
        read_words(io.StringIO("a\na b\n"))


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


def test_read_similarity_pairs_skips_and_counts_non_finite_scores():
    stream = io.StringIO("a\tb\tnan\nc\td\tinf\ne\tf\t-inf\ng\th\t2.5\n")
    pairs, skipped = read_similarity_pairs(stream)
    assert [(pair.word1, pair.human_score) for pair in pairs] == [("g", 2.5)]
    assert skipped == 3


def test_read_affix_inventory():
    stream = io.StringIO("re\tprefix\nable\tsuffix\nbad\tneither\nre\tsuffix\n")
    inventory, skipped = read_affix_inventory(stream)
    assert inventory == [Affix("re", "prefix"), Affix("able", "suffix")]
    assert skipped == 2  # bad kind, duplicate text


def test_affix_readers_skip_blank_and_comment_lines_without_counting_them():
    inventory, skipped = read_affix_inventory(io.StringIO("# affixes\n\nre\tprefix\n   \n  # more\nly\tsuffix\n"))
    assert (inventory, skipped) == ([Affix("re", "prefix"), Affix("ly", "suffix")], 0)
    instances, skipped = read_affix_instances(io.StringIO("# words\nredo\tre\n\n\t\n # x\tre\nkindly\tly\n"), inventory)
    assert ([i.word for i in instances], skipped) == (["redo", "kindly"], 0)


def test_word_readers_reject_an_over_long_word_by_line():
    word = "a" * (MAX_WORD_LEN + 1)
    with pytest.raises(ValueError, match=f"^line 2: word of length {MAX_WORD_LEN + 1} exceeds"):
        read_affix_instances(io.StringIO(f"redo\tre\n{word}\tre\n"), [Affix("re", "prefix")])
    with pytest.raises(ValueError, match=f"^line 2: word of length {MAX_WORD_LEN + 1} exceeds"):
        read_similarity_pairs(io.StringIO(f"a\tb\t1\n{word}\tb\t2\n"))
    # word_similarity composes the lowercase, which "İ" makes longer
    with pytest.raises(ValueError, match=f"^line 1: word of length {MAX_WORD_LEN + 1} exceeds"):
        read_similarity_pairs(io.StringIO(f"a\t{'İ' + 'a' * (MAX_WORD_LEN - 1)}\t2\n"))


def test_read_affix_instances_resolves_labels():
    inventory = [Affix("re", "prefix"), Affix("able", "suffix")]
    stream = io.StringIO("replaceable\table\nrename\tre\nmystery\tunknown\n")
    instances, skipped = read_affix_instances(stream, inventory)
    assert [i.word for i in instances] == ["replaceable", "rename"]
    assert instances[0].gold == Affix("able", "suffix")
    assert skipped == 1
